"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test still waiting on a forked batch
    producer after 60 s. A forked child does not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError("still waiting after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
