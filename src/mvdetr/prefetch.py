"""One forked process that computes a loop's next batch while the loop runs
the current one.

`training.run_pretrain` has it build view pairs and frozen backbone inputs;
`metrics.evaluate_model` has it resize images and run the backbone. Both
fork it only when `overlaps()`: on one CPU the child's work would only take
turns with the parent's, and the fork's copy-on-write faults and the pipe
wake-ups would be pure cost.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback


def overlaps() -> bool:
    """Whether a producer can run beside its parent: this process may run
    on more than one CPU."""
    return len(os.sched_getaffinity(0)) > 1


class Producer:
    """One forked process that evaluates `work(*request)` for each request,
    in order.

    The parent keeps every choice of what to build (the shuffle, the batch
    bounds) and sends only the request; `work` must be a pure function of it
    and of what the parent held at the fork (images, frozen weights), so
    every bit is the one the parent would compute. A fork starts the child
    with those and every module's names already as the parent has them, at
    no import cost; a thread would contend with the parent for the
    interpreter lock.

    The child answers each request, in order, with `work`'s result or with
    the exception it hit, which `receive` raises again at that request. It
    ignores SIGINT, exits when its request pipe closes, and ends with
    `os._exit`, so no stdio or file buffer it inherited is written twice. A
    child that dies makes `request` or `receive` raise ChildProcessError
    naming its exit status. `close` reaps it; callers call it on every exit
    path.
    """

    def __init__(self, work):
        sys.stdout.flush()
        sys.stderr.flush()
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                # the parent's ends, or the child would never see end of file
                os.close(request_w)
                os.close(result_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                with open(request_r, "rb") as requests, open(result_w, "wb") as results:
                    _serve(work, requests, results)
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(result_w)
        self._requests = request_w
        self._results = open(result_r, "rb")

    def request(self, *args, last: bool = False) -> None:
        """Ask for `work(*args)`. After the `last` request the request pipe
        closes, so the child exits after its reply while the parent still
        runs the batch before, and `close` finds it gone."""
        try:
            os.write(self._requests, pickle.dumps(args))
        except BrokenPipeError:
            raise self._died() from None
        if last:
            self._close_requests()

    def receive(self):
        try:
            reply = pickle.load(self._results)
        except (EOFError, pickle.UnpicklingError):  # none, or cut short
            raise self._died() from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def close(self) -> None:
        """Close both pipes, which ends the child, and reap it."""
        self._close_requests()
        self._results.close()
        if self.pid is not None:
            self._reap()

    def _close_requests(self) -> None:
        if self._requests is not None:
            os.close(self._requests)
            self._requests = None

    def _died(self) -> ChildProcessError:
        return ChildProcessError(f"batch producer process {self.pid} {self._reap()}")

    def _reap(self) -> str:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def _serve(work, requests, results) -> None:
    """The producer's loop: one reply per request until end of file."""
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = work(*request)
        except Exception as e:  # raised again in the parent, at this request
            e.add_note("raised in the batch producer:\n"
                       + "".join(traceback.format_tb(e.__traceback__)))
            reply = e
        pickle.dump(reply, results, pickle.HIGHEST_PROTOCOL)
        results.flush()
