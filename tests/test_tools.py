"""tools/compare_outputs.py: its CLI matrix stays in step with the CLI, and
it reports equal and failed runs."""

import importlib.util
from pathlib import Path

import pytest

from mvdetr.cli import _build_parser
from mvdetr.config import parse_config

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               REPO / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
MATRIX = compare_outputs.MATRIX


@pytest.mark.parametrize("index", range(len(MATRIX)),
                         ids=[f"{i}-{cmd[0]}" for i, cmd in enumerate(MATRIX)])
def test_matrix_command_parses(index):
    args = _build_parser().parse_args(list(MATRIX[index]))
    if hasattr(args, "overrides"):
        parse_config("", args.overrides)
    # every input path is an earlier command's output
    earlier = [cmd[cmd.index("--out") + 1] for cmd in MATRIX[:index]]
    for flag in ("data", "eval_data", "init", "checkpoint", "image"):
        path = getattr(args, flag, None)
        if path is not None and path != "scratch":
            assert any(path.startswith(out + "/") for out in earlier), path


def test_equal_trees_report_every_file_equal(monkeypatch, capsys):
    monkeypatch.setattr(compare_outputs, "MATRIX", (
        ("gen-data", "--count", "2", "--seed", "1", "--size", "48", "--out", "d"),))
    assert compare_outputs.main([str(REPO), str(REPO)]) == 0
    assert capsys.readouterr().out == "3 of 3 files equal\n"  # two images, a manifest


def test_failed_command_shows_its_stderr(monkeypatch, capsys):
    monkeypatch.setattr(compare_outputs, "MATRIX", (("gen-data", "--count", "0",
                                                     "--out", "d"),))
    assert compare_outputs.main([str(REPO), str(REPO)]) == 1
    err = capsys.readouterr().err
    assert "`mvdetr gen-data --count 0 --out d` exited 1" in err
    assert "usage error" in err
