"""Every script under ``examples/`` runs to completion.

The examples are the first code a reader runs, and they call the public
API the way the README shows it; a change that breaks one fails here
rather than in a reader's terminal.  Each script runs in-process as
``__main__``, without command-line arguments, with its output captured.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent.parent / "examples").glob("*.py")
)


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
