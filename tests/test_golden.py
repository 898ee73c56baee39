"""Byte-for-byte replay of `egs` on the bundled data.

tests/golden/cases.json lists each case: its name, its argv and its exit
code.  An argv entry ending in ".json" names a bundled data file, or, when
it starts with "golden/", an instance file under tests/golden/ (such as
"golden/qx_frontier.json").  The expected stdout of a case is
tests/golden/<name>.out.

When an output change is intended, rewrite the exit codes and the .out
files from the current code with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and review the diff of tests/golden/ before committing it.  To add a case,
append it to cases.json (any exit code) and regenerate.
"""

import contextlib
import io
import json
import pathlib
import sys
from importlib import resources

from egsplines.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _resolve(arg):
    if arg.startswith("golden/"):
        return str(GOLDEN.parent / arg)
    if arg.endswith(".json"):
        return str(resources.files("egsplines").joinpath("data", arg))
    return arg


def replay(case):
    """(exit code, stdout) of one in-process `egs` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([_resolve(arg) for arg in case["argv"]])
    return code, out.getvalue()


def regenerate():
    for case in CASES:
        case["exit"], stdout = replay(case)
        (GOLDEN / f"{case['name']}.out").write_text(stdout, encoding="utf-8")
    lines = ",\n".join(json.dumps(case) for case in CASES)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def pytest_generate_tests(metafunc):  # a hook, so --regenerate runs without pytest
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=[case["name"] for case in CASES])


def test_golden_output(case):
    code, stdout = replay(case)
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert stdout == expected
    assert code == case["exit"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
