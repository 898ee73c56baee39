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

To replay every case through the installed `egs` console script instead,
one subprocess per case, with the bundled data files read through the
installed package, run

    python tests/test_golden.py --installed

It prints each case whose stdout or exit code differs and exits 1 if any
does.

test_replay_needs_no_third_party_package replays every case once more in
one `python -S` child, site-packages off and src on PYTHONPATH, and
requires every case to match with no sympy, hypothesis or pytest imported.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
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


def replay_installed():
    """Run every case through the installed egs console script and print
    each mismatch; the number of mismatches."""
    mismatches = []
    for case in CASES:
        name = case["name"]
        run = subprocess.run(
            ["egs", *map(_resolve, case["argv"])], capture_output=True, encoding="utf-8"
        )
        if run.returncode != case["exit"]:
            mismatches.append(f"{name}: exit {run.returncode}, expected {case['exit']}")
        elif run.stdout != (GOLDEN / f"{name}.out").read_text(encoding="utf-8"):
            mismatches.append(f"{name}: stdout differs from {name}.out")
    for line in mismatches:
        print(f"mismatch: {line}")
    print(f"{len(CASES) - len(mismatches)} of {len(CASES)} golden cases match")
    return len(mismatches)


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


# replays every case in a child with site-packages off, then prints the
# number of cases, the mismatched names, the test packages imported and
# whether pytest could be found at all
_SITE_FREE_REPLAY = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import test_golden as t
bad = [c["name"] for c in t.CASES
       if t.replay(c) != (c["exit"], (t.GOLDEN / (c["name"] + ".out")).read_text(encoding="utf-8"))]
imported = {name.partition(".")[0] for name in sys.modules}
print(len(t.CASES), bad, sorted(imported & {"sympy", "hypothesis", "pytest"}),
      importlib.util.find_spec("pytest") is not None)
"""


def test_replay_needs_no_third_party_package():
    # pyproject.toml promises no runtime dependencies, but tier-1 runs with
    # the test extras installed, so a stray import of one would pass there
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", _SITE_FREE_REPLAY, str(GOLDEN.parent)],
        env=env, capture_output=True, encoding="utf-8",
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"{len(CASES)} [] [] False\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif sys.argv[1:] == ["--installed"]:
        sys.exit(bool(replay_installed()))
    else:
        sys.exit(__doc__)
