"""Self-checks of the benchmark itself; exits 1 on the first failure.

    python3 bench/selfcheck.py

1. The same seed yields the same instance digests; another seed does not.
2. Every pass builds fresh LabeledGraph objects, so no pass can time
   cache hits left in a graph's trail cache by an earlier pass.
3. A deliberately corrupted result counts as failed and wrong: a wrong
   answer on every pass is caught by the independent cross-check, a wrong
   answer on one pass by the digest comparison.
4. A held-out seed runs like any other.

Each check uses the first few instances of a workload, so the whole script
takes a few seconds.
"""

from __future__ import annotations

import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 9001


def instances(lib, name, seed, count, workdir):
    build, limit, _ = workloads.WORKLOADS[name]
    return build(lib, seed, workdir)[:count], limit


def input_digest(insts):
    """Digest of every instance's data and of the files its CLI call reads."""
    parts = []
    for inst in insts:
        files = [Path(a).read_text() for a in inst.data.get("argv", []) if Path(a).is_file()]
        parts.append((inst.name, repr(inst.data), files))
    return run.digest(parts)


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = run.ROOT / ".bench_out" / "selfcheck"
    try:
        checks(run.import_fresh(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def checks(lib, workdir: Path) -> None:
    meter = run.Meter()
    for name in workloads.WORKLOADS:
        a = input_digest(instances(lib, name, 1, 10**6, workdir)[0])
        b = input_digest(instances(lib, name, 1, 10**6, workdir)[0])
        c = input_digest(instances(lib, name, 2, 10**6, workdir)[0])
        expect(a == b and a != c, f"{name}: seed 1 twice gives one digest, seed 2 another")

    insts, limit = instances(lib, "zz_session", 1, 12, workdir)
    built = []
    for inst in insts:
        original = inst.build
        inst.build = lambda original=original: built.append(original()) or built[-1]
    rows = [run.Row(inst) for inst in insts]
    run.run_pass(rows, limit, 1, meter)
    run.run_pass(rows, limit, 1, meter)
    first, second = built[: len(insts)], built[len(insts):]
    expect(
        all(a is not b for a in first for b in second),
        "zz_session: the second pass runs on graphs built for it",
    )

    insts, limit = instances(lib, "keyelement_ladder", 1, 12, workdir)
    rows = [run.Row(inst) for inst in insts]
    original_h = lib.splines.h_factor
    lib.splines.h_factor = lambda g: original_h(g) * lib.rings.ZZ.from_int(2)
    try:
        run.run_pass(rows, limit, 1, meter)
    finally:
        lib.splines.h_factor = original_h
    run.cross_check(rows)
    expect(
        all(not row.ok_in(0) and row.wrong_in(0) for row in rows),
        "keyelement_ladder: an H factor doubled on every pass is failed and wrong",
    )

    rows = [run.Row(inst) for inst in insts]
    run.run_pass(rows, limit, 1, meter)
    lib.splines.h_factor = lambda g: original_h(g) * lib.rings.ZZ.from_int(2)
    try:
        run.run_pass(rows, limit, 1, meter)
    finally:
        lib.splines.h_factor = original_h
    run.cross_check(rows)
    expect(
        all(row.ok_in(0) and not row.ok_in(1) and row.wrong_in(1) for row in rows),
        "keyelement_ladder: an H factor doubled on the second pass only fails that pass",
    )

    for name in workloads.WORKLOADS:
        insts, limit = instances(lib, name, HELD_OUT_SEED, 3, workdir)
        rows = [run.Row(inst) for inst in insts]
        run.run_pass(rows, limit, 1, meter)
        run.cross_check(rows)
        expect(all(row.ok_in(0) for row in rows), f"{name}: held-out seed {HELD_OUT_SEED} runs and checks")


if __name__ == "__main__":
    sys.exit(main())
