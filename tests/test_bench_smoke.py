"""Smoke test of the benchmark's use of the package.

For every workload in bench/workloads.py, builds seed 3's instance list with
the egsplines modules this test session has already imported, solves the
first three seeded rows and the first fixed row (where there is one) under
the bench's tracer, and cross-checks each answer.  A change that removes or
renames a package name or attribute the benchmark reaches into fails here.
"""

import sys
import types
from pathlib import Path

import pytest

pytest.importorskip("sympy")

import egsplines
from egsplines import cli, graph, oracle, pid, rings, splines

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import workloads
    from tracing import Tracer
finally:
    sys.path.remove(str(BENCH))

LIB = types.SimpleNamespace(
    egsplines=egsplines, rings=rings, graph=graph, splines=splines, pid=pid, cli=cli, oracle=oracle
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_rows_solve_and_check(name, tmp_path):
    build = workloads.WORKLOADS[name][0]
    instances = build(LIB, 3, tmp_path)
    seeded = [inst for inst in instances if inst.group == "seeded"][:3]
    fixed = [inst for inst in instances if inst.group == "fixed"][:1]  # zz_session has none
    assert len(seeded) == 3
    tracer = Tracer(LIB)
    tracer.install()
    try:
        for inst in seeded + fixed:
            arg = inst.build()
            raw = inst.solve(arg)
            assert inst.check(inst.normalize(arg, raw)) == [], inst.name
    finally:
        tracer.uninstall()
    assert tracer.metric("rings.mul", "calls") > 0
