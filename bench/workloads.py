"""The four workloads: instance lists, timed sessions and their checks.

Each workload function takes the freshly imported package (``lib``), the
bench seed and a working directory, and returns the workload's fixed
instance list.
Sessions call the package through module attributes at call time, so the
tracer's wrappers see every call.  ``normalize`` turns a session's raw
result into plain data (ints and strings) outside the timed region; that
data is digested on every pass and cross-checked once by ``reference.py``
and the package's brute-force oracle.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import gen
import reference
from gen import Instance

# Brute-force oracle limits, the same scale as the acceptance suite: the
# residue search runs on graphs of up to 10 vertices for components up to
# 2000, enumeration for at most 2000 candidate splines.  Larger graphs,
# the frontier rows among them once they finish, rely on the closure check.
BRUTE_MAX_N = 10
BRUTE_MAX_VALUE = 2000
ENUM_MAX_CANDIDATES = 2000


def interleave(rows: list, copies: list) -> list:
    """rows with the copies spread evenly among them, so that the copies of
    a tail rung meet the machine's fast and slow stretches across the whole
    pass instead of one stretch of it."""
    out = []
    it = iter(copies)
    for i, row in enumerate(rows):
        out.append(row)
        if (i + 1) * len(copies) // len(rows) > i * len(copies) // len(rows):
            out.append(next(it))
    return out


def _plain(e):
    return e.value if e.descriptor.kind == "integers" else str(e)


def _spec(lib, seed, n, density):
    return lib.oracle.InstanceSpec(seed=seed, n=n, edge_density=density, label_bound=50)


def _zz_build(lib, data):
    return lambda: lib.oracle.random_instance(data["spec"])


def _enumeration_estimate(m, bound):
    total = 1
    for label in m:
        total *= 2 * (bound // label) + 1
    return total


def oracle_problems(lib, data, basis=None) -> List[str]:
    """Residue search on small components; exhaustive enumeration of small
    splines, each of which must lie in the span of the basis."""
    if len(data["m"]) > BRUTE_MAX_N:
        return []
    g = lib.oracle.random_instance(data["spec"])
    components = reference.int_key(data["m"], data["edges"])[0]
    out = []
    for i, value in enumerate(components):
        if value <= BRUTE_MAX_VALUE:
            found = lib.oracle.brute_minimal_leading_entry(g, i, 4 * value)
            if found != value:
                out.append(f"brute minimal leading entry {found} at {i + 1}, closure {value}")
    if basis is None:
        return out
    bound = 2 * max(data["m"])
    while _enumeration_estimate(data["m"], bound) > ENUM_MAX_CANDIDATES and bound > 1:
        bound //= 2
    for s in lib.oracle.enumerate_small_splines(g, bound):
        if not reference.int_in_span(basis, [c.value for c in s.components]):
            out.append(f"enumerated spline {s} is not in the span of the basis")
            break
    return out


# ---------------------------------------------------------------------------
# zz_session: the full PID session on many small criterion-6 instances
# ---------------------------------------------------------------------------

# Instances per vertex count n = 1..6 (300 in all).  With equal counts the
# median would sit exactly between the n=3 and n=4 classes and jump with
# the gap between them; 70 at n=4 puts it inside one class.
ZZ_SESSION_SIZES = {1: 40, 2: 40, 3: 50, 4: 70, 5: 50, 6: 50}
ZZ_SESSION_COMBOS = 3


def zz_session(lib, seed: int, workdir: Path) -> List[Instance]:
    rng = random.Random(f"zz_session:{seed}")
    sizes = [n for n, count in ZZ_SESSION_SIZES.items() for _ in range(count)]
    out = []
    for k, n in enumerate(sizes):
        density = (0.25, 0.4, 0.55)[k % 3]
        data = gen.zz_data(lib, _spec(lib, rng.randrange(2**31), n, density))
        data["combos"] = [
            [rng.randint(-9, 9) for _ in range(n)] for _ in range(ZZ_SESSION_COMBOS)
        ]
        out.append(
            Instance(
                f"zz-n{n}-d{density}-{k}",
                "seeded",
                data,
                _zz_build(lib, data),
                _session_solver(lib, data["combos"]),
                _session_normalize,
                lambda plain, data=data: reference.check_zz_session(data, plain)
                + oracle_problems(lib, data, plain["basis"]),
            )
        )
    return out


def _session_solver(lib, combos):
    def solve(g):
        zz = lib.rings.ZZ
        basis = lib.pid.flow_up_basis(g)
        report = lib.pid.verify_flow_up(g, basis)
        matrix = basis.matrix()
        cert = lib.splines.certify_basis(g, matrix)
        expressed = []
        for combo in combos:
            target = lib.splines.Spline(g, [zz.zero] * g.n)
            for c, cls in zip(combo, basis.classes):
                target = target + cls.spline.scale(zz.from_int(c))
            expressed.append(lib.splines.express_in_basis(g, matrix, target))
        components = lib.splines.qhat_components(g)
        return basis, report, cert, expressed, components, lib.splines.h_factor(g), lib.splines.classical_qg(g)

    return solve


def _session_normalize(g, raw):
    basis, report, cert, expressed, components, h, qg = raw
    return {
        "basis": _basis_plain(basis),
        "verified": report.ok,
        "verdict": cert.verdict.name,
        "det": _plain(cert.determinant),
        "qhat": _plain(cert.qhat),
        "unit": None if cert.unit is None else _plain(cert.unit),
        "express": [[_plain(c) for c in cs] for cs in expressed],
        "components": [_plain(c) for c in components],
        "h": _plain(h),
        "qg": _plain(qg),
    }


def _basis_plain(basis):
    return [[_plain(c) for c in cls.spline.components] for cls in basis.classes]


# ---------------------------------------------------------------------------
# flowup_growth: flow-up synthesis on small ZZ and QQ[x], pathological rows
# ---------------------------------------------------------------------------

# (ring, n, density, count): seeded classes, all small.  From n = 8 up a
# few percent of random ZZ instances take 1.5 s to minutes, and which ones
# a seed draws would decide the throughput and the tail.  So the Hermite
# growth beyond n = 6 is left to the fixed and frontier rows.  Cost within
# a class varies by about half its median from instance to instance, so
# the median of all rows is steady only inside one large class: 70 cheaper
# n=4 rows lie below ZZ n=5 d0.3, which holds the median.
FLOWUP_CLASSES = [
    ("ZZ", 4, 0.3, 35), ("ZZ", 4, 0.5, 35), ("ZZ", 5, 0.3, 82), ("ZZ", 5, 0.5, 10), ("QQ[x]", 3, 0.3, 10),
    ("ZZ", 6, 0.3, 10), ("ZZ", 6, 0.5, 20),
]
# The tail rung: ZZ seed 5 n=7 d0.5, slower than every seeded row but a
# rare one, run FLOWUP_TAIL_COPIES times per pass on fresh graphs, spread
# through the pass.  With 217 rows the tail (p95, between the 12th and
# 11th slowest row) lies among its copies, whichever seeded rows a seed
# draws.
FLOWUP_TAIL_RUNG = ("ZZ", 5, 7, 0.5)
FLOWUP_TAIL_COPIES = 12
# ROADMAP pathologies: ZZ seed 5 n=11 d0.3 (36 s) and n=12 d0.5 (> 60 s),
# and a QQ[x] n=8 row from this generator with 12 edges (> 15 s).
FLOWUP_FRONTIER = [("ZZ", 5, 11, 0.3), ("ZZ", 5, 12, 0.5), ("QQ[x]", 5, 8, 0.3)]


def flowup_growth(lib, seed: int, workdir: Path) -> List[Instance]:
    rng = random.Random(f"flowup_growth:{seed}")
    rows = [
        (f"{ring}-n{n}-d{d}-{k}", "seeded", ring, rng.randrange(2**31), n, d)
        for ring, n, d, count in FLOWUP_CLASSES
        for k in range(count)
    ]
    ring, s, n, d = FLOWUP_TAIL_RUNG
    rows = interleave(
        rows, [(f"rung-{ring}-s{s}-n{n}-d{d}-{k}", "fixed", ring, s, n, d) for k in range(FLOWUP_TAIL_COPIES)]
    )
    rows += [
        (f"frontier-{ring}-s{s}-n{n}-d{d}", "frontier", ring, s, n, d)
        for ring, s, n, d in FLOWUP_FRONTIER
    ]
    out = []
    for name, group, ring, s, n, d in rows:
        if ring == "ZZ":
            data = gen.zz_data(lib, _spec(lib, s, n, d))
            build = _zz_build(lib, data)
            check = lambda plain, data=data: (
                reference.check_zz_flow_up(data, plain) + oracle_problems(lib, data, plain["basis"])
            )
        else:
            data = gen.qx_data(random.Random(f"qx:{s}"), n, d)
            build = lambda data=data: gen.qx_graph(lib, data)
            check = lambda plain, data=data: reference.check_qx_flow_up(data, plain)
        out.append(Instance(name, group, data, build, _flowup_solve(lib), _flowup_normalize, check))
    return out


def _flowup_solve(lib):
    def solve(g):
        basis = lib.pid.flow_up_basis(g)
        return basis, lib.pid.verify_flow_up(g, basis)

    return solve


def _flowup_normalize(g, raw):
    basis, report = raw
    return {"basis": _basis_plain(basis), "verified": report.ok}


# ---------------------------------------------------------------------------
# keyelement_ladder: the pruned trail search, no Hermite work at all
# ---------------------------------------------------------------------------

# Seeded graphs stay small: from n = 8 up, a few percent of random
# instances take 0.5-3 s, and which ones a seed draws would decide the
# throughput and the tail.  The larger rungs are fixed rows below.  Cost
# within a class varies by about half its median, so the median of all
# rows is steady only inside one large class: the 75 cheaper n=5 rows lie
# below n=6 d0.3, which holds the median.
KEY_CLASSES = [(5, 0.3, 40), (6, 0.3, 80), (7, 0.3, 16), (5, 0.5, 35), (6, 0.5, 16)]
# The seed-5 and seed-6 ladder at n = 10, 11, 12: the same for every bench
# seed, each row under half the limit today.  One rung, seed 6 n=10 d0.5,
# runs KEY_TAIL_COPIES times per pass on fresh graphs, spread through the
# pass.  Its cost lies below the five heaviest rungs and above every other
# row, so with 208 rows the
# tail (p95, between the 12th and 11th slowest row) falls in the middle of
# its copies: which seeded rows a seed draws, and noise on a single
# attempt, do not move it.
KEY_FIXED = [(s, n, d) for s in (5, 6) for n in (10, 11, 12) for d in (0.3, 0.5)]
KEY_TAIL_RUNG = (6, 10, 0.5)
KEY_TAIL_COPIES = 8
# ROADMAP pathologies: n=24 d0.5 hits the trail cap after 14 s, n=14 d0.3
# runs for more than 20 s.
KEY_FRONTIER = [(5, 24, 0.5), (5, 14, 0.3)]


def keyelement_ladder(lib, seed: int, workdir: Path) -> List[Instance]:
    rng = random.Random(f"keyelement_ladder:{seed}")
    rows = [
        (f"ZZ-n{n}-d{d}-{k}", "seeded", rng.randrange(2**31), n, d)
        for n, d, count in KEY_CLASSES
        for k in range(count)
    ]
    rows += [(f"ladder-s{s}-n{n}-d{d}", "fixed", s, n, d) for s, n, d in KEY_FIXED if (s, n, d) != KEY_TAIL_RUNG]
    s, n, d = KEY_TAIL_RUNG
    rows = interleave(rows, [(f"ladder-s{s}-n{n}-d{d}-{k}", "fixed", s, n, d) for k in range(KEY_TAIL_COPIES)])
    rows += [(f"frontier-s{s}-n{n}-d{d}", "frontier", s, n, d) for s, n, d in KEY_FRONTIER]
    out = []
    for name, group, s, n, d in rows:
        data = gen.zz_data(lib, _spec(lib, s, n, d))
        out.append(
            Instance(
                name,
                group,
                data,
                _zz_build(lib, data),
                _key_solve(lib),
                _key_normalize,
                lambda plain, data=data: reference.check_zz_key(data, plain)
                + oracle_problems(lib, data),
            )
        )
    return out


def _key_solve(lib):
    def solve(g):
        s = lib.splines
        return s.qhat_components(g), s.qhat(g), s.classical_qg(g), s.h_factor(g)

    return solve


def _key_normalize(g, raw):
    components, qhat, qg, h = raw
    return {
        "components": [_plain(c) for c in components],
        "qhat": _plain(qhat),
        "qg": _plain(qg),
        "h": _plain(h),
    }


# ---------------------------------------------------------------------------
# poly_cli: the in-process CLI on ZZ[x,y], QQ[x,y] and the bundled data
# ---------------------------------------------------------------------------

# (base ring, n, extra edges beyond a spanning tree, copies) for qhat;
# (base ring, n, extra edges, copies, witness matrices certified per copy)
# for certify; (base ring, n, extra edges, copies) for express.  Seeded
# rows are many and light; the 60 ZZ[x,y] n=4 copies are one dense cluster
# of similar cost that holds the median.  The heavier calls are fixed rows
# drawn from one generator seed for every bench seed, so that which heavy
# instances a seed draws decides neither the throughput nor the tail.  QQ[x,y] witness
# sets stop at n=3: one 4x4 Bareiss determinant over QQ[x,y] takes
# 0.5-0.9 s today, while ZZ[x,y] reaches n=5 in 0.2-0.7 s.
POLY_QHAT = [("ZZ", 3, 2, 8), ("ZZ", 4, 2, 60), ("QQ", 3, 2, 6)]
POLY_WITNESS = [("ZZ", 3, 1, 4, 2)]
POLY_EXPRESS = [("ZZ", 3, 1, 6)]
POLY_FIXED_QHAT = [("QQ", 4, 2, 4), ("ZZ", 5, 3, 4), ("QQ", 5, 3, 3)]
POLY_FIXED_WITNESS = [("ZZ", 4, 1, 2, 2), ("ZZ", 5, 0, 1, 1), ("QQ", 3, 1, 2, 2)]
POLY_FIXED_EXPRESS = [("ZZ", 4, 1, 1)]
# The tail rung: one fixed ZZ[x,y] n=4 witness-set certify, whose cost is
# the 4x4 Bareiss determinant.  It is slower than all but about five rows,
# and runs POLY_TAIL_COPIES more times, spread through the pass, one attempt
# each (the copies are its repeats), so that with 130 rows the tail (p90,
# between the 14th and 13th slowest row) is the middle of its copies.
POLY_TAIL_RUNG = "certify-witness-ZZxy-n4-fixed1.0"
POLY_TAIL_COPIES = 10


def _cli_solve(lib):
    def solve(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, out.getvalue()

    return solve


def _cli_normalize(argv, raw):
    code, out = raw
    return {"code": code, "out": out}


def _poly_ring(doc_ring):
    kind = doc_ring["kind"]
    if kind == "integers":
        return reference.SymRing("ZZ", [])
    if kind == "rationals":
        return reference.SymRing("QQ", [])
    return reference.SymRing("ZZ" if doc_ring.get("base", "integers") == "integers" else "QQ", doc_ring["variables"])


def _sym_instance(path):
    """(ring, vertex labels, edges) of an instance file, read with sympy."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    ring = _poly_ring(doc["ring"])
    index = {v["name"]: i for i, v in enumerate(doc["vertices"])}
    m, edges = reference.poly_graph(
        ring,
        [v["label"] for v in doc["vertices"]],
        [(index[e["u"]], index[e["v"]], e["label"]) for e in doc.get("edges", [])],
    )
    return ring, m, edges


def _sym_columns(ring, path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [[ring.parse(t) for t in spline] for spline in doc["splines"]]


def _check_qhat(path):
    def check(plain):
        ring, m, edges = _sym_instance(path)
        return reference.check_cli_qhat(ring, m, edges, plain["code"], plain["out"])

    return check


def _check_certify(path, splines_path, extra: Callable[[], List[str]] = lambda: []):
    def check(plain):
        ring, m, edges = _sym_instance(path)
        columns = _sym_columns(ring, splines_path)
        return extra() + reference.check_cli_certify(
            ring, m, edges, columns, plain["code"], plain["out"]
        )

    return check


def _check_express(path, splines_path, target_path, expected_code):
    def check(plain):
        ring, _, _ = _sym_instance(path)
        columns = _sym_columns(ring, splines_path)
        target = _sym_columns(ring, target_path)[0]
        problems = reference.check_cli_express(ring, columns, target, plain["code"], plain["out"])
        if plain["code"] != expected_code:
            problems.append(f"express exit code {plain['code']}, expected {expected_code}")
        return problems

    return check


def _check_examples(plain) -> List[str]:
    last = plain["out"].strip().splitlines()[-1:] or [""]
    done, _, total = last[0].partition(" ")[0].partition("/")
    if plain["code"] != 0 or not total or done != total:
        return [f"examples exit code {plain['code']}: {last[0]!r}"]
    return []


def _witness_matches_library(lib, path, splines_path, index):
    """The generated set is splines.coprime_witness_matrices(g)[index]."""

    def check():
        g = lib.cli.load_instance(path)
        expected = lib.splines.coprime_witness_matrices(g)[index]
        got = lib.cli.load_spline_set(splines_path, g)
        same = [c.components for c in expected.columns] == [c.components for c in got]
        return [] if same else [f"witness set {index} differs from coprime_witness_matrices"]

    return check


def poly_cli(lib, seed: int, workdir: Path) -> List[Instance]:
    rng = random.Random(f"poly_cli:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    data_dir = Path(lib.cli.__file__).resolve().parent / "data"
    solve = _cli_solve(lib)
    out: List[Instance] = []

    def add(name, group, argv, check):
        out.append(Instance(name, group, {"argv": argv}, lambda: argv, solve, _cli_normalize, check))

    def write_instance(tag, data):
        return gen.write_json(workdir / f"{tag}.json", gen.instance_json(data))

    def copies(table):
        return [(row, k) for row in table for k in range(row[3])]

    def qhat_rows(table, rng, group):
        for (base, n, extra, _), k in copies(table):
            tag = f"qhat-{base}xy-n{n}-{group}{k}"
            path = write_instance(tag, gen.poly_data(rng, base, n, extra, coprime=False))
            add(tag, group, ["qhat", "--classical", "--json", path], _check_qhat(path))

    def witness_rows(table, rng, group):
        for (base, n, extra, _, sets), k in copies(table):
            tag = f"witness-{base}xy-n{n}-{group}{k}"
            data = gen.poly_data(rng, base, n, extra, coprime=True)
            path = write_instance(tag, data)
            for index in rng.sample(range(n + len(data["edges"])), sets):
                splines_path = gen.write_json(
                    workdir / f"{tag}.{index}.json", {"splines": gen.witness_columns(data, index)}
                )
                add(
                    f"certify-{tag}.{index}",
                    group,
                    ["certify", "--json", path, "--splines", splines_path],
                    _check_certify(path, splines_path, _witness_matches_library(lib, path, splines_path, index)),
                )

    def express_rows(table, rng, group):
        for (base, n, extra, _), k in copies(table):
            tag = f"express-{base}xy-n{n}-{group}{k}"
            data = gen.poly_data(rng, base, n, extra, coprime=True)
            path = write_instance(tag, data)
            columns = gen.witness_columns(data, rng.randrange(n))
            coeffs = [rng.randint(-5, 5) for _ in range(n)]
            target = ["+".join(f"({c})*({col[r]})" for c, col in zip(coeffs, columns)) for r in range(n)]
            splines_path = gen.write_json(workdir / f"{tag}-basis.json", {"splines": columns})
            target_path = gen.write_json(workdir / f"{tag}-target.json", {"splines": [target]})
            add(
                tag,
                group,
                ["express", path, "--splines", splines_path, "--target", target_path],
                _check_express(path, splines_path, target_path, 0),
            )

    fixed = random.Random("poly_cli:fixed")
    qhat_rows(POLY_QHAT, rng, "seeded")
    qhat_rows(POLY_FIXED_QHAT, fixed, "fixed")
    witness_rows(POLY_WITNESS, rng, "seeded")
    witness_rows(POLY_FIXED_WITNESS, fixed, "fixed")
    express_rows(POLY_EXPRESS, rng, "seeded")
    express_rows(POLY_FIXED_EXPRESS, fixed, "fixed")

    def bundled(name):
        return str(data_dir / name)

    for name in ("t4", "c3_rational", "c3_integer", "p2"):
        path = bundled(f"{name}.json")
        add(f"qhat-{name}", "fixed", ["qhat", "--classical", "--json", path], _check_qhat(path))
    for inst, basis in (("t4", "t4_basis_b"), ("t4", "t4_set_a"), ("c3_rational", "c3_rational_basis"), ("p2", "p2_basis")):
        path, splines_path = bundled(f"{inst}.json"), bundled(f"{basis}.json")
        add(f"certify-{basis}", "fixed", ["certify", "--json", path, "--splines", splines_path], _check_certify(path, splines_path))
    for basis, code in (("t4_basis_b", 0), ("t4_set_a", 1)):
        path, splines_path, target = bundled("t4.json"), bundled(f"{basis}.json"), bundled("t4_target_f.json")
        add(
            f"express-{basis}",
            "fixed",
            ["express", path, "--splines", splines_path, "--target", target],
            _check_express(path, splines_path, target, code),
        )
    add("examples", "fixed", ["examples"], _check_examples)
    rung = next(inst for inst in out if inst.name == POLY_TAIL_RUNG)
    return interleave(
        out, [dataclasses.replace(rung, name=f"{rung.name}-copy{k}", attempts=1) for k in range(POLY_TAIL_COPIES)]
    )


# name -> (workload function, per-instance time limit in calibrated seconds, attempts
# per instance and pass).  Each limit is at least twice the slowest seeded
# or fixed row measured today; only the frontier rows are expected to reach
# it.  Instances are repeated back to back to filter bursts of machine
# noise; the copies of a tail rung run once each.
WORKLOADS: Dict[str, Tuple[Callable, float, int]] = {
    "zz_session": (zz_session, 1.5, 3),
    "flowup_growth": (flowup_growth, 0.75, 3),
    "keyelement_ladder": (keyelement_ladder, 1.5, 3),
    "poly_cli": (poly_cli, 3.0, 3),
}
