"""Command-line front end.

Subcommands: qhat, certify, flowup, express, oracle, examples.  Instances
and spline sets are UTF-8 JSON files (see README for the schemas); spline
components are listed v first-to-last and converted to the internal matrix
convention.

Exit codes (stable contract):
  0  success / certified
  1  refuted, not in span, or a failed check
  2  parse error (JSON schema, expressions, dimension mismatch)
  3  graph validation error
  4  retired, never emitted (formerly: trail cap exceeded)
  5  inconclusive certificate
  6  flow-up synthesis requested over a non-PID ring
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import oracle, pid, rings, splines
from .graph import GraphValidationError, LabeledGraph
from .rings import ParseError, RingDescriptor, RingElement, UnsupportedRingError
from .splines import Spline, SplineMatrix, Verdict

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INCONCLUSIVE = 5
EXIT_NOT_PID = 6

_VERDICT_NAMES = {
    Verdict.CERTIFIED: "certified",
    Verdict.REFUTED_NOT_SPLINES: "refuted_not_splines",
    Verdict.REFUTED_DEPENDENT: "refuted_dependent",
    Verdict.REFUTED_BY_COPRIME_CONVERSE: "refuted_by_coprime_converse",
    Verdict.INCONCLUSIVE: "inconclusive",
}


class CliInputError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _ring_from_json(doc) -> RingDescriptor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CliInputError("ring must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "integers":
            return rings.ZZ
        if kind == "rationals":
            return rings.QQ
        if kind == "polynomial":
            variables = doc.get("variables")
            base = doc.get("base", "integers")
            if not isinstance(variables, list) or not variables:
                raise CliInputError("polynomial ring needs a nonempty 'variables' list")
            base_ring = {"integers": rings.ZZ, "rationals": rings.QQ}.get(base)
            if base_ring is None:
                raise CliInputError(f"unknown base {base!r}")
            return rings.polynomial_ring(*variables, base=base_ring)
    except ValueError as exc:
        raise CliInputError(f"bad ring: {exc}")
    raise CliInputError(f"unknown ring kind {kind!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}")


def load_instance(path: str) -> LabeledGraph:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliInputError(f"{path}: instance file must be a JSON object")
    ring = _ring_from_json(doc.get("ring"))
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, list) or not vertices:
        raise CliInputError(f"{path}: 'vertices' must be a nonempty list")
    names: List[str] = []
    labels: List[RingElement] = []
    for entry in vertices:
        if not isinstance(entry, dict) or "name" not in entry or "label" not in entry:
            raise CliInputError(f"{path}: each vertex needs 'name' and 'label'")
        names.append(str(entry["name"]))
        labels.append(_parse_expr(entry["label"], ring, path))
    if len(set(names)) != len(names):
        raise CliInputError(f"{path}: vertex names must be unique")
    index = {name: i for i, name in enumerate(names)}
    built = []
    for entry in edges:
        if not isinstance(entry, dict) or not {"u", "v", "label"} <= set(entry):
            raise CliInputError(f"{path}: each edge needs 'u', 'v' and 'label'")
        for endpoint in (entry["u"], entry["v"]):
            if endpoint not in index:
                raise CliInputError(f"{path}: edge endpoint {endpoint!r} is not a declared vertex")
        built.append(
            (index[entry["u"]], index[entry["v"]], _parse_expr(entry["label"], ring, path))
        )
    graph = LabeledGraph(ring, labels, built, names)
    violations = graph.validate()
    if violations:
        raise CliInputError(
        f"{path}: invalid instance: " + "; ".join(violations), EXIT_VALIDATION
        )
    return graph


def _parse_expr(text, ring: RingDescriptor, path: str) -> RingElement:
    if not isinstance(text, str):
        raise CliInputError(f"{path}: labels must be expression strings")
    try:
        return rings.parse_element(text, ring)
    except ParseError as exc:
        raise CliInputError(f"{path}: bad expression {text!r}: {exc}")


def load_spline_set(path: str, g: LabeledGraph) -> List[Spline]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "splines" not in doc:
        raise CliInputError(f"{path}: expected an object with a 'splines' list")
    out = []
    for row in doc["splines"]:
        if not isinstance(row, list) or len(row) != g.n:
            raise CliInputError(
                f"{path}: each spline needs exactly {g.n} components "
                f"(one per vertex, in vertex order)"
            )
        out.append(Spline(g, [_parse_expr(text, g.ring, path) for text in row]))
    if not out:
        raise CliInputError(f"{path}: no splines given")
    return out


def _spline_strings(s: Spline) -> List[str]:
    return [str(c) for c in s.components]


def _emit(doc: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_qhat(args) -> int:
    g = load_instance(args.instance)
    components = splines.qhat_components(g)
    key = splines.qhat(g)
    lines = [
        f"Q({g.vertex_name(i)}) = {components[i]}" for i in range(g.n)
    ]
    lines.append(f"Qhat = {key}")
    doc = {"components": [str(c) for c in components], "qhat": str(key)}
    if args.classical:
        qg = splines.classical_qg(g)
        h = splines.h_factor(g)
        lines.append(f"Q_G = {qg}")
        lines.append(f"H = {h}")
        doc["classical_qg"] = str(qg)
        doc["h_factor"] = str(h)
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_certify(args) -> int:
    g = load_instance(args.instance)
    columns = load_spline_set(args.splines, g)
    if len(columns) != g.n:
        raise CliInputError(
            f"need exactly {g.n} splines to certify, got {len(columns)}"
        )
    cert = splines.certify_basis(g, SplineMatrix(g, columns))
    name = _VERDICT_NAMES[cert.verdict]
    lines = [
        f"verdict: {name}",
        f"determinant: {cert.determinant}",
        f"qhat: {cert.qhat}",
    ]
    doc = {
        "verdict": name,
        "determinant": str(cert.determinant),
        "qhat": str(cert.qhat),
    }
    if cert.unit is not None:
        lines.append(f"unit: {cert.unit}")
        doc["unit"] = str(cert.unit)
    if cert.failing_columns:
        cols = ", ".join(str(i + 1) for i in cert.failing_columns)
        lines.append(f"non-spline columns: {cols}")
        doc["failing_columns"] = [i + 1 for i in cert.failing_columns]
    _emit(doc, args.json, lines)
    if cert.verdict is Verdict.CERTIFIED:
        return EXIT_OK
    if cert.verdict is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_REFUTED


def cmd_flowup(args) -> int:
    g = load_instance(args.instance)
    if not g.ring.is_pid:
        print(
            f"error: flow-up synthesis needs a PID ring (ZZ, QQ or QQ[x]); "
            f"{g.ring} is only a GCD domain, where a free spline module can "
            f"lack a flow-up basis entirely",
            file=sys.stderr,
        )
        return EXIT_NOT_PID
    basis = pid.flow_up_basis(g)
    report = pid.verify_flow_up(g, basis)
    determinant = splines.spline_determinant(basis.matrix())
    key = splines.qhat(g)
    unit = rings.associate_unit(determinant, key)
    lines = []
    for cls in basis.classes:
        lines.append(
            f"F({cls.index + 1}) = ({', '.join(_spline_strings(cls.spline))})"
        )
    lines.append(
        "leading terms: " + ", ".join(str(t) for t in basis.leading_terms())
    )
    lines.append(f"determinant: {determinant}")
    lines.append(f"qhat: {key}")
    lines.append(
        f"determinant = {unit} * qhat" if unit is not None else "determinant does not match qhat"
    )
    lines.append("verification: " + ("all checks passed" if report.ok else "FAILED"))
    for check in report.checks:
        if not check.ok:
            lines.append(f"  failed: {check.name} ({check.detail})")
    doc = {
        "splines": [_spline_strings(cls.spline) for cls in basis.classes],
        "leading_terms": [str(t) for t in basis.leading_terms()],
        "determinant": str(determinant),
        "qhat": str(key),
        "unit": None if unit is None else str(unit),
        "verified": report.ok,
    }
    _emit(doc, args.json, lines)
    return EXIT_OK if report.ok else EXIT_REFUTED


def cmd_express(args) -> int:
    g = load_instance(args.instance)
    columns = load_spline_set(args.splines, g)
    if len(columns) != g.n:
        raise CliInputError(
            f"need exactly {g.n} basis splines, got {len(columns)}"
        )
    targets = load_spline_set(args.target, g)
    if len(targets) != 1:
        raise CliInputError("the target file must contain exactly one spline")
    matrix = SplineMatrix(g, columns)
    try:
        coefficients = splines.express_in_basis(g, matrix, targets[0])
    except splines.NotInSpanError as exc:
        cols = ", ".join(str(i + 1) for i in exc.failed_indices)
        print(f"not in span: first failing column {exc.index + 1} (all: {cols})")
        return EXIT_REFUTED
    print("coefficients: " + ", ".join(str(c) for c in coefficients))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_instance(args.instance)
    if g.ring.kind != "integers":
        raise CliInputError("the oracle runs on integer instances only")
    formula = pid.minimal_leading_entries(g)
    ok = True
    for i in range(g.n):
        expected = formula[i].value
        bound = args.bound if args.bound is not None else 4 * expected
        got = oracle.brute_minimal_leading_entry(g, i, bound)
        if got is None:
            print(f"index {i + 1}: formula {expected}, brute search bound {bound} not reached")
            ok = ok and bound < expected
        else:
            match = got == expected
            ok = ok and match
            print(
                f"index {i + 1}: formula {expected}, brute minimum {got} "
                f"{'(agree)' if match else '(DISAGREE)'}"
            )
    basis = pid.flow_up_basis(g)
    matrix = basis.matrix()
    enum_bound = args.enum_bound
    if enum_bound is None:
        enum_bound = 2 * max(label.value for label in g.vertex_labels)
    small = oracle.enumerate_small_splines(g, enum_bound)
    failures = 0
    for s in small:
        try:
            splines.express_in_basis(g, matrix, s)
        except splines.NotInSpanError:
            failures += 1
    print(
        f"enumerated {len(small)} splines with components bounded by {enum_bound}; "
        f"{failures} failed to reconstruct against the flow-up basis"
    )
    ok = ok and failures == 0
    rng_seed = args.seed if args.seed is not None else 0
    import random as _random

    rng = _random.Random(rng_seed)
    sample_failures = 0
    for _ in range(20):
        coefficients = [rings.ZZ.from_int(rng.randint(-9, 9)) for _ in range(g.n)]
        combo = Spline(g, [g.ring.zero] * g.n)
        for c, cls in zip(coefficients, basis.classes):
            combo = combo + cls.spline.scale(c)
        recovered = splines.express_in_basis(g, matrix, combo)
        if list(recovered) != coefficients:
            sample_failures += 1
    print(f"20 random combinations reconstructed, {sample_failures} mismatches (seed {rng_seed})")
    ok = ok and sample_failures == 0
    key = splines.qhat(g)
    determinant = splines.spline_determinant(matrix)
    det_ok = rings.is_associate(determinant, key)
    print(f"flow-up determinant {'matches' if det_ok else 'DOES NOT match'} qhat up to sign")
    ok = ok and det_ok
    print("oracle: all checks passed" if ok else "oracle: FAILURES detected")
    return EXIT_OK if ok else EXIT_REFUTED


def _example_path(name: str) -> str:
    from importlib import resources

    return str(resources.files("egsplines").joinpath("data", name))


def cmd_examples(args) -> int:
    del args
    checks = []

    def check(name: str, fn) -> None:
        try:
            fn()
            checks.append((name, True, ""))
        except AssertionError as exc:
            checks.append((name, False, str(exc)))

    def t4_key_element():
        g = load_instance(_example_path("t4.json"))
        expected = rings.parse_element("x^4*y^4*(x+y)*(x^2+y)", g.ring)
        assert splines.qhat(g) == expected, "key element mismatch"

    def t4_basis_certifies():
        g = load_instance(_example_path("t4.json"))
        columns = load_spline_set(_example_path("t4_basis_b.json"), g)
        cert = splines.certify_basis(g, SplineMatrix(g, columns))
        assert cert.verdict is Verdict.CERTIFIED, f"verdict {cert.verdict}"
        assert cert.unit == -g.ring.one, f"unit {cert.unit}"

    def t4_flow_up_set_refuted():
        g = load_instance(_example_path("t4.json"))
        columns = load_spline_set(_example_path("t4_set_a.json"), g)
        cert = splines.certify_basis(g, SplineMatrix(g, columns))
        assert cert.verdict is Verdict.INCONCLUSIVE, f"verdict {cert.verdict}"
        target = load_spline_set(_example_path("t4_target_f.json"), g)[0]
        try:
            splines.express_in_basis(g, SplineMatrix(g, columns), target)
            raise AssertionError("expected NotInSpanError")
        except splines.NotInSpanError as exc:
            assert 1 in exc.failed_indices, "second column should fail"

    def c3_rational_certifies():
        g = load_instance(_example_path("c3_rational.json"))
        columns = load_spline_set(_example_path("c3_rational_basis.json"), g)
        cert = splines.certify_basis(g, SplineMatrix(g, columns))
        assert cert.verdict is Verdict.CERTIFIED, f"verdict {cert.verdict}"
        assert cert.unit == g.ring.from_int(2), f"unit {cert.unit}"

    def c3_integer_components():
        g = load_instance(_example_path("c3_integer.json"))
        values = [c.value for c in splines.qhat_components(g)]
        assert values == [4, 6, 45], f"components {values}"
        assert splines.qhat(g).value == 1080, "key element mismatch"
        for i, expected in enumerate(values):
            got = oracle.brute_minimal_leading_entry(g, i, 4 * expected)
            assert got == expected, f"brute {got} != formula {expected}"

    def p2_flow_up():
        g = load_instance(_example_path("p2.json"))
        basis = pid.flow_up_basis(g)
        terms = [t.value for t in basis.leading_terms()]
        assert terms == [2, 12], f"leading terms {terms}"
        det = splines.spline_determinant(basis.matrix())
        assert abs(det.value) == 24, f"determinant {det}"
        assert pid.verify_flow_up(g, basis).ok

    check("t4 key element", t4_key_element)
    check("t4 printed basis certifies with unit -1", t4_basis_certifies)
    check("t4 flow-up set refuted via span test", t4_flow_up_set_refuted)
    check("c3 rational basis certifies with unit 2", c3_rational_certifies)
    check("c3 integer components and brute-force agreement", c3_integer_components)
    check("p2 flow-up basis", p2_flow_up)

    failures = 0
    for name, ok, detail in checks:
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(checks) - failures}/{len(checks)} example checks passed")
    return EXIT_OK if failures == 0 else EXIT_REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egs",
        description="Exact toolkit for extending generalized spline modules "
        "on edge-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qhat", help="compute the key element of an instance")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.add_argument("--classical", action="store_true",
                   help="also print the all-ones key element and the H factor")
    p.set_defaults(fn=cmd_qhat)

    p = sub.add_parser("certify", help="run the determinant basis certificate")
    p.add_argument("instance")
    p.add_argument("--splines", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("flowup", help="synthesize and verify a flow-up basis (PID rings)")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_flowup)

    p = sub.add_parser("express", help="express a target spline in a candidate basis")
    p.add_argument("instance")
    p.add_argument("--splines", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(fn=cmd_express)

    p = sub.add_parser("oracle", help="brute-force cross-checks (integer instances)")
    p.add_argument("instance")
    p.add_argument("--bound", type=int, default=None,
                   help="search bound for minimal leading entries (default 4x formula)")
    p.add_argument("--enum-bound", type=int, default=None,
                   help="component bound for exhaustive spline enumeration")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the random reconstruction sample")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("examples", help="run the bundled example corpus")
    p.set_defaults(fn=cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PID


if __name__ == "__main__":
    sys.exit(main())
