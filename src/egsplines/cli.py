"""Command-line front end.

Subcommands: qhat, certify, flowup, express, oracle, examples.  Instances
and spline sets are UTF-8 JSON files; spline components are listed v
first-to-last and converted to the internal matrix convention.

Instance file:
  {"ring": {"kind": "integers"} | {"kind": "rationals"}
           | {"kind": "polynomial", "variables": ["x", ...],
              "base": "integers" (default) | "rationals"},
   "vertices": [{"name": "v1", "label": EXPR}, ...],    nonempty, unique names
   "edges": [{"u": "v1", "v": "v2", "label": EXPR}, ...]}    optional
Spline-set file (the output of flowup --json is one):
  {"splines": [[EXPR, ...], ...]}    one component per vertex, vertex order
EXPR is a string over integers, p/q (rational bases only), the ring's
variables, + - * ^ (exponent a nonnegative integer) and parentheses.
Each file parses each distinct EXPR text once, and its repeats share that
element (a witness set repeats lhat in n-1 columns).
Limits: a polynomial ring has at most 90 variables; parentheses and unary
minus signs nest at most 100 levels deep; an integer literal has at most
100,000 digits; a power a^k has at most 2^20 bits, estimated before it is
computed as k times the coefficient bits of a times the number of
monomials a^k can have.  Past a limit: exit 2.

Exit codes (stable contract):
  0  success / certified
  1  refuted, not in span, dependent basis splines (express, determinant 0),
     or a failed check
  2  parse error (JSON schema, expressions, dimension mismatch, a negative
     oracle --bound or --enum-bound)
  3  graph validation error
  4  retired, never emitted (formerly: trail cap exceeded)
  5  inconclusive certificate
  6  flow-up synthesis requested over a non-PID ring
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import List, Optional, Sequence

from . import oracle, pid, rings, splines
from .graph import LabeledGraph
from .rings import ParseError, RingDescriptor, RingElement, UnsupportedRingError
from .splines import Spline, SplineMatrix, Verdict

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INCONCLUSIVE = 5
EXIT_NOT_PID = 6

class CliInputError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _ring_from_json(doc) -> RingDescriptor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CliInputError("ring must be an object with a 'kind' field")
    variables, base = (), ""
    if doc["kind"] == "polynomial":
        variables = doc.get("variables")
        base = doc.get("base", "integers")
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise CliInputError("polynomial ring needs a 'variables' list of strings")
    try:
        return RingDescriptor(doc["kind"], variables, base)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"bad ring: {exc}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path} is not UTF-8 text: {exc}")
    except RecursionError:
        raise CliInputError(f"{path}: JSON nested too deeply")


def load_instance(path: str) -> LabeledGraph:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliInputError(f"{path}: instance file must be a JSON object")
    ring = _ring_from_json(doc.get("ring"))
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, list) or not vertices:
        raise CliInputError(f"{path}: 'vertices' must be a nonempty list")
    if not isinstance(edges, list):
        raise CliInputError(f"{path}: 'edges' must be a list")
    parse = _expression_parser(ring, path, "labels")
    names: List[str] = []
    labels: List[RingElement] = []
    for entry in vertices:
        if not isinstance(entry, dict) or "name" not in entry or "label" not in entry:
            raise CliInputError(f"{path}: each vertex needs 'name' and 'label'")
        names.append(str(entry["name"]))
        labels.append(parse(entry["label"]))
    if len(set(names)) != len(names):
        raise CliInputError(f"{path}: vertex names must be unique")
    index = {name: i for i, name in enumerate(names)}
    built = []
    for entry in edges:
        if not isinstance(entry, dict) or not {"u", "v", "label"} <= set(entry):
            raise CliInputError(f"{path}: each edge needs 'u', 'v' and 'label'")
        for endpoint in (entry["u"], entry["v"]):
            if not isinstance(endpoint, str) or endpoint not in index:
                raise CliInputError(f"{path}: edge endpoint {endpoint!r} is not a declared vertex")
        built.append((index[entry["u"]], index[entry["v"]], parse(entry["label"])))
    graph = LabeledGraph(ring, labels, built, names)
    violations = graph.validate()
    if violations:
        raise CliInputError(
        f"{path}: invalid instance: " + "; ".join(violations), EXIT_VALIDATION
        )
    return graph


def _expression_parser(ring: RingDescriptor, path: str, what: str):
    """The parser of one file's expressions, what naming them in errors.
    Elements are immutable, so a text met again returns the element parsed
    the first time; the table lives only as long as the returned function."""
    parsed = {}

    def parse(text) -> RingElement:
        if not isinstance(text, str):
            raise CliInputError(f"{path}: {what} must be expression strings")
        element = parsed.get(text)
        if element is None:
            try:
                element = parsed[text] = rings.parse_element(text, ring)
            except ParseError as exc:
                raise CliInputError(f"{path}: bad expression {text!r}: {exc}")
        return element

    return parse


def load_spline_set(path: str, g: LabeledGraph) -> List[Spline]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("splines"), list):
        raise CliInputError(f"{path}: expected an object with a 'splines' list")
    parse = _expression_parser(g.ring, path, "spline components")
    out = []
    for row in doc["splines"]:
        if not isinstance(row, list) or len(row) != g.n:
            raise CliInputError(
                f"{path}: each spline needs exactly {g.n} components "
                f"(one per vertex, in vertex order)"
            )
        out.append(Spline(g, [parse(text) for text in row]))
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
    key = splines.key_element(g)
    doc = {"components": [str(c) for c in key.components], "qhat": str(key.qhat)}
    lines = [f"Q({g.vertex_name(i)}) = {c}" for i, c in enumerate(doc["components"])]
    lines.append(f"Qhat = {doc['qhat']}")
    if args.classical:
        doc["classical_qg"] = str(key.classical_qg)
        doc["h_factor"] = str(key.h_factor)
        lines.append(f"Q_G = {doc['classical_qg']}")
        lines.append(f"H = {doc['h_factor']}")
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
    doc = {
        "verdict": cert.verdict.name.lower(),
        "determinant": str(cert.determinant),
        "qhat": str(cert.qhat),
    }
    if cert.unit is not None:
        doc["unit"] = str(cert.unit)
    lines = [f"{field}: {text}" for field, text in doc.items()]
    if cert.failing_columns:
        doc["failing_columns"] = [i + 1 for i in cert.failing_columns]
        lines.append("non-spline columns: " + ", ".join(map(str, doc["failing_columns"])))
    _emit(doc, args.json, lines)
    if cert.verdict is Verdict.CERTIFIED:
        return EXIT_OK
    if cert.verdict is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_REFUTED


def cmd_flowup(args) -> int:
    g = load_instance(args.instance)
    basis = pid.flow_up_basis(g)
    report = pid.verify_flow_up(g, basis)
    unit = report.unit
    doc = {
        "splines": [_spline_strings(cls.spline) for cls in basis.classes],
        "leading_terms": [str(t) for t in basis.leading_terms()],
        "determinant": str(report.determinant),
        "qhat": str(report.key),
        "unit": None if unit is None else str(unit),
        "verified": report.ok,
    }
    lines = [
        f"F({cls.index + 1}) = ({', '.join(row)})"
        for cls, row in zip(basis.classes, doc["splines"])
    ]
    lines.append("leading terms: " + ", ".join(doc["leading_terms"]))
    lines.append(f"determinant: {doc['determinant']}")
    lines.append(f"qhat: {doc['qhat']}")
    lines.append(
        f"determinant = {doc['unit']} * qhat" if unit is not None else "determinant does not match qhat"
    )
    lines.append("verification: " + ("all checks passed" if report.ok else "FAILED"))
    for check in report.checks:
        if not check.ok:
            lines.append(f"  failed: {check.name} ({check.detail})")
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
    except ZeroDivisionError:
        print("dependent: the basis splines are linearly dependent (determinant 0)")
        return EXIT_REFUTED
    print("coefficients: " + ", ".join(str(c) for c in coefficients))
    return EXIT_OK


def cmd_oracle(args) -> int:
    for flag, value in (("--bound", args.bound), ("--enum-bound", args.enum_bound)):
        if value is not None and value < 0:
            raise CliInputError(f"{flag} must be nonnegative, got {value}")
    g = load_instance(args.instance)
    if g.ring.kind != "integers":
        raise CliInputError("the oracle runs on integer instances only")
    formula = splines.qhat_components(g)
    ok = True
    for i in range(g.n):
        expected = formula[i].value
        bound = args.bound if args.bound is not None else 4 * expected
        got = oracle.brute_minimal_leading_entry(g, i, bound)
        if got is None:
            print(f"index {i + 1}: formula {formula[i]}, brute search bound {bound} not reached")
            ok = ok and bound < expected
        else:
            match = got == expected
            ok = ok and match
            print(
                f"index {i + 1}: formula {formula[i]}, brute minimum {got} "
                f"{'(agree)' if match else '(DISAGREE)'}"
            )
    basis = pid.flow_up_basis(g)
    matrix = basis.matrix()
    enum_bound = args.enum_bound
    if enum_bound is None:
        enum_bound = 2 * max(abs(label.value) for label in g.vertex_labels)
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
    rng = random.Random(rng_seed)
    sample_failures = 0
    for _ in range(20):
        coefficients = [rng.randint(-9, 9) for _ in range(g.n)]
        combo = Spline._raw(g, splines._combination(g, matrix, coefficients))
        recovered = splines.express_in_basis(g, matrix, combo)
        if [c.value for c in recovered] != coefficients:
            sample_failures += 1
    print(f"20 random combinations reconstructed, {sample_failures} mismatches (seed {rng_seed})")
    ok = ok and sample_failures == 0
    det_ok = rings.associate_unit(splines.spline_determinant(matrix), splines.qhat(g)) is not None
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
        report = pid.verify_flow_up(g, basis)
        assert abs(report.determinant.value) == 24, f"determinant {report.determinant}"
        assert report.ok

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The egs parser, built once per process and reused by every main call."""
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
                   help="nonnegative cap on the reported minimal leading entry: a larger "
                        "minimum prints 'bound not reached' (default 4x formula)")
    p.add_argument("--enum-bound", type=int, default=None,
                   help="nonnegative component bound for exhaustive spline enumeration")
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
    except UnsupportedRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PID


if __name__ == "__main__":
    sys.exit(main())
