"""Independent cross-checks of the reference outputs.

Nothing here calls the trail search, the Hermite code, the Bareiss
determinant or the ring arithmetic of the package.  Integer instances are
checked with plain ``int`` arithmetic, polynomial instances with ``sympy``.
The key element is recomputed as an algebraic-path closure (Floyd-Warshall
over the lattice semiring lcm/gcd): the lcm over all trails of the gcd of a
trail's labels equals the lcm over simple paths, because extending a trail
only shrinks its gcd.  The package's brute-force oracle (residue search and
exhaustive enumeration) is called separately, from ``workloads.py``.

Every check returns a list of problems; an empty list means the output is
correct.  sympy is imported lazily, after the timed passes, so it does not
count in the workload's peak memory.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Any, Dict, List, Optional, Sequence, Tuple


_TERM = re.compile(r"([+-]?)([^+-]+)")


def _top_level_factors(text: str):
    """Split a*(b)*(c) at top-level '*' into parenthesis-free texts, or None
    when the text is not such a product."""
    factors, depth, current = [], 0, ""
    for ch in text:
        if ch == "(":
            if depth == 0 and current:
                return None
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                continue
        elif depth == 0 and ch == "*":
            factors.append(current)
            current = ""
            continue
        elif depth == 0 and ch in "+-" and current:
            return None
        current += ch
    factors.append(current)
    return None if any("(" in f or not f for f in factors) else factors


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# ---------------------------------------------------------------------------
# Generic closure and key-element formulas over any (gcd, lcm, one) triple
# ---------------------------------------------------------------------------


def closure(n: int, edges, one, g, l) -> List[List[Any]]:
    """All-pairs lcm over paths of the gcd of the path's edge labels."""
    t = [[one] * n for _ in range(n)]
    for u, v, r in edges:
        t[u][v] = t[v][u] = l(t[u][v], r)
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            via = t[i][k]
            for j in range(n):
                if j != k and j != i:
                    t[i][j] = l(t[i][j], g(via, t[k][j]))
    return t


def key_parts(m: Sequence, edges, one, g, l, exact):
    """(components, qhat, classical_qg, h_factor) from the closure.

    Component i is the lcm of m_i, gcd(m_j, T[j][i]) for j > i and T[s][i]
    for s < i; the classical key element uses all-ones vertex labels; the H
    factor per vertex is the higher-index lcm divided by its gcd with the
    lower-index lcm.
    """
    n = len(m)
    t = closure(n, edges, one, g, l)
    components, qg, h = [], one, one
    qhat = one
    for i in range(n):
        upper = m[i]
        for j in range(i + 1, n):
            upper = l(upper, g(m[j], t[j][i]))
        lower = one
        for s in range(i):
            lower = l(lower, t[s][i])
        comp = l(upper, lower)
        components.append(comp)
        qhat = qhat * comp
        qg = qg * lower
        h = h * exact(upper, g(upper, lower))
    return components, qhat, qg, h


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


def int_key(m: Sequence[int], edges) -> Tuple[List[int], int, int, int]:
    return key_parts(list(m), edges, 1, gcd, _lcm, lambda a, b: a // b)


def int_spline_problems(m, edges, column: Sequence[int], where: str) -> List[str]:
    out = []
    for i, f in enumerate(column):
        if f % m[i]:
            out.append(f"{where}: component {i + 1} not a multiple of {m[i]}")
    for u, v, r in edges:
        if (column[u] - column[v]) % r:
            out.append(f"{where}: edge ({u + 1},{v + 1}) difference not a multiple of {r}")
    return out


def int_flow_up_problems(m, edges, basis: Sequence[Sequence[int]], components) -> List[str]:
    """A triangular set of splines whose leading entries are the minimal
    leading entries is a flow-up basis over a PID."""
    n = len(m)
    if len(basis) != n:
        return [f"basis has {len(basis)} columns, expected {n}"]
    out = []
    for i, column in enumerate(basis):
        where = f"column {i + 1}"
        out += int_spline_problems(m, edges, column, where)
        if any(column[s] for s in range(i)):
            out.append(f"{where}: nonzero entry above the leading term")
        if abs(column[i]) != components[i]:
            out.append(f"{where}: leading term {column[i]}, expected {components[i]}")
    return out


def int_in_span(basis: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Back-substitution against a triangular basis, in plain integers."""
    residual = list(target)
    for i, column in enumerate(basis):
        if column[i] == 0 or residual[i] % column[i]:
            return False
        c = residual[i] // column[i]
        for r in range(len(residual)):
            residual[r] -= c * column[r]
    return not any(residual)


def check_zz_key(data, plain) -> List[str]:
    components, qhat, qg, h = int_key(data["m"], data["edges"])
    out = []
    for name, expected in (("components", components), ("qhat", qhat), ("qg", qg), ("h", h)):
        if name in plain and plain[name] != expected:
            out.append(f"{name} = {plain[name]}, closure gives {expected}")
    return out


def check_zz_flow_up(data, plain) -> List[str]:
    components = int_key(data["m"], data["edges"])[0]
    out = int_flow_up_problems(data["m"], data["edges"], plain["basis"], components)
    if plain["verified"] is not True:
        out.append("verify_flow_up rejected a valid basis")
    return out


def check_zz_session(data, plain) -> List[str]:
    out = check_zz_flow_up(data, plain) + check_zz_key(data, plain)
    _, qhat, _, _ = int_key(data["m"], data["edges"])
    if plain["verdict"] != "CERTIFIED":
        out.append(f"certify_basis verdict {plain['verdict']} on a flow-up basis")
    if abs(plain["det"]) != qhat or plain["det"] != plain["unit"] * plain["qhat"]:
        out.append(f"certificate det {plain['det']} unit {plain['unit']} vs qhat {qhat}")
    if plain["express"] != data["combos"]:
        out.append(f"express_in_basis gave {plain['express']}, expected {data['combos']}")
    return out


# ---------------------------------------------------------------------------
# Polynomials, through sympy
# ---------------------------------------------------------------------------


class SymRing:
    """A sympy view of one of the package's rings: ZZ, QQ, ZZ[...] or QQ[...]."""

    def __init__(self, base: str, variables: Sequence[str]):
        import sympy

        self.sympy = sympy
        self.gens = sympy.symbols(list(variables) or ["_c"])
        self.domain = sympy.ZZ if base == "ZZ" else sympy.QQ
        self.locals = {str(s): s for s in self.gens}
        self.is_pid = base == "QQ" and len(variables) <= 1 or base == "ZZ" and not variables
        self.one = self.poly(1)
        self.zero = self.poly(0)

    def poly(self, expr):
        return self.sympy.Poly(expr, *self.gens, domain=self.domain)

    def parse(self, text: str):
        """Expression text to a Poly; expanded sums of monomials (the
        package's printed form) are read term by term, which is far faster
        than sympify on outputs with hundreds of terms."""
        if "(" in text:
            factors = _top_level_factors(text)
            if factors is None:
                expr = self.sympy.sympify(text.replace("^", "**"), locals=self.locals)
                return self.poly(expr)
            out = self.one
            for factor in factors:
                out = out * self.parse(factor)
            return out
        terms = {}
        names = [str(g) for g in self.gens]
        for sign, body in _TERM.findall(text.replace(" ", "")):
            coeff, exps = Fraction(1), [0] * len(names)
            for factor in body.split("*"):
                name, _, power = factor.partition("^")
                if name in names:
                    exps[names.index(name)] += int(power or 1)
                else:
                    coeff *= Fraction(factor)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
        return self.sympy.Poly.from_dict(
            {k: self.sympy.Rational(v.numerator, v.denominator) for k, v in terms.items()},
            *self.gens,
            domain=self.domain,
        )

    def contains(self, expr) -> bool:
        """Is a rational expression an element of this ring?"""
        from sympy.polys.polyerrors import CoercionFailed, PolynomialError

        try:
            self.poly(expr)
        except (CoercionFailed, PolynomialError):
            return False
        return True

    def gcd(self, a, b):
        return a.gcd(b)

    def lcm(self, a, b):
        if a.is_zero or b.is_zero:
            return self.zero
        return a.lcm(b)

    def exact(self, a, b):
        q, r = a.div(b)
        if not r.is_zero:
            raise ArithmeticError("inexact division")
        return q

    def divides(self, a, b) -> bool:
        if a.is_zero:
            return b.is_zero
        return b.rem(a).is_zero

    def unit_ratio(self, a, b) -> Optional[Any]:
        """u with a = u*b for a unit u, else None (0 ~ 0 with u = 1)."""
        if a.is_zero or b.is_zero:
            return self.sympy.Integer(1) if a.is_zero and b.is_zero else None
        q, r = a.div(b)
        if not r.is_zero or not q.is_ground:
            return None
        u = q.LC()
        if self.domain == self.sympy.ZZ and u not in (1, -1):
            return None
        return u

    def associate(self, a, b) -> bool:
        return self.unit_ratio(a, b) is not None

    def det(self, rows):
        """Laplace expansion along the sparsest column; no division at all.

        Witness matrices have one or two nonzero entries per column, so the
        expansion touches only a handful of permutations."""
        n = len(rows)
        if n == 1:
            return rows[0][0]
        col = min(range(n), key=lambda c: sum(not rows[r][c].is_zero for r in range(n)))
        total = self.zero
        for r in range(n):
            if rows[r][col].is_zero:
                continue
            minor = [row[:col] + row[col + 1:] for i, row in enumerate(rows) if i != r]
            term = rows[r][col] * self.det(minor)
            total = total - term if (r + col) % 2 else total + term
        return total

    def key_parts(self, m, edges):
        return key_parts(m, edges, self.one, self.gcd, self.lcm, self.exact)


def poly_graph(ring: SymRing, m_texts, edges_texts):
    m = [ring.parse(t) for t in m_texts]
    edges = [(u, v, ring.parse(t)) for u, v, t in edges_texts]
    return m, edges


def spline_problems(ring: SymRing, m, edges, column, where: str) -> List[str]:
    out = []
    for i, f in enumerate(column):
        if not ring.divides(m[i], f):
            out.append(f"{where}: component {i + 1} not a multiple of its vertex label")
    for u, v, r in edges:
        if not ring.divides(r, column[u] - column[v]):
            out.append(f"{where}: edge ({u + 1},{v + 1}) difference not a multiple of its label")
    return out


def check_qx_flow_up(data, plain) -> List[str]:
    ring = SymRing("QQ", ["x"])
    x = ring.gens[0]

    def element(roots):
        out = ring.one
        for a in roots:
            out = out * ring.poly(x - a)
        return out

    m = [element(r) for r in data["m"]]
    edges = [(u, v, element(r)) for u, v, r in data["edges"]]
    components = ring.key_parts(m, edges)[0]
    basis = [[ring.parse(t) for t in column] for column in plain["basis"]]
    if len(basis) != len(m):
        return [f"basis has {len(basis)} columns, expected {len(m)}"]
    out = []
    for i, column in enumerate(basis):
        where = f"column {i + 1}"
        out += spline_problems(ring, m, edges, column, where)
        if any(not column[s].is_zero for s in range(i)):
            out.append(f"{where}: nonzero entry above the leading term")
        if not ring.associate(column[i], components[i]):
            out.append(f"{where}: leading term not associate to the closure component")
    if plain["verified"] is not True:
        out.append("verify_flow_up rejected a valid basis")
    return out


def matrix_rows(columns):
    """Rows v_n (top) down to v_1 (bottom), the package's fixed convention."""
    n = len(columns)
    return [[columns[c][n - 1 - r] for c in range(n)] for r in range(n)]


def expected_certificate(ring: SymRing, m, edges, columns) -> Dict[str, Any]:
    n = len(m)
    det = ring.det(matrix_rows(columns))
    key = ring.key_parts(m, edges)[1]
    if any(spline_problems(ring, m, edges, col, "") for col in columns):
        verdict = "refuted_not_splines"
    elif det.is_zero:
        verdict = "refuted_dependent"
    elif ring.associate(det, key):
        verdict = "certified"
    else:
        labels = list(m) + [r for _, _, r in edges]
        coprime = all(
            ring.gcd(labels[i], labels[j]).is_ground
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
        )
        verdict = "refuted_by_coprime_converse" if coprime or ring.is_pid else "inconclusive"
    code = {"certified": 0, "inconclusive": 5}.get(verdict, 1)
    return {"verdict": verdict, "det": det, "key": key, "code": code, "n": n}


def check_cli_qhat(ring: SymRing, m, edges, code: int, out: str) -> List[str]:
    if code != 0:
        return [f"qhat exit code {code}, expected 0"]
    doc = json.loads(out)
    components, qhat, qg, h = ring.key_parts(m, edges)
    problems = []
    got = [ring.parse(t) for t in doc["components"]]
    for i, (a, b) in enumerate(zip(got, components)):
        if not ring.associate(a, b):
            problems.append(f"component {i + 1}: {doc['components'][i]} not associate to closure value")
    if len(got) != len(components):
        problems.append("wrong number of components")
    for name, expected in (("qhat", qhat), ("classical_qg", qg), ("h_factor", h)):
        if not ring.associate(ring.parse(doc[name]), expected):
            problems.append(f"{name} {doc[name]} not associate to closure value")
    return problems


def check_cli_certify(ring: SymRing, m, edges, columns, code: int, out: str) -> List[str]:
    want = expected_certificate(ring, m, edges, columns)
    problems = []
    if code != want["code"]:
        problems.append(f"certify exit code {code}, expected {want['code']}")
    doc = json.loads(out)
    if doc["verdict"] != want["verdict"]:
        problems.append(f"verdict {doc['verdict']}, expected {want['verdict']}")
    if ring.parse(doc["determinant"]) != want["det"]:
        problems.append(f"determinant {doc['determinant']} differs from the sympy determinant")
    if not ring.associate(ring.parse(doc["qhat"]), want["key"]):
        problems.append("qhat not associate to the closure value")
    return problems


def check_cli_express(ring: SymRing, columns, target, code: int, out: str) -> List[str]:
    """Exit 0 must come with coefficients that rebuild the target; exit 1
    must mean the unique fraction-field solution is not polynomial."""
    sympy = ring.sympy
    n = len(columns)
    if code == 0:
        line = next((l for l in out.splitlines() if l.startswith("coefficients:")), None)
        if line is None:
            return ["express printed no coefficients"]
        coeffs = [ring.parse(t.strip()) for t in line.split(":", 1)[1].split(",")]
        rebuilt = [sum((c * col[r] for c, col in zip(coeffs, columns)), ring.zero) for r in range(n)]
        return [] if rebuilt == list(target) else ["coefficients do not rebuild the target"]
    if code == 1:
        matrix = sympy.Matrix(n, n, lambda r, c: columns[c][r].as_expr())
        solution = matrix.LUsolve(sympy.Matrix([t.as_expr() for t in target]))
        in_span = all(ring.contains(sympy.cancel(s)) for s in solution)
        return ["express refused a target that is in the span"] if in_span else []
    return [f"express exit code {code}"]
