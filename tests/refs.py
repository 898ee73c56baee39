"""References that the tests compare the package against.

The package ships only what the CLI and the paper's computations call.
These are the test-only references, kept here so that the tests that use
them keep running:

- Trail and trails_between, the literal trail enumeration that the key
  element's aggregate table is tested against, for small graphs only;
- hermite_form, the general column Hermite form modulo a lattice
  exponent, and _constraint_matrix, the stacked constraint lattice that
  the tests build for it.  hermite_form shares pid._merger and
  pid._normalize with flow_up_basis, so it is not an independent check of
  it; the sympy trailing-block test in test_pid.py is.  It looks both up
  on the pid module at call time, so a test that patches them there
  patches hermite_form too;
- crt with Congruence and IncompatibleCongruencesError, Chinese
  remaindering over a Euclidean ring (acceptance criterion 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from egsplines import pid
from egsplines.graph import LabeledGraph
from egsplines.rings import (
    DescriptorMismatchError,
    RingDescriptor,
    RingElement,
    RingError,
    UnsupportedRingError,
)


# ---------------------------------------------------------------------------
# Trails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trail:
    """Walk that repeats no edge; vertices may repeat.

    vertices has one more entry than edges; vertices[k] and vertices[k+1]
    are the endpoints of edges[k].
    """

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]

    def edge_labels(self, g: LabeledGraph) -> Tuple[RingElement, ...]:
        return tuple(g.edges[idx].label for idx in self.edges)


def trails_between(g: LabeledGraph, source: int, target: int) -> List[Trail]:
    """All trails from the source vertex to the target vertex.

    Depth-first extension over unused edges, in input edge order, so the
    result order is deterministic.  Trails passing through the target and
    returning later are all reported.  The count grows exponentially with
    the edges: this is the literal definition that the key element's
    aggregate table is tested against, for small graphs only.  The
    endpoints are vertex indices in 0..n-1 and must differ; ValueError
    otherwise.
    """
    if not (0 <= source < g.n and 0 <= target < g.n):
        raise ValueError(f"trail endpoints must lie in 0..{g.n - 1}")
    if source == target:
        raise ValueError("trail endpoints must differ")
    out: List[Trail] = []
    path_vertices = [source]
    path_edges: List[int] = []
    used = [False] * len(g.edges)
    # one iterator over the adjacency of each vertex on the path
    stack = [iter(g.adjacency[source])]
    while stack:
        idx = next((idx for idx in stack[-1] if not used[idx]), None)
        if idx is None:
            stack.pop()
            if path_edges:
                used[path_edges.pop()] = False
                path_vertices.pop()
            continue
        other = g.edges[idx].other(path_vertices[-1])
        used[idx] = True
        path_vertices.append(other)
        path_edges.append(idx)
        if other == target:
            out.append(Trail(tuple(path_vertices), tuple(path_edges)))
        stack.append(iter(g.adjacency[other]))
    return out


# ---------------------------------------------------------------------------
# Column Hermite form modulo a lattice exponent
# ---------------------------------------------------------------------------


def hermite_form(
    rows: Sequence[Sequence[RingElement]],
    ring: RingDescriptor,
    modulus: RingElement,
) -> List[List[RingElement]]:
    """Column Hermite form of the lattice spanned by the columns and modulus*R^N.

    N is the number of rows.  The result is lower triangular, with canonical
    pivots (positive integers, monic polynomials), and in each pivot row the
    entries left of the pivot reduced modulo it.  Euclidean descriptors only
    (ZZ, QQ and QQ[x]); ValueError for a zero modulus or rows of unequal
    length.

    H starts as modulus*I.  Each column v is inserted by walking its rows
    down: where v_i != 0, the step merges v into H_i, which leaves the gcd
    of the two in H_i's pivot and v zero in row i.  The step is unimodular,
    and an entry it reduces modulo D = modulus sits in a row r > i, where
    D*e_r lies in the span of the columns H_r, ..., H_(N-1) not yet touched
    by this insertion; so H spans the lattice after each insertion, and
    _normalize turns it into the Hermite form.

    The entries and the modulus are unwrapped once, each checked to lie in
    ring (DescriptorMismatchError otherwise); the pass runs on raw values
    through ring's operations and wraps only the result.
    """
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"hermite form needs a Euclidean ring, got {ring}"
        )
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("the rows must have equal length")
    (modulus,) = ring.values([modulus])
    if not modulus:
        raise ValueError("the modulus must be nonzero")
    values = [ring.values(row) for row in rows]
    zero = ring.zero.value
    modulus = ring.canon(modulus)
    merge = pid._merger(ring, modulus)
    H = [[modulus if r == c else zero for r in range(nrows)] for c in range(nrows)]
    for c in range(ncols):
        v = [row[c] for row in values]
        for i, col in enumerate(H):
            if v[i]:
                merge(col, v, col[i], v[i], i)
    pid._normalize(H, ring, modulus)
    return [[RingElement(ring, col[r]) for col in H] for r in range(nrows)]


def _constraint_matrix(g):
    """(|E|+|V|) x (|V|+|E|) matrix whose column lattice lifts the splines.

    Columns: one coefficient a_v per vertex, then one b_e per edge.  The row
    of edge e = {v_a, v_b} with a < b reads m_a * a_{v_a} - m_b * a_{v_b}
    - r_e * b_e; below the edge rows, the row of vertex v holds m_v in
    column v.  A column combination (a, b) has a zero edge part exactly when
    its vertex part (m_v * a_v) is a spline, so the splines are the lattice
    vectors whose first |E| coordinates vanish.
    """
    n, k = g.n, len(g.edges)
    zero = g.ring.zero
    rows = []
    for e_index, e in enumerate(g.edges):
        a, b = e.endpoints()
        row = [zero] * (n + k)
        row[a] = g.vertex_labels[a]
        row[b] = -g.vertex_labels[b]
        row[n + e_index] = -e.label
        rows.append(row)
    for v in range(n):
        row = [zero] * (n + k)
        row[v] = g.vertex_labels[v]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Chinese remaindering over a Euclidean ring
# ---------------------------------------------------------------------------


class IncompatibleCongruencesError(RingError):
    """A congruence system has no solution; carries a violating pair."""

    def __init__(self, i: int, j: int):
        super().__init__(
            f"congruences {i} and {j} are incompatible: "
            f"residues differ modulo gcd of the moduli"
        )
        self.i = i
        self.j = j


@dataclass(frozen=True)
class Congruence:
    """x = residue (mod modulus); both in one ring, modulus nonzero."""

    residue: RingElement
    modulus: RingElement

    def __post_init__(self):
        self.residue._check(self.modulus)
        if self.modulus.is_zero:
            raise ValueError("congruence modulus must be nonzero")


def _require_euclidean(ring: RingDescriptor, what: str) -> None:
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"{what} requires a Euclidean ring (ZZ, QQ or QQ[x]); got {ring}"
        )


def crt(congruences: Sequence[Congruence]):
    """Solve a simultaneous congruence system over a Euclidean ring.

    Returns (x, L) with x = a_i (mod b_i) for every i, reduced modulo
    L = lcm of the moduli.  Raises IncompatibleCongruencesError naming a
    violating pair (0-based) when no solution exists.
    """
    congruences = list(congruences)
    if not congruences:
        raise ValueError("crt needs at least one congruence")
    ring = congruences[0].residue.descriptor
    _require_euclidean(ring, "crt")
    for c in congruences:
        if c.residue.descriptor is not ring:
            raise DescriptorMismatchError("congruences must share one ring")
    residues = [c.residue.value for c in congruences]
    moduli = [c.modulus.value for c in congruences]
    add, sub, mul, gcd_ = ring.add, ring.sub, ring.mul, ring.gcd
    canon, divide, divmod_ = ring.canon, ring.divide, ring.divmod

    # pairwise solvability criterion; reported pairs refer to input positions
    # (moduli are nonzero, so each gcd is too)
    n = len(congruences)
    for i in range(n):
        for j in range(i + 1, n):
            if divide(sub(residues[i], residues[j]), gcd_(moduli[i], moduli[j])) is None:
                raise IncompatibleCongruencesError(i, j)

    m = canon(moduli[0])
    x = divmod_(residues[0], m)[1]
    for r, b in zip(residues[1:], moduli[1:]):
        b = canon(b)
        g, s, _ = ring.xgcd(m, b)
        # pairwise compatibility of the merged class is implied by the
        # pairwise checks above (Euclidean CRT), so both divisions are exact
        step = divide(sub(r, x), g)
        x = add(x, mul(mul(m, s), step))
        m = canon(divide(mul(m, b), g))
        x = divmod_(x, m)[1]
    return RingElement(ring, x), RingElement(ring, m)
