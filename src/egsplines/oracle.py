"""Brute-force cross-checks and reproducible random instances.

Everything here works at desk scale and is deliberately independent of the
key-element formula: trails are enumerated literally, small splines are
enumerated exhaustively, and over the integer descriptor minimal leading
entries are found by residue search (congruence merging plus backtracking
over the uncovered residues).

The residue search decides one prime at a time.  The values at `index` of
the splines that vanish below it form an ideal tZ of ZZ, and a system of
congruences is solvable over ZZ exactly when it is solvable modulo every
prime power in the labels; so t is the product over those primes p of the
least p^e admissible modulo the largest power p^a of p in any label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import LabeledGraph
from .rings import ZZ, RingElement
from .splines import Spline

_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
]


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


def _require_integers(g: LabeledGraph) -> None:
    if g.ring.kind != "integers":
        raise ValueError("the brute-force oracle works over the integers only")


def _factorize(x: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def _bfs_order(g: LabeledGraph, fixed) -> List[int]:
    order: List[int] = []
    seen = set(fixed)
    frontier = sorted(fixed)
    while frontier:
        nxt = []
        for v in frontier:
            for idx in g.adjacency[v]:
                other = g.edges[idx].other(v)
                if other not in seen:
                    seen.add(other)
                    order.append(other)
                    nxt.append(other)
        frontier = nxt
    return order


def _exists_mod_prime_power(m, edges, fixed, order, p: int, a: int) -> bool:
    """Existence of the flow-up assignment modulo p^a, by residue search.

    All moduli are powers of p, so a vertex's merged constraint is simply
    the incident congruence with the highest exponent, checked against the
    others; the search branches over the residues that merge leaves open.
    """
    pa = p**a

    def val(x: int) -> int:
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        return e

    m_exp = [min(val(label), a) for label in m]
    e_exp = [min(val(r), a) for (_, _, r) in edges]

    for k, (u, v2, _) in enumerate(edges):
        if u in fixed and v2 in fixed:
            if (fixed[u] - fixed[v2]) % p**e_exp[k] != 0:
                return False
    for v2, value in fixed.items():
        if value % p ** m_exp[v2] != 0:
            return False
    assignment = dict(fixed)
    # (neighbour, edge exponent) of every edge at each vertex, in edge order
    incident: List[List[Tuple[int, int]]] = [[] for _ in m]
    for (ea, eb, _), exp in zip(edges, e_exp):
        incident[ea].append((eb, exp))
        incident[eb].append((ea, exp))

    def candidates(v2: int):
        """The residues left open for v2 by the assigned vertices, in
        ascending order; none when their congruences conflict."""
        best_exp = m_exp[v2]
        best_val = 0
        constraints = [(0, m_exp[v2])]
        reach = best_exp
        for w, exp in incident[v2]:
            if w in assignment:
                constraints.append((assignment[w], exp))
            reach = max(reach, exp)
        for value, exp in constraints:
            if exp > best_exp:
                best_exp, best_val = exp, value
        for value, exp in constraints:
            if (value - best_val) % p**exp != 0:
                return iter(())
        step = p**best_exp
        return iter(range(best_val % step, p**reach, step))

    # depth-first over order, one candidate iterator per placed vertex
    if not order:
        return True
    stack = [candidates(order[0])]
    while stack:
        v2 = order[len(stack) - 1]
        candidate = next(stack[-1], None)
        if candidate is None:
            stack.pop()
            assignment.pop(v2, None)
            continue
        assignment[v2] = candidate
        if len(stack) == len(order):
            return True
        stack.append(candidates(order[len(stack)]))
    return False


def brute_minimal_leading_entry(
    g: LabeledGraph, index: int, bound: int
) -> Optional[int]:
    """Least t >= 1 admitting a flow-up class at `index` when t <= bound,
    else None (so always None for bound <= 0).

    The admissible t are the values at `index` of the splines that vanish
    below it, an ideal tZ of ZZ, decided modulo each prime power p^a in
    the labels independently; modulo p^a they form the ideal generated by
    the least admissible p^e.  Every admissible t is a multiple of the
    vertex label and of each label on an edge down to a zeroed vertex
    (forced by the definition, not by the formula under test), so e starts
    at the exponent of p in their lcm and rises until the residue search
    accepts p^e; e = a, t = 0 modulo p^a, is always admissible.  A bound
    below that lcm returns None without a search.  index is a vertex index
    in 0..n-1; ValueError otherwise.
    """
    _require_integers(g)
    if not 0 <= index < g.n:
        raise ValueError(f"index must lie in 0..{g.n - 1}")
    m = [abs(label) for label in g.vertex_values]  # m*ZZ = (-m)*ZZ
    edges = [(e.u, e.v, abs(r)) for e, r in zip(g.edges, g.edge_values)]
    step = m[index]
    for idx in g.adjacency[index]:
        if g.edges[idx].other(index) < index:
            step = math.lcm(step, edges[idx][2])
    if step > bound:
        return None
    zeros: Dict[int, int] = {s: 0 for s in range(index)}
    order = _bfs_order(g, range(index + 1))
    prime_exponents: Dict[int, int] = {}
    for x in m + [r for (_, _, r) in edges]:
        for p, e in _factorize(x).items():
            prime_exponents[p] = max(prime_exponents.get(p, 0), e)
    forced = _factorize(step)
    t = 1
    for p, a in sorted(prime_exponents.items()):
        e = forced.get(p, 0)
        while e < a and not _exists_mod_prime_power(
            m, edges, {**zeros, index: p**e}, order, p, a
        ):
            e += 1
        t *= p**e
    return t if t <= bound else None


def enumerate_small_splines(g: LabeledGraph, bound: int) -> List[Spline]:
    """All splines with every component in [-bound, bound], exhaustively.

    Backtracking over vertices in index order; candidate values per vertex
    are the multiples of its label, ascending, so the output order is
    deterministic and complete within the bound.
    """
    _require_integers(g)
    m = [abs(label) for label in g.vertex_values]  # m*ZZ = (-m)*ZZ
    n = g.n
    out: List[Spline] = []
    values: List[int] = []
    down: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for e, r in zip(g.edges, g.edge_values):
        down[max(e.u, e.v)].append((min(e.u, e.v), abs(r)))

    def candidates(v: int):
        """Multiples of m_v in [-bound, bound], ascending, that agree with
        values on every edge down to a vertex below v."""
        for candidate in range(-(bound // m[v]) * m[v], bound + 1, m[v]):
            if all((candidate - values[w]) % r == 0 for w, r in down[v]):
                yield candidate

    # depth-first over the vertices, one candidate iterator per placed vertex
    stack = [candidates(0)]
    while stack:
        candidate = next(stack[-1], None)
        if candidate is None:
            stack.pop()
            if values:
                values.pop()
            continue
        values.append(candidate)
        if len(values) == n:
            out.append(Spline._raw(g, values))
            values.pop()
        else:
            stack.append(candidates(len(values)))
    return out


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for a random integer instance.

    The same spec always generates the same graph.  In coprime mode all
    vertex and edge labels are distinct primes, ignoring label_bound.
    """

    seed: int
    n: int
    edge_density: float = 0.4
    label_bound: int = 50
    coprime: bool = False


def random_instance(spec: InstanceSpec) -> LabeledGraph:
    if not 1 <= spec.n:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    n = spec.n
    pairs = []
    for v in range(1, n):
        pairs.append((rng.randrange(v), v))  # random spanning tree
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < spec.edge_density:
                pairs.append((u, v))  # duplicates make parallel edges
    count = n + len(pairs)
    if spec.coprime:
        if count > len(_PRIMES):
            raise ValueError("instance too large for the coprime prime pool")
        labels = rng.sample(_PRIMES, count)
    else:
        labels = [rng.randint(1, spec.label_bound) for _ in range(count)]
    vertex_labels = [ZZ.from_int(c) for c in labels[:n]]
    edges = [
        (u, v, ZZ.from_int(c)) for (u, v), c in zip(pairs, labels[n:])
    ]
    return LabeledGraph(ZZ, vertex_labels, edges)
