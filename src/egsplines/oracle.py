"""Brute-force cross-checks and reproducible random instances.

Everything here works at desk scale and is deliberately independent of the
key-element formula: one depth-first search (`_depth_first`) both lists
the small splines exhaustively and, over the integer descriptor, decides
minimal leading entries by residue search (congruence merging plus
backtracking over the open residues).

The residue search decides one prime at a time.  The values at `index` of
the splines that vanish below it form an ideal tZ of ZZ, and a system of
congruences is solvable over ZZ exactly when it is solvable modulo every
prime power in the labels; so t is the product over those primes p of the
least p^e admissible modulo the largest power p^a of p in any label.  Each
call factors every distinct label once and builds the tables of each prime
once, then reruns only the search for each exponent it tries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import LabeledGraph
from .rings import ZZ
from .splines import Spline

_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
]


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


def _depth_first(order, candidates, values: Dict[int, int]):
    """Every completion of values over the vertices of order, depth first.

    order[k] takes each value of candidates(order[k]), which may read the
    values set before it, and leaves values when they run out; so the
    vertices of order follow the initial keys of values in their order.
    Each complete assignment is yielded as values itself, live.  The stack
    is explicit, so Python's recursion depth does not grow with the graph.
    """
    if not order:
        yield values
        return
    stack = [iter(candidates(order[0]))]
    while stack:
        v = order[len(stack) - 1]
        candidate = next(stack[-1], None)
        if candidate is None:
            stack.pop()
            values.pop(v, None)
        else:
            values[v] = candidate
            if len(stack) == len(order):
                yield values
            else:
                stack.append(iter(candidates(order[len(stack)])))


def _least_exponent(g: LabeledGraph, index: int, order, factors, p: int, e: int, a: int) -> int:
    """Least e' in e..a such that p^e' at index, 0 below it, completes to
    a spline modulo p^a; factors maps each label to its factorization.

    The tables of p are built once.  All moduli are powers of p, so a
    vertex's merged constraint is the congruence with the highest exponent
    among its label's and its assigned neighbours', checked against the
    others; the search branches over the residues that it leaves open.
    """
    powers = [p**k for k in range(a + 1)]
    m_exp = [factors[abs(x)].get(p, 0) for x in g.vertex_values]
    incident: List[List[Tuple[int, int]]] = [[] for _ in m_exp]
    for edge, r in zip(g.edges, g.edge_values):
        exp = factors[abs(r)].get(p, 0)
        incident[edge.u].append((edge.v, exp))
        incident[edge.v].append((edge.u, exp))
    values = dict.fromkeys(range(index), 0)

    def candidates(v: int):
        constraints = [(0, m_exp[v])]
        reach = m_exp[v]
        for w, exp in incident[v]:
            if w in values:
                constraints.append((values[w], exp))
            reach = max(reach, exp)
        best_val, best_exp = max(constraints, key=lambda c: c[1])
        if any((value - best_val) % powers[exp] for value, exp in constraints):
            return ()
        return range(best_val % powers[best_exp], powers[reach], powers[best_exp])

    while e < a:
        values[index] = powers[e]
        if next(_depth_first(order, candidates, values), None) is not None:
            break
        e += 1
    return e


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
    below that lcm returns None without a search.

    The fixed values need no check of their own: the zeros agree on every
    edge between them and lie in every ideal, and p^e, with e at least the
    exponent of p in each of those labels, lies in the vertex label's ideal
    and agrees with each zero across an edge.  So the search visits only
    the vertices above index, in BFS order from 0..index.  index is a
    vertex index in 0..n-1; ValueError otherwise.
    """
    _require_integers(g)
    if not 0 <= index < g.n:
        raise ValueError(f"index must lie in 0..{g.n - 1}")
    # m*ZZ = (-m)*ZZ, so every label is read as its absolute value
    forced = [abs(g.vertex_values[index])]
    for idx in g.adjacency[index]:
        if g.edges[idx].other(index) < index:
            forced.append(abs(g.edge_values[idx]))
    if math.lcm(*forced) > bound:
        return None
    labels = {*map(abs, g.vertex_values), *map(abs, g.edge_values)}
    factors = {x: _factorize(x) for x in labels}
    top: Dict[int, int] = {}
    for exponents in factors.values():
        for p, e in exponents.items():
            top[p] = max(top.get(p, 0), e)
    order = _bfs_order(g, range(index + 1))
    t = 1
    for p, a in sorted(top.items()):
        e = max(factors[x].get(p, 0) for x in forced)
        if e < a:
            e = _least_exponent(g, index, order, factors, p, e, a)
        t *= p**e
    return t if t <= bound else None


def enumerate_small_splines(g: LabeledGraph, bound: int) -> List[Spline]:
    """All splines with every component in [-bound, bound], exhaustively.

    A depth-first search over the vertices in index order; the candidate
    values of a vertex are the multiples of its label, ascending, that
    agree with the values below it on every edge, so the output order is
    deterministic and complete within the bound.
    """
    _require_integers(g)
    m = [abs(label) for label in g.vertex_values]  # m*ZZ = (-m)*ZZ
    down: List[List[Tuple[int, int]]] = [[] for _ in m]
    for e, r in zip(g.edges, g.edge_values):
        down[max(e.u, e.v)].append((min(e.u, e.v), abs(r)))
    values: Dict[int, int] = {}

    def candidates(v: int):
        for candidate in range(-(bound // m[v]) * m[v], bound + 1, m[v]):
            if all((candidate - values[w]) % r == 0 for w, r in down[v]):
                yield candidate

    # values starts empty, so its keys are the vertices in index order
    found = _depth_first(range(g.n), candidates, values)
    return [Spline._raw(g, assignment.values()) for assignment in found]


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
