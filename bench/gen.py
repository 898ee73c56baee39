"""Seeded instance generators for the four workloads.

Generation is plain Python driven by ``random.Random(f"{workload}:{seed}")``:
the same seed gives the same instance list, and the program under test
only ever sees the generated inputs.  Each instance carries a pure-data
description (integers, root lists, linear forms) that the independent
cross-checks in ``reference.py`` read, and a ``build`` callable that turns
it into fresh library objects before every pass, outside the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class Instance:
    """One timed unit of work.

    group is "seeded" (drawn from the bench seed), "fixed" (a named row that
    is the same for every seed) or "frontier" (a named pathological row that
    is expected to hit the per-instance time limit today).  attempts, when
    not 0, overrides the workload's number of attempts per pass.
    """

    name: str
    group: str
    data: Dict[str, Any]
    build: Callable[[], Any]
    solve: Callable[[Any], Any]
    normalize: Callable[[Any, Any], Any]
    check: Callable[[Any], List[str]]
    attempts: int = 0


# ---------------------------------------------------------------------------
# Integer instances (criterion-6 family and the seed-5 ladder)
# ---------------------------------------------------------------------------


def zz_data(lib, spec) -> Dict[str, Any]:
    """Integer labels of random_instance(spec), read once at set-up."""
    g = lib.oracle.random_instance(spec)
    return {
        "ring": "ZZ",
        "spec": spec,
        "m": [label.value for label in g.vertex_labels],
        "edges": [(e.u, e.v, e.label.value) for e in g.edges],
    }


# ---------------------------------------------------------------------------
# QQ[x] instances: labels are products of small linear factors x - a
# ---------------------------------------------------------------------------


def _tree_and_extras(rng: random.Random, n: int, density: float) -> List[Tuple[int, int]]:
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                pairs.append((u, v))  # may repeat a tree edge: a parallel edge
    return pairs


def qx_data(rng: random.Random, n: int, density: float) -> Dict[str, Any]:
    pairs = _tree_and_extras(rng, n, density)

    def roots() -> List[int]:
        return sorted(rng.randint(-3, 3) for _ in range(rng.randint(1, 2)))

    labels = [roots() for _ in range(n + len(pairs))]
    return {
        "ring": "QQ[x]",
        "m": labels[:n],
        "edges": [(u, v, r) for (u, v), r in zip(pairs, labels[n:])],
    }


def qx_graph(lib, data):
    ring = lib.rings.polynomial_ring("x", base=lib.rings.QQ)
    x = ring.variable("x")

    def element(roots):
        out = ring.one
        for a in roots:
            out = out * (x - ring.from_int(a))
        return out

    return lib.graph.LabeledGraph(
        ring,
        [element(r) for r in data["m"]],
        [(u, v, element(r)) for u, v, r in data["edges"]],
    ).require_valid()


# ---------------------------------------------------------------------------
# ZZ[x,y] and QQ[x,y] instances for the CLI, as expression text
# ---------------------------------------------------------------------------

Form = Tuple[int, int, int]  # a*x + b*y + c


def form_text(f: Form) -> str:
    parts = []
    for coeff, var in zip(f, ("x", "y", "")):
        if coeff == 0:
            continue
        if var and abs(coeff) == 1:
            body = var
        elif var:
            body = f"{abs(coeff)}*{var}"
        else:
            body = str(abs(coeff))
        sign = "-" if coeff < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


def product_text(forms: List[Form]) -> str:
    if not forms:
        return "1"
    return "*".join(f"({form_text(f)})" for f in forms)


def _linear_forms(rng: random.Random, count: int) -> List[Form]:
    """Distinct primitive linear forms in x, y, no two associates.

    Irreducible and pairwise non-associate, hence pairwise coprime over
    both ZZ[x,y] and QQ[x,y].
    """
    seen = set()
    out: List[Form] = []
    while len(out) < count:
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-4, 4)
        if (a, b) == (0, 0) or gcd(gcd(a, b), c) != 1:
            continue
        if (a, b) < (0, 0) or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        if (a, b, c) in seen:
            continue
        seen.add((a, b, c))
        out.append((a, b, c))
    return out


def poly_data(rng: random.Random, base: str, n: int, extra: int, coprime: bool) -> Dict[str, Any]:
    """Labels as lists of linear forms (the label is their product).

    The graph is a random spanning tree plus `extra` more edges, so the
    label count, and with it the cost of a determinant, is fixed per size.
    coprime=True gives one distinct form per label (pairwise coprime, the
    witness-matrix setting); otherwise labels are products of one or two
    forms from a pool of five, so trail gcds are nontrivial.
    """
    pairs = _tree_and_extras(rng, n, 0.0)
    pairs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra)]
    count = n + len(pairs)
    if coprime:
        labels = [[f] for f in _linear_forms(rng, count)]
    else:
        pool = _linear_forms(rng, 5)
        labels = [sorted(rng.sample(pool, rng.randint(1, 2))) for _ in range(count)]
    return {
        "ring": f"{base}[x,y]",
        "base": base,
        "m": labels[:n],
        "edges": [(u, v, r) for (u, v), r in zip(pairs, labels[n:])],
    }


def instance_json(data) -> dict:
    n = len(data["m"])
    names = [f"v{i + 1}" for i in range(n)]
    return {
        "ring": {
            "kind": "polynomial",
            "variables": ["x", "y"],
            "base": "integers" if data["base"] == "ZZ" else "rationals",
        },
        "vertices": [
            {"name": names[i], "label": product_text(label)}
            for i, label in enumerate(data["m"])
        ],
        "edges": [
            {"u": names[u], "v": names[v], "label": product_text(label)}
            for u, v, label in data["edges"]
        ],
    }


def witness_columns(data, index: int) -> List[List[str]]:
    """Witness matrix `index` of the coprime converse, as expression text.

    Same construction as splines.coprime_witness_matrices: with all labels
    pairwise coprime the key element is the product of every label, made
    canonical (graded-lex monic over QQ), and lhat omits label `index`
    (vertex labels first, then edge labels).
    """
    n = len(data["m"])
    labels = [label for label in data["m"]] + [label for _, _, label in data["edges"]]
    forms = [f for label in labels for f in label]
    key = product_text(forms)
    if data["base"] == "QQ":
        lead = 1
        for a, b, _ in forms:
            lead *= a or b  # graded-lex leading coefficient, x before y
        if lead != 1:
            key = f"{Fraction(1, lead)}*{key}"
    lhat = product_text([f for pos, label in enumerate(labels) if pos != index for f in label])
    columns = []
    if index < n:
        for j in range(n):
            comp = ["0"] * n
            comp[j] = key if j == index else lhat
            columns.append(comp)
        return columns
    u, v, _ = data["edges"][index - n]
    a, b = min(u, v), max(u, v)
    for j in range(n):
        comp = ["0"] * n
        if j == a:
            comp[a] = comp[b] = lhat
        elif j == b:
            comp[b] = key
        else:
            comp[j] = lhat
        columns.append(comp)
    return columns


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)
