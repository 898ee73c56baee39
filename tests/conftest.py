import random

import pytest

from egsplines.graph import LabeledGraph
from egsplines.rings import QQ, ZZ, parse_element, polynomial_ring

ZXY = polynomial_ring("x", "y")
QXY = polynomial_ring("x", "y", base=QQ)
QX = polynomial_ring("x", base=QQ)
ZX = polynomial_ring("x")


def zz(k):
    return ZZ.from_int(k)


def zxy(text):
    return parse_element(text, ZXY)


def qxy(text):
    return parse_element(text, QXY)


def qx(text):
    return parse_element(text, QX)


@pytest.fixture
def t4():
    """Star on four vertices over ZZ[x,y], the flow-up counterexample graph."""
    return LabeledGraph(
        ZXY,
        [zxy("x"), zxy("y^2"), zxy("x+y"), zxy("x*y")],
        [(0, 2, zxy("x^2+y")), (1, 2, zxy("x^2")), (2, 3, zxy("y"))],
    )


@pytest.fixture
def c3_int():
    """Triangle with integer labels m=(4,6,9), r=(2,3,5)."""
    return LabeledGraph(
        ZZ,
        [zz(4), zz(6), zz(9)],
        [(0, 1, zz(2)), (1, 2, zz(3)), (0, 2, zz(5))],
    )


@pytest.fixture
def c3_rat():
    """Triangle over QQ[x,y] with m=(x, y, x+y)."""
    return LabeledGraph(
        QXY,
        [qxy("x"), qxy("y"), qxy("x+y")],
        [(0, 1, qxy("x^2+y")), (1, 2, qxy("x^2+y^2")), (0, 2, qxy("x+y^2"))],
    )


@pytest.fixture
def p2():
    """Two-vertex path, m=(2,3), edge label 4."""
    return LabeledGraph(ZZ, [zz(2), zz(3)], [(0, 1, zz(4))])


@pytest.fixture
def single_vertex():
    return LabeledGraph(ZZ, [zz(5)], [])


def random_graph(ring, pool, seed, n):
    """Connected graph whose labels are products of 1-3 pool elements.

    A random spanning tree plus random extra pairs, repeats allowed, so
    parallel edges occur; shared pool factors make gcds nontrivial.
    """
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [rng.sample(range(n), 2) for _ in range(rng.randrange(n + 2))]

    def label():
        out = ring.one
        for f in rng.choices(pool, k=rng.randint(1, 3)):
            out = out * f
        return out

    return LabeledGraph(ring, [label() for _ in range(n)], [(u, v, label()) for u, v in pairs])
