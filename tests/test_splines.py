import functools
import gc
import random
import time
import weakref
from fractions import Fraction

import pytest

from egsplines import graph, kronecker, rings, splines
from egsplines.graph import GraphValidationError, LabeledGraph
from egsplines.oracle import InstanceSpec, random_instance, trails_between
from egsplines.pid import flow_up_basis, verify_flow_up
from egsplines.rings import ZZ, RingElement, associate_unit
from egsplines.splines import (
    _bareiss,
    CoprimalityError,
    NotInSpanError,
    Spline,
    SplineMatrix,
    Verdict,
    certify_basis,
    classical_qg,
    coprime_label_violation,
    coprime_witness_matrices,
    express_in_basis,
    h_factor,
    is_spline,
    key_element,
    qhat,
    qhat_components,
    spline_determinant,
    spline_violations,
)

from conftest import QX, QXY, ZXY, qx, qxy, random_graph, zxy, zz


def make_matrix(g, rows_of_strings, parse):
    return SplineMatrix(
        g, [Spline(g, [parse(s) for s in col]) for col in rows_of_strings]
    )


@pytest.fixture
def t4_basis_b(t4):
    return make_matrix(
        t4,
        [
            ("x^3+x*y", "0", "0", "0"),
            ("x^2*y^2-x*y^2", "-x*y^2-y^3", "-x*y^2-y^3", "0"),
            ("x^2*y+x*y^2", "x*y^2", "x^2*y+x*y^2", "0"),
            ("0", "0", "0", "x*y"),
        ],
        zxy,
    )


@pytest.fixture
def t4_set_a(t4):
    return make_matrix(
        t4,
        [
            ("x^3+x*y", "0", "0", "0"),
            ("0", "x^2*y^2", "0", "0"),
            ("0", "0", "(x+y)*(x^2+y)*x^2*y", "0"),
            ("0", "0", "0", "x*y"),
        ],
        zxy,
    )


@pytest.fixture
def t4_target(t4):
    return Spline(t4, [zxy("x^2*y^2+x^2*y"), zxy("-y^3"), zxy("x^2*y-y^3"), zxy("0")])


@pytest.fixture
def p2_basis(p2):
    return SplineMatrix(
        p2,
        [Spline(p2, [zz(2), zz(6)]), Spline(p2, [zz(0), zz(12)])],
    )


class TestIsSpline:
    def test_t4_flow_up_column(self, t4):
        assert is_spline(t4, [zxy("x^3+x*y"), zxy("0"), zxy("0"), zxy("0")])

    def test_trivial_spline(self, t4):
        assert is_spline(t4, [ZXY.zero] * 4)

    def test_vertex_condition_fails(self, p2):
        violations = spline_violations(p2, [zz(1), zz(0)])
        assert violations and "vertex v1" in violations[0]

    def test_edge_condition_fails(self, p2):
        violations = spline_violations(p2, [zz(2), zz(3)])
        assert any("edge 1" in v for v in violations)

    def test_zero_labels_rejected(self):
        # a graph with zero labels is rejected when it is built, so the
        # membership check never divides by a zero label
        with pytest.raises(GraphValidationError) as info:
            LabeledGraph(ZZ, [ZZ.zero, zz(3)], [(0, 1, ZZ.zero)])
        assert info.value.violations == ("vertex v1: zero label", "edge 1: zero label")

    def test_foreign_components_rejected(self, p2):
        with pytest.raises(rings.DescriptorMismatchError):
            spline_violations(p2, [zz(2), rings.QQ.from_int(6)])
        with pytest.raises(TypeError):
            spline_violations(p2, [zz(2), 6])

    def test_target_is_spline(self, t4, t4_target):
        assert is_spline(t4, t4_target.components)

    def test_labels_unwrapped_once_per_graph(self, monkeypatch):
        g = LabeledGraph(ZZ, [zz(2), zz(3), zz(5)], [(0, 1, zz(6)), (1, 2, zz(4))])
        real, unwrapped = rings.RingDescriptor.values, []

        def values(ring, elements):
            out = real(ring, elements)
            unwrapped.append(len(out))
            return out

        monkeypatch.setattr(rings.RingDescriptor, "values", values)
        for _ in range(4):
            assert spline_violations(g, [zz(2), zz(9), zz(10)]) == [
                "edge 1 (v1,v2): difference is not a multiple of 6",
                "edge 2 (v2,v3): difference is not a multiple of 4",
            ]
        # the components on every call; the labels were unwrapped when g
        # was built
        assert unwrapped == [3, 3, 3, 3]
        assert (g.vertex_values, g.edge_values) == ((2, 3, 5), (6, 4))
        # the key element's fold and closure read the same raw labels
        key_element(g)
        assert unwrapped == [3, 3, 3, 3]
        # and so does the flow-up basis's modulus, the lcm of the labels
        basis = flow_up_basis(g)
        assert unwrapped == [3, 3, 3, 3]
        assert [c.leading_term for c in basis.classes] == list(qhat_components(g))
        h = LabeledGraph(ZZ, [zz(2), zz(3), zz(5)], [(0, 1, zz(6)), (1, 2, zz(4))])
        unwrapped.clear()
        assert key_element(h).qhat == qhat(g)
        assert unwrapped == []
        # the witnesses of a coprime graph are built on raw values: no
        # label or column is unwrapped again
        coprime = LabeledGraph(ZZ, [zz(2), zz(3), zz(5)], [(0, 1, zz(7)), (1, 2, zz(11))])
        unwrapped.clear()
        witnesses = coprime_witness_matrices(coprime)
        assert unwrapped == []
        assert [[col.values for col in ms.columns] for ms in witnesses][3] == [
            (330, 330, 0), (0, 2310, 0), (0, 0, 330),
        ]

    def test_module_closure(self):
        rng = random.Random(31)
        for seed in range(15):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=20))
            basis = flow_up_basis(g)
            f = _random_combination(rng, g, basis)
            h = _random_combination(rng, g, basis)
            c = ZZ.from_int(rng.randint(-5, 5))
            assert is_spline(g, (f + h).components)
            assert is_spline(g, f.scale(c).components)


def _random_combination(rng, g, basis):
    out = Spline(g, [g.ring.zero] * g.n)
    for cls in basis.classes:
        out = out + cls.spline.scale(ZZ.from_int(rng.randint(-4, 4)))
    return out


class TestSplineArithmetic:
    """Splines hold raw values: +, - and scale run on them, and components
    wraps them on first read."""

    def test_arithmetic_matches_components(self):
        g = random_instance(InstanceSpec(seed=4, n=5, edge_density=0.5, label_bound=20))
        rng = random.Random(5)
        a, b = (Spline(g, [ZZ.from_int(rng.randint(-30, 30)) for _ in range(g.n)]) for _ in range(2))
        c = zz(-7)
        built = [a + b, a - b, -a, b.scale(c), a + b.scale(c)]
        expected = [
            [x + y for x, y in zip(a.components, b.components)],
            [x - y for x, y in zip(a.components, b.components)],
            [-x for x in a.components],
            [c * y for y in b.components],
            [x + c * y for x, y in zip(a.components, b.components)],
        ]
        for got, want in zip(built, expected):
            from_components = Spline(g, want)
            assert got == from_components and hash(got) == hash(from_components)
            assert got.components == tuple(want)
            assert got.values == tuple(x.value for x in want)
        # each operand keeps its own components
        assert a.components == tuple(ZZ.from_int(x) for x in a.values)
        assert (a - a).is_zero and not a.is_zero

    def test_lazy_components_are_ring_elements(self, t4, t4_basis_b):
        f, h = t4_basis_b.columns[:2]
        total = f + h.scale(t4.ring.variable("x"))
        assert all(
            isinstance(x, rings.RingElement) and x.descriptor is t4.ring for x in total.components
        )
        assert [str(x) for x in total.components] == [
            "x^3*y^2-x^2*y^2+x^3+x*y", "-x^2*y^2-x*y^3", "-x^2*y^2-x*y^3", "0"
        ]
        assert total.components is total.components

    def test_scale_checks_its_scalar(self, p2):
        f = Spline(p2, [zz(2), zz(6)])
        with pytest.raises(rings.DescriptorMismatchError):
            f.scale(rings.QQ.from_int(3))
        with pytest.raises(rings.DescriptorMismatchError):
            f.scale(QX.one)
        with pytest.raises(TypeError):
            f.scale(3)

    def test_sum_across_graphs_refused(self):
        g, h, _ = _twin_graphs()
        f, k = Spline(g, [zz(2), zz(6)]), Spline(h, [zz(2), zz(6)])
        assert f != k
        for combine in (lambda: f + k, lambda: f - k, lambda: k + f):
            with pytest.raises(ValueError, match="^splines live on different graphs$"):
                combine()

    def test_wraps_only_when_components_are_read(self, monkeypatch):
        n = 6
        g = random_instance(InstanceSpec(seed=11, n=n, edge_density=0.5, label_bound=30))
        a = Spline(g, [ZZ.from_int(3 * v) for v in range(n)])
        b = Spline(g, [ZZ.from_int(v - 2) for v in range(n)])
        c = zz(5)
        built = []
        original = rings.RingElement.__init__

        def counting(self, descriptor, value):
            built.append(value)
            original(self, descriptor, value)

        monkeypatch.setattr(rings.RingElement, "__init__", counting)
        total = a + b.scale(c)
        assert built == [] and total.values == tuple(8 * v - 10 for v in range(n))
        assert total.components == tuple(ZZ.from_int(8 * v - 10) for v in range(n))
        assert built[:n] == [8 * v - 10 for v in range(n)]
        count = len(built)
        total.components
        assert len(built) == count


class TestKeyElement:
    def test_c3_integer_components(self, c3_int):
        assert [c.value for c in qhat_components(c3_int)] == [4, 6, 45]
        assert qhat(c3_int).value == 1080

    def test_single_vertex(self, single_vertex):
        assert qhat_components(single_vertex) == (zz(5),)
        assert qhat(single_vertex) == zz(5)

    def test_p2(self, p2):
        assert [c.value for c in qhat_components(p2)] == [2, 12]
        assert qhat(p2).value == 24

    def test_t4_paper_value(self, t4):
        assert qhat(t4) == zxy("x^4*y^4*(x+y)*(x^2+y)")
        assert [str(c) for c in qhat_components(t4)[:2]] == ["x", "y^2"]

    def test_c3_rational(self, c3_rat):
        expected = qxy("x*y*(x+y)*(x+y^2)*(x^2+y)*(x^2+y^2)")
        assert qhat(c3_rat) == expected

    def test_classical_and_h_factor_p2(self, p2):
        assert classical_qg(p2).value == 4
        assert h_factor(p2).value == 6
        assert h_factor(p2) * classical_qg(p2) == qhat(p2)

    def test_classical_and_h_factor_c3(self, c3_int):
        assert classical_qg(c3_int).value == 30
        assert h_factor(c3_int).value == 36
        assert associate_unit(h_factor(c3_int) * classical_qg(c3_int), qhat(c3_int)) is not None

    def test_all_unit_vertex_labels_make_h_a_unit(self, c3_int):
        g = LabeledGraph(ZZ, [ZZ.one] * 3, c3_int.edges)
        assert associate_unit(h_factor(g), ZZ.one) is not None

    def test_rational_components_are_one(self):
        # every nonzero rational is a unit, so the fold's raw comparisons
        # with 1 meet Fraction(1)
        q = rings.QQ.from_int
        g = LabeledGraph(rings.QQ, [q(2), q(-3), q(5)], [(0, 1, q(7)), (1, 2, q(6)), (0, 2, q(4))])
        record = key_element(g)
        assert record.components == (rings.QQ.one,) * 3
        assert (record.qhat, record.classical_qg, record.h_factor) == (rings.QQ.one,) * 3

    def test_wraps_only_components_and_results(self, monkeypatch):
        # the fold and the closure run on raw values: elements are built
        # for the n components, the n partial products of Qhat and the
        # three results, not per arithmetic step
        n = 10
        g = random_instance(InstanceSpec(seed=7, n=n, edge_density=0.5, label_bound=30))
        built = []
        original = rings.RingElement.__init__

        def counting(self, descriptor, value):
            built.append(value)
            original(self, descriptor, value)

        monkeypatch.setattr(rings.RingElement, "__init__", counting)
        key_element(g)
        assert len(built) <= 2 * n + 4

    def test_h_factor_identity_random(self):
        for seed in range(25):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            assert associate_unit(h_factor(g) * classical_qg(g), qhat(g)) is not None

    def test_lower_trail_constraints_divide_qhat_random(self):
        for seed in range(15):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            key = qhat(g).value
            table = graph._aggregate_table(g, ZZ.pair_operations())
            for i in range(g.n):
                for s in range(i):
                    assert ZZ.divide(key, table[s][i]) is not None

    def test_coprime_product_formula(self):
        for seed in range(15):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, coprime=True))
            product = ZZ.one
            for label in list(g.vertex_labels) + [e.label for e in g.edges]:
                product = product * label
            assert qhat(g) == product

    def test_trail_constraint_divides_qhat(self, c3_int):
        key = qhat(c3_int).value
        table = graph._aggregate_table(c3_int, ZZ.pair_operations())
        for i in range(c3_int.n):
            for s in range(i):
                assert ZZ.divide(key, table[s][i]) is not None

    def test_matches_literal_trail_definition(self):
        # U_i, L_i from literal trail enumeration; Q_G also against the key
        # element of an all-ones graph built directly
        graphs = [
            random_instance(InstanceSpec(seed=seed, n=1 + seed % 5, edge_density=0.4, label_bound=30))
            for seed in range(30)
        ]
        qx_pool = [qx("x"), qx("x+1"), qx("2*x-1"), qx("x^2+1"), qx("3")]
        zxy_pool = [zxy("x"), zxy("y"), zxy("x+y"), zxy("-2"), zxy("x*y+1")]
        for seed in range(10):
            graphs.append(random_graph(QX, qx_pool, seed, 2 + seed % 4))
            graphs.append(random_graph(ZXY, zxy_pool, seed, 2 + seed % 4))
        graphs = [g for g in graphs if len(g.edges) <= 8]
        assert len(graphs) >= 40
        for g in graphs:
            ring, m = g.ring, g.ring.values(g.vertex_labels)
            gcd, lcm, mul, zero, one = ring.gcd, ring.lcm, ring.mul, ring.zero.value, ring.one.value

            def literal(s, i):
                trail_gcds = [
                    functools.reduce(gcd, ring.values(t.edge_labels(g)), zero)
                    for t in trails_between(g, s, i)
                ]
                return functools.reduce(lcm, trail_gcds, one)

            def canonical_product(values):
                return RingElement(ring, ring.canon(functools.reduce(mul, values, one)))

            uppers = [
                functools.reduce(lcm, [m[i]] + [gcd(m[j], literal(j, i)) for j in range(i + 1, g.n)], one)
                for i in range(g.n)
            ]
            lowers = [functools.reduce(lcm, [literal(s, i) for s in range(i)], one) for i in range(g.n)]
            record = key_element(g)
            components = [lcm(u, l) for u, l in zip(uppers, lowers)]
            assert ring.values(record.components) == components, g
            assert record.qhat == canonical_product(components)
            assert record.classical_qg == canonical_product(lowers)
            ones = LabeledGraph(ring, [ring.one] * g.n, g.edges)
            assert record.classical_qg == qhat(ones)
            h = [ring.divide(u, gcd(u, l)) for u, l in zip(uppers, lowers)]
            assert record.h_factor == canonical_product(h)
            assert (qhat_components(g), qhat(g), classical_qg(g), h_factor(g)) == (
                record.components, record.qhat, record.classical_qg, record.h_factor
            )

    def test_one_fold_per_graph(self, monkeypatch):
        # after the first read, every key-element consumer reuses the record
        for seed in range(5):
            g = random_instance(InstanceSpec(seed=seed, n=5, edge_density=0.5, label_bound=30))
            components = qhat_components(g)

            def no_lookup(*args):
                raise AssertionError("aggregate table read after the fold")

            # the fold reads the table through graph._aggregate_table, which
            # no consumer may call again, cached or not
            monkeypatch.setattr(graph, "_aggregate_table", no_lookup)
            assert qhat_components(g) is components
            assert associate_unit(h_factor(g) * classical_qg(g), qhat(g)) is not None
            basis = flow_up_basis(g)
            assert verify_flow_up(g, basis).ok
            assert certify_basis(g, basis.matrix()).verdict is Verdict.CERTIFIED
            monkeypatch.undo()

    def test_one_gcd_per_distinct_pair(self, monkeypatch):
        # labels are products of a few linear weights, as in the GKM
        # setting, so the closure and the fold meet the same pairs again
        pool = [zxy(t) for t in ("x", "y", "x+y", "x-y", "2*x+y")]
        g = random_graph(ZXY, pool, 2, 6)
        pairs, original = [], kronecker.gcd

        def counting(a, b, depth, *args):
            if depth == ZXY.depth:  # not a content gcd inside a PRS
                pairs.append(frozenset((a, b)))
            return original(a, b, depth, *args)

        def uncached(ring):
            return ring.gcd, ring.lcm, lambda a, b: ring.divide(a, ring.gcd(a, b))

        monkeypatch.setattr(kronecker, "gcd", counting)
        monkeypatch.setattr(rings.RingDescriptor, "pair_operations", uncached)
        expected = key_element(LabeledGraph(g.ring, g.vertex_labels, g.edges))
        repeated = len(pairs)
        monkeypatch.undo()

        made, pairs[:] = [], []
        pair_operations = rings.RingDescriptor.pair_operations

        def tracked(ring):
            ops = pair_operations(ring)
            made.append([weakref.ref(f) for f in ops])
            return ops

        monkeypatch.setattr(kronecker, "gcd", counting)
        monkeypatch.setattr(rings.RingDescriptor, "pair_operations", tracked)
        attributes = set(vars(g))
        assert key_element(g) == expected
        assert len(pairs) == len(set(pairs)) < repeated
        # the cache lives in the pair operations, which nothing keeps
        gc.collect()
        assert len(made) == 1 and all(ref() is None for ref in made[0])
        assert set(vars(g)) == attributes

    def test_reordering_invariance_over_pids(self):
        rng = random.Random(41)
        for seed in range(15):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            perm = list(range(g.n))
            rng.shuffle(perm)
            permuted = LabeledGraph(
                g.ring,
                [g.vertex_labels[perm[i]] for i in range(g.n)],
                [(perm.index(e.u), perm.index(e.v), e.label) for e in g.edges],
            )
            assert associate_unit(qhat(g), qhat(permuted)) is not None


class TestDeterminant:
    def test_diag(self, t4, t4_set_a):
        expected = ZXY.one
        for i, col in enumerate(t4_set_a.columns):
            expected = expected * col.components[i]
        det = spline_determinant(t4_set_a)
        assert associate_unit(det, expected) is not None

    def test_t4_basis_det_is_minus_qhat(self, t4, t4_basis_b):
        assert spline_determinant(t4_basis_b) == -qhat(t4)

    def test_c3_rational_det_is_twice_qhat(self, c3_rat):
        columns = [
            ("x^2*y+x*y^2", "x^2*y+x*y^2", "x^2*y+x*y^2"),
            (
                "x^3+x^2*y+2*x*y^3-4*x*y^2+2*x*y",
                "x^3*y-x^2*y^2+2*x*y^3-3*x*y^2+x*y-y^3-y^2",
                "x^3+x^2+x*y^3-2*x*y^2+x*y+y^4-y^3",
            ),
            (
                "x^4-2*x^3-x^2*y^2+4*x*y^2-2*x*y",
                "-x^2*y+4*x*y^2+y^3",
                "x^4-x^3+3*x*y^2-y^4+2*y^3",
            ),
        ]
        ms = make_matrix(c3_rat, columns, qxy)
        det = spline_determinant(ms)
        assert det == qhat(c3_rat) * QXY.from_int(2)

    def test_2x2_sign_convention(self, p2, p2_basis):
        # rows are (v2, v1) top to bottom: det = 6*12 - 2*... = -24
        assert spline_determinant(p2_basis) == zz(-24)

    def test_zero_determinant(self, p2):
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(2), zz(6)]), Spline(p2, [zz(4), zz(12)])]
        )
        assert spline_determinant(ms).is_zero

    def test_bareiss_matches_permanent_small(self):
        # cross-check the elimination against cofactor expansion
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(1, 4)
            g = LabeledGraph(ZZ, [ZZ.one] * n, [(i, i + 1, ZZ.one) for i in range(n - 1)])
            cols = [
                Spline(g, [ZZ.from_int(rng.randint(-9, 9)) for _ in range(n)])
                for _ in range(n)
            ]
            ms = SplineMatrix(g, cols)
            assert spline_determinant(ms) == _cofactor_det(_rows(ms))

    def test_matches_sympy(self):
        # an independent oracle over ZZ[x,y] and QQ[x]: sympy's determinant
        sympy = pytest.importorskip("sympy")
        rng = random.Random(47)
        for ring in (ZXY, QX):
            for _ in range(15):
                n = rng.randint(1, 4)
                rows = _random_matrix(rng, ring, n, singular=rng.random() < 0.2)
                expected = sympy.Matrix(
                    [[_to_sympy(sympy, e) for e in row] for row in rows]
                ).det(method="berkowitz")
                got = _to_sympy(sympy, spline_determinant(_as_spline_matrix(rows)))
                assert sympy.expand(got - expected) == 0, (rows, got, expected)
            # every shape of _shaped_matrix: shuffled and in-order
            # triangles and blocks, regular or singular, a zero row
            for shape in SHAPES:
                for trial in range(6):
                    n = rng.randint(3 if shape.startswith("block") else 1, 5)
                    rows, _ = _shaped_matrix(rng, ring, n, shape, singular=trial % 3 == 2)
                    expected = sympy.Matrix(
                        [[_to_sympy(sympy, e) for e in row] for row in rows]
                    ).det(method="berkowitz")
                    got = _to_sympy(sympy, spline_determinant(_as_spline_matrix(rows)))
                    assert sympy.expand(got - expected) == 0, (shape, rows, got, expected)


class TestBareissKernel:
    """_bareiss against the literal definition: the determinant by Laplace
    expansion, and each Cramer numerator as the determinant of the matrix
    with that column replaced by the target.  Matrices lower triangular in
    vertex order must not reach it: their determinant makes no division,
    and express_in_basis one per column, for a member or a non-member."""

    def test_matches_cofactor_definition(self):
        rng = random.Random(2024)
        seen = {"singular": 0, "in_span": 0, "not_in_span": 0}
        for ring in (ZZ, QX, ZXY):
            for trial in range(40):
                n = 1 + trial % 5
                singular = trial % 4 == 3
                rows = _random_matrix(rng, ring, n, singular=singular)
                self._check_against_cofactors(rng, ring, rows, seen)
        assert min(seen.values()) >= 10, seen
        # every path of _bareiss: elimination without a row swap (an
        # in-order triangle, which express_in_basis hands to _forward
        # instead), elimination with row swaps (a shuffled triangle, odd
        # or even), a singular block that ends in a pivot column with no
        # nonzero entry or a zero last pivot (shuffled or in order), and a
        # zero row
        shaped = {
            "in_order_triangle": 0,
            "odd_shuffled_triangle": 0,
            "singular_block": 0,
            "in_order_singular_block": 0,
            "zero_row": 0,
        }
        for ring in (ZZ, QX, ZXY):
            for shape in SHAPES:
                for trial in range(8):
                    n = rng.randint(3 if shape.startswith("block") else 1, 5)
                    singular = trial % 3 == 2
                    rows, odd = _shaped_matrix(rng, ring, n, shape, singular=singular)
                    det = self._check_against_cofactors(rng, ring, rows, seen)
                    shaped["in_order_triangle"] += shape == "triangular_in_order"
                    shaped["odd_shuffled_triangle"] += shape == "triangular" and odd
                    shaped["singular_block"] += shape == "block" and singular and det.is_zero
                    shaped["in_order_singular_block"] += (
                        shape == "block_in_order" and singular and det.is_zero
                    )
                    shaped["zero_row"] += shape == "zero_row"
                    if shape.startswith("triangular"):
                        assert not det.is_zero
        assert min(shaped.values()) >= 5, shaped

    @staticmethod
    def _check_against_cofactors(rng, ring, rows, seen):
        """Check det, the numerators and express_in_basis of rows with a
        random target against the cofactor definition; returns det."""
        n = len(rows)
        if rng.random() < 0.5:
            # a target in the span: M times random coefficients
            coefficients = [_random_element(rng, ring) for _ in range(n)]
            target = [
                sum((a * c for a, c in zip(row, coefficients)), ring.zero)
                for row in rows
            ]
        else:
            target = [_random_element(rng, ring) for _ in range(n)]
        det, numerators = _wrapped_bareiss(ring, rows, target)
        assert det == _cofactor_det(rows)
        assert _wrapped_bareiss(ring, rows)[0] == det
        if det.is_zero:
            seen["singular"] += 1
            assert numerators is None
            with pytest.raises(ZeroDivisionError):
                express_in_basis(*_express_args(rows, target))
            return det
        literal = [
            _cofactor_det([row[:k] + [b] + row[k + 1:] for row, b in zip(rows, target)])
            for k in range(n)
        ]
        assert numerators == literal
        failed = tuple(
            k for k, y in enumerate(literal) if ring.divide(y.value, det.value) is None
        )
        if failed:
            seen["not_in_span"] += 1
            with pytest.raises(NotInSpanError) as exc:
                express_in_basis(*_express_args(rows, target))
            assert exc.value.failed_indices == failed
            assert exc.value.index == failed[0]
        else:
            seen["in_span"] += 1
            got = express_in_basis(*_express_args(rows, target))
            assert list(got) == [RingElement(ring, ring.divide(y.value, det.value)) for y in literal]
        return det

    def test_foreign_entries_rejected(self):
        # the kernel takes raw values: foreign entries are refused where
        # they are unwrapped, by Spline, and a column of another graph by
        # SplineMatrix, before any elimination
        g, h, _ = _twin_graphs()
        for foreign in ([zz(2), rings.QQ.zero], [ZZ.zero, QX.one]):
            with pytest.raises(rings.DescriptorMismatchError):
                Spline(g, foreign)
        with pytest.raises(TypeError):
            Spline(g, [zz(2), 6])
        with pytest.raises(ValueError, match="^all columns must live on the same graph$"):
            SplineMatrix(g, [Spline(g, [zz(2), zz(0)]), Spline(h, [zz(0), zz(3)])])

    def test_wraps_only_at_entry_and_exit(self, monkeypatch):
        # the elimination runs on raw values: it builds no element, the
        # determinant is wrapped once and express_in_basis wraps only its
        # coefficients, not per arithmetic step
        rng = random.Random(101)
        n = 6
        rows = [[ZZ.from_int(rng.randint(-50, 50)) for _ in range(n)] for _ in range(n)]
        coefficients = [ZZ.from_int(rng.randint(-50, 50)) for _ in range(n)]
        target = [sum((a * c for a, c in zip(row, coefficients)), ZZ.zero) for row in rows]
        g, ms, f = _express_args(rows, target)
        raw_rows = [ZZ.values(row) for row in rows]
        built = []
        original = rings.RingElement.__init__

        def counting(self, descriptor, value):
            built.append(value)
            original(self, descriptor, value)

        monkeypatch.setattr(rings.RingElement, "__init__", counting)
        det, numerators = _bareiss(ZZ, raw_rows, ZZ.values(target))
        assert det and len(numerators) == n and built == []
        assert spline_determinant(ms).value == det and len(built) == 1
        assert list(express_in_basis(g, ms, f)) == coefficients
        assert len(built) == 1 + n

    def test_span_decomposition_numerators(self, p2, p2_basis):
        # qhat * f = sum x_k F_k with x_k = det(M_k) / unit, here unit -1
        f = Spline(p2, [zz(2), zz(6)])
        rows = _rows(p2_basis)
        literal = [
            _cofactor_det([row[:k] + [b] + row[k + 1:] for row, b in zip(rows, [zz(6), zz(2)])])
            for k in range(2)
        ]
        assert list(express_in_basis(p2, p2_basis, f.scale(qhat(p2)))) == [-y for y in literal]

    def test_flow_up_and_witness_solves_need_no_division(self, monkeypatch):
        # flow-up bases and coprime witness matrices are lower triangular in
        # vertex order: the determinant is the product of the diagonal,
        # without a division, and express_in_basis substitutes forward, one
        # division per column for a member and a non-member alike; neither
        # calls _bareiss.  A non-member raises NotInSpanError with the
        # failing columns of the Cramer path, drawn before _bareiss is
        # patched out
        rng = random.Random(223)
        pool = [zz(2), zz(3), zz(5), zz(6)]
        cases = []
        for seed in range(30):
            g = random_graph(ZZ, pool, seed, 2 + seed % 6)
            basis = flow_up_basis(g)
            cases.append((g, basis.matrix(), _random_combination(rng, g, basis)))
        g = LabeledGraph(ZZ, [zz(2), zz(3), zz(5)], [(0, 1, zz(7)), (1, 2, zz(11))])
        for ms in coprime_witness_matrices(g):
            cases.append((g, ms, Spline._raw(g, splines._combination(g, ms, [4, -3, 0]))))
        g = random_graph(ZZ, pool, 40, 40)
        basis = flow_up_basis(g)
        cases.append((g, basis.matrix(), _random_combination(rng, g, basis)))
        assert len(cases) == 30 + 5 + 1
        outside = [_cramer_non_member(rng, g, ms) for g, ms, _ in cases]
        monkeypatch.setattr(splines, "_bareiss", _no_kernel)
        for (g, ms, f), (h, failed) in zip(cases, outside):
            ring = _CountingRing(g.ring)
            monkeypatch.setattr(g, "ring", ring)
            assert spline_determinant(ms).value and ring.divisions == 0
            coefficients = express_in_basis(g, ms, f)
            assert ring.divisions == g.n
            with pytest.raises(NotInSpanError) as exc:
                express_in_basis(g, ms, h)
            assert ring.divisions == 2 * g.n
            assert (exc.value.index, exc.value.failed_indices) == (failed[0], failed)
            monkeypatch.setattr(g, "ring", ring.ring)
            assert splines._combination(g, ms, [c.value for c in coefficients]) == f.values
        # a 400-column triangle, unimodular but for three pivots, and a
        # member pushed off the span at two vertices; at this size the
        # Cramer reference is the solution over QQ (a numerator divides by
        # det exactly when the coefficient is an integer)
        n = 400
        columns = _vertex_order_triangle(rng, ZZ, n, "unimodular")
        for k, pivot in [(100, 2), (180, 3), (250, 6)]:
            columns[k][k] = zz(pivot)
        g = _ones_graph(ZZ, n)
        ms = SplineMatrix(g, [Spline(g, col) for col in columns])
        member = splines._combination(g, ms, [rng.randint(-9, 9) for _ in range(n)])
        h = Spline._raw(g, [x + (k in (100, 250)) for k, x in enumerate(member)])
        failed = _rational_failures(ms, h)
        assert failed[0] == 100 and len(failed) < n - 100
        ring = _CountingRing(ZZ)
        monkeypatch.setattr(g, "ring", ring)
        with pytest.raises(NotInSpanError) as exc:
            express_in_basis(g, ms, h)
        assert ring.divisions == n and exc.value.failed_indices == failed


def _cramer_non_member(rng, g, ms):
    """A random target outside the span of ms and its failing columns by
    the Cramer path: _bareiss on the rows in vertex order, then each
    numerator divided by det."""
    ring = g.ring
    rows = list(zip(*(col.values for col in ms.columns)))
    while True:
        f = Spline(g, [_random_element(rng, ring) for _ in range(g.n)])
        det, numerators = _bareiss(ring, rows, f.values)
        failed = tuple(k for k, y in enumerate(numerators) if ring.divide(y, det) is None)
        if failed:
            return f, failed


def _rational_failures(ms, f):
    """The columns whose coefficient of f is not an integer, by forward
    substitution over QQ on a ZZ matrix lower triangular in vertex order."""
    rest = [Fraction(x) for x in f.values]
    failed = []
    for k, col in enumerate(ms.columns):
        x = rest[k] / col.values[k]
        if x.denominator != 1:
            failed.append(k)
        for v in range(k + 1, len(rest)):
            rest[v] -= x * col.values[v]
    return tuple(failed)


class _CountingRing:
    """A proxy of ring that counts its divide calls."""

    def __init__(self, ring):
        self.ring, self.divisions = ring, 0

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def divide(self, a, b):
        self.divisions += 1
        return self.ring.divide(a, b)


def _wrapped_bareiss(ring, rows, target=None):
    """_bareiss on the raw values of element rows and target, its results
    wrapped."""
    raw = [ring.values(row) for row in rows]
    det, ys = _bareiss(ring, raw, None if target is None else ring.values(target))
    return rings.RingElement(ring, det), None if ys is None else [rings.RingElement(ring, y) for y in ys]


def _cofactor_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].descriptor.zero
    for c, entry in enumerate(rows[0]):
        term = entry * _cofactor_det([row[:c] + row[c + 1:] for row in rows[1:]])
        total = total - term if c % 2 else total + term
    return total


def _random_element(rng, ring):
    """A small random element; about a quarter are zero."""
    if rng.random() < 0.25:
        return ring.zero
    if ring is ZZ:
        return ZZ.from_int(rng.randint(-9, 9))
    out = ring.zero
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(-5, 5)
        if ring.rational_coefficients:
            term = rings.parse_element(f"{c}/{rng.randint(1, 4)}", ring)
        else:
            term = ring.from_int(c)
        for v in ring.variables:
            term = term * ring.variable(v) ** rng.randint(0, 2)
        out = out + term
    return out


def _random_matrix(rng, ring, n, singular=False):
    rows = [[_random_element(rng, ring) for _ in range(n)] for _ in range(n)]
    if singular:
        # a zero column for n = 1, else the last column a combination of
        # the first two (or a copy of the first)
        a, b = _random_element(rng, ring), _random_element(rng, ring)
        for row in rows:
            row[-1] = a * row[0] + b * row[1] if n > 1 else ring.zero
    return rows


SHAPES = (
    "sparse",
    "triangular",
    "triangular_in_order",
    "block",
    "block_in_order",
    "zero_row",
)


def _shaped_matrix(rng, ring, n, shape, singular=False):
    """A random n x n matrix of one shape with its rows and columns
    shuffled, unless the shape ends in "_in_order", and whether the two
    shuffles together are odd.

    sparse: about 70% of the entries zero.  triangular: lower triangular
    with a nonzero diagonal.  block (n >= 3): triangular but for a dense
    diagonal block of 2 or 3 rows below the first row; the block's last
    column is a multiple of its first when singular is set.  zero_row:
    dense with a row of zeros.  Shuffled, a triangle is no longer
    triangular in the given order, and the elimination may swap rows."""
    in_order = shape.endswith("_in_order")
    shape = shape.removesuffix("_in_order")
    if shape == "sparse":
        rows = [
            [_random_element(rng, ring) if rng.random() < 0.4 else ring.zero for _ in range(n)]
            for _ in range(n)
        ]
    elif shape == "zero_row":
        rows = _random_matrix(rng, ring, n)
        rows[rng.randrange(n)] = [ring.zero] * n
    else:
        rows = [[_random_element(rng, ring) if j < i else ring.zero for j in range(n)] for i in range(n)]
        for i in range(n):
            while rows[i][i].is_zero:
                rows[i][i] = _random_element(rng, ring)
        if shape == "block":
            size = rng.randint(2, min(3, n - 1))
            top = rng.randint(1, n - size)
            block = _random_matrix(rng, ring, size)
            if singular:
                c = _random_element(rng, ring)
                for block_row in block:
                    block_row[-1] = c * block_row[0]
            for i, block_row in enumerate(block):
                rows[top + i][top:top + size] = block_row
    if in_order:
        return rows, False
    row_order, column_order = list(range(n)), list(range(n))
    rng.shuffle(row_order)
    rng.shuffle(column_order)
    inversions = sum(
        order[j] > order[i] for order in (row_order, column_order) for i in range(n) for j in range(i)
    )
    return [[rows[i][j] for j in column_order] for i in row_order], inversions % 2 == 1


def _rows(ms):
    """The rows of the matrix of ms, v_n at the top down to v_1 at the
    bottom."""
    return [list(row) for row in zip(*(col.components for col in ms.columns))][::-1]


def _as_spline_matrix(rows):
    n = len(rows)
    g = _ones_graph(rows[0][0].descriptor, n)
    columns = [Spline(g, [rows[n - 1 - i][k] for i in range(n)]) for k in range(n)]
    return SplineMatrix(g, columns)


def _express_args(rows, target):
    """(g, matrix, f) whose express_in_basis call solves rows * c = target."""
    ms = _as_spline_matrix(rows)
    return ms.graph, ms, Spline(ms.graph, target[::-1])


def _to_sympy(sympy, e):
    return sympy.sympify(rings.format_element(e).replace("^", "**"))


class TestTriangularPath:
    """Matrices lower triangular in vertex order skip the elimination: the
    determinant is the product of the diagonal and express_in_basis
    substitutes forward, which also decides every column of a target
    outside the span.  Each public result must be the
    one of the Cramer path, _bareiss and the divisions by det, which every
    matrix takes when _triangular is switched off."""

    def test_matches_cramer_path(self, monkeypatch):
        rng = random.Random(3301)
        seen = {
            "member": 0,
            "non_member": 0,
            "regular": 0,
            "singular": 0,
            "unimodular": 0,
            "flow_up": 0,
            "witness": 0,
        }
        cases = []
        for ring in (ZZ, QX, ZXY):
            for trial in range(21):
                n = 1 + trial % 7
                kind = ("regular", "singular", "unimodular")[trial % 3]
                columns = _vertex_order_triangle(rng, ring, n, kind)
                cases.append((_ones_graph(ring, n), columns, kind))
        pools = {ZZ: [zz(2), zz(3), zz(5), zz(6)], QX: [qx("x"), qx("x+1"), qx("x^2+1")]}
        for ring, pool in pools.items():
            for seed in range(8):
                g = random_graph(ring, pool, seed, 2 + seed % 4)
                columns = [list(c.components) for c in flow_up_basis(g).matrix().columns]
                cases.append((g, columns, "flow_up"))
        coprime = [
            LabeledGraph(ZZ, [zz(2), zz(3), zz(5)], [(0, 1, zz(7)), (1, 2, zz(11))]),
            LabeledGraph(QX, [qx("x"), qx("x+1")], [(0, 1, qx("x+2"))]),
            LabeledGraph(ZXY, [zxy("x"), zxy("y"), zxy("x+y")], [(0, 1, zxy("x-y")), (0, 2, zxy("x+2"))]),
        ]
        for g in coprime:
            for ms in coprime_witness_matrices(g):
                cases.append((g, [list(c.components) for c in ms.columns], "witness"))
        for g, columns, kind in cases:
            ms = SplineMatrix(g, [Spline(g, col) for col in columns])
            assert splines._triangular(ms) == (kind != "singular")
            seen[kind] += 1
            coefficients = g.ring.values(_random_element(rng, g.ring) for _ in columns)
            member = Spline._raw(g, splines._combination(g, ms, coefficients))
            outside = Spline(g, [_random_element(rng, g.ring) for _ in columns])
            for f in (member, outside):
                new = _outcomes(g, ms, f)
                with monkeypatch.context() as patch:
                    patch.setattr(splines, "_triangular", lambda ms: False)
                    assert _outcomes(g, ms, f) == new, (g.ring, columns, f)
                if kind != "singular":
                    seen["member" if new[1][0] == "ok" else "non_member"] += 1
                    assert new[0] == _cramer_determinant(g.ring, columns)
            if kind == "singular":
                assert new[0].is_zero and new[1] == ("ZeroDivisionError",)
        assert min(seen.values()) >= 10, seen


def _vertex_order_triangle(rng, ring, n, kind):
    """n random columns, column k zero at the vertices before k, its entry
    at k nonzero; a unit there in every column when kind is "unimodular",
    and zero in one column when kind is "singular"."""
    columns = [[ring.zero] * k + [_random_element(rng, ring) for _ in range(n - k)] for k in range(n)]
    for k, col in enumerate(columns):
        while col[k].is_zero:
            col[k] = _random_element(rng, ring)
        if kind == "unimodular":
            col[k] = ring.from_int(rng.choice((-1, 1)))
    if kind == "singular":
        k = rng.randrange(n)
        columns[k][k] = ring.zero
    return columns


def _ones_graph(ring, n):
    """A path on n vertices with every label one: each vector is a spline."""
    return LabeledGraph(ring, [ring.one] * n, [(i, i + 1, ring.one) for i in range(n - 1)])


def _outcomes(g, ms, f):
    """The determinant, and what express_in_basis and certify_basis return
    or raise, for an equality check."""

    def run(fn, *args):
        try:
            return ("ok", fn(*args))
        except NotInSpanError as exc:
            return ("NotInSpanError", exc.index, exc.failed_indices, str(exc))
        except ZeroDivisionError as exc:
            return (type(exc).__name__,)

    return (
        spline_determinant(ms),
        run(express_in_basis, g, ms, f),
        certify_basis(g, ms),
    )


def _cramer_determinant(ring, columns):
    """det by _bareiss on the rows in vertex order, with the convention's
    sign for reversing the n rows."""
    n = len(columns)
    rows = [ring.values(row) for row in zip(*columns)]
    det = rings.RingElement(ring, _bareiss(ring, rows)[0])
    return -det if n * (n - 1) // 2 % 2 else det


class TestCertify:
    def test_t4_basis_certified(self, t4, t4_basis_b):
        cert = certify_basis(t4, t4_basis_b)
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.unit == ZXY.from_int(-1)

    def test_t4_set_a_inconclusive(self, t4, t4_set_a):
        cert = certify_basis(t4, t4_set_a)
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_p2_certified(self, p2, p2_basis):
        cert = certify_basis(p2, p2_basis)
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.unit.value in (1, -1)

    def test_not_splines_refuted(self, p2):
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(1), zz(0)]), Spline(p2, [zz(0), zz(12)])]
        )
        cert = certify_basis(p2, ms)
        assert cert.verdict is Verdict.REFUTED_NOT_SPLINES
        assert cert.failing_columns == (0,)

    def test_dependent_refuted(self, p2):
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(2), zz(6)]), Spline(p2, [zz(4), zz(12)])]
        )
        assert certify_basis(p2, ms).verdict is Verdict.REFUTED_DEPENDENT

    def test_pid_converse_refutes(self, p2):
        # determinant 2*qhat over a PID: not a basis by the equivalence
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(4), zz(12)]), Spline(p2, [zz(0), zz(12)])]
        )
        cert = certify_basis(p2, ms)
        assert cert.verdict is Verdict.REFUTED_BY_COPRIME_CONVERSE

    def test_pid_refutation_skips_the_coprime_scan(self, p2, monkeypatch):
        # over a PID the verdict does not depend on the labels' coprimality
        def scan(g):
            raise AssertionError("coprime_label_violation called over a PID")

        monkeypatch.setattr(splines, "coprime_label_violation", scan)
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(4), zz(12)]), Spline(p2, [zz(0), zz(12)])]
        )
        assert certify_basis(p2, ms).verdict is Verdict.REFUTED_BY_COPRIME_CONVERSE

    def test_coprime_converse_refutes(self):
        g = LabeledGraph(ZZ, [zz(2), zz(3)], [(0, 1, zz(5))])
        basis = flow_up_basis(g).matrix()
        scaled = SplineMatrix(g, [basis.columns[0].scale(zz(7)), basis.columns[1]])
        cert = certify_basis(g, scaled)
        assert cert.verdict is Verdict.REFUTED_BY_COPRIME_CONVERSE

    def test_matrix_of_another_graph_refused_before_elimination(self, monkeypatch):
        g, h, basis = _twin_graphs()
        monkeypatch.setattr(splines, "_bareiss", _no_elimination)
        with pytest.raises(ValueError, match="^splines live on different graphs$"):
            certify_basis(h, basis)

    def test_inconclusive_needs_non_pid_non_coprime(self, t4, t4_set_a):
        assert coprime_label_violation(t4) is not None
        assert not t4.ring.is_pid


class TestExpress:
    def test_not_in_span_with_failing_columns(self, t4, t4_set_a, t4_target):
        with pytest.raises(NotInSpanError) as info:
            express_in_basis(t4, t4_set_a, t4_target)
        assert info.value.index == 0
        # the printed obstruction at the second column is among the failures
        assert 1 in info.value.failed_indices
        assert info.value.failed_indices == (0, 1, 2)

    def test_basis_column_is_unit_vector(self, t4, t4_basis_b):
        coefficients = express_in_basis(t4, t4_basis_b, t4_basis_b.columns[0])
        assert [str(c) for c in coefficients] == ["1", "0", "0", "0"]

    def test_p2_known_combination(self, p2, p2_basis):
        f = Spline(p2, [zz(6), zz(42)])
        assert [c.value for c in express_in_basis(p2, p2_basis, f)] == [3, 2]

    def test_target_in_printed_basis(self, t4, t4_basis_b, t4_target):
        coefficients = express_in_basis(t4, t4_basis_b, t4_target)
        assert [str(c) for c in coefficients] == ["0", "1", "1", "0"]

    def test_zero_determinant_raises(self, p2):
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(2), zz(6)]), Spline(p2, [zz(4), zz(12)])]
        )
        with pytest.raises(ZeroDivisionError):
            express_in_basis(p2, ms, Spline(p2, [zz(2), zz(6)]))

    def test_target_of_another_graph_refused_before_elimination(self, monkeypatch):
        g, h, basis = _twin_graphs()
        monkeypatch.setattr(splines, "_bareiss", _no_elimination)
        for graph_, target in [(g, h), (h, h), (h, g)]:
            with pytest.raises(ValueError, match="^splines live on different graphs$"):
                express_in_basis(graph_, basis, Spline(target, [zz(6), zz(42)]))

    def test_reconstruction_mismatch_raises(self, monkeypatch, p2, p2_basis):
        # coefficients off by one: the raw-value reconstruction must refuse
        # them, from the forward substitution (p2_basis is lower triangular
        # in vertex order) and from the elimination (its columns reversed)
        member = Spline(p2, [zz(6), zz(42)])
        real_forward, real_bareiss = splines._forward, splines._bareiss

        def faulty_forward(ring, ms, target):
            return [ring.add(c, ring.one.value) for c in real_forward(ring, ms, target)]

        # numerators off by one determinant still divide, into coefficients
        # off by one
        def faulty_bareiss(ring, rows, rhs=None):
            det, ys = real_bareiss(ring, rows, rhs)
            return det, [ring.add(y, det) for y in ys]

        reversed_basis = SplineMatrix(p2, p2_basis.columns[::-1])
        for ms, name, faulty in [
            (p2_basis, "_forward", faulty_forward),
            (reversed_basis, "_bareiss", faulty_bareiss),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(splines, name, faulty)
                with pytest.raises(splines.SplineError, match="^internal error: Cramer reconstruction mismatch$"):
                    express_in_basis(p2, ms, member)
            assert len(express_in_basis(p2, ms, member)) == 2


def _twin_graphs():
    """Two graphs with the same labels (2, 3; edge 5) and the first one's
    flow-up basis."""
    g, h = (LabeledGraph(ZZ, [zz(2), zz(3)], [(0, 1, zz(5))]) for _ in range(2))
    return g, h, flow_up_basis(g).matrix()


def _no_elimination(ring, rows, rhs=None):
    raise AssertionError("_bareiss called on splines of another graph")


def _no_kernel(ring, rows, rhs=None):
    raise AssertionError("_bareiss called on a matrix lower triangular in vertex order")


class TestSpanDecomposition:
    """qhat * f = sum x_k F_k has a solution x over the ring whenever the
    determinant of F is a unit multiple of qhat: x = u^-1 * adj(F) * f."""

    def test_zero_target(self, p2, p2_basis):
        xs = express_in_basis(p2, p2_basis, Spline(p2, [zz(0), zz(0)]).scale(qhat(p2)))
        assert all(x.is_zero for x in xs)

    def test_column_target(self, p2, p2_basis):
        det = spline_determinant(p2_basis)
        xs = express_in_basis(p2, p2_basis, p2_basis.columns[0].scale(qhat(p2)))
        # det = -qhat here, so the scaled replaced determinant is |det|
        assert xs[0] == rings.canonical_associate(det) and xs[1].is_zero

    def test_p2_hand_value(self, p2, p2_basis):
        xs = express_in_basis(p2, p2_basis, Spline(p2, [zz(2), zz(6)]).scale(qhat(p2)))
        assert [x.value for x in xs] == [24, 0]

    def test_non_triangular_basis_matches_scaled_numerators(self, t4, t4_basis_b, t4_target):
        # t4_basis_b is not lower triangular in vertex order, so x comes
        # from _bareiss's numerators divided by det = u*qhat; it must be
        # u^-1 times those numerators, and sum x_k F_k must be qhat * f
        assert not splines._triangular(t4_basis_b)
        key = qhat(t4)
        xs = express_in_basis(t4, t4_basis_b, t4_target.scale(key))
        assert splines._combination(t4, t4_basis_b, ZXY.values(xs)) == tuple(
            ZXY.values(key * c for c in t4_target.components)
        )
        rows = [list(row) for row in zip(*(col.components for col in t4_basis_b.columns))]
        det, numerators = _wrapped_bareiss(ZXY, rows, list(t4_target.components))
        # reversing four rows is six swaps: the convention keeps the sign
        assert spline_determinant(t4_basis_b) == det
        unit = rings.associate_unit(det, key)
        assert unit == ZXY.from_int(-1)
        inverse = RingElement(ZXY, ZXY.divide(ZXY.one.value, unit.value))
        assert list(xs) == [inverse * y for y in numerators]

    def test_reconstruction_random(self):
        rng = random.Random(47)
        for seed in range(10):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.4, label_bound=20))
            ms = flow_up_basis(g).matrix()
            f = _random_combination(rng, g, flow_up_basis(g))
            xs = express_in_basis(g, ms, f.scale(qhat(g)))
            combined = Spline(g, [g.ring.zero] * g.n)
            for x, col in zip(xs, ms.columns):
                combined = combined + col.scale(x)
            assert combined == f.scale(qhat(g))


class TestLinearCombinationLemmas:
    def test_basis_determinant_divides_combination_determinant(self):
        rng = random.Random(53)
        for seed in range(12):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.4, label_bound=20))
            basis = flow_up_basis(g).matrix()
            det = spline_determinant(basis)
            combos = [
                _random_combination(rng, g, flow_up_basis(g)) for _ in range(g.n)
            ]
            other = spline_determinant(SplineMatrix(g, combos))
            assert ZZ.divide(other.value, det.value) is not None

    def test_two_bases_have_associate_determinants(self):
        rng = random.Random(59)
        for seed in range(12):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.4, label_bound=20))
            ms = flow_up_basis(g).matrix()
            columns = list(ms.columns)
            # random elementary column operations keep it a basis
            for _ in range(6):
                i, j = rng.sample(range(g.n), 2)
                columns[i] = columns[i] + columns[j].scale(ZZ.from_int(rng.randint(-3, 3)))
            second = SplineMatrix(g, columns)
            first_cert = certify_basis(g, ms)
            second_cert = certify_basis(g, second)
            assert first_cert.verdict is Verdict.CERTIFIED
            assert second_cert.verdict is Verdict.CERTIFIED
            assert associate_unit(first_cert.determinant, second_cert.determinant) is not None


def _reference_witness_matrices(g):
    """The witness matrices built literally: one loop for vertex witnesses
    and one for edge witnesses, each lhat a product of the other labels."""
    n = g.n
    labels = list(g.vertex_labels) + [e.label for e in g.edges]
    key = qhat(g)

    def hat(skip):
        product = g.ring.one
        for idx, label in enumerate(labels):
            if idx != skip:
                product = product * label
        return product

    zero = g.ring.zero
    out = []
    for i in range(n):
        lhat = hat(i)
        columns = []
        for j in range(n):
            comp = [zero] * n
            comp[j] = key if j == i else lhat
            columns.append(comp)
        out.append(columns)
    for e_index, e in enumerate(g.edges):
        lhat = hat(n + e_index)
        a, b = e.endpoints()
        columns = []
        for j in range(n):
            comp = [zero] * n
            if j == a:
                comp[a] = lhat
                comp[b] = lhat
            elif j == b:
                comp[b] = key
            else:
                comp[j] = lhat
            columns.append(comp)
        out.append(columns)
    return out


def _coprime_linear_graph(rng, ring, n):
    """A connected graph whose labels are distinct linear forms
    x + k*y + c, pairwise coprime since their x-coefficients are 1."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [rng.sample(range(n), 2) for _ in range(rng.randrange(n + 1))] if n > 1 else []
    ks = rng.sample(range(-20, 21), n + len(pairs))
    x, y = ring.variable("x"), ring.variable("y")
    labels = [x + ring.from_int(k) * y + ring.from_int(rng.randint(-3, 3)) for k in ks]
    return LabeledGraph(ring, labels[:n], [(u, v, label) for (u, v), label in zip(pairs, labels[n:])])


class TestWitnessMatrices:
    def test_matches_reference_construction(self):
        rng = random.Random(67)
        graphs = [
            random_instance(InstanceSpec(seed=seed, n=n, edge_density=0.5, coprime=True))
            for seed in range(6)
            for n in (1, 2, 4, 5)
        ]
        graphs += [_coprime_linear_graph(rng, ring, n) for ring in (ZXY, QXY) for n in (1, 2, 3, 5)]
        for g in graphs:
            assert coprime_label_violation(g) is None
            got = [[col.components for col in ms.columns] for ms in coprime_witness_matrices(g)]
            expected = [[tuple(col) for col in columns] for columns in _reference_witness_matrices(g)]
            assert got == expected
        assert sum(g.ring is not ZZ and len(g.edges) > 1 for g in graphs) >= 4

    def test_single_vertex(self, single_vertex):
        matrices = coprime_witness_matrices(single_vertex)
        assert len(matrices) == 1
        assert matrices[0].columns[0].components[0] == zz(5)

    def test_p2_coprime(self):
        g = LabeledGraph(ZZ, [zz(2), zz(3)], [(0, 1, zz(5))])
        matrices = coprime_witness_matrices(g)
        assert len(matrices) == 3
        key = qhat(g)
        assert key.value == 30
        # edge witness: lhat_3 = 6
        edge_matrix = matrices[2]
        assert [c.value for c in edge_matrix.columns[0].components] == [6, 6]
        assert [c.value for c in edge_matrix.columns[1].components] == [0, 30]
        det = spline_determinant(edge_matrix)
        assert abs(det.value) == 6 * 30

    def test_columns_are_splines_and_determinants_match(self):
        for seed in range(10):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, coprime=True))
            key = qhat(g)
            labels = list(g.vertex_labels) + [e.label for e in g.edges]
            for idx, ms in enumerate(coprime_witness_matrices(g)):
                for col in ms.columns:
                    assert is_spline(g, col.components)
                hat = ZZ.one
                for pos, label in enumerate(labels):
                    if pos != idx:
                        hat = hat * label
                expected = hat ** (g.n - 1) * key
                assert associate_unit(spline_determinant(ms), expected) is not None

    def test_certify_n8_polynomial_witness_within_budget(self):
        # distinct linear forms with x-coefficient 1 are pairwise coprime in
        # ZZ[x,y]; an 8-cycle has 16 of them, and the chord's witness is a
        # permuted triangle whose determinant has thousands of terms
        n = 8
        labels = [zxy(f"x + {k}*y + {k % 3}") for k in range(2 * n)]
        edges = [(i, i + 1, labels[n + i]) for i in range(n - 1)]
        g = LabeledGraph(ZXY, labels[:n], edges + [(0, n - 1, labels[-1])])
        started = time.perf_counter()
        cert = certify_basis(g, coprime_witness_matrices(g)[-1])
        hat = ZXY.one
        for label in labels[:-1]:
            hat = hat * label
        assert cert.verdict is Verdict.REFUTED_BY_COPRIME_CONVERSE
        assert associate_unit(cert.determinant, hat ** (n - 1) * cert.qhat) is not None
        assert time.perf_counter() - started < 6.0

    def test_rejects_non_coprime(self, c3_int):
        g = LabeledGraph(ZZ, [zz(4), zz(6)], [(0, 1, zz(5))])
        with pytest.raises(CoprimalityError):
            coprime_witness_matrices(g)
