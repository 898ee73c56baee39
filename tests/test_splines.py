import math
import random

import pytest

from egsplines import graph, rings, splines
from egsplines.graph import LabeledGraph
from egsplines.oracle import InstanceSpec, random_instance, trails_between
from egsplines.pid import flow_up_basis, verify_flow_up
from egsplines.rings import ZZ, exact_div, gcd, gcd_many, is_associate, lcm_many
from egsplines.splines import (
    _bareiss,
    CoprimalityError,
    NotInSpanError,
    SpanHypothesisError,
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
    qhat_span_decomposition,
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

    def test_zero_labels_divide_only_zero(self):
        # an unvalidated graph: 0 | b only for b = 0, for vertices and edges
        g = LabeledGraph(ZZ, [ZZ.zero, zz(3)], [(0, 1, ZZ.zero)])
        assert spline_violations(g, [ZZ.zero, ZZ.zero]) == []
        assert spline_violations(g, [zz(3), zz(3)]) == [
            "vertex v1: component is not a multiple of 0"
        ]
        assert spline_violations(g, [ZZ.zero, zz(3)]) == [
            "edge 1 (v1,v2): difference is not a multiple of 0"
        ]

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
        # the components on every call; the 3 vertex and 2 edge labels once
        assert unwrapped == [3, 3, 2, 3, 3, 3]

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
        assert is_associate(h_factor(c3_int) * classical_qg(c3_int), qhat(c3_int))

    def test_all_unit_vertex_labels_make_h_a_unit(self, c3_int):
        g = LabeledGraph(ZZ, [ZZ.one] * 3, c3_int.edges)
        assert rings.is_unit(h_factor(g))

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
            assert is_associate(h_factor(g) * classical_qg(g), qhat(g))

    def test_lower_trail_constraints_divide_qhat_random(self):
        from egsplines.graph import trail_constraint
        from egsplines.rings import divides

        for seed in range(15):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            key = qhat(g)
            for i in range(g.n):
                for s in range(i):
                    assert divides(trail_constraint(g, s, i), key)

    def test_coprime_product_formula(self):
        for seed in range(15):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, coprime=True))
            product = ZZ.one
            for label in list(g.vertex_labels) + [e.label for e in g.edges]:
                product = product * label
            assert qhat(g) == product

    def test_trail_constraint_divides_qhat(self, c3_int):
        from egsplines.graph import trail_constraint
        from egsplines.rings import divides

        for i in range(c3_int.n):
            for s in range(i):
                assert divides(trail_constraint(c3_int, s, i), qhat(c3_int))

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
            ring, m = g.ring, g.vertex_labels

            def literal(s, i):
                return lcm_many(
                    [gcd_many(t.edge_labels(g), ring) for t in trails_between(g, s, i)], ring
                )

            uppers = [
                lcm_many([m[i]] + [gcd(m[j], literal(j, i)) for j in range(i + 1, g.n)], ring)
                for i in range(g.n)
            ]
            lowers = [lcm_many([literal(s, i) for s in range(i)], ring) for i in range(g.n)]
            record = key_element(g)
            components = tuple(lcm_many([u, l], ring) for u, l in zip(uppers, lowers))
            assert record.components == components, g
            assert record.qhat == rings.canonical_associate(math.prod(components, start=ring.one))
            assert record.classical_qg == rings.canonical_associate(math.prod(lowers, start=ring.one))
            ones = LabeledGraph(ring, [ring.one] * g.n, g.edges)
            assert record.classical_qg == qhat(ones)
            h = [exact_div(u, gcd(u, l)) for u, l in zip(uppers, lowers)]
            assert record.h_factor == rings.canonical_associate(math.prod(h, start=ring.one))
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
            monkeypatch.setattr(graph, "trail_constraint", no_lookup)
            assert qhat_components(g) is components
            assert is_associate(h_factor(g) * classical_qg(g), qhat(g))
            basis = flow_up_basis(g)
            assert verify_flow_up(g, basis).ok
            assert certify_basis(g, basis.matrix()).is_certified
            monkeypatch.undo()

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
            assert is_associate(qhat(g), qhat(permuted))


class TestDeterminant:
    def test_diag(self, t4, t4_set_a):
        expected = ZXY.one
        for i, col in enumerate(t4_set_a.columns):
            expected = expected * col.components[i]
        det = spline_determinant(t4_set_a)
        assert is_associate(det, expected)

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
            assert spline_determinant(ms) == _cofactor_det(ms.rows())

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


class TestBareissKernel:
    """_bareiss against the literal definition: the determinant by Laplace
    expansion, and each Cramer numerator as the determinant of the matrix
    with that column replaced by the target."""

    def test_matches_cofactor_definition(self):
        rng = random.Random(2024)
        seen = {"singular": 0, "in_span": 0, "not_in_span": 0}
        for ring in (ZZ, QX, ZXY):
            for trial in range(40):
                n = 1 + trial % 5
                singular = trial % 4 == 3
                rows = _random_matrix(rng, ring, n, singular=singular)
                if rng.random() < 0.5:
                    # a target in the span: M times random coefficients
                    coefficients = [_random_element(rng, ring) for _ in range(n)]
                    target = [
                        sum((a * c for a, c in zip(row, coefficients)), ring.zero)
                        for row in rows
                    ]
                else:
                    target = [_random_element(rng, ring) for _ in range(n)]
                det, numerators = _bareiss(rows, target)
                assert det == _cofactor_det(rows)
                assert _bareiss(rows)[0] == det
                if det.is_zero:
                    seen["singular"] += 1
                    assert numerators is None
                    with pytest.raises(ZeroDivisionError):
                        express_in_basis(*_express_args(rows, target))
                    continue
                literal = [
                    _cofactor_det([row[:k] + [b] + row[k + 1:] for row, b in zip(rows, target)])
                    for k in range(n)
                ]
                assert numerators == literal
                failed = tuple(
                    k for k, y in enumerate(literal) if not rings.divides(det, y)
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
                    assert list(got) == [rings.exact_div(y, det) for y in literal]
        assert min(seen.values()) >= 10, seen

    def test_foreign_entries_rejected(self):
        # each foreign entry sits where the elimination never multiplies it:
        # the right-hand side of a 1x1 system, or past a zero column
        with pytest.raises(rings.DescriptorMismatchError):
            _bareiss([[zz(2)]], [rings.QQ.zero])
        with pytest.raises(rings.DescriptorMismatchError):
            _bareiss([[ZZ.zero, rings.QQ.zero], [ZZ.zero, zz(1)]])
        with pytest.raises(rings.DescriptorMismatchError):
            _bareiss([[ZZ.zero, ZZ.zero], [ZZ.zero, QX.one]], [zz(1), zz(2)])

    def test_wraps_only_at_entry_and_exit(self, monkeypatch):
        # the elimination runs on raw values: elements are built for det and
        # the numerators only, not per arithmetic step
        rng = random.Random(101)
        n = 6
        rows = [[ZZ.from_int(rng.randint(-50, 50)) for _ in range(n)] for _ in range(n)]
        target = [ZZ.from_int(rng.randint(-50, 50)) for _ in range(n)]
        built = []
        original = rings.RingElement.__init__

        def counting(self, descriptor, value):
            built.append(value)
            original(self, descriptor, value)

        monkeypatch.setattr(rings.RingElement, "__init__", counting)
        det, numerators = _bareiss(rows, target)
        assert not det.is_zero
        assert len(built) <= n * n + n + 1 + len(numerators) + 4

    def test_span_decomposition_numerators(self, p2, p2_basis):
        # qhat * f = sum x_k F_k with x_k = det(M_k) / unit, here unit -1
        f = Spline(p2, [zz(2), zz(6)])
        rows = p2_basis.rows()
        literal = [
            _cofactor_det([row[:k] + [b] + row[k + 1:] for row, b in zip(rows, [zz(6), zz(2)])])
            for k in range(2)
        ]
        assert list(qhat_span_decomposition(p2, p2_basis, f)) == [-y for y in literal]


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


def _as_spline_matrix(rows):
    n = len(rows)
    ring = rows[0][0].descriptor
    g = LabeledGraph(ring, [ring.one] * n, [(i, i + 1, ring.one) for i in range(n - 1)])
    columns = [Spline(g, [rows[n - 1 - i][k] for i in range(n)]) for k in range(n)]
    return SplineMatrix(g, columns)


def _express_args(rows, target):
    """(g, matrix, f) whose express_in_basis call solves rows * c = target."""
    ms = _as_spline_matrix(rows)
    return ms.graph, ms, Spline(ms.graph, target[::-1])


def _to_sympy(sympy, e):
    return sympy.sympify(rings.format_element(e).replace("^", "**"))


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

    def test_coprime_converse_refutes(self):
        g = LabeledGraph(ZZ, [zz(2), zz(3)], [(0, 1, zz(5))])
        basis = flow_up_basis(g).matrix()
        scaled = SplineMatrix(g, [basis.columns[0].scale(zz(7)), basis.columns[1]])
        cert = certify_basis(g, scaled)
        assert cert.verdict is Verdict.REFUTED_BY_COPRIME_CONVERSE

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

    def test_reconstruction_mismatch_raises(self, monkeypatch, p2, p2_basis):
        # numerators off by one determinant still divide, into coefficients
        # off by one: the raw-value reconstruction must refuse them
        real = splines._bareiss

        def faulty(rows, rhs=None):
            det, ys = real(rows, rhs)
            return det, [y + det for y in ys]

        monkeypatch.setattr(splines, "_bareiss", faulty)
        with pytest.raises(splines.SplineError, match="^internal error: Cramer reconstruction mismatch$"):
            express_in_basis(p2, p2_basis, Spline(p2, [zz(6), zz(42)]))
        with pytest.raises(splines.SplineError, match="^internal error: span decomposition mismatch$"):
            qhat_span_decomposition(p2, p2_basis, Spline(p2, [zz(2), zz(6)]))


class TestSpanDecomposition:
    def test_zero_target(self, p2, p2_basis):
        xs = qhat_span_decomposition(p2, p2_basis, Spline(p2, [zz(0), zz(0)]))
        assert all(x.is_zero for x in xs)

    def test_column_target(self, p2, p2_basis):
        det = spline_determinant(p2_basis)
        xs = qhat_span_decomposition(p2, p2_basis, p2_basis.columns[0])
        # det = -qhat here, so the scaled replaced determinant is |det|
        assert xs[0] == rings.canonical_associate(det) and xs[1].is_zero

    def test_p2_hand_value(self, p2, p2_basis):
        xs = qhat_span_decomposition(p2, p2_basis, Spline(p2, [zz(2), zz(6)]))
        assert [x.value for x in xs] == [24, 0]

    def test_hypothesis_enforced(self, p2):
        ms = SplineMatrix(
            p2, [Spline(p2, [zz(4), zz(12)]), Spline(p2, [zz(0), zz(12)])]
        )
        with pytest.raises(SpanHypothesisError):
            qhat_span_decomposition(p2, ms, Spline(p2, [zz(2), zz(6)]))

    def test_reconstruction_random(self):
        rng = random.Random(47)
        for seed in range(10):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.4, label_bound=20))
            ms = flow_up_basis(g).matrix()
            f = _random_combination(rng, g, flow_up_basis(g))
            xs = qhat_span_decomposition(g, ms, f)
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
            assert rings.divides(det, other)

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
            assert is_associate(first_cert.determinant, second_cert.determinant)


class TestWitnessMatrices:
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
                assert is_associate(spline_determinant(ms), expected)

    def test_rejects_non_coprime(self, c3_int):
        g = LabeledGraph(ZZ, [zz(4), zz(6)], [(0, 1, zz(5))])
        with pytest.raises(CoprimalityError):
            coprime_witness_matrices(g)
