import functools
import random
import time

import pytest

from egsplines.graph import LabeledGraph
from egsplines.oracle import InstanceSpec, random_instance
from egsplines.pid import flow_up_basis, verify_flow_up
from egsplines.rings import (
    QQ,
    ZZ,
    DescriptorMismatchError,
    RingElement,
    UnsupportedRingError,
    associate_unit,
    parse_element,
)
from egsplines.splines import (
    Verdict,
    certify_basis,
    qhat,
    qhat_components,
    spline_determinant,
)

from conftest import QX, ZX, qx, zz
from refs import _constraint_matrix, hermite_form


def _values(rows):
    return [[x.value for x in row] for row in rows]


def _stacked_flow_up(g):
    """The flow-up basis from the stacked constraint matrix, a reference by
    another route: the Hermite form of its lattice modulo the lcm D of all
    labels (which it contains) is lower triangular, so its vectors with a
    zero edge part are spanned by the pivot columns of the vertex rows, and
    their vertex rows, the trailing n x n block, are the spline module in
    Hermite form.  Rows are vertices, columns are basis elements.  It
    shares hermite_form's column step and normalization with
    flow_up_basis; test_flow_up_matches_sympy_trailing_block shares none."""
    ring = g.ring
    labels = ring.values(list(g.vertex_labels) + [e.label for e in g.edges])
    modulus = RingElement(ring, functools.reduce(ring.lcm, labels, ring.one.value))
    full = hermite_form(_constraint_matrix(g), ring, modulus)
    k = len(g.edges)
    return [row[k:] for row in full[k:]]


def _basis_rows(basis):
    return [list(row) for row in zip(*(cls.spline.components for cls in basis.classes))]


class TestConstraintMatrix:
    def test_p2(self, p2):
        rows = _values(_constraint_matrix(p2))
        assert rows == [[2, -3, -4], [2, 0, 0], [0, 3, 0]]

    def test_single_vertex(self, single_vertex):
        assert _values(_constraint_matrix(single_vertex)) == [[5]]

    def test_c3_pattern(self, c3_int):
        rows = _values(_constraint_matrix(c3_int))
        assert rows == [
            [4, -6, 0, -2, 0, 0],
            [0, 6, -9, 0, -3, 0],
            [4, 0, -9, 0, 0, -5],
            [4, 0, 0, 0, 0, 0],
            [0, 6, 0, 0, 0, 0],
            [0, 0, 9, 0, 0, 0],
        ]


def _int_rows(values):
    return [[zz(x) for x in row] for row in values]


def _sympy_hermite(values):
    """sympy's Hermite normal form of a square nonsingular integer matrix,
    an independent oracle: its pivots run bottom-up, so it is computed on
    the matrix with row and column order reversed, and reversed back."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    reversed_rows = [row[::-1] for row in values[::-1]]
    w = hermite_normal_form(Matrix(reversed_rows)).tolist()
    return [[int(x) for x in row[::-1]] for row in w[::-1]]


def _random_matrix(rng, nrows, ncols, bound):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


class TestHermite:
    def test_identity(self):
        rows = [[ZZ.one, ZZ.zero], [ZZ.zero, ZZ.one]]
        assert _values(hermite_form(rows, ZZ, ZZ.one)) == [[1, 0], [0, 1]]

    def test_single_row_gcd(self):
        # the columns span ZZ, which contains 12*ZZ
        h = hermite_form(_int_rows([[2, -3, -4]]), ZZ, zz(12))
        assert _values(h) == [[1]]

    def test_2x2_pivots(self):
        h = hermite_form(_int_rows([[4, 2], [0, 3]]), ZZ, zz(12))
        assert h[0][0].value == 2 and h[0][1].is_zero
        assert h[1][1].value == 6
        assert 0 <= h[1][0].value < 6

    def test_matches_sympy_hnf(self):
        # an independent oracle: sympy's Hermite normal form (_sympy_hermite)
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(1, 5)
            values = _random_matrix(rng, n, n, 9)
            det = sympy.Matrix(values).det()
            if det == 0:
                continue
            h = hermite_form(_int_rows(values), ZZ, zz(abs(int(det))))
            assert _values(h) == _sympy_hermite(values), values

    def test_deterministic_canonical_form(self):
        # the result is canonical for the lattice spanned by the columns and
        # modulus*R^N, so shuffling the input columns must not change it
        rng = random.Random(67)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            values = _random_matrix(rng, nrows, ncols, 6)
            modulus = zz(rng.randint(1, 30))
            order = list(range(ncols))
            rng.shuffle(order)
            shuffled = [[row[c] for c in order] for row in values]
            h1 = hermite_form(_int_rows(values), ZZ, modulus)
            h2 = hermite_form(_int_rows(shuffled), ZZ, modulus)
            assert _values(h1) == _values(h2)

    def test_flow_up_is_the_trailing_block(self):
        # flow_up_basis against the trailing block of the stacked constraint
        # matrix's Hermite form, on graphs of every shape up to n = 9
        rng = random.Random(73)
        coprime = 0
        for seed in range(400):
            n = rng.randint(1, 9)
            spec = InstanceSpec(
                seed=seed,
                n=n,
                edge_density=rng.choice((0.0, 0.2, 0.4, 0.6, 0.9)),
                label_bound=rng.choice((6, 30, 100, 1000)),
                coprime=n <= 6 and rng.random() < 0.15,
            )
            coprime += spec.coprime
            g = random_instance(spec)
            assert _basis_rows(flow_up_basis(g)) == _stacked_flow_up(g), spec
        assert coprime >= 30

    def test_flow_up_matches_sympy_trailing_block(self):
        # flow_up_basis against the trailing n x n block of sympy's Hermite
        # normal form of the stacked constraint matrix, which is square and
        # nonsingular; unlike _stacked_flow_up, this reference shares no
        # code with the flow-up path
        pytest.importorskip("sympy")
        rng = random.Random(109)
        for seed in range(150):
            spec = InstanceSpec(
                seed=seed,
                n=rng.randint(1, 6),
                edge_density=rng.choice((0.0, 0.3, 0.6, 0.9)),
                label_bound=rng.choice((6, 30, 100)),
            )
            g = random_instance(spec)
            full = _sympy_hermite(_values(_constraint_matrix(g)))
            k = len(g.edges)
            tail = [row[k:] for row in full[k:]]
            assert _values(_basis_rows(flow_up_basis(g))) == tail, spec

    def test_rational_polynomials(self):
        rows = [[qx("x^2-1"), qx("x+1")]]
        for modulus in (qx("x+1"), qx("2*x^2-2")):
            assert hermite_form(rows, QX, modulus) == [[qx("x+1")]]

    def test_unsupported_ring(self):
        x = parse_element("x", ZX)
        with pytest.raises(UnsupportedRingError):
            hermite_form([[x]], ZX, x)

    def test_rows_of_unequal_length_rejected(self):
        # a longer row below the first and a shorter one
        for values in ([[2], [1, 5]], [[2, 3], [1]]):
            with pytest.raises(ValueError, match="equal length"):
                hermite_form(_int_rows(values), ZZ, zz(6))

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            hermite_form([[zz(2)]], ZZ, ZZ.zero)

    def test_foreign_entries_rejected(self):
        # each foreign entry sits where the pass never multiplies it: a zero
        # in a row whose column is set aside, or the modulus itself
        cases = [
            ([[zz(2), QQ.zero], [zz(0), zz(3)]], zz(6)),
            ([[zz(2), ZX.zero], [zz(0), zz(3)]], zz(6)),
            ([[zz(2), zz(0)], [zz(0), QQ.one]], zz(6)),
            ([[zz(2)]], QQ.from_int(6)),
        ]
        for rows, modulus in cases:
            with pytest.raises(DescriptorMismatchError):
                hermite_form(rows, ZZ, modulus)
        with pytest.raises(TypeError):
            hermite_form([[zz(2), 0]], ZZ, zz(6))

    def test_wraps_only_at_entry_and_exit(self, monkeypatch):
        # the pass runs on raw values: elements are built for the result
        # only, not per arithmetic step
        rng = random.Random(79)
        rows = _int_rows(_random_matrix(rng, 6, 8, 40))
        modulus = zz(720)
        built = []
        original = RingElement.__init__

        def counting(self, descriptor, value):
            built.append(value)
            original(self, descriptor, value)

        monkeypatch.setattr(RingElement, "__init__", counting)
        h = hermite_form(rows, ZZ, modulus)
        entries_out = sum(len(row) for row in h)
        assert len(built) <= 6 * 8 + 1 + entries_out + 4


def _random_qx(rng, degree=2):
    """A random QQ[x] element of degree at most degree; about a fifth are 0."""
    if rng.random() < 0.2:
        return QX.zero
    x = QX.variable("x")
    out = QX.zero
    for k in range(rng.randint(0, degree) + 1):
        c = parse_element(f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}", QX)
        out = out + c * x**k
    return out


def _random_qx_modulus(rng):
    out = QX.zero
    while out.is_zero:
        out = _random_qx(rng, degree=3)
    return out


def _random_nonmonic_qx_graph(rng):
    """Connected QQ[x] graph whose labels are rational multiples of products
    of a*x - b with a in {1, 2, 3}, so their integer associates need not be
    monic, and sometimes of x^2 - 3."""

    def label():
        out = parse_element(f"{rng.choice((1, 2, -3))}/{rng.randint(1, 4)}", QX)
        for _ in range(rng.randint(0, 2)):
            out = out * qx(f"{rng.randint(1, 3)}*x-{rng.randint(-3, 3)}")
        if rng.random() < 0.2:
            out = out * qx("x^2-3")
        return out

    n = rng.randint(2, 5)
    edges = [(rng.randrange(v), v, label()) for v in range(1, n)]
    if n > 2:
        edges.append((0, n - 1, label()))
    return LabeledGraph(QX, [label() for _ in range(n)], edges)


class TestHermiteRationalPolynomials:
    """The ZZ properties of TestHermite, on seeded QQ[x] matrices."""

    def test_matches_euclidean_pass_on_nonmonic_labels(self):
        # flow_up_basis against hermite_form's Euclidean pass over the
        # stacked constraint matrix, on graphs whose lcm has a non-monic
        # integer associate, in value and in printed text
        rng = random.Random(103)
        nonmonic = 0
        for _ in range(40):
            g = _random_nonmonic_qx_graph(rng)
            labels = QX.values(list(g.vertex_labels) + [e.label for e in g.edges])
            modulus = functools.reduce(QX.lcm, labels, QX.one.value)
            nonmonic += any(c.denominator != 1 for c in modulus)
            basis = _basis_rows(flow_up_basis(g))
            tail = _stacked_flow_up(g)
            assert basis == tail, g
            assert [list(map(str, row)) for row in basis] == [
                list(map(str, row)) for row in tail
            ]
        assert nonmonic >= 20

    def test_column_shuffle_invariance(self):
        # 25 matrices of 1-4 columns, then 60 of 0-5 columns; each form has
        # Hermite shape: lower triangular, monic pivots, and the entries
        # left of each pivot of lower degree
        first = random.Random(83)
        shapes = [
            (first, first, 25, 3, 1, 4),
            (random.Random(101), random.Random(107), 60, 4, 0, 5),
        ]
        for rng, shuffler, count, most_rows, fewest_cols, most_cols in shapes:
            for _ in range(count):
                nrows, ncols = rng.randint(1, most_rows), rng.randint(fewest_cols, most_cols)
                rows = [[_random_qx(rng) for _ in range(ncols)] for _ in range(nrows)]
                modulus = _random_qx_modulus(rng)
                order = list(range(ncols))
                shuffler.shuffle(order)
                shuffled = [[row[c] for c in order] for row in rows]
                h = hermite_form(rows, QX, modulus)
                assert h == hermite_form(shuffled, QX, modulus), (rows, modulus)
                assert len(h) == nrows and all(len(row) == nrows for row in h)
                for i, row in enumerate(h):
                    pivot = row[i].value
                    assert pivot and pivot[-1] == 1, (rows, modulus)
                    assert all(x.is_zero for x in row[i + 1:]), (rows, modulus)
                    assert all(len(x.value) < len(pivot) for x in row[:i]), (rows, modulus)

    def test_flow_up_is_the_trailing_block(self):
        # flow_up_basis against the trailing block of the stacked constraint
        # matrix's Hermite form, on graphs with monic and non-monic labels
        rng = random.Random(89)
        nonmonic = 0
        for k in range(120):
            if k % 2:
                g = _random_nonmonic_qx_graph(rng)
            else:
                g = _random_qx_graph(rng)
            labels = QX.values(list(g.vertex_labels) + [e.label for e in g.edges])
            modulus = functools.reduce(QX.lcm, labels, QX.one.value)
            nonmonic += any(c.denominator != 1 for c in modulus)
            assert _basis_rows(flow_up_basis(g)) == _stacked_flow_up(g), g
        assert nonmonic >= 40

    def test_pivots_multiply_to_sympy_determinant(self):
        # a nonsingular M spans a lattice containing det(M)*R^N, so with that
        # modulus the pivots multiply to det(M) up to a unit
        sympy = pytest.importorskip("sympy")
        sx = sympy.Symbol("x")
        x = QX.variable("x")
        rng = random.Random(97)
        checked = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[_random_qx(rng, degree=1) for _ in range(n)] for _ in range(n)]
            det = sympy.Matrix(
                [[sympy.sympify(str(e).replace("^", "**")) for e in row] for row in rows]
            ).det()
            if sympy.expand(det) == 0:
                continue
            modulus = QX.zero
            for k, c in enumerate(reversed(sympy.Poly(det, sx).all_coeffs())):
                c = sympy.Rational(c)
                modulus = modulus + parse_element(f"{c.p}/{c.q}", QX) * x**k
            h = hermite_form(rows, QX, modulus)
            product = QX.one
            for i in range(n):
                product = product * h[i][i]
            assert associate_unit(product, modulus) is not None, (rows, det)
            checked += 1
        assert checked >= 20


class TestFlowUpBasis:
    def test_p2(self, p2):
        basis = flow_up_basis(p2)
        assert [[c.value for c in cls.spline.components] for cls in basis.classes] == [
            [2, 6],
            [0, 12],
        ]
        assert [t.value for t in basis.leading_terms()] == [2, 12]

    def test_single_vertex(self, single_vertex):
        basis = flow_up_basis(single_vertex)
        assert [[c.value for c in cls.spline.components] for cls in basis.classes] == [[5]]

    def test_c3_leading_terms(self, c3_int):
        basis = flow_up_basis(c3_int)
        terms = [t.value for t in basis.leading_terms()]
        formula = [f.value for f in qhat_components(c3_int)]
        assert terms == formula == [4, 6, 45]

    def test_rational_polynomial_instance(self):
        g = LabeledGraph(
            QX, [qx("x"), qx("x+1")], [(0, 1, qx("x^2"))]
        )
        basis = flow_up_basis(g)
        assert [str(t) for t in basis.leading_terms()] == ["x", "x^3+x^2"]
        assert verify_flow_up(g, basis).ok

    def test_non_pid_rejected(self):
        g = LabeledGraph(ZX, [parse_element("x", ZX)], [])
        with pytest.raises(UnsupportedRingError):
            flow_up_basis(g)

    def test_rationals_descriptor_degenerates(self):
        # over a field every label is a unit, so the module is everything
        from egsplines.rings import QQ

        g = LabeledGraph(
            QQ,
            [parse_element("5", QQ), parse_element("3/2", QQ)],
            [(0, 1, parse_element("7/3", QQ))],
        )
        assert qhat(g) == QQ.one
        basis = flow_up_basis(g)
        assert verify_flow_up(g, basis).ok
        assert [t.value for t in basis.leading_terms()] == [1, 1]

    def test_minimal_leading_entries_examples(self, p2, c3_int, single_vertex):
        assert [f.value for f in qhat_components(p2)] == [2, 12]
        assert [f.value for f in qhat_components(c3_int)] == [4, 6, 45]
        assert [f.value for f in qhat_components(single_vertex)] == [5]


class TestVerifyFlowUp:
    def test_p2_all_pass(self, p2):
        basis = flow_up_basis(p2)
        report = verify_flow_up(p2, basis)
        assert report.ok and report.failures == ()
        det = spline_determinant(basis.matrix())
        assert abs(det.value) == 24

    def test_tampered_basis_fails_determinant(self, p2):
        import dataclasses

        basis = flow_up_basis(p2)
        scaled = basis.classes[1].spline.scale(zz(2))
        tampered = dataclasses.replace(
            basis,
            classes=(
                basis.classes[0],
                dataclasses.replace(
                    basis.classes[1],
                    spline=scaled,
                    leading_term=scaled.components[1],
                ),
            ),
        )
        report = verify_flow_up(p2, tampered)
        assert not report.ok
        failed = [c.name for c in report.failures]
        assert any("determinant" in name for name in failed)
        assert (report.determinant, report.key, report.unit) == (zz(-48), zz(24), None)

    def test_report_carries_determinant_key_unit(self):
        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.4, label_bound=30))
            basis = flow_up_basis(g)
            report = verify_flow_up(g, basis)
            determinant = spline_determinant(basis.matrix())
            assert report.determinant == determinant
            assert report.key == qhat(g)
            assert report.unit == associate_unit(determinant, qhat(g))
            assert report.unit is not None

    def test_single_vertex(self, single_vertex):
        assert verify_flow_up(single_vertex, flow_up_basis(single_vertex)).ok

    def test_class_index_out_of_range_rejected(self, p2):
        # 5 would index past the vertices and -1 would read from the end
        import dataclasses

        basis = flow_up_basis(p2)
        for index in (5, -1):
            moved = dataclasses.replace(basis.classes[1], index=index)
            tampered = dataclasses.replace(basis, classes=(basis.classes[0], moved))
            with pytest.raises(ValueError, match=r"0\.\.1"):
                verify_flow_up(p2, tampered)

    def test_classes_out_of_order_rejected(self, p2):
        # check k names class k and compares it with component k, so the
        # classes must come in index order: swapped or repeated indices
        # are refused, instead of a report that pairs one index's name
        # with another's component
        import dataclasses

        basis = flow_up_basis(p2)
        first, second = basis.classes
        for classes in (
            (second, first),
            (first, dataclasses.replace(second, index=0)),
            (dataclasses.replace(first, index=1), second),
        ):
            with pytest.raises(ValueError, match=r"0\.\.1"):
                verify_flow_up(p2, dataclasses.replace(basis, classes=classes))

    def test_each_column_checked_once(self, monkeypatch):
        # verify_flow_up, certify_basis and a second certify_basis on one
        # basis share its one matrix, its determinant and each column's
        # membership check
        from egsplines import splines

        calls = []
        original = splines._violations

        def spy(g, values):
            calls.append(values)
            return original(g, values)

        monkeypatch.setattr(splines, "_violations", spy)
        for seed in range(4):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            basis = flow_up_basis(g)
            calls.clear()
            assert basis.matrix() is basis.matrix()
            report = verify_flow_up(g, basis)
            first = certify_basis(g, basis.matrix())
            assert certify_basis(g, basis.matrix()) == first
            assert report.ok and first.verdict is Verdict.CERTIFIED
            assert report.determinant == first.determinant
            assert calls == [c.spline.values for c in basis.classes]

    def test_basis_of_another_graph_rejected(self, p2, c3_int):
        # more vertices, fewer vertices, and an equal twin built separately
        twin = LabeledGraph(
            ZZ, p2.vertex_labels, [(e.u, e.v, e.label) for e in p2.edges]
        )
        assert verify_flow_up(twin, flow_up_basis(twin)).ok
        for g, basis in ((c3_int, p2), (p2, c3_int), (twin, p2)):
            with pytest.raises(ValueError, match="splines live on different graphs"):
                verify_flow_up(g, flow_up_basis(basis))


class TestRandomInstances:
    def test_flow_up_properties(self):
        for seed in range(40):
            g = random_instance(InstanceSpec(seed=seed, n=5, edge_density=0.4, label_bound=40))
            basis = flow_up_basis(g)
            assert len(basis.classes) == g.n
            report = verify_flow_up(g, basis)
            assert report.ok, [c.detail for c in report.failures]
            cert = certify_basis(g, basis.matrix())
            assert cert.verdict is Verdict.CERTIFIED

    def test_pathological_rows_finish(self):
        # the two integer graphs that took 36 s and over 60 s when the
        # kernel was triangularized with its full unimodular transform
        for n, density in ((11, 0.3), (12, 0.5)):
            g = random_instance(InstanceSpec(seed=5, n=n, edge_density=density))
            start = time.perf_counter()
            report = verify_flow_up(g, flow_up_basis(g))
            elapsed = time.perf_counter() - start
            assert report.ok, [c.detail for c in report.failures]
            assert elapsed < 2.0, (n, density, elapsed)

    @staticmethod
    def _finishes_verified(g):
        start = time.perf_counter()
        report = verify_flow_up(g, flow_up_basis(g))
        elapsed = time.perf_counter() - start
        assert report.ok, [c.detail for c in report.failures]
        assert elapsed < 2.0, elapsed

    def test_sixty_integer_vertices_finish(self):
        # 608 edges; 11-13 s when the basis came from one Hermite pass over
        # the stacked (|E|+n)-row constraint matrix
        g = random_instance(InstanceSpec(seed=5, n=60, edge_density=0.3))
        assert len(g.edges) == 608
        self._finishes_verified(g)

    def test_fourteen_rational_polynomial_vertices_finish(self):
        # 41 edges; 46-48 s by the stacked constraint matrix
        g = _linear_factor_graph(random.Random("qx:5"), 14, 0.3)
        assert len(g.edges) == 41
        self._finishes_verified(g)

    def test_basis_is_reduced(self):
        # Hermite form: row i entries left of the pivot are reduced modulo
        # it, pivots are canonical
        graphs = [
            random_instance(
                InstanceSpec(seed=seed, n=2 + seed % 5, edge_density=0.5, label_bound=60)
            )
            for seed in range(40)
        ]
        graphs += [_random_qx_graph(random.Random(seed)) for seed in range(12)]
        for g in graphs:
            basis = flow_up_basis(g)
            for i, cls in enumerate(basis.classes):
                pivot = cls.leading_term
                for left in basis.classes[:i]:
                    entry = left.spline.components[i]
                    if g.ring is ZZ:
                        assert pivot.value > 0 and 0 <= entry.value < pivot.value
                    else:
                        assert pivot.value[-1] == 1
                        assert len(entry.value) < len(pivot.value)

    def test_edge_order_does_not_matter(self):
        rng = random.Random(79)
        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=5, edge_density=0.5))
            edges = [
                (e.v, e.u, e.label) if rng.random() < 0.5 else (e.u, e.v, e.label)
                for e in g.edges
            ]
            rng.shuffle(edges)
            shuffled = LabeledGraph(ZZ, g.vertex_labels, edges)
            expected = [cls.spline.components for cls in flow_up_basis(g).classes]
            got = [cls.spline.components for cls in flow_up_basis(shuffled).classes]
            assert got == expected


def _random_qx_graph(rng):
    """Connected QQ[x] graph whose labels are products of small linear factors."""

    def label():
        out = QX.from_int(rng.choice((1, 2, -3)))
        for _ in range(rng.randint(0, 2)):
            out = out * qx(f"x+{rng.randint(-2, 2)}")
        return out

    n = rng.randint(2, 4)
    edges = [(rng.randrange(v), v, label()) for v in range(1, n)]
    edges += [(0, n - 1, label())]
    return LabeledGraph(QX, [label() for _ in range(n)], edges)


def _linear_factor_graph(rng, n, density):
    """QQ[x] graph on a random spanning tree plus each other vertex pair with
    probability density (a tree pair drawn again is a parallel edge); every
    label is the product of one or two factors x - a, a in -3..3."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    x = QX.variable("x")

    def label():
        out = QX.one
        for a in sorted(rng.randint(-3, 3) for _ in range(rng.randint(1, 2))):
            out = out * (x - QX.from_int(a))
        return out

    labels = [label() for _ in range(n + len(pairs))]
    edges = [(u, v, r) for (u, v), r in zip(pairs, labels[n:])]
    return LabeledGraph(QX, labels[:n], edges)
