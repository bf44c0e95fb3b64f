import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspec.charpoly import (
    MultiPoly,
    UniPoly,
    axis_derivative_closed_form,
    branch_derivative,
    cluster_roots,
    coefficient_distance,
    kth_power_batch,
    kth_power_test,
    pencil_charpoly,
    restrict_pencil_to_line,
    transform_tuple_vars,
)
from pencilspec.errors import (
    DegenerateDirection,
    GridTooLarge,
    SingularTransform,
)
from pencilspec.linalg import apply_tuple_map, HermitianTuple, eigendecompose_clustered

from conftest import rand_hermitian


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=np.complex128))


class TestPencilCharpoly:
    def test_commuting_diagonal_expansion(self):
        # (x1 + 3 x2 - 1)(2 x1 + 4 x2 - 1), expanded by hand
        p = pencil_charpoly([diag(1, 2), diag(3, 4)])
        want = {
            (2, 0): 2.0,
            (1, 1): 10.0,
            (0, 2): 12.0,
            (1, 0): -3.0,
            (0, 1): -7.0,
            (0, 0): 1.0,
        }
        assert set(p.terms) == set(want)
        for exps, c in want.items():
            assert p.terms[exps] == pytest.approx(c, abs=1e-12)

    def test_single_matrix(self):
        p = pencil_charpoly([diag(1)])
        assert set(p.terms) == {(1,), (0,)}
        assert p.terms[(1,)] == pytest.approx(1.0)
        assert p.terms[(0,)] == pytest.approx(-1.0)

    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(13)
        mats = [rand_hermitian(7, rng) for _ in range(2)]
        p = pencil_charpoly(mats)
        pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        for x in pts:
            direct = np.linalg.det(x[0] * mats[0] + x[1] * mats[1] - np.eye(7))
            assert abs(p.evaluate(x) - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_constant_term(self):
        rng = np.random.default_rng(5)
        for n in (3, 6, 9):
            mats = [rand_hermitian(n, rng) for _ in range(2)]
            p = pencil_charpoly(mats)
            assert abs(p.constant_term() - (-1.0) ** n) <= 1e-10

    def test_real_on_real_points_for_hermitian(self):
        rng = np.random.default_rng(42)
        mats = [rand_hermitian(6, rng) for _ in range(3)]
        p = pencil_charpoly(mats)
        pts = rng.standard_normal((20, 3))
        vals = p.evaluate(pts.astype(np.complex128))
        assert np.all(np.abs(vals.imag) <= 1e-9 * np.maximum(1.0, np.abs(vals)))

    def test_grid_cap(self):
        with pytest.raises(GridTooLarge):
            pencil_charpoly([diag(1, 2), diag(3, 4)], grid_cap=4)
        with pytest.raises(GridTooLarge):
            pencil_charpoly([diag(1)] * 4)


class TestRestrictToLine:
    def test_axis_restriction(self):
        q = restrict_pencil_to_line([diag(1, 2)], base=[0.0], direction=[1.0])
        # (t - 1)(2t - 1) = 1 - 3t + 2t^2
        assert np.allclose(q.coeffs, [1.0, -3.0, 2.0], atol=1e-12)

    def test_constant_term_at_origin(self):
        rng = np.random.default_rng(3)
        mats = [rand_hermitian(5, rng) for _ in range(2)]
        q = restrict_pencil_to_line(mats, base=[0.0, 0.0], direction=[1.0, 0.5 + 0.5j])
        assert abs(q(0.0) - (-1.0) ** 5) <= 1e-10

    def test_matches_full_expansion(self):
        rng = np.random.default_rng(17)
        mats = [rand_hermitian(5, rng) for _ in range(2)]
        p = pencil_charpoly(mats)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = restrict_pencil_to_line(mats, a, d)
        for t in rng.standard_normal(10) + 1j * rng.standard_normal(10):
            full = p.evaluate(a + t * d)
            assert abs(q(t) - full) <= 1e-9 * max(1.0, abs(full))

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirection):
            restrict_pencil_to_line([diag(1, 0)], base=[0.0], direction=[1.0])


class TestClusterRoots:
    def test_pairs_example(self):
        clusters = cluster_roots([1.0, 1.0 + 1e-9, 2.0], tol=1e-6)
        assert sorted(c.size for c in clusters) == [1, 2]

    def test_empty(self):
        assert cluster_roots([], tol=1e-6) == []

    def test_perturbed_double_roots(self):
        rng = np.random.default_rng(4)
        centers = np.array([0.0, 1.0, 2.0 + 1.0j])
        pts = np.concatenate([centers + rng.normal(0, 1e-8, 3) * 1j, centers])
        clusters = cluster_roots(pts, tol=1e-6)
        assert sorted(c.size for c in clusters) == [2, 2, 2]

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=1e-9, max_value=1.0),
        st.lists(st.integers(min_value=0, max_value=40), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, pts, tol, steps):
        # Points 0.6 tol apart along a ray from pts[0] form chains whose ends
        # are more than tol apart, so only a transitive closure joins them.
        pts = pts + [pts[0] + 0.6 * tol * s for s in steps]
        clusters = cluster_roots(pts, tol)
        merged = np.concatenate(clusters)
        assert merged.size == len(pts)
        assert sorted(merged.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            [complex(p) for p in pts], key=lambda z: (z.real, z.imag)
        )
        # single linkage: clusters are separated by more than tol ...
        for i, a in enumerate(clusters):
            for b in clusters[i + 1 :]:
                assert np.min(np.abs(a[:, None] - b[None, :])) > tol
        # ... and each one is connected in its own <= tol graph
        for c in clusters:
            adj = np.abs(c[:, None] - c[None, :]) <= tol
            reached = np.zeros(c.size, dtype=bool)
            reached[0] = True
            for _ in range(c.size):
                reached |= adj[reached].any(axis=0)
            assert reached.all()
        keys = [(round(float(np.mean(c.real)), 12), round(float(np.mean(c.imag)), 12))
                for c in clusters]
        assert keys == sorted(keys)

    def test_singletons_for_tiny_tol(self):
        pts = [0.0, 1.0, 2.0]
        clusters = cluster_roots(pts, tol=1e-12)
        assert all(c.size == 1 for c in clusters)


class TestKthPowerTest:
    def test_explicit_square(self):
        v = kth_power_test([diag(1, 1, 2, 2), diag(3, 3, 4, 4)], k=2, n=2, seed=0)
        assert v.is_kth_power
        assert all(sizes == (2, 2) for sizes, _ in v.per_line_clusters)

    def test_failing_pencil_golden(self):
        # Line profiles mix (1, 3) and (3, 1), so both the per-line records
        # and the first failing line are pinned.
        v = kth_power_test([diag(1, 1, 1, 2), diag(3, 3, 3, 5)], k=2, n=2, seed=0)
        assert not v.is_kth_power
        assert v.per_line_clusters == (
            ((1, 3), 0.0),
            ((3, 1), 0.0),
            ((3, 1), 0.0),
            ((3, 1), 0.0),
            ((1, 3), 0.0),
            ((1, 3), 0.0),
            ((1, 3), 0.0),
            ((1, 3), 0.0),
        )
        assert v.failure_reason == "line 0: cluster sizes (1, 3), spread 0.000e+00"

    def test_nonpositive_cluster_tolerance_rejected(self):
        from pencilspec.config import Tolerances

        for rel in (0.0, -1e-6):
            with pytest.raises(ValueError):
                kth_power_test([diag(1, 1, 2, 2), diag(3, 3, 4, 4)], k=2, n=2,
                               tol=Tolerances(cluster_rel=rel))

    def test_simple_spectrum_is_not_square(self):
        v = kth_power_test([diag(1, 2)], k=2, n=1, seed=0)
        assert not v.is_kth_power

    def test_decomposable_instance(self):
        from pencilspec.instances import gen_decomposable

        tup, _ = gen_decomposable(3, 2, 2, seed=1)
        v = kth_power_test(list(tup.matrices), k=2, n=3, seed=5)
        assert v.is_kth_power
        assert v.worst_spread <= 1e-8

    def test_conjugate_negative_full_tuple_is_square(self):
        from pencilspec.instances import gen_conjugate_negative

        tup, _ = gen_conjugate_negative(seed=1)
        v = kth_power_test(list(tup.matrices), k=2, n=3, seed=5)
        assert v.is_kth_power

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kth_power_test([diag(1, 2)], k=2, n=2, seed=0)

    def test_needs_four_lines(self):
        from pencilspec.config import Tolerances
        with pytest.raises(ValueError):
            kth_power_test([diag(1, 1)], k=2, n=1, seed=0, tol=Tolerances(lines=2))

    def test_deterministic_in_seed(self):
        from pencilspec.instances import gen_decomposable

        tup, _ = gen_decomposable(2, 2, 2, seed=3)
        v1 = kth_power_test(list(tup.matrices), k=2, n=2, seed=9)
        v2 = kth_power_test(list(tup.matrices), k=2, n=2, seed=9)
        assert v1 == v2

    # A shared kernel puts a root at infinity on every line: a zero
    # eigenvalue of q . A, clustered like any other.
    def test_shared_kernel_simple_root_at_infinity(self):
        v = kth_power_test([diag(1, 0), diag(2, 0)], k=1, n=2, seed=0)
        assert v.is_kth_power

    def test_shared_kernel_double_root_at_infinity(self):
        v = kth_power_test([diag(1, 1, 0, 0), diag(2, 2, 0, 0)], k=2, n=2, seed=0)
        assert v.is_kth_power
        assert all(sizes == (2, 2) for sizes, _ in v.per_line_clusters)

    def test_shared_kernel_simple_root_at_infinity_is_not_square(self):
        v = kth_power_test([diag(1, 1, 1, 0), diag(2, 2, 2, 0)], k=2, n=2, seed=0)
        assert not v.is_kth_power
        assert all(sorted(sizes) == [1, 3] for sizes, _ in v.per_line_clusters)


def reference_verdict(mats, k, n, seed, lines=8):
    """The per-line loop the batched test replaced, kept as its reference:
    one pencil, one line at a time, every direction from one draw of the
    pencil's generator."""
    from pencilspec.charpoly import KPowerVerdict, _draw_directions
    from pencilspec.config import DEFAULT

    gen = np.stack(mats)
    dirs = _draw_directions(np.random.default_rng(seed), lines, gen.shape[0])
    records, reason, worst = [], "", 0.0
    for li in range(lines):
        lams = np.linalg.eigvals(np.einsum("lm,mij->lij", dirs[li : li + 1], gen))[0]
        ctol = DEFAULT.cluster_rel * (1.0 + float(np.max(np.abs(lams))))
        clusters = cluster_roots(lams, ctol)
        sizes = tuple(c.size for c in clusters)
        spread = max(float(np.max(np.abs(c[:, None] - c[None, :]))) for c in clusters)
        worst = max(worst, spread)
        records.append((sizes, spread))
        if not reason and not (all(x % k == 0 for x in sizes) and spread <= ctol):
            reason = f"line {li}: cluster sizes {sizes}, spread {spread:.3e}"
    return KPowerVerdict(not reason, k, n, tuple(records), worst, reason)


class TestKthPowerBatch:
    GOLDEN = [diag(1, 1, 1, 2), diag(3, 3, 3, 5)]
    GOLDEN_LINES = (
        ((1, 3), 0.0),
        ((3, 1), 0.0),
        ((3, 1), 0.0),
        ((3, 1), 0.0),
        ((1, 3), 0.0),
        ((1, 3), 0.0),
        ((1, 3), 0.0),
        ((1, 3), 0.0),
    )

    def stack(self):
        # passing pencils, the failing golden pencil (unequal cluster sizes)
        # and a rotated pencil whose generators share a two-dimensional
        # kernel, so every line has a double root at infinity
        from pencilspec.instances import gen_decomposable, haar_unitary

        q = haar_unitary(4, 3)
        kernel = [q @ diag(1, 1, 0, 0) @ q.conj().T, q @ diag(3, 3, 0, 0) @ q.conj().T]
        pencils = [
            [diag(1, 1, 2, 2), diag(3, 3, 4, 4)],
            list(gen_decomposable(2, 2, 2, seed=1)[0].matrices),
            self.GOLDEN,
            [(a + a.conj().T) / 2 for a in kernel],
            list(gen_decomposable(2, 2, 2, seed=2)[0].matrices),
        ]
        return np.stack([np.stack(p) for p in pencils]), [7, 5, 0, 0, 11]

    def test_batch_equals_per_line_reference(self, monkeypatch):
        import pencilspec.charpoly as charpoly

        gens, seeds = self.stack()
        reference = [reference_verdict(list(g), 2, 2, s) for g, s in zip(gens, seeds)]
        batched = kth_power_batch(gens, k=2, n=2, seeds=seeds)
        assert batched == reference
        assert batched == [kth_power_test(list(g), k=2, n=2, seed=s) for g, s in zip(gens, seeds)]
        assert [v.is_kth_power for v in batched] == [True, True, False, True, True]
        assert batched[2].per_line_clusters == self.GOLDEN_LINES
        assert batched[2].failure_reason == "line 0: cluster sizes (1, 3), spread 0.000e+00"
        assert batched[3].worst_spread > 0.0  # the rotation leaves rounding in the roots
        for budget in (1, 2 * 8 * 16, 3 * 8 * 16):
            monkeypatch.setattr(charpoly, "_BATCH_ENTRIES", budget)
            assert kth_power_batch(gens, k=2, n=2, seeds=seeds) == reference

    def test_one_generator_per_pencil(self, monkeypatch):
        # P pencils need exactly P generators, whatever the number of lines
        gens, seeds = self.stack()
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        kth_power_batch(gens, k=2, n=2, seeds=seeds)
        assert built == seeds

    def test_stack_order_does_not_change_verdicts(self):
        gens, seeds = self.stack()
        forward = kth_power_batch(gens, k=2, n=2, seeds=seeds)
        backward = kth_power_batch(gens[::-1], k=2, n=2, seeds=seeds[::-1])
        assert backward[::-1] == forward

    def test_rejects_bad_stack(self):
        gens, seeds = self.stack()
        with pytest.raises(ValueError):
            kth_power_batch(gens[0], k=2, n=2, seeds=seeds[:1])
        with pytest.raises(ValueError):
            kth_power_batch(gens, k=2, n=2, seeds=seeds[:-1])


class TestTransformVars:
    def test_identity(self):
        p = MultiPoly(2, {(1, 0): 1.0, (0, 0): -1.0})
        q = transform_tuple_vars(p, np.eye(2))
        assert coefficient_distance(p, q) <= 1e-12

    def test_swap(self):
        p = MultiPoly(2, {(1, 0): 1.0, (0, 0): -1.0})
        q = transform_tuple_vars(p, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert set(q.terms) == {(0, 1), (0, 0)}
        assert q.terms[(0, 1)] == pytest.approx(1.0)

    def test_transformation_law(self):
        rng = np.random.default_rng(23)
        for m in (2, 3):
            mats = [rand_hermitian(4, rng) for _ in range(m)]
            tup = HermitianTuple(tuple(mats))
            c = np.eye(m) + 0.1 * rng.uniform(-1, 1, (m, m))
            lhs = pencil_charpoly(list(apply_tuple_map(tup, c).matrices))
            rhs = transform_tuple_vars(pencil_charpoly(mats), c)
            assert coefficient_distance(lhs, rhs) <= 1e-8

    def test_singular_transform(self):
        p = MultiPoly(2, {(1, 0): 1.0})
        with pytest.raises(SingularTransform):
            transform_tuple_vars(p, np.zeros((2, 2)))


class TestBranchDerivative:
    def test_commuting_diagonal_slopes(self):
        a1, a2 = diag(1, 2), diag(3, 4)
        sd = eigendecompose_clustered(a1)
        assert branch_derivative([a1, a2], sd, 0) == pytest.approx(-3.0, abs=1e-10)
        assert branch_derivative([a1, a2], sd, 1) == pytest.approx(-2.0, abs=1e-10)

    def test_random_commuting_pairs(self):
        rng = np.random.default_rng(31)
        lams = np.array([0.7, 1.3, 2.2])
        ws = rng.standard_normal(3)
        a1, a2 = diag(*lams), diag(*ws)
        sd = eigendecompose_clustered(a1)
        for j in range(3):
            want = -ws[j] / lams[j]
            got = branch_derivative([a1, a2], sd, j)
            assert got == pytest.approx(want, abs=1e-10)

    def test_axis_derivative_formula_on_disk_example(self):
        # slope of (x-1)(2x-1) at x=1 is 1; the closed form gives the same
        q = restrict_pencil_to_line([diag(1, 2)], base=[0.0], direction=[1.0])
        numeric = q.derivative()(1.0)
        closed = axis_derivative_closed_form([1.0, 2.0], 0)
        assert closed == pytest.approx(1.0, abs=1e-12)
        assert abs(numeric - closed) <= 1e-10
        assert axis_derivative_closed_form([1.0, 2.0], 1) == pytest.approx(-1.0)

    def test_axis_derivative_formula_random(self):
        rng = np.random.default_rng(12)
        lams = np.sort(rng.uniform(0.5, 3.0, size=4))
        q = restrict_pencil_to_line([diag(*lams)], base=[0.0], direction=[1.0])
        dq = q.derivative()
        for j in range(4):
            want = axis_derivative_closed_form(lams, j)
            assert abs(dq(1.0 / lams[j]) - want) <= 1e-8 * max(1.0, abs(want))


class TestUniPoly:
    def test_eval(self):
        p = UniPoly([6.0, -9.0, 3.0])  # 3 (t - 1) (t - 2)
        assert p(1.0) == pytest.approx(0.0)
        assert p(0.0) == pytest.approx(6.0)
        assert p.degree == 2

    def test_derivative(self):
        p = UniPoly([1.0, -3.0, 2.0])
        assert np.allclose(p.derivative().coeffs, [-3.0, 4.0])


def test_coefficient_distance_mismatched_vars():
    with pytest.raises(ValueError):
        coefficient_distance(MultiPoly(1, {(1,): 1}), MultiPoly(2, {(1, 0): 1}))
