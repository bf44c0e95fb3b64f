import re

import numpy as np
import pytest

from pencilspec import conditions, decomposer, linalg
from pencilspec.conditions import analyze
from pencilspec.config import DEFAULT, Tolerances
from pencilspec.decomposer import decompose
from pencilspec.errors import (
    ClusterAmbiguity,
    NotHermitian,
    SpectrumPatternViolation,
)
from pencilspec.linalg import (
    HermitianTuple,
    SpectralData,
    direct_sum_k_copies,
    extract_block_structure,
    prepare_tuple,
    spectral_norm,
)
from pencilspec.instances import gen_commuting, gen_decomposable
from pencilspec.reference import (
    SeparationTooSmall,
    apply_tuple_map,
    eigendecompose_clustered,
    projection_by_interpolation,
    shift_to_invertible,
)

from conftest import rand_hermitian, hermitian_with_spectrum


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=np.complex128))


class TestHermitianTuple:
    def test_accepts_hermitian(self):
        tup = HermitianTuple((diag(1, 2), np.array([[0, 1j], [-1j, 0]])))
        assert tup.dim == 2 and tup.m == 2

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            HermitianTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            HermitianTuple((diag(1, 2), diag(1, 2, 3)))

    @pytest.mark.parametrize("c", [1.0, 1e-9, 1e-13])
    def test_admission_is_scale_free(self, c):
        # the defect is bounded relative to the matrix's own norm at every scale
        with pytest.raises(NotHermitian):
            HermitianTuple((c * np.array([[0.0, 1.0], [0.0, 0.0]]),))
        tup = HermitianTuple((c * np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]]), np.zeros((2, 2))))
        assert np.array_equal(tup.matrices[1], np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_admission_matches_the_per_matrix_rule(self, seed):
        # the rule matrix by matrix: defect max|a - a^H| within hermitian_rel
        # times ||a||_2, else NotHermitian; each stored as (a + a^H) / 2
        rng = np.random.default_rng(seed)
        mats = [rand_hermitian(4, rng) * 10.0 ** rng.uniform(-200, 200) for _ in range(3)]
        for a in mats[rng.integers(3):]:
            a[0, 1] += rng.choice([0.0, 1e-15, 1e-11]) * np.linalg.norm(a, 2)
        defects = [np.max(np.abs(a - a.conj().T)) for a in mats]
        bounds = [DEFAULT.hermitian_rel * np.linalg.norm(a, 2) for a in mats]
        bad = [i for i, (d, b) in enumerate(zip(defects, bounds)) if d > b]
        if bad:
            i = bad[0]
            message = f"Hermitian defect {defects[i]:.3e} exceeds {bounds[i]:.3e}"
            with pytest.raises(NotHermitian, match=f"^{re.escape(message)}$"):
                HermitianTuple(tuple(mats))
        else:
            stored = HermitianTuple(tuple(mats)).matrices
            assert all(np.array_equal(s, (a + a.conj().T) / 2.0) for s, a in zip(stored, mats))

    def test_exact_checks_finiteness_only(self):
        # for matrices Hermitian by construction: stored as they are, never
        # re-symmetrized, and refused only when an entry is not finite
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        tup = HermitianTuple.exact([diag(1, 2), a])
        assert tup.m == 2 and tup.dim == 2
        assert np.array_equal(tup.matrices[1], a)
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                HermitianTuple.exact([diag(1, 2), diag(bad, 1)])

    @pytest.mark.parametrize(
        "mats",
        [(), ([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]]), (np.ones((2, 3)),),
         (diag(1, 2), diag(1, 2, 3)), ([["a", "b"], ["c", "d"]],)],
        ids=["empty", "ragged", "non-square", "mixed-sizes", "strings"],
    )
    def test_malformed_stack_raises_one_value_error(self, mats):
        with pytest.raises(ValueError, match=r"^generators must be a non-empty "
                                             r"\(m, N, N\) stack of numbers: "):
            HermitianTuple(mats)

    def test_well_shaped_stack_keeps_its_admission_errors(self):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            HermitianTuple((diag(1, 2), diag(np.nan, 1)))
        with pytest.raises(NotHermitian, match=r"^Hermitian defect 1\.000e\+00 exceeds 1\.000e-12$"):
            HermitianTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))

    @pytest.mark.parametrize("c", [1e308, np.finfo(float).max])
    def test_overflowing_hermitian_part_is_refused(self, c):
        # (a + a^H) / 2 overflows although every entry is finite; no warning
        # (the suite turns warnings into errors), and one message naming it
        a = c * np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="^Hermitian part .* overflows"):
            HermitianTuple((a,))
        with pytest.raises(ValueError, match="^Hermitian part .* overflows"):
            linalg.hermitian_part(a[None])

    def test_caller_tolerance_governs_admission(self):
        a = diag(1, 1, 2, 2)
        a[0, 1] += 1e-10
        with pytest.raises(NotHermitian):
            HermitianTuple((a, diag(3, 3, 4, 4)))
        tol = Tolerances(resolution=1e-5)  # hermitian_rel 1e-9
        tup = HermitianTuple((a, diag(3, 3, 4, 4)), tol=tol)
        assert np.array_equal(tup.matrices[0], tup.matrices[0].conj().T)
        # the pipeline's own re-wraps, at the default tolerance, accept it
        assert analyze(tup, 2, tol=tol).overall == "pass"
        assert decompose(tup, 2, tol=tol).residual <= 1e-9


class TestEigendecompose:
    def test_diagonal_clusters(self):
        sd = eigendecompose_clustered(diag(1, 1, 2, 2))
        assert np.allclose(sd.eigenvalues, [1.0, 2.0])
        assert sd.multiplicities == (2, 2)
        assert np.allclose(sd.projections[0], diag(1, 1, 0, 0))
        assert np.allclose(sd.projections[1], diag(0, 0, 1, 1))

    def test_single_entry(self):
        sd = eigendecompose_clustered(diag(5))
        assert sd.n == 1 and sd.multiplicities == (1,)
        assert np.allclose(sd.projections[0], np.eye(1))

    def test_projection_invariants_random(self):
        a = rand_hermitian(6, np.random.default_rng(7))
        sd = eigendecompose_clustered(a)
        total = sum(sd.projections)
        assert np.linalg.norm(total - np.eye(6)) <= 1e-10 * 6
        for i, p in enumerate(sd.projections):
            for j, q in enumerate(sd.projections):
                want = p if i == j else np.zeros((6, 6))
                assert np.linalg.norm(p @ q - want) <= 1e-10 * 6
        rebuilt = sum(l * p for l, p in zip(sd.eigenvalues, sd.projections))
        assert np.linalg.norm(rebuilt - a) <= 1e-9 * max(1, np.linalg.norm(a, 2))
        for j, p in enumerate(sd.projections):
            assert np.linalg.matrix_rank(p) == sd.multiplicities[j]

    def test_ambiguous_gap_raises(self):
        # one gap sits right at the split threshold
        with pytest.raises(ClusterAmbiguity):
            eigendecompose_clustered(diag(0.0, 1e-8, 1.0))

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            eigendecompose_clustered(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_basis_diagonalizes(self):
        a = rand_hermitian(5, np.random.default_rng(3))
        sd = eigendecompose_clustered(a)
        d = sd.rotation() @ a @ sd.rotation().conj().T
        assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-12 * 5


class TestProjectionByInterpolation:
    def test_two_point_lagrange(self):
        a = diag(1, 2)
        sd = eigendecompose_clustered(a)
        p = projection_by_interpolation(a, sd, 0)
        assert np.allclose(p, diag(1, 0), atol=1e-12)

    def test_clustered_diagonal(self):
        a = diag(1, 1, 2, 2)
        sd = eigendecompose_clustered(a)
        p = projection_by_interpolation(a, sd, 1)
        assert np.allclose(p, diag(0, 0, 1, 1), atol=1e-12)

    def test_matches_eigenvector_projector(self):
        a = rand_hermitian(6, np.random.default_rng(11), gap=0.05)
        sd = eigendecompose_clustered(a)
        for j in range(sd.n):
            p = projection_by_interpolation(a, sd, j)
            assert np.max(np.abs(p - sd.projections[j])) <= 1e-9 * 6

    def test_separation_guard(self):
        a = hermitian_with_spectrum([0.0, 1e-5, 1.0], seed=2)
        sd = eigendecompose_clustered(a)
        with pytest.raises(SeparationTooSmall):
            projection_by_interpolation(a, sd, 0)


class TestDirectSum:
    def test_single_copy(self):
        tup = HermitianTuple((diag(1, 2),))
        out = direct_sum_k_copies(tup, 1)
        assert np.allclose(out.matrices[0], diag(1, 2))

    def test_two_copies_block_layout(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        out = direct_sum_k_copies(HermitianTuple((diag(1, 2), sx)), 2)
        assert out.dim == 4
        assert np.allclose(out.matrices[0], diag(1, 2, 1, 2))
        assert np.allclose(out.matrices[1][:2, :2], sx)
        assert np.allclose(out.matrices[1][2:, 2:], sx)
        assert np.allclose(out.matrices[1][:2, 2:], 0)

    def test_charpoly_is_kth_power_pointwise(self):
        # independent oracle: det of a block-diagonal pencil multiplies
        rng = np.random.default_rng(21)
        mats = [rand_hermitian(3, rng) for _ in range(2)]
        tup = HermitianTuple(tuple(mats))
        big = direct_sum_k_copies(tup, 3)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            small = np.linalg.det(x[0] * mats[0] + x[1] * mats[1] - np.eye(3))
            large = np.linalg.det(
                x[0] * big.matrices[0] + x[1] * big.matrices[1] - np.eye(9)
            )
            assert abs(large - small**3) <= 1e-9 * max(1.0, abs(large))

    def test_multiplicities_scale_with_k(self):
        rng = np.random.default_rng(2)
        a = rand_hermitian(3, rng, gap=0.1)
        sd_small = eigendecompose_clustered(a)
        big = direct_sum_k_copies(HermitianTuple((a,)), 3)
        sd_big = eigendecompose_clustered(big.matrices[0])
        assert sd_big.multiplicities == tuple(3 * mu for mu in sd_small.multiplicities)


class TestShiftToInvertible:
    def test_shifts_singular_generator(self):
        tup = HermitianTuple((diag(0, 1), diag(2, 3)))
        shifted, shifts = shift_to_invertible(tup)
        assert shifts[0] == pytest.approx(2.0)  # ||A|| + 1
        assert shifts[1] == 0.0
        assert np.allclose(shifted.matrices[0], diag(2, 3))

    def test_untouched_when_invertible(self):
        tup = HermitianTuple((diag(1, 2), diag(3, 4)))
        shifted, shifts = shift_to_invertible(tup)
        assert shifts == (0.0, 0.0)
        assert np.allclose(shifted.matrices[0], diag(1, 2))


class TestPrepareTuple:
    def test_unit_scale_and_shifts_in_input_units(self):
        tup = HermitianTuple((diag(0, 0, 3e-7, 3e-7), diag(2e5, 2e5, 4e5, 4e5)))
        prep = prepare_tuple(tup, 2)
        assert prep.scales == pytest.approx((3e-7, 4e5))
        assert prep.shifts == pytest.approx((6e-7, 0.0))  # (||A|| + 1) on unit scale
        assert np.allclose(prep.tup.matrices[0], diag(2, 2, 3, 3))
        assert np.allclose(prep.tup.matrices[1], diag(0.5, 0.5, 1, 1))
        assert prep.spec.multiplicities == (2, 2)

    def test_zero_generator_has_scale_one(self):
        prep = prepare_tuple(HermitianTuple((diag(1, 2), np.zeros((2, 2)))))
        assert prep.scales == (2.0, 1.0) and prep.shifts == (0.0, 1.0)
        assert np.array_equal(prep.tup.matrices[1], np.eye(2))
        assert prep.spec is None

    @pytest.mark.parametrize("k", [3, 4])
    def test_spectral_pattern_violations(self, k):
        tup = HermitianTuple((diag(1, 1, 2, 2, 3, 3), diag(1, 2, 3, 4, 5, 6)))
        with pytest.raises(SpectrumPatternViolation):
            prepare_tuple(tup, k)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            prepare_tuple(HermitianTuple((diag(1, 1),)), 0)

    @pytest.mark.parametrize("norm", [5e-324, 1e-315, 5e-309])
    def test_subnormal_scale_is_refused_by_name(self, norm):
        # 1 / norm overflows, so no unit tuple can be formed; the generator
        # at the largest float's scale beside it is fine
        tup = HermitianTuple((diag(1e307, 5e307), diag(norm, norm)))
        with pytest.raises(ValueError, match=r"^generator norm \S+ is below the normal range: "
                                             r"unit scaling overflows$"):
            prepare_tuple(tup)

    @pytest.mark.parametrize("norm", [6e-309, np.finfo(float).tiny])
    def test_smallest_scales_that_unit_scaling_reaches(self, norm):
        prep = prepare_tuple(HermitianTuple((diag(norm, 2 * norm),)))
        assert np.isfinite(prep.tup.matrices[0]).all()
        assert prep.eigenvalues[0][-1] == 1.0


def _singular_first(tup):
    a1 = tup.matrices[0]
    return HermitianTuple((a1 - np.linalg.eigvalsh(a1)[0] * np.eye(tup.dim),) + tup.matrices[1:])


def _rescaled(tup):
    factors = np.logspace(-6, 6, tup.m)
    return HermitianTuple(tuple(c * a for c, a in zip(factors, tup.matrices)))


_PREPARED_CASES = {
    "decomposable": lambda: gen_decomposable(3, 2, 3, seed=1)[0],
    "commuting": lambda: gen_commuting(3, 2, 2, seed=2)[0],
    "zero generator": lambda: HermitianTuple(
        (gen_decomposable(3, 2, 2, seed=0)[0].matrices[0], np.zeros((6, 6)))
    ),
    "singular generator": lambda: _singular_first(gen_decomposable(3, 2, 2, seed=3)[0]),
    "scales 1e-6 to 1e6": lambda: _rescaled(gen_decomposable(2, 2, 5, seed=4)[0]),
}


@pytest.mark.parametrize("case", list(_PREPARED_CASES))
def test_prepared_spectra_match_independent_routes(case):
    """Every piece of a PreparedTuple, derived from one batched eigh, against
    a route that does not share it."""
    tup = _PREPARED_CASES[case]()
    prep = prepare_tuple(tup, 2)
    norms = [spectral_norm(a) for a in tup.matrices]
    for c, nrm in zip(prep.scales, norms):
        assert c == pytest.approx(nrm or 1.0, rel=1e-14, abs=0)
    unit = HermitianTuple(tuple(a / c for a, c in zip(tup.matrices, prep.scales)))
    _, unit_shifts = shift_to_invertible(unit)
    assert prep.shifts == pytest.approx([mu * c for mu, c in zip(unit_shifts, prep.scales)])
    for a, w, q in zip(prep.tup.matrices, prep.eigenvalues, prep.eigenvectors):
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13
        assert np.max(np.abs(q.conj().T @ a @ q - np.diag(w))) <= 1e-13
        assert np.max(np.abs(w)) >= 1.0 - 1e-15
    assert prep.spec.multiplicities == (2,) * (tup.dim // 2)


def test_apply_tuple_map_mixes_generators():
    tup = HermitianTuple((diag(1, 2), diag(3, 4)))
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    mixed = apply_tuple_map(tup, c)
    assert np.allclose(mixed.matrices[0], diag(3, 4))
    assert np.allclose(mixed.matrices[1], diag(1, 2))


class TestBlockGrid:
    """One route to the k x k blocks ``U_i* A_l U_j``: ``analyze`` realizes
    its words from them and ``decompose`` factors them."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_block_products(self, rng, k, m):
        n = 3
        a1 = hermitian_with_spectrum(np.repeat([-2.0, 0.5, 3.0], k), seed=10 * k + m)
        tup = HermitianTuple((a1,) + tuple(rand_hermitian(n * k, rng) for _ in range(m - 1)))
        spec = prepare_tuple(tup, k).spec
        grid = extract_block_structure(tup, spec)
        assert grid.shape == (m - 1, n, n, k, k)
        basis = spec.basis
        for layer, a in enumerate(tup.matrices[1:]):
            for i in range(n):
                for j in range(n):
                    rows, cols = basis[:, i * k : (i + 1) * k], basis[:, j * k : (j + 1) * k]
                    want = rows.conj().T @ a @ cols
                    assert np.max(np.abs(grid[layer, i, j] - want)) <= 1e-13 * spectral_norm(a)

    def test_non_uniform_clusters_raise(self):
        tup = HermitianTuple((diag(1, 2, 2), diag(3, 4, 5)))
        spec = SpectralData(np.array([1.0, 2.0]), (1, 2), np.eye(3, dtype=complex))
        with pytest.raises(SpectrumPatternViolation, match="not uniform"):
            extract_block_structure(tup, spec)

    def test_one_generator_has_an_empty_grid_and_splits(self):
        # the first generator alone: no layers, every cluster its own part
        tup = HermitianTuple(gen_decomposable(3, 2, 2, seed=0)[0].matrices[:1])
        spec = prepare_tuple(tup, 2).spec
        assert extract_block_structure(tup, spec).shape == (0, 3, 3, 2, 2)
        res = decompose(tup, 2)
        assert res.partition == ((0,), (1,), (2,))
        assert res.verification["ok"] and res.residual <= 1e-12
        assert res.reduced.m == 1 and res.reduced.dim == 3

    def test_decomposer_takes_it_from_linalg(self):
        assert decomposer.extract_block_structure is linalg.extract_block_structure

    def test_each_command_builds_it_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return linalg.extract_block_structure(*args)

        for module in (conditions, decomposer):
            monkeypatch.setattr(module, "extract_block_structure", counting)
        tup = gen_decomposable(3, 2, 3, seed=6)[0]
        assert analyze(tup, 2).overall == "pass"
        assert len(calls) == 1
        decompose(tup, 2)
        assert len(calls) == 2
