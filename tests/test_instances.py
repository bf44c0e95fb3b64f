import numpy as np
import pytest

from pencilspec.conditions import corollary
from pencilspec.decomposer import decompose, extract_block_structure, factor_block
from pencilspec.instances import (
    FAMILIES,
    gen_commuting,
    gen_conjugate_negative,
    gen_decomposable,
    haar_unitary,
)
from pencilspec.reference import (
    eigendecompose_clustered,
    norm_scale,
    shift_to_invertible,
)


class TestHaarUnitary:
    def test_deterministic(self):
        assert np.array_equal(haar_unitary(5, 7), haar_unitary(5, 7))

    def test_unitary(self):
        for n in (1, 2, 8):
            u = haar_unitary(n, 3)
            assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 1e-12 * n

    def test_scalar_case_unimodular(self):
        u = haar_unitary(1, 11)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_column_norms(self):
        u = haar_unitary(6, 13)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)


class TestDecomposable:
    def test_first_generator_pattern(self):
        tup, desc = gen_decomposable(3, 2, 2, seed=5)
        sd = eigendecompose_clustered(tup.matrices[0])
        assert sd.multiplicities == (2, 2, 2)
        gaps = np.diff(sd.eigenvalues)
        assert np.min(gaps) >= 0.1 - 1e-9

    def test_charpoly_is_kth_power_of_seed(self):
        tup, desc = gen_decomposable(2, 3, 2, seed=9)
        rng = np.random.default_rng(0)
        small = desc.seed_tuple
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ps = np.linalg.det(x[0] * small[0] + x[1] * small[1] - np.eye(2))
            pb = np.linalg.det(
                x[0] * tup.matrices[0] + x[1] * tup.matrices[1] - np.eye(6)
            )
            assert abs(pb - ps**3) <= 1e-8 * max(1.0, abs(pb))

    def test_k1_round_trip(self):
        tup, desc = gen_decomposable(4, 1, 2, seed=3)
        res = decompose(tup, 1)
        assert res.residual <= 1e-8

    def test_deterministic(self):
        t1, _ = gen_decomposable(2, 2, 2, seed=4)
        t2, _ = gen_decomposable(2, 2, 2, seed=4)
        for a, b in zip(t1.matrices, t2.matrices):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("gen", [gen_decomposable, gen_commuting])
    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_shape_guard(self, gen, shape):
        with pytest.raises(ValueError, match="need n, k, m >= 1"):
            gen(*shape, seed=0)

    @pytest.mark.parametrize("n, k, m", [(12, 2, 2), (12, 3, 2), (9, 4, 2)])
    def test_above_the_old_cap_splits(self, n, k, m):
        # no cap on nk: N = 24-36 generates, decomposes and passes corollary
        tup, desc = gen_decomposable(n, k, m, seed=0)
        assert tup.dim == n * k and desc.seed_tuple[0].shape == (n, n)
        assert decompose(tup, k).verification["ok"]
        assert corollary(tup, k, seed=0).verdict.is_kth_power


class TestConjugateNegative:
    def test_shape(self):
        tup, desc = gen_conjugate_negative(seed=1)
        assert tup.dim == 6 and tup.m == 2
        assert desc.family == "conjugate_negative" and not desc.expected_pass

    def test_full_charpoly_nonnegative_on_real_points(self):
        # a square of a real-coefficient polynomial cannot go negative
        tup, _ = gen_conjugate_negative(seed=2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(2)
            val = np.linalg.det(
                x[0] * tup.matrices[0] + x[1] * tup.matrices[1] - np.eye(6)
            )
            assert val.imag == pytest.approx(0.0, abs=1e-9 * max(1, abs(val)))
            assert val.real >= -1e-9 * max(1.0, abs(val))

    def test_block_scalars_are_unit(self):
        tup, _ = gen_conjugate_negative(seed=3)
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        blocks = extract_block_structure(shifted, sd)
        tol = 1e-7 * norm_scale(shifted.matrices[1])
        for (i, j) in ((0, 1), (1, 2), (0, 2)):
            c, u = factor_block(blocks[0, i, j], tol)
            assert c == pytest.approx(1.0, abs=1e-9)

    def test_cycle_phase_product(self):
        # phases multiply to -i on one copy, +i on the other
        tup, _ = gen_conjugate_negative(seed=4)
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        blocks = extract_block_structure(shifted, sd)
        tol = 1e-7 * norm_scale(shifted.matrices[1])
        prod = np.eye(2, dtype=np.complex128)
        for (i, j) in ((0, 1), (1, 2), (2, 0)):
            _, u = factor_block(blocks[0, i, j], tol)
            prod = prod @ u
        phases = np.sort(np.angle(np.linalg.eigvals(prod)))
        assert np.allclose(phases, [-np.pi / 2, np.pi / 2], atol=1e-9)

    def test_deterministic(self):
        t1, _ = gen_conjugate_negative(seed=5)
        t2, _ = gen_conjugate_negative(seed=5)
        assert np.array_equal(t1.matrices[1], t2.matrices[1])


class TestFamilies:
    def test_builders_are_the_generators(self):
        assert FAMILIES["decomposable"] is gen_decomposable
        assert FAMILIES["commuting"] is gen_commuting
        # the negative reads only the seed
        tup, desc = FAMILIES["conjugate_negative"](4, 3, 5, 7)
        ref, ref_desc = gen_conjugate_negative(7)
        assert desc == ref_desc and all(np.array_equal(a, b) for a, b in zip(tup.matrices, ref.matrices))


class TestGroundTruthBattery:
    def test_descriptor_verdicts_over_twenty_seeds(self):
        from pencilspec.conditions import analyze

        for seed in range(20):
            tup, desc = gen_decomposable(2, 2, 2, seed=seed)
            assert analyze(tup, desc.k, seed=seed).overall == "pass"
            tup, desc = gen_commuting(2, 2, 2, seed=seed)
            assert analyze(tup, desc.k, seed=seed).overall == "pass"
            tup, desc = gen_conjugate_negative(seed=seed)
            assert analyze(tup, desc.k, seed=seed).overall == "fail"


class TestCommuting:
    def test_generators_commute(self):
        tup, _ = gen_commuting(3, 2, 3, seed=1)
        for a in tup.matrices:
            for b in tup.matrices:
                assert np.linalg.norm(a @ b - b @ a) <= 1e-12 * 9

    def test_multiplicity_pattern_every_generator(self):
        tup, _ = gen_commuting(3, 2, 2, seed=2)
        for a in tup.matrices:
            sd = eigendecompose_clustered(a)
            assert sd.multiplicities == (2, 2, 2)

    def test_decompose_gives_commuting_diagonal(self):
        tup, _ = gen_commuting(2, 2, 2, seed=3)
        res = decompose(tup, 2)
        assert res.residual <= 1e-8
        for b in res.reduced.matrices:
            assert np.linalg.norm(b - np.diag(np.diag(b))) <= 1e-10

    def test_size_guard_names_the_gap_floor(self):
        with pytest.raises(ValueError, match=r"n <= 16.*\[-2, 2\].*0\.1"):
            gen_commuting(17, 1, 2, seed=0)
        tup, desc = gen_commuting(16, 4, 2, seed=0)
        assert tup.dim == 64 and desc.family == "commuting"

    def test_scalar_multiples_when_n1(self):
        tup, _ = gen_commuting(1, 2, 2, seed=4)
        for a in tup.matrices:
            assert np.linalg.norm(a - a[0, 0] * np.eye(2)) <= 1e-10
        res = decompose(tup, 2)
        assert res.residual <= 1e-10
