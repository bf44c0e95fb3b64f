import dataclasses
from itertools import combinations

import numpy as np
import pytest

from pencilspec.decomposer import (
    BlockStructure,
    DecompositionResult,
    _audit_bounds,
    _spanning_forest,
    _unimodular_defect,
    build_block_unitary,
    decompose,
    extract_block_structure,
    factor_block,
    unify_layers,
    verify_decomposition,
)
from pencilspec.conditions import analyze
from pencilspec.config import DEFAULT, Tolerances
from pencilspec.errors import (
    ClusterAmbiguity,
    CycleInconsistency,
    DecompositionError,
    LayerInconsistency,
    NotUnitaryScalar,
    ScalarizationFailed,
    SpectrumPatternViolation,
)
from pencilspec.instances import (
    gen_conjugate_negative,
    gen_decomposable,
    haar_unitary,
)
from pencilspec.linalg import HermitianTuple
from pencilspec.reference import (
    coefficient_distance,
    eigendecompose_clustered,
    norm_scale,
    pencil_charpoly,
    shift_to_invertible,
    verify_cycle_identity,
)

from test_resolution import eps_phase_twin


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=np.complex128))


def structure_of(tup):
    shifted, _ = shift_to_invertible(tup)
    sd = eigendecompose_clustered(shifted.matrices[0])
    blocks = extract_block_structure(shifted, sd)
    scales = [norm_scale(a) for a in shifted.matrices[1:]]
    return unify_layers(blocks, scales), blocks


def donor(blocks, i, j):
    """Layer index that donated the unitary of pair (i, j): the largest
    block in Frobenius norm, ties to the lowest layer."""
    return int(np.argmax(np.linalg.norm(blocks[:, i, j], axis=(1, 2))))


def block_scalar(bs, blocks, li, i, j):
    """Least-squares scalar of layer ``li``'s block (i, j) on the shared
    unitary: ``tr(u* B) / k``."""
    return complex(np.trace(bs.u[(i, j)].conj().T @ blocks[li, i, j])) / bs.k


def manual_structure(n, edges, k=2):
    """Block structure on the pairs ``edges`` with ``u[(j, i)] = u[(i, j)]*``."""
    u = {}
    for (i, j), uij in edges.items():
        u[(i, j)], u[(j, i)] = uij, uij.conj().T
    return BlockStructure(n=n, k=k, u=u, pairs=frozenset(u))


def consistent_structure(n, edges, k=2):
    """Pairs ``u[(i, j)] = w_i* w_j``: every cycle multiplies to the identity."""
    w = [haar_unitary(k, 100 + i) for i in range(n)]
    return manual_structure(n, {(i, j): w[i].conj().T @ w[j] for i, j in edges}, k)


class TestExtract:
    def test_commuting_blocks(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4)))
        sd = eigendecompose_clustered(tup.matrices[0])
        blocks = extract_block_structure(tup, sd)
        assert blocks.shape == (1, 2, 2, 2, 2)
        assert np.allclose(blocks[0, 0, 0], 3 * np.eye(2))
        assert np.allclose(blocks[0, 1, 1], 4 * np.eye(2))
        assert np.allclose(blocks[0, 0, 1], 0)

    def test_first_generator_blocks_are_diagonal(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=1)
        sd = eigendecompose_clustered(tup.matrices[0])
        v = sd.rotation()
        rot = v @ tup.matrices[0] @ v.conj().T
        for i in range(3):
            for j in range(3):
                blk = rot[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                want = sd.eigenvalues[i] * np.eye(2) if i == j else np.zeros((2, 2))
                assert np.linalg.norm(blk - want) <= 1e-10

    def test_nonuniform_multiplicities_rejected(self):
        tup = HermitianTuple((diag(1, 1, 2), diag(0, 1, 2)))
        sd = eigendecompose_clustered(tup.matrices[0])
        with pytest.raises(SpectrumPatternViolation):
            extract_block_structure(tup, sd)

    def test_blocks_factor_as_unitary_scalars(self):
        tup, _ = gen_decomposable(2, 2, 2, seed=7)
        sd = eigendecompose_clustered(tup.matrices[0])
        blocks = extract_block_structure(tup, sd)
        c, u = factor_block(blocks[0, 0, 1], 1e-7 * norm_scale(tup.matrices[1]))
        if c > 0:
            assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-8


class TestFactorBlock:
    def test_zero_block(self):
        c, u = factor_block(np.zeros((2, 2)), tol=1e-7)
        assert c == 0.0 and u is None

    def test_scalar_unitary(self):
        c, u = factor_block(diag(0.5j, -0.5j), tol=1e-7)
        assert c == pytest.approx(0.5)
        assert np.allclose(u, diag(1j, -1j))

    def test_non_scalar_rejected(self):
        with pytest.raises(NotUnitaryScalar):
            factor_block(diag(1, 2), tol=1e-7)

    def test_c_nonnegative_real(self):
        rng = np.random.default_rng(3)
        u = haar_unitary(3, 5)
        c, got = factor_block(-2.5 * u, tol=1e-7)
        assert isinstance(c, float) and c == pytest.approx(2.5)
        assert np.allclose(got, -u)


class TestUnifyLayers:
    def test_two_generators_passthrough(self):
        tup, _ = gen_decomposable(2, 2, 2, seed=11)
        bs, blocks = structure_of(tup)
        assert len(blocks) == 1 and bs.n == 2 and bs.k == 2
        for (i, j) in bs.pairs:
            li = donor(blocks, i, j)
            c = block_scalar(bs, blocks, li, i, j)
            resid = np.linalg.norm(blocks[li, i, j] - c * bs.u[(i, j)])
            assert resid <= 1e-7 * norm_scale(tup.matrices[li + 1])

    def test_three_generators_share_unitaries(self):
        tup, _ = gen_decomposable(2, 2, 3, seed=13)
        bs, blocks = structure_of(tup)
        for (i, j) in bs.pairs:
            for li in range(len(blocks)):
                c = block_scalar(bs, blocks, li, i, j)
                resid = np.linalg.norm(blocks[li, i, j] - c * bs.u[(i, j)])
                assert resid <= 1e-6

    def test_chosen_layer_scalar_nonnegative(self):
        tup, _ = gen_decomposable(3, 2, 3, seed=17)
        bs, blocks = structure_of(tup)
        for (i, j) in bs.pairs:
            if i < j:
                li = donor(blocks, i, j)
                val = block_scalar(bs, blocks, li, i, j)
                assert val.imag == pytest.approx(0.0, abs=1e-12)
                assert val.real >= 0.0

    def test_adjoint_symmetry(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=19)
        bs, _ = structure_of(tup)
        for (i, j) in bs.pairs:
            assert np.allclose(bs.u[(j, i)], bs.u[(i, j)].conj().T)

    def test_cross_layer_phase_violation(self):
        # second and third generators carry genuinely different unitaries on
        # the same pair: the two-cycle relation fails
        z = np.zeros((2, 2), dtype=np.complex128)
        u2 = np.eye(2, dtype=np.complex128)
        w = diag(1, -1)
        a1 = diag(1, 1, 2, 2)
        a2 = np.block([[z, u2], [u2.conj().T, z]])
        a3 = np.block([[z, w], [w.conj().T, z]])
        tup = HermitianTuple((a1, a2, a3))
        sd = eigendecompose_clustered(tup.matrices[0])
        blocks = extract_block_structure(tup, sd)
        with pytest.raises(LayerInconsistency):
            unify_layers(blocks, [norm_scale(a2), norm_scale(a3)])

    def test_nonscalar_diagonal_rejected(self):
        a1 = diag(1, 1, 2, 2)
        a2 = diag(5, 6, 0, 0)
        tup = HermitianTuple((a1, a2))
        sd = eigendecompose_clustered(a1)
        blocks = extract_block_structure(tup, sd)
        with pytest.raises(NotUnitaryScalar):
            unify_layers(blocks, [norm_scale(a2)])


class TestSpanningForest:
    def test_derived_pair(self):
        # the path 1-0-2 rooted at 2: cluster 1 sits at depth 2 and gets the
        # derived u[(2, 1)] = u[(2, 0)] u[(0, 1)]
        u01 = diag(1j, -1j)
        u02 = haar_unitary(2, 3)
        pieces, partition = _spanning_forest(manual_structure(3, {(0, 1): u01, (0, 2): u02}), DEFAULT)
        assert partition == ((0, 1, 2),)
        assert np.array_equal(pieces[2], np.eye(2))
        assert np.array_equal(pieces[0], u02.conj().T)
        assert np.allclose(pieces[1], u02.conj().T @ u01)

    def test_negative_cycle_detected(self):
        tup, _ = gen_conjugate_negative(seed=1)
        bs, _ = structure_of(tup)
        with pytest.raises(CycleInconsistency) as err:
            _spanning_forest(bs, DEFAULT)
        assert len(err.value.cycle) == 3
        assert err.value.residual == pytest.approx(2.0, abs=1e-9)

    def test_square_cycle_names_a_three_cycle(self):
        # clusters 0-1-3-2-0 form a square whose holonomy is diag(1, -1):
        # the triangle of the pair (0, 2) through the root 3 carries it
        u02 = haar_unitary(2, 3)
        bs = manual_structure(4, {(0, 1): np.eye(2), (0, 2): u02, (1, 3): np.eye(2),
                                  (2, 3): u02.conj().T @ diag(1, -1)})
        with pytest.raises(CycleInconsistency) as err:
            _spanning_forest(bs, DEFAULT)
        assert err.value.cycle == (0, 2, 3)
        assert err.value.residual == pytest.approx(2.0, abs=1e-9)

    def test_zero_offdiagonal_gives_singletons(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4)))
        bs, _ = structure_of(tup)
        assert bs.pairs == frozenset()
        pieces, partition = _spanning_forest(bs, DEFAULT)
        assert partition == ((0,), (1,))
        assert all(np.array_equal(p, np.eye(2)) for p in pieces)

    def test_single_pair_plus_singletons(self):
        _, partition = _spanning_forest(consistent_structure(4, [(0, 1)]), DEFAULT)
        assert partition == ((0, 1), (2,), (3,))

    def test_complete_lattice(self):
        bs = consistent_structure(3, [(0, 1), (0, 2), (1, 2)])
        _, partition = _spanning_forest(bs, DEFAULT)
        assert partition == ((0, 1, 2),)

    def test_path_is_one_block(self):
        bs = consistent_structure(3, [(0, 1), (1, 2)])
        pieces, partition = _spanning_forest(bs, DEFAULT)
        assert partition == ((0, 1, 2),)
        # every piece carries its cluster onto the root's frame
        for i, j in [(0, 1), (1, 2)]:
            assert np.allclose(pieces[i] @ bs.u[(i, j)], pieces[j])

    def test_components_ordered_by_smallest_index(self):
        bs = consistent_structure(5, [(0, 3), (1, 4), (1, 2)])
        _, partition = _spanning_forest(bs, DEFAULT)
        assert partition == ((0, 3), (1, 2, 4))


def derived_structure(bs, pieces, partition):
    """``bs`` with ``u[(a, j)] = piece_j`` for the root ``a`` of each
    component, so that a triangle through ``a`` multiplies the pieces."""
    u = dict(bs.u)
    for comp in partition:
        a = comp[-1]
        for j in comp[:-1]:
            u[(a, j)], u[(j, a)] = pieces[j], pieces[j].conj().T
    return dataclasses.replace(bs, u=u, pairs=frozenset(u))


def forest_triangles(bs, partition):
    """The triangles the forest checks, in its order: components by
    descending root, then the original pairs of non-roots."""
    return [(i, j, comp[-1])
            for comp in sorted(partition, key=lambda comp: -comp[-1])
            for i, j in combinations(comp[:-1], 2) if (i, j) in bs.pairs]


class TestForestMatchesWalker:
    """The forest's triangle residuals equal the reference walker's on the
    derived structure, bit for bit."""

    def check(self, monkeypatch, bs):
        seen = []

        def recorded(prod):
            theta, residual = _unimodular_defect(prod)
            seen.append(residual)
            return theta, residual

        monkeypatch.setattr("pencilspec.decomposer._unimodular_defect", recorded)
        pieces, partition = _spanning_forest(bs, DEFAULT)
        derived = derived_structure(bs, pieces, partition)
        triangles = forest_triangles(bs, partition)
        assert triangles
        assert seen == [verify_cycle_identity(derived, t)[1] for t in triangles]

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_decomposable(self, monkeypatch, k, m):
        tup, _ = gen_decomposable(4, k, m, seed=71)
        bs, _ = structure_of(tup)
        self.check(monkeypatch, bs)

    @pytest.mark.parametrize("n, edges", [
        # 3 -> 0 -> 1 and 3 -> 2; (1, 2) is not a tree edge
        (4, [(0, 3), (2, 3), (1, 2), (0, 1)]),
        # 4 -> 0 -> 1 -> 2 and 1 -> 3; (2, 3) is not a tree edge
        (5, [(0, 4), (0, 1), (1, 2), (1, 3), (2, 3)]),
    ])
    def test_deep_pieces_and_non_tree_pairs(self, monkeypatch, n, edges):
        self.check(monkeypatch, consistent_structure(n, edges))

    def test_perturbed_pair_raises_the_walker_residual(self):
        bs = consistent_structure(4, [(0, 3), (2, 3), (1, 2), (0, 1)])
        pieces, partition = _spanning_forest(bs, DEFAULT)
        u = dict(bs.u)
        u[(1, 2)] = u[(1, 2)] @ diag(1, np.exp(1e-3j))
        u[(2, 1)] = u[(1, 2)].conj().T
        bad = dataclasses.replace(bs, u=u)
        with pytest.raises(CycleInconsistency) as err:
            _spanning_forest(bad, DEFAULT)
        assert err.value.cycle == (1, 2, 3)
        derived = derived_structure(bad, pieces, partition)
        assert err.value.residual == verify_cycle_identity(derived, (1, 2, 3))[1]
        assert err.value.residual > DEFAULT.structural_tol


class TestBuildBlockUnitary:
    def test_commuting_gives_identity(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4)))
        bs, blocks = structure_of(tup)
        u, _, partition = build_block_unitary(bs, blocks=blocks, scales=[norm_scale(tup.matrices[1])])
        assert np.allclose(u, np.eye(4))
        assert partition == ((0,), (1,))

    def test_hand_example_scalarizes(self):
        u01 = diag(1j, -1j)
        z = np.zeros((2, 2), dtype=np.complex128)
        a1 = diag(1, 1, 2, 2)
        a2 = np.block([[z, u01], [u01.conj().T, z]])
        tup = HermitianTuple((a1, a2))
        bs, blocks = structure_of(tup)
        u, scalars, _ = build_block_unitary(bs, blocks=blocks, scales=[norm_scale(a2)])
        want = np.zeros((4, 4), dtype=np.complex128)
        want[:2, :2] = u01.conj().T
        want[2:, 2:] = np.eye(2)
        assert np.allclose(u, want)
        conj = u @ a2 @ u.conj().T
        assert np.allclose(conj[:2, 2:], np.eye(2))
        # the verified block scalars are the reduced second generator
        assert len(scalars) == 1 and np.allclose(scalars[0], [[0, 1], [1, 0]])

    def test_decomposable_all_blocks_scalar(self):
        tup, _ = gen_decomposable(3, 2, 3, seed=23)
        bs, blocks = structure_of(tup)
        scales = [norm_scale(a) for a in tup.matrices[1:]]
        u, _, _ = build_block_unitary(bs, blocks=blocks, scales=scales)
        assert np.linalg.norm(u @ u.conj().T - np.eye(6)) <= 1e-10 * 6

    def test_scalars_are_the_conjugated_blocks(self):
        # each returned layer, tensored with the k x k identity, is the
        # layer's rotated grid conjugated by the block unitary
        tup, _ = gen_decomposable(3, 2, 3, seed=23)
        bs, blocks = structure_of(tup)
        scales = [norm_scale(a) for a in tup.matrices[1:]]
        u, scalars, _ = build_block_unitary(bs, blocks=blocks, scales=scales)
        assert len(scalars) == len(tup.matrices) - 1
        for layer, scal in zip(blocks, scalars):
            rot = layer.transpose(0, 2, 1, 3).reshape(6, 6)
            conj = (u @ rot @ u.conj().T).reshape(3, 2, 3, 2).transpose(0, 2, 1, 3)
            assert scal.shape == (3, 3)
            assert np.allclose(conj, scal[:, :, None, None] * np.eye(2), atol=1e-10)

    def test_scalarization_failure_reported(self):
        # hand the builder a wrong unitary for the pair
        u01 = diag(1j, -1j)
        z = np.zeros((2, 2), dtype=np.complex128)
        a1 = diag(1, 1, 2, 2)
        a2 = np.block([[z, u01], [u01.conj().T, z]])
        tup = HermitianTuple((a1, a2))
        bs, blocks = structure_of(tup)
        bad_u = dict(bs.u)
        bad_u[(0, 1)] = np.eye(2, dtype=np.complex128)
        bad_u[(1, 0)] = np.eye(2, dtype=np.complex128)
        bad = dataclasses.replace(bs, u=bad_u)
        with pytest.raises(ScalarizationFailed):
            build_block_unitary(bad, blocks=blocks, scales=[norm_scale(a2)])


class TestDecompose:
    def test_round_trip(self):
        tup, desc = gen_decomposable(3, 2, 2, seed=29)
        res = decompose(tup, 2)
        assert res.residual <= 1e-6 * tup.max_norm()
        ps = pencil_charpoly(list(res.reduced.matrices))
        pt = pencil_charpoly(list(desc.seed_tuple))
        assert coefficient_distance(ps, pt) <= 1e-6

    def test_commuting_reduced_tuple(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4)))
        res = decompose(tup, 2)
        assert np.allclose(res.reduced.matrices[0], diag(1, 2))
        assert np.allclose(res.reduced.matrices[1], diag(3, 4))
        assert res.partition == ((0,), (1,))

    def test_block_unitary_commutes_with_diagonal(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=31)
        res = decompose(tup, 2)
        lam = np.kron(np.diag(res.eigenvalues + res.shifts[0]), np.eye(2))
        defect = np.linalg.norm(res.block_unitary @ lam - lam @ res.block_unitary)
        assert defect <= 1e-9

    def test_negative_raises_cycle_inconsistency(self):
        tup, _ = gen_conjugate_negative(seed=3)
        with pytest.raises(CycleInconsistency) as err:
            decompose(tup, 2)
        assert len(err.value.cycle) == 3

    def test_degenerate_k1(self):
        # k = 1 runs the general pipeline: each 1 x 1 block is a phase
        tup, _ = gen_decomposable(3, 1, 2, seed=37)
        res = decompose(tup, 1)
        u = res.block_unitary
        assert np.array_equal(u, np.diag(np.diag(u)))
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        lam = np.diag(res.eigenvalues + res.shifts[0])
        assert np.linalg.norm(u @ lam - lam @ u) <= 1e-9
        assert res.residual <= 1e-8
        assert verify_decomposition(tup, res)["ok"]

    def test_wrong_k_rejected(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=1)
        with pytest.raises(SpectrumPatternViolation):
            decompose(tup, 3)

    def test_b1_is_sorted_eigenvalue_diagonal(self):
        tup, _ = gen_decomposable(4, 2, 2, seed=41)
        res = decompose(tup, 2)
        b1 = res.reduced.matrices[0]
        assert np.allclose(b1, np.diag(np.diag(b1)))
        assert np.all(np.diff(np.diag(b1).real) > 0)

    def test_deterministic(self):
        tup, _ = gen_decomposable(2, 2, 2, seed=43)
        r1 = decompose(tup, 2)
        r2 = decompose(tup, 2)
        assert np.array_equal(r1.block_unitary, r2.block_unitary)
        assert np.array_equal(r1.eigenbasis, r2.eigenbasis)
        assert r1.residual == r2.residual

    def test_path_coupling_derives_deep_pieces(self):
        # A_2 = I_2 (x) T with T tridiagonal couples cluster i only to i +- 1,
        # so the forest reaches cluster 0 at depth 3 from the root 3
        n = 4
        rng = np.random.default_rng(61)
        d = np.diag(np.arange(1.0, n + 1))
        off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        t = np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off.conj(), -1)
        w = haar_unitary(2 * n, 62)
        tup = HermitianTuple(tuple(w @ np.kron(np.eye(2), a) @ w.conj().T for a in (d, t)))
        bs, _ = structure_of(tup)
        assert {(i, j) for i, j in bs.pairs if i < j} == {(0, 1), (1, 2), (2, 3)}
        res = decompose(tup, 2)
        assert res.partition == ((0, 1, 2, 3),)
        assert res.residual <= DEFAULT.residual_tol * tup.max_norm()
        assert verify_decomposition(tup, res)["ok"]

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 3e-7, 1e-7, 3e-8, 1e-8, 1e-10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (3, 3), (4, 3), (5, 2)])
    def test_eps_phase_twin_resolution(self, n, m, seed, eps):
        # the twin's 3-cycle phase defect is sqrt(2) eps in Frobenius norm;
        # structural_tol = 1e-7 separates the failing twins from the ones
        # that split
        tup = eps_phase_twin(n, m, seed, eps)
        if eps >= 1e-7:
            with pytest.raises(CycleInconsistency) as err:
                decompose(tup, 2)
            assert len(err.value.cycle) == 3 and err.value.cycle[-1] == n - 1
            assert err.value.residual == pytest.approx(np.sqrt(2.0) * eps, rel=1e-2)
        else:
            res = decompose(tup, 2)
            assert res.residual <= DEFAULT.residual_tol * tup.max_norm()

    def test_generic_coupling_gives_single_partition_block(self):
        # generic rotated direct sums have no vanishing block scalars, so
        # every cluster index lands in one component
        tup, _ = gen_decomposable(3, 2, 2, seed=59)
        res = decompose(tup, 2)
        assert res.partition == ((0, 1, 2),)


def noised_decomposable(n, k, m, seed, delta):
    """``gen_decomposable`` plus ``delta H_l / ||H_l||`` on every generator,
    ``H_l`` a random Hermitian matrix."""
    tup, _ = gen_decomposable(n, k, m, seed)
    rng = np.random.default_rng(seed)
    mats = []
    for a in tup.matrices:
        g = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
        h = g + g.conj().T
        mats.append(a + delta * h / np.linalg.norm(h, 2))
    return HermitianTuple(tuple(mats))


class TestAuditDecides:
    @pytest.mark.parametrize("delta", [1e-10, 1e-9, 3e-9])
    @pytest.mark.parametrize("n, k, m", [(3, 2, 2), (4, 2, 2), (3, 3, 3)])
    def test_decompose_returns_exactly_when_the_audit_is_ok(self, monkeypatch, n, k, m,
                                                            delta):
        audits = []

        def recorded(*args, **kwargs):
            audits.append(verify_decomposition(*args, **kwargs))
            return audits[-1]

        monkeypatch.setattr("pencilspec.decomposer.verify_decomposition", recorded)
        for seed in range(6):
            audits.clear()
            tup = noised_decomposable(n, k, m, seed, delta)
            try:
                res = decompose(tup, k)
            except ScalarizationFailed as exc:
                # only the audit raises it here: the construction's own checks held
                (audit,) = audits
                assert not audit["ok"]
                bounds = _audit_bounds(tup.max_norm(), n * k, k, DEFAULT)
                first = next(key for key in bounds if not audit[key] <= bounds[key])
                label = "final residual" if first == "max_residual" else first.replace("_", " ")
                assert str(exc).startswith(f"{label} {audit[first]:.3e} exceeds ")
                continue
            except (ClusterAmbiguity, DecompositionError):
                # refused before any audit
                assert not audits
                continue
            assert res.verification is audits[-1] and res.verification["ok"]
            u = res.block_unitary
            assert np.linalg.norm(u @ u.conj().T - np.eye(n * k)) <= 1e-13 * n * k

    def test_commutation_bound_follows_resolution(self):
        # gap_tol / 10 per joined gap, k - 1 gaps a cluster (at least one),
        # sqrt(N) for the Frobenius norm over N rows
        assert _audit_bounds(1.0, 6, 2, DEFAULT)["commutation_defect"] == 1e-9 * np.sqrt(6)
        assert _audit_bounds(1.0, 9, 3, DEFAULT)["commutation_defect"] == 1e-9 * 2 * 3.0
        coarse = Tolerances(resolution=1e-6)
        assert (_audit_bounds(2.0, 8, 4, coarse)["commutation_defect"]
                == coarse.gap_tol / 10 * 3 * np.sqrt(8) * 2.0)

    @pytest.mark.parametrize("angle", [1e-3, np.pi / 4])
    def test_a_block_unitary_mixing_two_clusters_exceeds_the_commutation_bound(self, angle):
        # a Givens rotation between the first basis vector of cluster 1 and
        # the first of cluster 2 no longer commutes with the diagonalized A_1
        tup, _ = gen_decomposable(3, 2, 2, seed=47)
        res = decompose(tup, 2)
        givens = np.eye(6, dtype=complex)
        givens[[0, 0, 2, 2], [0, 2, 0, 2]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
        rep = verify_decomposition(tup, dataclasses.replace(res, block_unitary=res.block_unitary @ givens))
        bound = _audit_bounds(tup.max_norm(), 6, 2, DEFAULT)["commutation_defect"]
        assert rep["commutation_defect"] > 100 * bound and not rep["ok"]


@pytest.mark.parametrize("n, k, m, seed", [(3, 2, 2, 5), (4, 2, 2, 16), (3, 3, 3, 3)])
def test_analyze_pass_means_decompose_returns(n, k, m, seed):
    tup = noised_decomposable(n, k, m, seed, 3e-9)
    assert analyze(tup, k).overall == "pass"
    res = decompose(tup, k)
    assert res.verification["ok"]


class TestVerifyDecomposition:
    def test_round_trip_verifies(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=47)
        res = decompose(tup, 2)
        rep = verify_decomposition(tup, res)
        assert rep["ok"]
        assert rep["max_residual"] <= 1e-6 * max(1.0, tup.max_norm())

    def test_tampered_block_unitary_detected(self):
        tup, _ = gen_decomposable(2, 2, 2, seed=53)
        res = decompose(tup, 2)
        assert res.partition == ((0, 1),), "seed must produce coupled clusters"
        tampered = res.block_unitary.copy()
        tampered[:2, :2] *= -1.0
        bad = dataclasses.replace(res, block_unitary=tampered)
        rep = verify_decomposition(tup, bad)
        assert not rep["ok"]
        assert rep["max_residual"] > 1e-3

    def test_identity_tuple_trivial_result(self):
        n, k = 3, 2
        tup = HermitianTuple((np.eye(6), np.eye(6)))
        res = DecompositionResult(
            n=n,
            k=k,
            eigenbasis=np.eye(6, dtype=np.complex128),
            block_unitary=np.eye(6, dtype=np.complex128),
            permutation=np.array([0, 2, 4, 1, 3, 5]),
            reduced=HermitianTuple((np.eye(3), np.eye(3))),
            eigenvalues=np.ones(3),
            partition=((0,), (1,), (2,)),
            shifts=(0.0, 0.0),
            residual=0.0,
        )
        rep = verify_decomposition(tup, res)
        assert rep["ok"] and rep["max_residual"] <= 1e-12
