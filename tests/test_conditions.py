import numpy as np
import pytest

from pencilspec.charpoly import kth_power_test
from pencilspec.conditions import (
    WordSpec,
    adjoint_twins,
    analyze,
    check_admissibility,
    count_words,
    enumerate_words,
    realize_word,
    verify_cycle_identity,
    verify_first_order_identity,
)
from pencilspec.config import Tolerances
from pencilspec.decomposer import extract_block_structure, unify_layers
from pencilspec.errors import IndexOutOfRange, ZeroCoefficientOnCycle
from pencilspec.instances import gen_commuting, gen_conjugate_negative, gen_decomposable
from pencilspec.linalg import (
    HermitianTuple,
    eigendecompose_clustered,
    norm_scale,
    prepare_tuple,
    shift_to_invertible,
)


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=np.complex128))


class TestWordSpec:
    def test_valid(self):
        w = WordSpec(letters=(2, 3), projections=(1,))
        assert w.r == 1

    def test_rejects_repeated_projection(self):
        with pytest.raises(ValueError):
            WordSpec(letters=(2, 2, 2), projections=(1, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            WordSpec(letters=(2,), projections=(1,))

    def test_rejects_first_generator_as_letter(self):
        with pytest.raises(ValueError):
            WordSpec(letters=(1,), projections=())


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,m,want",
        [(2, 2, 3), (3, 3, 62), (1, 2, 1), (4, 2, 1 + 4 + 12 + 24), (4, 3, 498)],
    )
    def test_mode_all_counts(self, n, m, want):
        words, truncated = enumerate_words(n, m, mode="all")
        assert len(words) == want == count_words(n, m, "all")
        assert not truncated

    def test_proof_core_count(self):
        words, _ = enumerate_words(3, 2, mode="proof_core")
        assert len(words) == 7 == count_words(3, 2, "proof_core")
        for w in words:
            assert tuple(sorted(w.projections)) == w.projections
        for n in range(1, 6):
            for m in range(2, 5):
                for mode in ("all", "proof_core"):
                    words, truncated = enumerate_words(n, m, mode=mode, tol=Tolerances(word_cap=10**6))
                    assert not truncated
                    assert len(words) == count_words(n, m, mode)
        with pytest.raises(ValueError):
            count_words(3, 2, "bogus")

    def test_n2_m2_explicit(self):
        words, _ = enumerate_words(2, 2, mode="all")
        got = {(w.letters, w.projections) for w in words}
        assert got == {((2,), ()), ((2, 2), (1,)), ((2, 2), (2,))}

    def test_cap_flags_truncation(self):
        words, truncated = enumerate_words(3, 3, mode="all", tol=Tolerances(word_cap=10))
        assert len(words) == 10 and truncated

    def test_counts_match_closed_form_battery(self):
        for n in range(1, 5):
            for m in (2, 3):
                words, _ = enumerate_words(n, m, mode="all")
                assert len(words) == count_words(n, m, "all")


class TestRealizeWord:
    def test_single_letter(self):
        tup = HermitianTuple((diag(1, 2), diag(3, 4)))
        sd = eigendecompose_clustered(tup.matrices[0])
        w = WordSpec(letters=(2,), projections=())
        assert np.allclose(realize_word(tup, sd, w), diag(3, 4))

    def test_projected_square(self):
        tup = HermitianTuple((diag(1, 2), diag(3, 4)))
        sd = eigendecompose_clustered(tup.matrices[0])
        w = WordSpec(letters=(2, 2), projections=(1,))
        assert np.allclose(realize_word(tup, sd, w), diag(9, 0))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats = (diag(1, 2, 3, 4), (g + g.conj().T) / 2, diag(1, -1, 2, -2))
        tup = HermitianTuple(mats)
        sd = eigendecompose_clustered(tup.matrices[0])
        w = WordSpec(letters=(2, 3, 2), projections=(1, 3))
        wrev = WordSpec(letters=(2, 3, 2), projections=(3, 1))
        lhs = realize_word(tup, sd, w).conj().T
        rhs = realize_word(tup, sd, wrev)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_out_of_range(self):
        tup = HermitianTuple((diag(1, 2), diag(3, 4)))
        sd = eigendecompose_clustered(tup.matrices[0])
        with pytest.raises(IndexOutOfRange):
            realize_word(tup, sd, WordSpec(letters=(3,), projections=()))
        with pytest.raises(IndexOutOfRange):
            realize_word(tup, sd, WordSpec(letters=(2, 2), projections=(5,)))


class TestWordCondition:
    def test_commuting_tuple_all_words_pass(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4)))
        sd = eigendecompose_clustered(tup.matrices[0])
        words, _ = enumerate_words(2, 2, mode="all")
        for i, w in enumerate(words):
            v = kth_power_test([tup.matrices[0], realize_word(tup, sd, w)], k=2, n=2,
                               seed=100 + i)
            assert v.is_kth_power

    def test_decomposable_all_words_pass(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=3)
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        words, _ = enumerate_words(3, 2, mode="all")
        for i, w in enumerate(words):
            v = kth_power_test([shifted.matrices[0], realize_word(shifted, sd, w)], k=2, n=3,
                               seed=i)
            assert v.is_kth_power, (w, v.failure_reason)

    def test_negative_cycle_word_fails(self):
        tup, desc = gen_conjugate_negative(seed=1)
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        w = WordSpec(**desc.failing_word)
        v = kth_power_test([shifted.matrices[0], realize_word(shifted, sd, w)], k=2, n=3,
                           seed=0)
        assert not v.is_kth_power


class TestAdjointTwins:
    @pytest.mark.parametrize(
        "n, m, mode, want",
        [(6, 2, "all", 615), (4, 3, "all", 244), (3, 3, "proof_core", 3), (6, 2, "proof_core", 0)],
    )
    def test_twin_counts(self, n, m, mode, want):
        words, _ = enumerate_words(n, m, mode=mode)
        twins = adjoint_twins(words)
        assert len(twins) == want
        for i, j in twins.items():
            assert j < i
            assert words[j].letters == words[i].letters[::-1]
            assert words[j].projections == words[i].projections[::-1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: gen_decomposable(3, 2, 3, seed=s)[0],
            lambda s: gen_commuting(3, 2, 3, seed=s)[0],
            lambda s: gen_conjugate_negative(seed=s)[0],
        ],
        ids=["decomposable", "commuting", "conjugate_negative"],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_adjoint_pencils_agree(self, make, seed):
        # each twin is tested on its own, on a seed unrelated to its partner's
        prep = prepare_tuple(make(seed), 2)
        a1 = prep.tup.matrices[0]
        words, _ = enumerate_words(prep.spec.n, prep.tup.m, mode="all")
        twins = adjoint_twins(words)
        assert twins
        for i, j in twins.items():
            w, w_adj = (realize_word(prep.tup, prep.spec, words[x]) for x in (j, i))
            assert np.linalg.norm(w_adj - w.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(w))
            v = kth_power_test([a1, w], 2, prep.spec.n, seed=seed + 100 * j)
            v_adj = kth_power_test([a1, w_adj], 2, prep.spec.n, seed=seed + 100 * i + 1)
            assert v.is_kth_power == v_adj.is_kth_power, (words[j], words[i])

    def test_analyze_shares_verdicts(self):
        tup, desc = gen_conjugate_negative(seed=1)
        rep = analyze(tup, 2, seed=0)
        assert rep.adjoint_of == adjoint_twins([w for w, _ in rep.word_results])
        for i, j in rep.adjoint_of.items():
            assert rep.word_results[i][1] is rep.word_results[j][1]
        fails = {(w.letters, w.projections) for w in rep.failing_words}
        word = desc.failing_word
        assert (tuple(word["letters"]), tuple(word["projections"])) in fails
        assert (tuple(word["letters"])[::-1], tuple(word["projections"])[::-1]) in fails


class TestAdmissibility:
    def test_commuting_positive(self):
        ok, diagnostics = check_admissibility(
            HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4))), k=2
        )
        assert ok
        assert all(e["ok"] for e in diagnostics["generators"])

    def test_scalar_generator_fails(self):
        ok, diagnostics = check_admissibility(
            HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 3, 3))), k=2
        )
        assert not ok
        assert diagnostics["generators"][1]["ok"] is False

    def test_decomposable_instances_admissible(self):
        for seed in range(3):
            tup, _ = gen_decomposable(2, 2, 2, seed=seed)
            ok, _ = check_admissibility(tup, k=2)
            assert ok

    def test_nondividing_k(self):
        ok, diagnostics = check_admissibility(HermitianTuple((diag(1, 2, 3),)), k=2)
        assert not ok and "divide" in diagnostics["reason"]


class TestAnalyze:
    def test_decomposable_passes(self):
        tup, _ = gen_decomposable(2, 2, 2, seed=5)
        rep = analyze(tup, 2, seed=0)
        assert rep.overall == "pass"
        assert rep.precondition_ok and rep.admissible_ok
        assert rep.full_tuple.is_kth_power
        assert not rep.failing_words

    def test_negative_fails_with_failing_word(self):
        tup, _ = gen_conjugate_negative(seed=1)
        rep = analyze(tup, 2, seed=0)
        assert rep.overall == "fail"
        assert len(rep.failing_words) >= 1
        fails = {(w.letters, w.projections) for w in rep.failing_words}
        assert ((2, 2, 2), (2, 3)) in fails

    def test_simple_spectrum_violates_precondition(self):
        tup = HermitianTuple((diag(1, 2, 3), diag(1, 0, 2)))
        rep = analyze(tup, 2, seed=0)
        assert rep.overall == "precondition_violated"
        assert rep.word_results == ()

    def test_nondivisible_k(self):
        tup = HermitianTuple((diag(1, 1, 2), diag(0, 1, 2)))
        rep = analyze(tup, 2, seed=0)
        assert rep.overall == "precondition_violated"

    def test_inadmissible_tuple_reported(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 3, 3)))
        rep = analyze(tup, 2, seed=0)
        assert rep.overall == "precondition_violated"
        assert rep.precondition_ok and not rep.admissible_ok

    def test_deterministic_rerun(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=11)
        rep1 = analyze(tup, 2, seed=7)
        rep2 = analyze(tup, 2, seed=7)
        assert rep1 == rep2


class TestFirstOrderIdentity:
    def test_commuting_pair_exact(self):
        tup = HermitianTuple((diag(1, 2), diag(3, 4)))
        sd = eigendecompose_clustered(tup.matrices[0])
        for i in range(2):
            assert verify_first_order_identity(tup, sd, i, 2) <= 1e-12

    def test_decomposable_within_tolerance(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=8)
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        scale = norm_scale(shifted.matrices[1])
        for i in range(sd.n):
            assert verify_first_order_identity(shifted, sd, i, 2) <= 1e-7 * scale


class TestCycleIdentity:
    def _structure(self, tup, k):
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        blocks = extract_block_structure(shifted, sd)
        scales = [norm_scale(a) for a in shifted.matrices[1:]]
        return unify_layers(blocks, scales)

    def test_decomposable_three_cycle(self):
        tup, _ = gen_decomposable(3, 2, 2, seed=4)
        bs = self._structure(tup, 2)
        if all(p in bs.pairs for p in ((0, 1), (1, 2), (2, 0))):
            theta, resid = verify_cycle_identity(bs, (0, 1, 2))
            assert resid <= 1e-7

    def test_negative_cycle_far_from_scalar(self):
        tup, _ = gen_conjugate_negative(seed=1)
        bs = self._structure(tup, 2)
        theta, resid = verify_cycle_identity(bs, (0, 1, 2))
        assert resid >= 1.0
        assert resid == pytest.approx(2.0, abs=1e-9)

    def test_k1_cycles_trivially_scalar(self):
        tup, _ = gen_decomposable(3, 1, 2, seed=2)
        bs = self._structure(tup, 1)
        if all(p in bs.pairs for p in ((0, 1), (1, 2), (2, 0))):
            _, resid = verify_cycle_identity(bs, (0, 1, 2))
            assert resid <= 1e-10

    def test_missing_pair_raises(self):
        tup = HermitianTuple((diag(1, 1, 2, 2, 3, 3), diag(3, 3, 4, 4, 5, 5)))
        bs = self._structure(tup, 2)
        with pytest.raises(ZeroCoefficientOnCycle):
            verify_cycle_identity(bs, (0, 1, 2))
