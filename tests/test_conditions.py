import os

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
    hermitian_parts,
)
from pencilspec.config import Tolerances
from pencilspec.decomposer import extract_block_structure, unify_layers
from pencilspec.errors import SpectrumPatternViolation
from pencilspec.instances import gen_commuting, gen_conjugate_negative, gen_decomposable
from pencilspec.linalg import HermitianTuple, prepare_tuple
from pencilspec.reference import (
    IndexOutOfRange,
    ZeroCoefficientOnCycle,
    eigendecompose_clustered,
    norm_scale,
    realize_word,
    shift_to_invertible,
    verify_cycle_identity,
    verify_first_order_identity,
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
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            count_words(3, 2, "bogus")
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            enumerate_words(3, 2, mode="bogus")

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

    @staticmethod
    def validated_words(n, m, mode, cap):
        # the enumeration loop that built every word through WordSpec(...)
        from itertools import combinations, permutations, product

        words = []
        for r in range(n):
            arrange = permutations if mode == "all" else combinations
            for projections in arrange(range(1, n + 1), r):
                for letters in product(range(2, m + 1), repeat=r + 1):
                    if len(words) >= cap:
                        return words, True
                    words.append(WordSpec(letters=letters, projections=projections))
        return words, False

    @pytest.mark.parametrize("mode", ["all", "proof_core"])
    def test_words_equal_validated_words(self, mode):
        # caps at and around level ends and inside a projection tuple's
        # block of letter tuples, e.g. 100 cuts level 2 of (4, 3) after 82
        # of its 96 words, 10 whole blocks of 8 and two words of the next
        for n in range(1, 6):
            for m in (2, 3):
                total = count_words(n, m, mode)
                for cap in sorted({1, 2, 3, 7, 18, 19, 100, max(1, total - 1), total, 10**6}):
                    tol = Tolerances(word_cap=cap)
                    words, truncated = enumerate_words(n, m, mode=mode, tol=tol)
                    assert words == [WordSpec(w.letters, w.projections) for w in words]
                    assert (words, truncated) == self.validated_words(n, m, mode, cap)
                    assert all(type(i) is int for w in words for i in w.letters + w.projections)

    def test_analyze_validates_no_word(self, monkeypatch):
        calls = []
        post_init = WordSpec.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(WordSpec, "__post_init__", counting)
        WordSpec((2,), ())  # a public construction still validates
        assert len(calls) == 1
        tup, _ = gen_decomposable(3, 2, 3, seed=2)
        rep = analyze(tup, 2, mode="all", seed=1)
        assert len(rep.word_results) == count_words(3, 3, "all")
        assert len(calls) == 1


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


class TestBlockWords:
    # (n, k, m), mode, word_cap: k = 3, n = 1 (no projections), m = 3, both
    # modes, caps that cut a level inside a projection tuple's block (82 of
    # 96 words at level 2 in "all", 34 of 64 at level 3 in "proof_core"),
    # and caps at the level starts 2 and 14 of (3, 2, 3) in "all" and one
    # word past the second, which leave levels empty or with one word
    CASES = [
        ((3, 3, 2), "all", None),
        ((1, 2, 3), "all", None),
        ((3, 2, 3), "all", None),
        ((3, 2, 3), "all", 2),
        ((3, 2, 3), "all", 14),
        ((3, 2, 3), "all", 15),
        ((3, 2, 3), "proof_core", None),
        ((4, 2, 3), "all", 100),
        ((4, 2, 3), "proof_core", 100),
        ((2, 3, 4), "proof_core", None),
    ]

    @pytest.mark.parametrize("shape, mode, cap", CASES)
    @pytest.mark.parametrize("step", [1, 7, 1000])
    def test_matches_realize_word(self, shape, mode, cap, step):
        from pencilspec.conditions import _BlockWords

        n, k, m = shape
        prep = prepare_tuple(gen_decomposable(n, k, m, seed=4)[0], k)
        tol = Tolerances(word_cap=cap) if cap else Tolerances()
        words, truncated = enumerate_words(n, m, mode=mode, tol=tol)
        assert truncated == (cap is not None)
        realized = _BlockWords(prep.tup, prep.spec, words)
        for start in range(0, len(words), step):
            rows = list(range(start, min(start + step, len(words))))
            for i, w in zip(rows, realized.matrices(rows)):
                ref = realize_word(prep.tup, prep.spec, words[i])
                assert np.max(np.abs(w - ref)) <= 1e-13, words[i]

    def test_skipped_words_do_not_shift_the_rest(self):
        # analyze asks only for the words it tests; each is realized from
        # its own indices, whatever words are skipped around it
        from pencilspec.conditions import _BlockWords

        prep = prepare_tuple(gen_conjugate_negative(seed=3)[0], 2)
        words, _ = enumerate_words(3, 2, mode="all")
        rows = [i for i in range(len(words)) if i % 3 == 2]
        got = _BlockWords(prep.tup, prep.spec, words).matrices(rows)
        for i, w in zip(rows, got):
            assert np.max(np.abs(w - realize_word(prep.tup, prep.spec, words[i]))) <= 1e-13

    @pytest.mark.parametrize("shape, mode, cap", CASES)
    def test_any_order_and_repeats(self, shape, mode, cap):
        # a word is realized from the operand blocks and its own labels
        # alone: a forked share asks for its words first, and
        # nothing ties a call to the one before
        from pencilspec.conditions import _BlockWords

        n, k, m = shape
        prep = prepare_tuple(gen_decomposable(n, k, m, seed=4)[0], k)
        tol = Tolerances(word_cap=cap) if cap else Tolerances()
        words, _ = enumerate_words(n, m, mode=mode, tol=tol)
        realized = _BlockWords(prep.tup, prep.spec, words)
        rng = np.random.default_rng(5)
        rows = np.concatenate([rng.permutation(len(words)), rng.integers(len(words), size=9)])
        for part in (rows[: len(rows) // 2], rows, rows[::-1]):
            for i, w in zip(part.tolist(), realized.matrices(part)):
                ref = realize_word(prep.tup, prep.spec, words[i])
                assert np.max(np.abs(w - ref)) <= 1e-13, words[i]

    @staticmethod
    def _word_lists(n, m, rng):
        """Word lists that :func:`enumerate_words` does not produce."""
        words, _ = enumerate_words(n, m, mode="all")

        def word():
            r = int(rng.integers(n))
            return WordSpec(tuple(rng.integers(2, m + 1, size=r + 1)),
                            tuple(rng.permutation(n)[:r] + 1))

        return {
            "reversed": words[::-1],
            "shuffled": [words[i] for i in rng.permutation(len(words))],
            "first letter 2": [w for w in words if w.letters[0] == 2],
            "hand-built": [word() for _ in range(40)],
        }

    @pytest.mark.parametrize("shape", [(4, 2, 3), (2, 3, 4)])
    def test_any_word_list(self, shape):
        # each word's chain is built from its own labels, so the table
        # realizes a list in any order, a filtered one and words made by
        # hand that mix levels and letters, asked for in any order
        from pencilspec.conditions import _BlockWords

        n, k, m = shape
        prep = prepare_tuple(gen_decomposable(n, k, m, seed=4)[0], k)
        rng = np.random.default_rng(8)
        for label, words in self._word_lists(n, m, rng).items():
            realized = _BlockWords(prep.tup, prep.spec, words)
            rows = rng.permutation(len(words))
            for i, w in zip(rows.tolist(), realized.matrices(rows)):
                ref = realize_word(prep.tup, prep.spec, words[i])
                assert np.max(np.abs(w - ref)) <= 1e-13, (label, words[i])

    def test_table_keeps_no_word_matrix(self):
        # the table is built before the battery forks and keeps only the
        # operand blocks and the word list, with no index tuples: about
        # 53 KiB at (6, 2, 2) in "all", where a table of every word's N x k
        # prefix takes 477 KiB
        import tracemalloc

        from pencilspec.conditions import _BlockWords

        prep = prepare_tuple(gen_decomposable(6, 2, 2, seed=7)[0], 2)
        words, _ = enumerate_words(6, 2, mode="all")
        assert len(words) == 1237
        tracemalloc.start()
        try:
            realized = _BlockWords(prep.tup, prep.spec, words)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 128 * 1024
        assert realized.matrices([len(words) - 1]).shape == (1, 12, 12)


class TestAnalyzeDraws:
    def test_lines_come_from_the_seed_and_the_word_index(self):
        # the full tuple's (lines, m) block first, then (words, lines, 3) in
        # one call; word i is tested on row i, twins skipped or not
        from pencilspec.charpoly import _spectra, _verdicts, kth_power_test
        from pencilspec.conditions import _BlockWords

        tup, _ = gen_decomposable(3, 2, 3, seed=4)
        rep = analyze(tup, 2, seed=12)
        prep = prepare_tuple(tup, 2)
        tol = Tolerances()
        rng = np.random.default_rng(12)
        rng.standard_normal((tol.lines, 3))  # the full tuple's, as kth_power_test draws them
        word_dirs = rng.standard_normal((len(rep.word_results), tol.lines, 3))
        gens = np.stack(prep.tup.matrices)
        assert kth_power_test(gens, 2, 3, seed=12) == rep.full_tuple
        words = [w for w, _ in rep.word_results]
        mats = _BlockWords(prep.tup, prep.spec, words).matrices(range(len(words)))
        tested = [i for i in range(len(words)) if i not in rep.adjoint_of]
        # twins come before tested words, and rounding leaves nonzero
        # spreads, so a word on another word's row would show
        assert tested[-1] > len(tested)
        assert all(rep.word_results[i][1].worst_spread > 0 for i in tested)
        for i in tested:
            pencil = np.concatenate([gens[:1], hermitian_parts(mats[i])])
            lams = _spectra(pencil[None], word_dirs[i : i + 1])
            assert _verdicts(lams, 2, 3, tol) == [rep.word_results[i][1]]

    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda: gen_conjugate_negative(seed=2)[0], 2),
            (lambda: gen_decomposable(3, 2, 3, seed=5)[0], 2),
            (lambda: gen_commuting(2, 3, 3, seed=1)[0], 3),
        ],
        ids=["conjugate_negative", "decomposable", "commuting"],
    )
    @pytest.mark.parametrize("shares", [1, 3])
    def test_analyze_does_not_depend_on_slicing(self, monkeypatch, make, k, shares):
        import pencilspec.conditions as conditions

        tup = make()
        reference = analyze(tup, k, seed=9)
        assert len(reference.word_results) > 7
        # the shares forced where the platform forks, whatever the host's CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)),
                            raising=False)
        monkeypatch.setattr(conditions, "_CPU_QUOTA_FILES", ())
        monkeypatch.setattr(conditions, "_FORK_COST", 1)
        # one word a slice, twice over, the default, and one slice a share
        for budget in (1, Tolerances().lines * tup.dim**2, conditions._BATCH_ENTRIES, 10**9):
            monkeypatch.setattr(conditions, "_BATCH_ENTRIES", budget)
            assert analyze(tup, k, seed=9) == reference

    def test_analyze_builds_one_generator(self, monkeypatch):
        tup, _ = gen_decomposable(3, 2, 3, seed=2)
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        rep = analyze(tup, 2, seed=6)
        assert len(rep.word_results) == 62
        assert built == [6]

    def test_battery_gets_only_the_tested_words_and_their_rows(self, monkeypatch):
        # (6,2,2): 1,237 words, 615 of them adjoint twins that take a verdict
        # and are never tested, so neither the table nor the draw keeps them
        import pencilspec.conditions as conditions

        tup, _ = gen_decomposable(6, 2, 2, seed=7)
        calls, battery = [], conditions._battery

        def recording(realized, dirs, tol):
            calls.append((list(realized.words), dirs.copy()))
            return battery(realized, dirs, tol)

        monkeypatch.setattr(conditions, "_battery", recording)
        rep = analyze(tup, 2, seed=5)
        ((words, dirs),) = calls
        tested = [i for i in range(len(rep.word_results)) if i not in rep.adjoint_of]
        assert len(dirs) == len(words) == len(rep.word_results) - len(rep.adjoint_of) == 622
        assert words == [rep.word_results[i][0] for i in tested]
        rng = np.random.default_rng(5)
        rng.standard_normal((Tolerances().lines, 2))  # the full tuple's
        draw = rng.standard_normal((len(rep.word_results), Tolerances().lines, 3))
        assert np.array_equal(dirs, draw[tested])


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
            parts = hermitian_parts(realize_word(shifted, sd, w))
            v = kth_power_test([shifted.matrices[0], *parts], k=2, n=3, seed=i)
            assert v.is_kth_power, (w, v.failure_reason)

    def test_negative_cycle_word_fails(self):
        tup, desc = gen_conjugate_negative(seed=1)
        shifted, _ = shift_to_invertible(tup)
        sd = eigendecompose_clustered(shifted.matrices[0])
        w = WordSpec(**desc.failing_word)
        parts = hermitian_parts(realize_word(shifted, sd, w))
        v = kth_power_test([shifted.matrices[0], *parts], k=2, n=3, seed=0)
        assert not v.is_kth_power

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("into", ["new", "out", "battery-view"])
    def test_hermitian_parts_are_exactly_hermitian(self, scale, into):
        # the battery hands these parts to the eigensolver unchecked: every
        # entry must equal its mirror's conjugate, so that G - G* is zero
        # (a signed zero on the diagonal counts as zero)
        rng = np.random.default_rng(int(np.log10(scale)) + 400)
        w = scale * (rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6)))
        if into == "new":
            parts = hermitian_parts(w)
        elif into == "out":
            parts = np.full((2, 5, 6, 6), np.nan, dtype=complex)
            assert hermitian_parts(w, out=parts) is parts
        else:  # as _share_spectra writes them, behind the first generator
            stack = np.full((5, 3, 6, 6), np.nan, dtype=complex)
            parts = stack[:, 1:].swapaxes(0, 1)
            hermitian_parts(w, out=parts)
        assert np.all(np.isfinite(parts))
        for h in parts:
            assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())
        assert np.any(parts[1])
        assert np.array_equal(parts, hermitian_parts(w))

    def test_hermitian_parts_carry_the_pair_pencil(self):
        # both parts are Hermitian to the last bit, the adjoint negates the
        # second, and the plane (x, y/2, -i y/2) gives back x A_1 + y W
        tup, _ = gen_conjugate_negative(seed=2)
        prep = prepare_tuple(tup, 2)
        w = realize_word(prep.tup, prep.spec, WordSpec(letters=(2, 2), projections=(1,)))
        h1, h2 = hermitian_parts(w)
        for h in (h1, h2):
            assert np.array_equal(h, h.conj().T)
        adj1, adj2 = hermitian_parts(w.conj().T)
        assert np.array_equal(adj1, h1) and np.array_equal(adj2, -h2)
        a1 = prep.tup.matrices[0]
        x, y = 0.3 - 1.1j, 0.7 + 0.4j
        triple = x * a1 + (y / 2) * h1 + (-0.5j * y) * h2
        assert np.allclose(triple, x * a1 + y * w, atol=1e-14)


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
            v = kth_power_test([a1, *hermitian_parts(w)], 2, prep.spec.n, seed=seed + 100 * j)
            v_adj = kth_power_test([a1, *hermitian_parts(w_adj)], 2, prep.spec.n,
                                   seed=seed + 100 * i + 1)
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
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 4, 4)))
        ok, diagnostics = check_admissibility(prepare_tuple(tup, 2), k=2)
        assert ok
        assert all(e["ok"] for e in diagnostics["generators"])

    def test_scalar_generator_fails(self):
        tup = HermitianTuple((diag(1, 1, 2, 2), diag(3, 3, 3, 3)))
        ok, diagnostics = check_admissibility(prepare_tuple(tup, 2), k=2)
        assert not ok
        assert diagnostics["generators"][1]["ok"] is False

    def test_decomposable_instances_admissible(self):
        for seed in range(3):
            tup, _ = gen_decomposable(2, 2, 2, seed=seed)
            ok, _ = check_admissibility(prepare_tuple(tup, 2), k=2)
            assert ok

    def test_nondividing_k(self):
        # the pattern test refuses a k that does not divide N, and
        # prepare_tuple, where the commands check k, raises on it first
        tup = HermitianTuple((diag(1, 2, 3),))
        ok, diagnostics = check_admissibility(prepare_tuple(tup), k=2)
        assert not ok
        assert "wanted 1 clusters of size 2" in diagnostics["generators"][0]["reason"]
        with pytest.raises(SpectrumPatternViolation, match="does not divide"):
            prepare_tuple(tup, 2)


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
