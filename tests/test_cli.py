import gc
import json
import os
import re
import stat
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pencilspec.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_PRECONDITION,
    _atomic_write,
    _build_parser,
    _word_summary,
    load_tuple,
    main,
    save_tuple,
)
from pencilspec.conditions import MODES, _monomial_span
from pencilspec.config import DEFAULT, LADDER, Tolerances
from pencilspec.instances import FAMILIES, gen_conjugate_negative, gen_decomposable
from pencilspec.linalg import HermitianTuple


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


@pytest.fixture
def pos_file(tmp_path):
    path = tmp_path / "pos.json"
    assert main(
        ["generate", "--family", "decomposable", "--n", "3", "--k", "2", "--m", "2",
         "--seed", "7", "--out", str(path)]
    ) == EXIT_PASS
    return path


@pytest.fixture
def neg_file(tmp_path):
    path = tmp_path / "neg.json"
    assert main(
        ["generate", "--family", "conjugate_negative", "--seed", "1", "--out", str(path)]
    ) == EXIT_PASS
    return path


class TestTupleFiles:
    def test_round_trip_lossless(self, tmp_path):
        tup, _ = gen_decomposable(2, 2, 2, seed=3)
        path = tmp_path / "t.json"
        save_tuple(str(path), tup, metadata={"note": "x"})
        loaded, meta = load_tuple(str(path))
        assert meta == {"note": "x"}
        for a, b in zip(tup.matrices, loaded.matrices):
            assert np.array_equal(a, b)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_tuple(str(path))

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "pencilspec-tuple",
                    "version": 1,
                    "dim": 3,
                    "m": 1,
                    "matrices": [[[[1.0, 0.0]]]],
                }
            )
        )
        with pytest.raises(ValueError):
            load_tuple(str(path))

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2, 3],
            "pencilspec-tuple",
            {"format": "pencilspec-tuple", "version": 1, "dim": 1, "m": 1},
            {"format": "pencilspec-tuple", "dim": 1, "m": 1, "matrices": {"a": 1}},
            {"format": "pencilspec-tuple", "dim": 1, "m": "1", "matrices": [[[[1.0, 0.0]]]]},
            {"format": "pencilspec-tuple", "dim": 1.0, "m": 1, "matrices": [[[[1.0, 0.0]]]]},
            {"format": "pencilspec-tuple", "dim": True, "m": True, "matrices": [[[[1.0, 0.0]]]]},
            {"format": "pencilspec-tuple", "dim": 1, "m": 1, "matrices": [[[{"re": 1}]]]},
            {"format": "pencilspec-tuple", "dim": 1, "m": 1, "matrices": [[[[10**400, 0]]]]},
            {"format": "pencilspec-tuple", "dim": 2, "m": 1,
             "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]]},
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_tuple(str(path))
        assert main(["analyze", str(path), "--k", "2"]) == EXIT_ERROR

    @pytest.mark.parametrize("cell", [[1, 0, 5], [True, False], ["1", "0"], [1.0, True], [[1], 0]])
    def test_cell_must_be_a_pair_of_numbers(self, pos_file, tmp_path, cell):
        doc = json.loads(pos_file.read_text())
        doc["matrices"][0][0][0] = cell
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        assert main(["analyze", str(path), "--k", "2", "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()

    def test_allow_nonhermitian_projects(self, tmp_path):
        path = tmp_path / "nh.json"
        doc = {
            "format": "pencilspec-tuple",
            "version": 1,
            "dim": 2,
            "m": 1,
            "matrices": [[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]],
        }
        path.write_text(json.dumps(doc))
        from pencilspec.errors import NotHermitian

        with pytest.raises(NotHermitian):
            load_tuple(str(path))
        tup, _ = load_tuple(str(path), allow_nonhermitian=True)
        assert np.allclose(tup.matrices[0], [[1.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize("command", ["analyze", "decompose"])
    def test_hermitian_tolerance_override_governs_loading(self, pos_file, tmp_path, command):
        doc = json.loads(pos_file.read_text())
        doc["matrices"][0][0][1][0] += 1e-10
        path = tmp_path / "defect.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path), "--k", "2", "--out", str(tmp_path / "rep.json")]
        assert main(argv) == EXIT_ERROR
        # resolution 1e-5 puts hermitian_rel at 1e-9
        assert main(argv + ["--tol", "resolution=1e-5"]) == EXIT_PASS

    def test_bulk_decode_matches_the_per_cell_reference(self):
        # the decoder reads every cell as complex(re, im) did, to the bit
        from pencilspec.cli import _matrix_from_json

        rows = [[[-0.0, 1e-300], [5e-324, -0.0], [3, -7]],
                [[1.7976931348623157e308, 0.1], [-2.5, 0], [0.0, -1e-300]]]
        got = _matrix_from_json(rows)
        want = np.array([[complex(*c) for c in row] for row in rows], dtype=np.complex128)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0].real) and np.signbit(got[0, 1].imag)

    @pytest.mark.parametrize("command", ["analyze", "decompose", "corollary"])
    def test_report_digest_is_of_the_analyzed_bytes(self, pos_file, tmp_path, monkeypatch,
                                                    command):
        # the file is read once: rewritten after loading, the report still
        # carries the digest of the bytes that were analyzed
        import hashlib

        import pencilspec.cli as cli

        data = pos_file.read_bytes()
        load = cli.load_tuple

        def load_then_rewrite(*args, **kwargs):
            loaded = load(*args, **kwargs)
            pos_file.write_text("{}")
            return loaded

        monkeypatch.setattr(cli, "load_tuple", load_then_rewrite)
        out = tmp_path / "rep.json"
        assert main([command, str(pos_file), "--k", "2", "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["input"]["sha256"] == hashlib.sha256(data).hexdigest()

    def test_generate_embeds_descriptor(self, pos_file):
        _, meta = load_tuple(str(pos_file))
        assert meta["descriptor"]["family"] == "decomposable"
        assert meta["descriptor"]["expected_pass"] is True


class TestAnalyzeCommand:
    def test_mode_choices_are_the_mode_table(self):
        # the parser offers exactly conditions.MODES, in its order
        parser = _build_parser()
        sub = next(a for a in parser._actions if a.dest == "command").choices["analyze"]
        mode = next(a for a in sub._actions if a.dest == "mode")
        assert list(mode.choices) == list(MODES) == ["all", "proof_core"]
        assert mode.default == "all"

    def test_positive_exits_zero(self, pos_file, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(pos_file), "--k", "2", "--seed", "3", "--out", str(out)])
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["overall"] == "pass"
        assert rep["full_tuple"]["is_kth_power"] is True
        assert len(rep["words"]) == 10
        assert rep["tolerances"]["cluster_rel"] == 1e-8

    def test_negative_exits_one_and_names_words(self, neg_file, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(neg_file), "--k", "2", "--seed", "3", "--out", str(out)])
        assert code == EXIT_FAIL
        rep = json.loads(out.read_text())
        assert rep["overall"] == "fail"
        assert len(rep["failing_words"]) >= 1

    def test_indivisible_k_exits_two(self, neg_file, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(neg_file), "--k", "5", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        assert rep["overall"] == "precondition_violated"
        assert rep["detail"] == "k=5 does not divide N=6"

    def test_missing_file_exits_three(self, tmp_path):
        code = main(["analyze", str(tmp_path / "none.json"), "--k", "2"])
        assert code == EXIT_ERROR

    def test_tolerance_override_echoed(self, pos_file, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["analyze", str(pos_file), "--k", "2", "--out", str(out),
             "--tol", "resolution=1e-5", "--tol", "lines=6"]
        )
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["tolerances"]["resolution"] == 1e-5
        assert rep["tolerances"]["cluster_rel"] == 1e-5
        assert rep["tolerances"]["lines"] == 6

    @pytest.mark.parametrize("command", ["analyze", "corollary"])
    def test_line_count_comes_from_tolerances_only(self, pos_file, tmp_path, command):
        out = tmp_path / "rep.json"
        argv = [command, str(pos_file), "--k", "2", "--out", str(out), "--tol", "lines=6"]
        assert main(argv) == EXIT_PASS
        rep = json.loads(out.read_text())
        verdict = rep["full_tuple" if command == "analyze" else "verdict"]
        assert len(verdict["lines"]) == 6
        assert all(sorted(rec) == ["cluster_sizes", "spread"] for rec in verdict["lines"])
        assert "lines" not in rep and "lines" not in rep["parameters"]
        assert sorted(rep["tolerances"]) == sorted(DEFAULT.as_dict())
        # the three settable values and the nine derived from resolution
        assert len(rep["tolerances"]) == 12

    def test_admissibility_reports_no_second_shift(self, pos_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["analyze", str(pos_file), "--k", "2", "--out", str(out)]) == EXIT_PASS
        adm = json.loads(out.read_text())["admissibility"]
        assert list(adm) == ["generators"]
        assert all("shift" not in entry for entry in adm["generators"])

    def test_word_cap_below_battery_is_refused(self, pos_file, tmp_path):
        # (3, 2, 2) in mode all has 1 + 3 + 6 = 10 words; no prefix is tested
        out = tmp_path / "rep.json"
        code = main(
            ["analyze", str(pos_file), "--k", "2", "--out", str(out), "--tol", "word_cap=3"]
        )
        assert code == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        assert rep["tolerances"]["word_cap"] == 3
        assert rep["overall"] == "precondition_violated"
        assert rep["detail"] == "mode 'all' has 10 words, more than word_cap=3"
        assert rep["precondition_ok"] and rep["admissible_ok"]
        assert rep["words"] == [] and rep["full_tuple"] is None
        assert "word_enumeration_truncated" not in rep

    @pytest.mark.parametrize("seed", range(5))
    def test_word_cap_never_passes_conjugate_negative(self, tmp_path, seed):
        path = tmp_path / "neg.json"
        main(["generate", "--family", "conjugate_negative", "--seed", str(seed),
              "--out", str(path)])
        for cap in range(1, 10):
            out = tmp_path / f"cap{cap}.json"
            argv = ["analyze", str(path), "--k", "2", "--tol", f"word_cap={cap}",
                    "--out", str(out)]
            assert main(argv) == EXIT_PRECONDITION
            rep = json.loads(out.read_text())
            assert rep["overall"] == "precondition_violated"
            assert "10 words" in rep["detail"] and f"word_cap={cap}" in rep["detail"]

    def test_unknown_tolerance_exits_three(self, pos_file):
        assert main(["analyze", str(pos_file), "--k", "2", "--tol", "bogus=1"]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "name",
        ["root_residual_rel", "prune_rel", "degenerate_lead_rel", "interpolation_sep_rel",
         "branch_eps", "line_retries", *LADDER],
    )
    def test_removed_root_residual_tolerance_exits_three(self, pos_file, tmp_path, capsys,
                                                         name):
        # removed names are unknown; derived ones are set through resolution
        out = tmp_path / "rep.json"
        argv = ["analyze", str(pos_file), "--k", "2", "--tol", f"{name}=1e-6", "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert not out.exists()
        reason = "is derived from resolution" if name in LADDER else "unknown tolerance name"
        assert reason in capsys.readouterr().err

    def test_adjoint_twins_listed(self, neg_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["analyze", str(neg_file), "--k", "2", "--out", str(out)]) == EXIT_FAIL
        rep = json.loads(out.read_text())
        assert rep["version"] == 16
        words = rep["words"]
        assert len(words) == 10
        twins = [(i, e["adjoint_of"]) for i, e in enumerate(words) if "adjoint_of" in e]
        assert len(twins) == 3
        for i, j in twins:
            assert j < i and "adjoint_of" not in words[j]
            assert words[j]["letters"] == words[i]["letters"][::-1]
            assert words[j]["projections"] == words[i]["projections"][::-1]
            assert words[j]["is_kth_power"] == words[i]["is_kth_power"]
        failing = rep["failing_words"]
        assert {"letters": [2, 2, 2], "projections": [2, 3]} in failing
        assert {"letters": [2, 2, 2], "projections": [3, 2]} in failing

    @pytest.mark.parametrize(
        "mats",
        [
            (np.diag([1.0, 1.0, 2.0, 2.0]), np.zeros((4, 4))),
            tuple(1e3 * a for a in gen_decomposable(3, 2, 2, seed=7)[0].matrices),
        ],
        ids=["zero-generator", "x1e3"],
    )
    def test_admissibility_clusters_in_input_units(self, tmp_path, mats):
        # input eigenvalue = cluster * scale - shift, per generator
        path, out = tmp_path / "t.json", tmp_path / "rep.json"
        save_tuple(str(path), HermitianTuple(mats))
        main(["analyze", str(path), "--k", "2", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert len(rep["scales"]) == len(rep["shifts"]) == len(mats)
        for a, entry, scale, shift in zip(
            mats, rep["admissibility"]["generators"], rep["scales"], rep["shifts"]
        ):
            eigs = np.linalg.eigvalsh(a)
            bounds = np.cumsum([0] + entry["multiplicities"])
            want = [eigs[lo:hi].mean() for lo, hi in zip(bounds, bounds[1:])]
            got = [c * scale - shift for c in entry["clusters"]]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * scale)

    def test_stdout_when_no_out(self, pos_file, capsys):
        code = main(["analyze", str(pos_file), "--k", "2"])
        assert code == EXIT_PASS
        rep = json.loads(capsys.readouterr().out)
        assert rep["overall"] == "pass"

    def test_word_summary_samples_the_failing_line(self):
        # every size is even, so only line 1's spread fails it; the summary
        # shows that line's profile, the one failure_reason names
        from pencilspec.charpoly import KPowerVerdict
        from pencilspec.conditions import WordSpec

        lines = (((2, 2), 0.0), ((4,), 3e-3), ((2, 2), 0.0))
        v = KPowerVerdict(False, 2, 2, lines, 3e-3,
                          "line 1: cluster sizes (4,), spread 3.000e-03", 1)
        entry = _word_summary(WordSpec((2,), ()), v)
        assert entry["cluster_profile"] == [4]
        passing = KPowerVerdict(True, 2, 2, lines[::2], 0.0)
        assert _word_summary(WordSpec((2,), ()), passing)["cluster_profile"] == [2, 2]


class TestDecomposeCommand:
    def test_positive_report_contents(self, pos_file, tmp_path):
        out = tmp_path / "dec.json"
        code = main(["decompose", str(pos_file), "--k", "2", "--out", str(out)])
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "decomposed"
        assert rep["residual"] <= 1e-6
        assert len(rep["reduced_tuple"]) == 2
        assert len(rep["reduced_tuple"][0]) == 3
        assert len(rep["block_unitary"]) == 6
        assert sorted(rep["permutation"]) == list(range(6))

    def test_negative_names_condition(self, neg_file, tmp_path):
        out = tmp_path / "dec.json"
        code = main(["decompose", str(neg_file), "--k", "2", "--out", str(out)])
        assert code == EXIT_FAIL
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "conditions_violated"
        assert rep["violated_condition"] == "CycleInconsistency"
        assert len(rep["cycle"]) == 3

    def test_final_residual_above_bound_fails(self, tmp_path, monkeypatch):
        # residual_tol stays a decade above structural_tol at every
        # resolution, so a resolution small enough to fail the final residual
        # fails a structural check first; the path is reached only by
        # overriding the one derived value on a built Tolerances
        import pencilspec.cli as cli

        tol = Tolerances()
        object.__setattr__(tol, "residual_tol", 1e-20)
        monkeypatch.setattr(cli, "_tolerances_from_overrides", lambda pairs: tol)
        path, out = tmp_path / "t.json", tmp_path / "dec.json"
        save_tuple(str(path), gen_decomposable(3, 2, 2, seed=1)[0])
        assert main(["decompose", str(path), "--k", "2", "--out", str(out)]) == EXIT_FAIL
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "conditions_violated"
        assert rep["violated_condition"] == "ScalarizationFailed"
        assert rep["detail"].startswith("final residual")

    def test_one_generator(self, tmp_path):
        # the grid of a one-generator tuple is empty, not a numpy error;
        # analyze still refuses m = 1
        path, out = tmp_path / "t.json", tmp_path / "dec.json"
        save_tuple(str(path), HermitianTuple(gen_decomposable(3, 2, 2, seed=0)[0].matrices[:1]))
        assert main(["decompose", str(path), "--k", "2", "--out", str(out)]) == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["verification"]["ok"] and rep["partition"] == [[1], [2], [3]]
        assert len(rep["reduced_tuple"]) == 1
        simple = _tuple_file(tmp_path, (1, 2, 3))
        assert main(["decompose", str(simple), "--k", "1", "--out", str(out)]) == EXIT_PASS
        assert main(["analyze", str(simple), "--k", "1", "--out", str(out)]) == EXIT_ERROR

    def test_indivisible_k(self, neg_file, tmp_path):
        out = tmp_path / "dec.json"
        assert main(["decompose", str(neg_file), "--k", "4", "--out", str(out)]) == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "precondition_violated"
        assert rep["detail"] == "k=4 does not divide N=6"


class TestCorollaryCommand:
    def test_small_family_passes(self, tmp_path):
        path = tmp_path / "t.json"
        main(["generate", "--family", "decomposable", "--n", "2", "--k", "2", "--m", "2",
              "--seed", "1", "--out", str(path)])
        out = tmp_path / "cor.json"
        code = main(["corollary", str(path), "--k", "2", "--out", str(out)])
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["degree_bound"] == 3
        assert rep["family_size"] == 14
        assert rep["outcome"] == "pass"
        assert "admissible_transform" not in rep

    def test_large_family_certified(self, tmp_path):
        path = tmp_path / "t.json"
        main(["generate", "--family", "decomposable", "--n", "4", "--k", "2", "--m", "3",
              "--seed", "1", "--out", str(path)])
        out = tmp_path / "cor.json"
        code = main(["corollary", str(path), "--k", "2", "--out", str(out)])
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "pass"
        assert rep["family_size"] == sum(3**d for d in range(1, 14))

    @pytest.mark.parametrize(
        "mats",
        [(np.diag([1.0, 2.0]), np.diag([3.0, 5.0])),
         (1e7 * np.eye(2), np.diag([1.0, 2.0])),
         (np.diag([1e9, 1.0]), np.diag([1.0, 2.0]))],
        ids=["diagonal", "scaled-identity", "ill-conditioned"],
    )
    def test_non_square_pencil_fails(self, tmp_path, mats):
        # None of these diagonal pencils is a square, e.g.
        # det(x A_1 + y A_2 - I) = (x + 3y - 1)(2x + 5y - 1); the verdict must
        # not hinge on how the generators' scales compare.
        path = tmp_path / "t.json"
        save_tuple(str(path), HermitianTuple(mats))
        out = tmp_path / "cor.json"
        assert main(["corollary", str(path), "--k", "2", "--out", str(out)]) == EXIT_FAIL
        assert json.loads(out.read_text())["outcome"] == "fail"

    def test_mixed_scale_decomposable_passes(self, tmp_path):
        tup, _ = gen_decomposable(3, 2, 3, seed=3)
        scales = (1e8, 1.0, 1e-4)
        path = tmp_path / "t.json"
        save_tuple(str(path), HermitianTuple(tuple(c * a for c, a in zip(scales, tup.matrices))))
        out = tmp_path / "cor.json"
        assert main(["corollary", str(path), "--k", "2", "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["outcome"] == "pass"

    def test_random_hermitian_pair_fails(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mats.append((a + a.conj().T) / 2)
        path = tmp_path / "t.json"
        save_tuple(str(path), HermitianTuple(tuple(mats)))
        out = tmp_path / "cor.json"
        assert main(["corollary", str(path), "--k", "2", "--out", str(out)]) == EXIT_FAIL
        assert json.loads(out.read_text())["outcome"] == "fail"

    @pytest.mark.parametrize(
        "tup",
        [gen_decomposable(2, 3, 3, seed=4)[0], gen_decomposable(3, 2, 2, seed=5)[0],
         gen_conjugate_negative(1)[0]],
        ids=["decomposable-2-3-3", "decomposable-3-2-2", "conjugate_negative"],
    )
    def test_monomial_span_matches_monomials(self, tup):
        mats = tup.matrices
        dim = tup.dim
        monomials = []
        for degree in range(1, 4):
            for word in product(mats, repeat=degree):
                mat = word[0]
                for letter in word[1:]:
                    mat = mat @ letter
                monomials.append(mat.ravel())
        monomials = np.array(monomials)
        span = _monomial_span(mats, 3, DEFAULT).reshape(-1, dim * dim)
        assert span.shape[0] <= dim * dim
        assert np.allclose(span @ span.conj().T, np.eye(span.shape[0]), atol=1e-12)

        def rank(rows):
            s = np.linalg.svd(rows, compute_uv=False)
            return int(np.sum(s > 1e-10 * s[0]))

        r = rank(monomials)
        assert rank(span) == r
        basis = np.linalg.svd(monomials, full_matrices=False)[2][:r]
        outside = span - (span @ basis.conj().T) @ basis
        norms = np.linalg.norm(span, axis=1)
        assert np.max(np.linalg.norm(outside, axis=1)) <= 1e-10 * np.max(norms)

    def test_span_runs_to_the_degree_bound(self, tmp_path):
        # n = 2: the bound n^2 - n + 1 = 3 has 2 + 4 + 8 monomials; no flag cuts it
        path = tmp_path / "t.json"
        main(["generate", "--family", "decomposable", "--n", "2", "--k", "2", "--m", "2",
              "--seed", "1", "--out", str(path)])
        out = tmp_path / "cor.json"
        assert main(["corollary", str(path), "--k", "2", "--out", str(out)]) == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["degree_bound"] == 3 and rep["family_size"] == 14
        assert rep["parameters"] == {"k": 2, "seed": 0}

    def test_indivisible_k(self, neg_file, tmp_path):
        out = tmp_path / "cor.json"
        assert main(["corollary", str(neg_file), "--k", "4", "--out", str(out)]) == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "precondition_violated"
        assert rep["detail"] == "k=4 does not divide N=6"

    @pytest.mark.parametrize(
        "family, n, k, m, k_cert",
        [("decomposable", 3, 2, 2, 1), ("decomposable", 2, 4, 2, 2), ("commuting", 2, 4, 3, 2)],
        ids=["first-power", "decomposable-I4-as-square", "commuting-I4-as-square"],
    )
    def test_power_with_repeated_factors_passes(self, tmp_path, family, n, k, m, k_cert):
        # Every polynomial is a first power, and I_4 (x) B is also
        # I_2 (x) (I_2 (x) B): the pencil is P^4 = (P^2)^2, a square whose
        # base has repeated factors.
        path = tmp_path / "t.json"
        main(["generate", "--family", family, "--n", str(n), "--k", str(k), "--m", str(m),
              "--seed", "3", "--out", str(path)])
        out = tmp_path / "cor.json"
        assert main(["corollary", str(path), "--k", str(k_cert), "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["outcome"] == "pass"

    def test_empty_span_exits_three(self, pos_file, tmp_path, capsys):
        # resolution 1e3 puts the rank cut, singular_eig_rel, at 10: above
        # every singular value, so it keeps no direction
        out = tmp_path / "cor.json"
        argv = ["corollary", str(pos_file), "--k", "2", "--tol", "resolution=1e3",
                "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "singular_eig_rel=10.0 (resolution=1000.0)" in err and err.count("\n") == 1
        assert not out.exists()

    def test_negative_instance_fails(self, neg_file, tmp_path):
        out = tmp_path / "cor.json"
        code = main(["corollary", str(neg_file), "--k", "2", "--out", str(out)])
        assert code == EXIT_FAIL
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "fail"
        assert rep["verdict"]["is_kth_power"] is False


def _tuple_file(tmp_path, *diagonals):
    path = tmp_path / "t.json"
    save_tuple(str(path), HermitianTuple(tuple(np.diag(np.array(d, float)) for d in diagonals)))
    return path


_VIOLATIONS = {
    # N = 4 with k = 3
    "k-does-not-divide-N": ((1, 1, 2, 2), (3, 3, 4, 4)),
    # first generator clusters of sizes 1, 1, 2
    "wrong-first-pattern": ((1, 2, 3, 3), (3, 3, 4, 4)),
    # a gap of 1e-8 after scaling, at the clustering threshold
    "ambiguous-gap": ((1, 1 + 2e-8, 2, 2), (3, 3, 4, 4)),
    # second generator clusters of sizes 1, 1, 2
    "not-admissible": ((1, 1, 2, 2), (3, 4, 5, 5)),
}


class TestPreconditionReports:
    @pytest.mark.parametrize(
        "command, violation",
        [(c, "k-does-not-divide-N") for c in ("analyze", "decompose", "corollary")]
        + [(c, v) for c in ("analyze", "decompose")
           for v in ("wrong-first-pattern", "ambiguous-gap")]
        + [("analyze", "not-admissible")],
    )
    def test_every_exit_two_writes_a_report(self, pos_file, tmp_path, command, violation):
        path = _tuple_file(tmp_path, *_VIOLATIONS[violation])
        k = "3" if violation == "k-does-not-divide-N" else "2"
        out = tmp_path / "rep.json"
        assert main([command, str(path), "--k", k, "--out", str(out)]) == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        verdict = rep["overall" if command == "analyze" else "outcome"]
        assert verdict == "precondition_violated"
        assert rep["detail"]
        if command == "analyze":
            # the same body as a passing analyze report
            passing = tmp_path / "pass.json"
            assert main(["analyze", str(pos_file), "--k", "2", "--out", str(passing)]) == 0
            assert sorted(rep) == sorted(json.loads(passing.read_text()))

    def test_ambiguous_gap_names_the_first_generator(self, tmp_path):
        path = _tuple_file(tmp_path, *_VIOLATIONS["ambiguous-gap"])
        details = []
        for command in ("analyze", "decompose"):
            out = tmp_path / f"{command}.json"
            assert main([command, str(path), "--k", "2", "--out", str(out)]) == EXIT_PRECONDITION
            details.append(json.loads(out.read_text())["detail"])
        assert details[0] == details[1]
        assert details[0].startswith("first generator: eigenvalue gap")


class TestArgumentValidation:
    @pytest.mark.parametrize("command", ["analyze", "decompose", "corollary"])
    @pytest.mark.parametrize("violation", [None, "not-admissible"])
    def test_too_few_lines_exits_three(self, pos_file, tmp_path, command, violation):
        path = _tuple_file(tmp_path, *_VIOLATIONS[violation]) if violation else pos_file
        out = tmp_path / "rep.json"
        argv = [command, str(path), "--k", "2", "--tol", "lines=3", "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("analyze", "--k"), ("decompose", "--k"), ("corollary", "--k")],
    )
    def test_nonpositive_integer_is_a_usage_error(self, tmp_path, command, flag, capsys):
        # rejected by the parser, before the (missing) input file is opened
        argv = [command, str(tmp_path / "missing.json"), "--k", "2", flag, "0"]
        assert main(argv) == EXIT_ERROR
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "decompose", "corollary"])
    @pytest.mark.parametrize(
        "override",
        ["cluster_rel=nan", "hermitian_rel=nan", "gap_tol=inf", "structural_tol=-1e-7",
         "resolution=nan", "resolution=inf", "resolution=-1e-7", "resolution=0", "word_cap=0"],
    )
    def test_nonfinite_or_nonpositive_tolerance_exits_three(self, pos_file, tmp_path, capsys,
                                                           command, override):
        # a derived name is refused whatever its value; the bad value of a
        # derived threshold is reached only through resolution
        out = tmp_path / "rep.json"
        argv = [command, str(pos_file), "--k", "2", "--tol", override, "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert not out.exists()
        name = override.partition("=")[0]
        reason = ("is derived from resolution" if name in LADDER
                  else "must be finite and positive")
        assert f"tolerance {name} {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "decompose", "corollary"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_k_exits_three(self, pos_file, tmp_path, command, k):
        out = tmp_path / "rep.json"
        assert main([command, str(pos_file), "--k", k, "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("degree", ["0", "-1", "1", "2"])
    def test_max_degree_is_an_unknown_flag(self, pos_file, tmp_path, capsys, degree):
        # --max-degree is gone: the span always runs to n^2 - n + 1, so the
        # flag is unknown whatever its value
        out = tmp_path / "cor.json"
        argv = ["corollary", str(pos_file), "--k", "2", "--max-degree", degree, "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert not out.exists()
        assert "unrecognized arguments: --max-degree" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [[], ["--k", "two"], ["--k", "2", "--bogus"], ["--k", "2", "--lines", "8"]],
        ids=["missing-k", "non-integer-k", "unknown-flag", "removed-lines-flag"],
    )
    @pytest.mark.parametrize("command", ["analyze", "decompose", "corollary"])
    def test_usage_error_exits_three(self, pos_file, tmp_path, command, args, capsys):
        out = tmp_path / "rep.json"
        assert main([command, str(pos_file), "--out", str(out)] + args) == EXIT_ERROR
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc", [MemoryError("Unable to allocate 5.96 TiB for an array"), MemoryError()]
    )
    def test_memory_error_exits_three(self, pos_file, tmp_path, monkeypatch, capsys, exc):
        import pencilspec.cli as cli

        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "analyze", exhausted)
        out = tmp_path / "rep.json"
        assert main(["analyze", str(pos_file), "--k", "2", "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == EXIT_PASS
        assert "usage:" in capsys.readouterr().out

    def test_missing_subcommand_exits_three(self):
        assert main([]) == EXIT_ERROR

    def test_consecutive_calls_share_no_state(self, pos_file, tmp_path, capsys):
        # the parser is built once per process: an override given to one
        # call must not reach the next
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = ["decompose", str(pos_file), "--k", "2"]
        assert main(argv + ["--out", str(first), "--tol", "lines=6"]) == EXIT_PASS
        assert main(argv + ["--out", str(second)]) == EXIT_PASS
        assert json.loads(first.read_text())["tolerances"]["lines"] == 6
        assert json.loads(second.read_text())["tolerances"]["lines"] == DEFAULT.lines
        assert main(["--help"]) == EXIT_PASS
        assert main(["--help"]) == EXIT_PASS
        assert capsys.readouterr().out.count("usage:") == 2


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Documents that pass the format check, with the fields load_tuple
# validates drawn from arbitrary JSON (each one possibly missing).
_tagged_docs = st.fixed_dictionaries(
    {"format": st.just("pencilspec-tuple")},
    optional={"m": _json_values, "dim": _json_values, "matrices": _json_values},
)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_json_values | _tagged_docs)
def test_fuzz_malformed_tuple_files_exit_three(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--k", "2"]) == EXIT_ERROR


class TestGenerateCommand:
    def test_invalid_family_exits_three(self, tmp_path, capsys):
        code = main(["generate", "--family", "nope", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_ERROR
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_choices_are_the_family_table(self):
        # the parser offers exactly instances.FAMILIES, in its order
        parser = _build_parser()
        sub = next(a for a in parser._actions if a.dest == "command").choices["generate"]
        family = next(a for a in sub._actions if a.dest == "family")
        assert list(family.choices) == list(FAMILIES)
        assert list(FAMILIES) == ["decomposable", "conjugate_negative", "commuting"]

    def test_no_nk_cap(self, tmp_path):
        # N = 36, above the old nk <= 16 cap, generates and splits
        path, out = tmp_path / "big.json", tmp_path / "dec.json"
        assert main(["generate", "--family", "decomposable", "--n", "12", "--k", "3",
                     "--seed", "1", "--out", str(path)]) == EXIT_PASS
        assert load_tuple(str(path))[0].dim == 36
        assert main(["decompose", str(path), "--k", "3", "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["verification"]["ok"]

    def test_commuting_size_guard_exits_three(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code = main(["generate", "--family", "commuting", "--n", "17", "--k", "1",
                     "--out", str(path)])
        assert code == EXIT_ERROR and not path.exists()
        assert "n <= 16" in capsys.readouterr().err

    def test_help_lists_every_family(self, capsys):
        assert main(["generate", "--help"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert all(f in out for f in ("decomposable", "conjugate_negative", "commuting"))

    @pytest.mark.parametrize("family", ["decomposable", "conjugate_negative"])
    def test_family_writes_its_descriptor(self, tmp_path, family):
        path = tmp_path / "t.json"
        assert main(["generate", "--family", family, "--seed", "3", "--out", str(path)]) == EXIT_PASS
        tup, meta = load_tuple(str(path))
        assert meta["descriptor"]["family"] == family
        assert tup.dim == meta["descriptor"]["n"] * meta["descriptor"]["k"]

    def test_commuting_family(self, tmp_path):
        path = tmp_path / "c.json"
        assert main(
            ["generate", "--family", "commuting", "--n", "2", "--k", "2", "--m", "2",
             "--seed", "2", "--out", str(path)]
        ) == EXIT_PASS
        tup, meta = load_tuple(str(path))
        assert tup.dim == 4
        assert meta["descriptor"]["family"] == "commuting"


class TestCollectorState:
    """``main`` runs a command with the cyclic collector off and leaves it
    as it found it, on every way out."""

    @pytest.fixture
    def collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case, code",
        [("pass", EXIT_PASS), ("fail", EXIT_FAIL), ("precondition", EXIT_PRECONDITION),
         ("error", EXIT_ERROR), ("usage", EXIT_ERROR), ("help", EXIT_PASS)],
    )
    def test_main_restores_the_collector(self, collector, monkeypatch, capsys, pos_file,
                                         neg_file, tmp_path, enabled, case, code):
        import pencilspec.cli as cli

        out = str(tmp_path / "rep.json")
        argv = {
            "pass": ["analyze", str(pos_file), "--k", "2", "--out", out],
            "fail": ["analyze", str(neg_file), "--k", "2", "--out", out],
            "precondition": ["analyze", str(pos_file), "--k", "4", "--out", out],
            "error": ["analyze", str(tmp_path / "missing.json"), "--k", "2"],
            "usage": ["analyze", str(pos_file), "--k", "2", "--bogus"],
            "help": ["analyze", "--help"],
        }[case]
        seen, analyze = [], cli.analyze

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return analyze(*args, **kwargs)

        monkeypatch.setattr(cli, "analyze", recording)
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is enabled
        assert seen == ([False] if code in (EXIT_FAIL, EXIT_PRECONDITION) or case == "pass" else [])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_an_escaping_exception_restores_the_collector(self, collector, monkeypatch,
                                                          pos_file, enabled):
        import pencilspec.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "analyze", interrupted)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(KeyboardInterrupt):
            main(["analyze", str(pos_file), "--k", "2"])
        assert gc.isenabled() is enabled


class TestDeterminism:
    def test_analyze_reports_byte_identical(self, pos_file, neg_file, tmp_path):
        for src in (pos_file, neg_file):
            o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
            argv = ["analyze", str(src), "--k", "2", "--seed", "11", "--out"]
            assert main(argv + [str(o1)]) == main(argv + [str(o2)])
            assert strip_timestamp(o1.read_text()) == strip_timestamp(o2.read_text())

    def test_decompose_reports_byte_identical(self, pos_file, tmp_path):
        o1, o2 = tmp_path / "d1.json", tmp_path / "d2.json"
        argv = ["decompose", str(pos_file), "--k", "2", "--seed", "5", "--out"]
        assert main(argv + [str(o1)]) == main(argv + [str(o2)])
        assert strip_timestamp(o1.read_text()) == strip_timestamp(o2.read_text())


class TestFileModes:
    """Tuple and report files are replaced atomically, yet get the mode a
    plain ``open(path, "w")`` gives: ``0o666`` less the umask."""

    @pytest.fixture(params=[0o022, 0o077, 0o002], ids=lambda mask: f"umask-{mask:03o}")
    def umask(self, request):
        old = os.umask(request.param)
        try:
            yield request.param
        finally:
            os.umask(old)

    def test_tuple_and_report_files(self, tmp_path, umask):
        tup, report = tmp_path / "t.json", tmp_path / "r.json"
        assert main(["generate", "--family", "decomposable", "--n", "2", "--k", "2", "--m", "2",
                     "--out", str(tup)]) == EXIT_PASS
        assert main(["analyze", str(tup), "--k", "2", "--out", str(report)]) == EXIT_PASS
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        for path in (tup, report):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
            assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "r.json", "t.json"]

    def test_umask_is_never_cleared(self, tmp_path, monkeypatch, umask):
        # a umask of 0, even for an instant, gives any file another thread
        # creates then mode 0o666 or 0o777
        calls = []
        real = os.umask
        monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or real(mask))
        _atomic_write(str(tmp_path / "r.json"), "{}\n")
        assert 0 not in calls
        assert stat.S_IMODE((tmp_path / "r.json").stat().st_mode) == 0o666 & ~umask

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            _atomic_write(str(tmp_path / "r.json"), "{}\n")
        assert list(tmp_path.iterdir()) == []


class TestReportLayout:
    # perfbench/run.py's pattern for the line it drops before digesting reports
    TIMESTAMP_LINE = re.compile(rb'\n *"timestamp": "[^"\n]*",?')

    def reports(self, pos_file, neg_file, tmp_path):
        runs = [
            ("analyze", pos_file), ("analyze", neg_file), ("decompose", pos_file),
            ("decompose", neg_file), ("corollary", pos_file),
        ]
        for i, (command, src) in enumerate(runs):
            out = tmp_path / f"r{i}.json"
            main([command, str(src), "--k", "2", "--out", str(out)])
            yield out.read_bytes()

    def test_one_line_per_top_level_key(self, pos_file, neg_file, tmp_path):
        for data in self.reports(pos_file, neg_file, tmp_path):
            text = data.decode()
            rep = json.loads(text)
            lines = text.split("\n")
            assert lines[0] == "{" and lines[-2:] == ["}", ""]
            body = lines[1:-2]
            assert len(body) == len(rep)
            for key, line in zip(sorted(rep), body):
                head = f' "{key}": '
                assert line.startswith(head)
                assert json.loads(line[len(head):].rstrip(",")) == rep[key]
            assert sum(line.startswith(' "timestamp": ') for line in body) == 1

    def test_timestamp_pattern_leaves_the_rest(self, pos_file, neg_file, tmp_path):
        for data in self.reports(pos_file, neg_file, tmp_path):
            rep = json.loads(data)
            stripped = self.TIMESTAMP_LINE.sub(b"", data)
            assert stripped.count(b"\n") == data.count(b"\n") - 1
            del rep["timestamp"]
            assert json.loads(stripped) == rep

    def test_tuple_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        mats = []
        for scale in (1.0, 1e-300, 3e7):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            mats.append(scale * (g + g.conj().T) / 3.0)
        tup = HermitianTuple(tuple(mats))
        path = tmp_path / "t.json"
        save_tuple(str(path), tup, metadata={"note": "round trip"})
        loaded, meta = load_tuple(str(path))
        assert meta == {"note": "round trip"}
        for a, b in zip(tup.matrices, loaded.matrices):
            assert a.tobytes() == b.tobytes()
        text = path.read_text()
        assert text.count("\n") == 2 + len(json.loads(text))

    def test_tuple_bytes_do_not_follow_the_report_version(self, tmp_path, monkeypatch):
        import pencilspec.cli as cli

        tup = gen_decomposable(2, 2, 2, seed=4)[0]
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        save_tuple(str(before), tup)
        monkeypatch.setattr(cli, "FORMAT_VERSION", cli.FORMAT_VERSION + 1)
        save_tuple(str(after), tup)
        assert after.read_bytes() == before.read_bytes()
