import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pencilspec.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_PRECONDITION,
    load_tuple,
    main,
    save_tuple,
)
from pencilspec.instances import gen_decomposable


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
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_tuple(str(path))
        assert main(["analyze", str(path), "--k", "2"]) == EXIT_ERROR

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

    def test_generate_embeds_descriptor(self, pos_file):
        _, meta = load_tuple(str(pos_file))
        assert meta["descriptor"]["family"] == "decomposable"
        assert meta["descriptor"]["expected_pass"] is True


class TestAnalyzeCommand:
    def test_positive_exits_zero(self, pos_file, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(pos_file), "--k", "2", "--seed", "3", "--out", str(out)])
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["overall"] == "pass"
        assert rep["full_tuple"]["is_kth_power"] is True
        assert len(rep["words"]) == 10
        assert rep["tolerances"]["cluster_rel"] == 1e-6

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
             "--tol", "cluster_rel=1e-5", "--tol", "lines=6"]
        )
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["tolerances"]["cluster_rel"] == 1e-5
        assert rep["tolerances"]["lines"] == 6

    def test_unknown_tolerance_exits_three(self, pos_file):
        assert main(["analyze", str(pos_file), "--k", "2", "--tol", "bogus=1"]) == EXIT_ERROR

    def test_stdout_when_no_out(self, pos_file, capsys):
        code = main(["analyze", str(pos_file), "--k", "2"])
        assert code == EXIT_PASS
        rep = json.loads(capsys.readouterr().out)
        assert rep["overall"] == "pass"


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
        assert "admissible_transform" in rep

    def test_monomial_blowup(self, tmp_path):
        path = tmp_path / "t.json"
        main(["generate", "--family", "decomposable", "--n", "4", "--k", "2", "--m", "3",
              "--seed", "1", "--out", str(path)])
        out = tmp_path / "cor.json"
        code = main(["corollary", str(path), "--k", "2", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "monomial_blowup"

    def test_max_degree_cap(self, tmp_path):
        path = tmp_path / "t.json"
        main(["generate", "--family", "decomposable", "--n", "2", "--k", "2", "--m", "2",
              "--seed", "1", "--out", str(path)])
        out = tmp_path / "cor.json"
        code = main(["corollary", str(path), "--k", "2", "--max-degree", "2", "--out", str(out)])
        assert code == EXIT_PASS
        rep = json.loads(out.read_text())
        assert rep["degree_bound"] == 2 and rep["family_size"] == 6

    def test_indivisible_k(self, neg_file, tmp_path):
        out = tmp_path / "cor.json"
        assert main(["corollary", str(neg_file), "--k", "4", "--out", str(out)]) == EXIT_PRECONDITION
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "precondition_violated"
        assert rep["detail"] == "k=4 does not divide N=6"

    def test_negative_instance_fails(self, neg_file, tmp_path):
        out = tmp_path / "cor.json"
        code = main(["corollary", str(neg_file), "--k", "2", "--out", str(out)])
        assert code == EXIT_FAIL
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "fail"
        assert rep["verdict"]["is_kth_power"] is False


class TestArgumentValidation:
    @pytest.mark.parametrize("command", ["analyze", "decompose", "corollary"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_k_exits_three(self, pos_file, tmp_path, command, k):
        out = tmp_path / "rep.json"
        assert main([command, str(pos_file), "--k", k, "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_nonpositive_max_degree_exits_three(self, pos_file, tmp_path, degree):
        out = tmp_path / "cor.json"
        argv = ["corollary", str(pos_file), "--k", "2", "--max-degree", degree, "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert not out.exists()


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
        assert "choose one of" in capsys.readouterr().err

    def test_commuting_family(self, tmp_path):
        path = tmp_path / "c.json"
        assert main(
            ["generate", "--family", "commuting", "--n", "2", "--k", "2", "--m", "2",
             "--seed", "2", "--out", str(path)]
        ) == EXIT_PASS
        tup, meta = load_tuple(str(path))
        assert tup.dim == 4
        assert meta["descriptor"]["family"] == "commuting"


class TestDeterminism:
    def _run_with_threads(self, threads, argv, out):
        old = os.environ.get("PENCIL_THREADS")
        os.environ["PENCIL_THREADS"] = threads
        try:
            code = main(argv + ["--out", str(out)])
        finally:
            if old is None:
                os.environ.pop("PENCIL_THREADS", None)
            else:
                os.environ["PENCIL_THREADS"] = old
        return code

    def test_analyze_reports_byte_identical(self, pos_file, neg_file, tmp_path):
        for src in (pos_file, neg_file):
            o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
            argv = ["analyze", str(src), "--k", "2", "--seed", "11"]
            assert self._run_with_threads("1", argv, o1) == self._run_with_threads("4", argv, o2)
            assert strip_timestamp(o1.read_text()) == strip_timestamp(o2.read_text())

    def test_decompose_reports_byte_identical(self, pos_file, tmp_path):
        o1, o2 = tmp_path / "d1.json", tmp_path / "d2.json"
        argv = ["decompose", str(pos_file), "--k", "2", "--seed", "5"]
        assert self._run_with_threads("2", argv, o1) == self._run_with_threads("8", argv, o2)
        assert strip_timestamp(o1.read_text()) == strip_timestamp(o2.read_text())
