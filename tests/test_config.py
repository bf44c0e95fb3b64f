import numpy as np
import pytest

from pencilspec.cli import EXIT_ERROR, main, save_tuple
from pencilspec.conditions import analyze
from pencilspec.config import Tolerances
from pencilspec.instances import gen_decomposable


@pytest.mark.parametrize("name", ["lines", "word_cap"])
@pytest.mark.parametrize("value", [8.5, 8.0, True, "8", np.int64(8)],
                         ids=["fraction", "integral-float", "bool", "str", "numpy-int"])
def test_count_fields_must_be_ints(name, value):
    with pytest.raises(ValueError, match=f"^tolerance {name} must be an integer"):
        Tolerances(**{name: value})


def test_integer_counts_build_and_run():
    tol = Tolerances(lines=5, word_cap=2)
    report = analyze(gen_decomposable(2, 2, 2, seed=0)[0], 2, tol=tol)
    assert report.overall == "pass" and report.truncated
    assert all(len(v.per_line_clusters) == 5 for _, v in report.word_results)


@pytest.mark.parametrize("override", ["lines=8.5", "word_cap=100.5"])
def test_non_integer_count_override_exits_three(tmp_path, capsys, override):
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    save_tuple(str(path), gen_decomposable(2, 2, 2, seed=0)[0])
    argv = ["analyze", str(path), "--k", "2", "--tol", override, "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")
