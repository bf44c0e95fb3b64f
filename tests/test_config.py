from dataclasses import fields

import numpy as np
import pytest

from pencilspec.cli import EXIT_ERROR, main, save_tuple
from pencilspec.conditions import analyze
from pencilspec.config import LADDER, Tolerances
from pencilspec.instances import gen_decomposable


# every derived threshold at the default resolution, written out so that the
# ladder is pinned apart from config.LADDER
LITERALS = {
    "hermitian_rel": 1e-12, "unitary_rel": 1e-10, "gap_tol": 1e-8, "singular_eig_rel": 1e-10,
    "cluster_rel": 1e-8, "admissible_sep_rel": 1e-6, "structural_tol": 1e-7,
    "scalar_block_tol": 1e-6, "residual_tol": 1e-6,
}


def test_three_settable_fields():
    assert [f.name for f in fields(Tolerances) if f.init] == ["resolution", "lines", "word_cap"]
    with pytest.raises(TypeError):
        Tolerances(cluster_rel=1e-8)


def test_default_resolution_keeps_every_literal():
    tol = Tolerances()
    assert set(LADDER) == set(LITERALS)
    assert tol.as_dict() == {"resolution": 1e-8, "lines": 8, "word_cap": 10000, **LITERALS}


@pytest.mark.parametrize("resolution", [1e-14, 3e-9, 1e-5, 1e3])
def test_ladder_scales_with_resolution(resolution):
    tol = Tolerances(resolution=resolution)
    for name, literal in LITERALS.items():
        assert getattr(tol, name) == literal * (resolution / 1e-8), name


@pytest.mark.parametrize("resolution, value", [(1e305, "inf"), (1e-320, "0.0")],
                         ids=["overflow", "underflow"])
def test_out_of_range_resolution_is_rejected(resolution, value):
    # a rung that overflows to inf or underflows to 0 is not finite and positive
    with pytest.raises(ValueError, match=f"puts hermitian_rel at {value};"):
        Tolerances(resolution=resolution)


@pytest.mark.parametrize("name", ["lines", "word_cap"])
@pytest.mark.parametrize("value", [8.5, 8.0, True, "8", np.int64(8)],
                         ids=["fraction", "integral-float", "bool", "str", "numpy-int"])
def test_count_fields_must_be_ints(name, value):
    with pytest.raises(ValueError, match=f"^tolerance {name} must be an integer"):
        Tolerances(**{name: value})


def test_integer_counts_build_and_run():
    # (2, 2, 2) in mode all has 1 + 2 = 3 words: a cap of 3 runs them all,
    # a cap of 2 refuses the battery
    tup = gen_decomposable(2, 2, 2, seed=0)[0]
    report = analyze(tup, 2, tol=Tolerances(lines=5, word_cap=3))
    assert report.overall == "pass" and len(report.word_results) == 3
    assert all(len(v.per_line_clusters) == 5 for _, v in report.word_results)
    refused = analyze(tup, 2, tol=Tolerances(lines=5, word_cap=2))
    assert refused.overall == "precondition_violated" and not refused.word_results
    assert not hasattr(refused, "truncated")


@pytest.mark.parametrize("override", ["lines=8.5", "word_cap=100.5"])
def test_non_integer_count_override_exits_three(tmp_path, capsys, override):
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    save_tuple(str(path), gen_decomposable(2, 2, 2, seed=0)[0])
    argv = ["analyze", str(path), "--k", "2", "--tol", override, "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")
