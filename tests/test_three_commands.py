"""analyze, decompose and corollary agree, called in process with no files:
all three pass every tuple that splits and fail every one that does not."""

import pytest

from pencilspec.conditions import analyze, corollary
from pencilspec.config import Tolerances
from pencilspec.decomposer import decompose
from pencilspec.errors import DecompositionError, SpectrumPatternViolation
from pencilspec.instances import gen_commuting, gen_conjugate_negative, gen_decomposable

# the (n, k) shapes, with m = 2, of the benchmark's split workload
SPLIT_SHAPES = ((2, 2), (2, 4), (2, 8), (3, 2), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4))
POSITIVES = [
    (family, n, k, seed)
    for family in ("decomposable", "commuting")
    for n, k in SPLIT_SHAPES
    for seed in range(3)
]


def outcomes(tup, k):
    try:
        decompose(tup, k)
        decomposed = True
    except DecompositionError:
        decomposed = False
    return (analyze(tup, k).overall, decomposed, corollary(tup, k).verdict.is_kth_power)


@pytest.mark.parametrize("family, n, k, seed", POSITIVES)
def test_all_three_pass_a_split_tuple(family, n, k, seed):
    generate = gen_decomposable if family == "decomposable" else gen_commuting
    tup, desc = generate(n, k, 2, seed)
    assert desc.expected_pass
    assert outcomes(tup, k) == ("pass", True, True)


@pytest.mark.parametrize("seed", range(10))
def test_all_three_fail_conjugate_negative(seed):
    tup, desc = gen_conjugate_negative(seed)
    assert not desc.expected_pass
    assert outcomes(tup, desc.k) == ("fail", False, False)


@pytest.mark.parametrize("seed", range(5))
def test_no_word_cap_passes_conjugate_negative(seed):
    # its full determinant is a perfect square, so any prefix of its 10 words
    # that misses the failing ones would pass; a cap below 10 refuses instead
    tup, desc = gen_conjugate_negative(seed)
    for cap in range(1, 10):
        report = analyze(tup, desc.k, tol=Tolerances(word_cap=cap))
        assert report.overall == "precondition_violated", cap
        assert report.detail == f"mode 'all' has 10 words, more than word_cap={cap}"
        assert report.full_tuple is None and report.word_results == ()
    assert analyze(tup, desc.k, tol=Tolerances(word_cap=10)).overall == "fail"


@pytest.mark.parametrize(
    "k, error, message",
    [(0, ValueError, "k must be a positive integer"),
     (-1, ValueError, "k must be a positive integer"),
     (4, SpectrumPatternViolation, "k=4 does not divide N=6")],
)
def test_corollary_checks_its_arguments_first(k, error, message):
    # before any span is built; the span has no degree cap to pass
    tup, _ = gen_conjugate_negative(0)
    with pytest.raises(error, match=f"^{message}$"):
        corollary(tup, k)


def test_corollary_takes_no_degree_cap():
    # a cut span is only a smaller family, which Kippenhahn-type negatives pass
    tup, _ = gen_conjugate_negative(0)
    with pytest.raises(TypeError, match="max_degree"):
        corollary(tup, 2, max_degree=1)
