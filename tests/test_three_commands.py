"""analyze, decompose and corollary agree, called in process with no files:
all three pass every tuple that splits and fail every one that does not."""

import pytest

from pencilspec.conditions import analyze, corollary
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


@pytest.mark.parametrize(
    "k, max_degree, error, message",
    [(0, None, ValueError, "k must be a positive integer"),
     (2, 0, ValueError, "max_degree must be a positive integer"),
     (4, None, SpectrumPatternViolation, "k=4 does not divide N=6")],
)
def test_corollary_checks_its_arguments_first(k, max_degree, error, message):
    # before any span is built: a degree bound below 1 would leave the span
    # empty and blame the rank cut
    tup, _ = gen_conjugate_negative(0)
    with pytest.raises(error, match=f"^{message}$"):
        corollary(tup, k, max_degree=max_degree)
