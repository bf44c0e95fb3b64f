"""The tuples and pencils the program builds are Hermitian to the last bit.

``prepare_tuple``'s unit tuple, ``decompose``'s reduced tuple, the family
generators and ``direct_sum_k_copies`` wrap their matrices with
``HermitianTuple.exact``, which checks finiteness only, and ``corollary``
hands its span's Hermitian parts to the eigensolver unadmitted.  That is
sound only while every one of them is exactly Hermitian and finite, at every
scale of the input, and while ``corollary`` gives the verdict the admitted
route would.
"""

import numpy as np
import pytest

from pencilspec.charpoly import kth_power_test
from pencilspec.conditions import _monomial_span, corollary, hermitian_parts
from pencilspec.config import DEFAULT
from pencilspec.decomposer import decompose
from pencilspec.instances import FAMILIES
from pencilspec.linalg import HermitianTuple, direct_sum_k_copies, prepare_tuple

# the (n, k, m) shapes of perfbench's monomials workload
SHAPES = ((2, 2, 2), (2, 4, 3), (2, 8, 4), (2, 3, 5), (3, 2, 2),
          (3, 4, 2), (3, 2, 3), (3, 3, 3), (3, 5, 3))
CASES = [
    pytest.param(family, shape, seed, id=f"{family}-{'-'.join(map(str, shape))}-seed{seed}")
    for family in ("decomposable", "commuting") for shape in SHAPES for seed in (0, 1)
] + [pytest.param("conjugate_negative", (3, 2, 2), seed, id=f"conjugate_negative-seed{seed}")
     for seed in (0, 1)]


def assert_exact(stack):
    stack = np.asarray(stack)
    assert np.isfinite(stack).all()
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("scale", (1e-300, 1.0, 1e300), ids=lambda c: f"x{c:g}")
@pytest.mark.parametrize("family, shape, seed", CASES)
def test_built_tuples_and_pencils_are_exact(family, shape, seed, scale):
    n, k, m = shape
    gen, _ = FAMILIES[family](n, k, m, seed)
    assert_exact(gen.matrices)
    assert_exact(direct_sum_k_copies(gen, 2).matrices)
    tup = HermitianTuple(tuple(scale * a for a in gen.matrices))
    prep = prepare_tuple(tup)
    assert_exact(prep.tup.matrices)
    if family != "conjugate_negative":  # the negative does not split
        assert_exact(decompose(tup, k).reduced.matrices)
    parts = hermitian_parts(_monomial_span(prep.tup.matrices, n * n - n + 1, DEFAULT))
    assert_exact(parts)
    pencil = parts.reshape(-1, n * k, n * k)
    assert corollary(tup, k, seed=seed).verdict == kth_power_test(pencil, k, n, seed=seed)
