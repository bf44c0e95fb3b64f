"""Verdicts do not change under unitary conjugation.

A unitary ``U`` maps the tuple ``(A_l)`` to ``(U A_l U*)``, which has the same
pencil determinant and splits exactly when the tuple does.  Every command
must therefore answer both alike: ``analyze`` word by word in both modes,
``corollary`` and ``decompose``, whose reduced tuple is unique up to unitary
equivalence, so its generators' eigenvalues agree.
"""

import numpy as np
import pytest

from pencilspec.conditions import MODES, analyze, corollary
from pencilspec.decomposer import decompose
from pencilspec.errors import DecompositionError
from pencilspec.instances import FAMILIES, haar_unitary
from pencilspec.linalg import HermitianTuple

SHAPES = [(3, 2, 2), (4, 2, 2), (2, 3, 3), (3, 3, 2)]
CASES = [pytest.param(family, shape, id=f"{family}-{'-'.join(map(str, shape))}")
         for family in ("decomposable", "commuting") for shape in SHAPES]
CASES.append(pytest.param("conjugate_negative", (3, 2, 2), id="conjugate_negative"))


def _outcome(tup, k):
    """``decompose``'s outcome: the reduced generators' eigenvalues, or the
    refusal's class."""
    try:
        res = decompose(tup, k)
    except DecompositionError as exc:
        return type(exc)
    return np.linalg.eigvalsh(res.reduced.matrices)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family, shape", CASES)
def test_every_command_answers_a_conjugated_tuple_alike(family, shape, seed):
    n, k, m = shape
    tup, _ = FAMILIES[family](n, k, m, seed)
    u = haar_unitary(tup.dim, 1000 + seed)
    conj = HermitianTuple(u @ tup.matrices @ u.conj().T)
    for mode in MODES:
        before, after = analyze(tup, k, mode=mode), analyze(conj, k, mode=mode)
        assert after.overall == before.overall, mode
        assert ([v.is_kth_power for _, v in after.word_results]
                == [v.is_kth_power for _, v in before.word_results]), mode
    assert (corollary(conj, k).verdict.is_kth_power
            == corollary(tup, k).verdict.is_kth_power)
    before, after = _outcome(tup, k), _outcome(conj, k)
    if isinstance(before, type):
        assert after is before
    else:
        assert not isinstance(after, type)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-10)
