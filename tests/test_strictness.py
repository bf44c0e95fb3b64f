"""The Hermitian word triple is at least as strict as the pair pencil.

``analyze`` tests each word ``W`` as the triple ``(A_1, W + W*, i (W - W*))``
on real lines.  The pair pencil ``x A_1 + y W`` is that triple restricted to
a plane, so a word whose pair polynomial is not a k-th power cannot pass.
The reference below is the pair-pencil route on complex lines: ``eigvals``
of ``q . (A_1, W)`` clustered by single linkage in the complex plane.
"""

import numpy as np
import pytest

from pencilspec.conditions import analyze
from pencilspec.config import DEFAULT
from pencilspec.instances import gen_commuting, gen_conjugate_negative, gen_decomposable
from pencilspec.linalg import prepare_tuple
from pencilspec.reference import cluster_roots, realize_word

from test_resolution import eps_phase_twin


def pair_reference_passes(a1, w, k, seed, lines=8):
    """Complex-line power test of the pair pencil ``(A_1, W)``."""
    z = np.random.default_rng(seed).standard_normal((2, lines, 2))
    for q in (z[0] + 1j * z[1]) / np.sqrt(2.0):
        lams = np.linalg.eigvals(q[0] * a1 + q[1] * w)
        ctol = DEFAULT.cluster_rel * (1.0 + float(np.max(np.abs(lams))))
        clusters = cluster_roots(lams, ctol)
        spread = max(float(np.max(np.abs(c[:, None] - c[None, :]))) for c in clusters)
        if any(c.size % k for c in clusters) or spread > ctol:
            return False
    return True


def word_outcomes(tup, k, seed):
    """Per word: (pair reference passes, analyze passes)."""
    rep = analyze(tup, k, seed=seed)
    prep = prepare_tuple(tup, k)
    a1 = prep.tup.matrices[0]
    return [
        (pair_reference_passes(a1, realize_word(prep.tup, prep.spec, w), k, seed=i),
         v.is_kth_power)
        for i, (w, v) in enumerate(rep.word_results)
    ]


TWIN_SHAPES = [(3, 2), (4, 2), (3, 3)]


@pytest.mark.parametrize(
    "make",
    [lambda s=s: gen_conjugate_negative(seed=s)[0] for s in range(6)]
    + [lambda n=n, m=m, s=s: eps_phase_twin(n, m, s, 1e-3) for n, m in TWIN_SHAPES
       for s in range(3)],
    ids=[f"conjugate_negative-{s}" for s in range(6)]
    + [f"twin-{n}{m}-s{s}" for n, m in TWIN_SHAPES for s in range(3)],
)
def test_words_the_pair_reference_fails_also_fail(make):
    outcomes = word_outcomes(make(), 2, seed=1)
    assert any(not ref for ref, _ in outcomes)
    assert all(not got for ref, got in outcomes if not ref)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, m", TWIN_SHAPES)
def test_twins_at_the_resolution_fail_at_least_as_many_words(n, m, seed):
    # At eps = 1e-6 the twins split their eigenvalue pairs by about the
    # cluster tolerance, so each line of either route is close to a coin
    # flip and two independently sampled tests disagree on single words
    # both ways.  Per tuple, analyze still fails and fails at least as
    # many words as the pair reference.
    outcomes = word_outcomes(eps_phase_twin(n, m, seed, 1e-6), 2, seed=1)
    pair_fails = sum(not ref for ref, _ in outcomes)
    assert pair_fails
    assert sum(not got for _, got in outcomes) >= pair_fails


@pytest.mark.parametrize("family", [gen_decomposable, gen_commuting])
@pytest.mark.parametrize("n, k, m", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_positive_words_pass_both_routes(family, n, k, m, seed):
    outcomes = word_outcomes(family(n, k, m, seed=seed)[0], k, seed=seed)
    assert outcomes and all(ref and got for ref, got in outcomes)
