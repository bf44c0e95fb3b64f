"""How finely the power test resolves: ε-phase twins must fail, and the
root spreads of true positives must sit far below the cluster tolerance."""

import numpy as np
import pytest

from pencilspec.conditions import analyze
from pencilspec.config import DEFAULT
from pencilspec.instances import gen_commuting, gen_decomposable, haar_unitary
from pencilspec.linalg import HermitianTuple


def eps_phase_twin(n, m, seed, eps):
    """``(I_2 (x) D, B_l (+) conj(B_l), ...)``, Haar-rotated.

    ``D`` has a simple spectrum and each ``B_l`` is real symmetric except
    for the entry phase ``e^{i eps}`` at ``[0, 1]``, so the 3-cycle
    ``0 -> 1 -> 2 -> 0`` of ``B_l`` carries phase ``eps`` on one copy and
    ``-eps`` on the other.  The full pencil is exactly a square for every
    ``eps``, yet for ``eps != 0`` no unitary merges the copies: only the
    words can tell, and the tuple tends to a splitting one as ``eps -> 0``.
    """
    rng = np.random.default_rng(seed)
    d = np.diag(np.arange(1.0, n + 1) + rng.uniform(-0.3, 0.3, n))
    blocks = [np.kron(np.eye(2), d)]
    for _ in range(m - 1):
        g = rng.standard_normal((n, n))
        b = ((g + g.T) / 2).astype(np.complex128)
        b[0, 1] *= np.exp(1j * eps)
        b[1, 0] = np.conj(b[0, 1])
        z = np.zeros((n, n))
        blocks.append(np.block([[b, z], [z, b.conj()]]))
    u = haar_unitary(2 * n, rng)
    return HermitianTuple(tuple(u @ a @ u.conj().T for a in blocks))


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-5, 1e-6])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (3, 3)])
def test_eps_phase_twin_fails(n, m, seed, eps):
    rep = analyze(eps_phase_twin(n, m, seed, eps), 2, seed=seed)
    assert rep.overall == "fail"
    assert rep.full_tuple.is_kth_power  # only the words see the twin
    assert rep.failing_words


@pytest.mark.parametrize("family", [gen_decomposable, gen_commuting])
def test_positive_spreads_stay_far_below_cluster_tolerance(family):
    # the margin the default cluster_rel rests on, over every line of every
    # power test that analyze runs
    worst = 0.0
    for n, k, m in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (4, 2, 2),
                    (2, 2, 3), (3, 2, 3), (3, 3, 2), (2, 4, 2)]:
        for seed in range(4):
            tup, _ = family(n, k, m, seed=seed)
            rep = analyze(tup, k, seed=seed)
            assert rep.overall == "pass"
            worst = max([worst, rep.full_tuple.worst_spread]
                        + [v.worst_spread for _, v in rep.word_results])
    assert worst <= 1e-3 * DEFAULT.cluster_rel
