"""The monomial span closes on a norm bound: a residual too small for any
singular value to clear the cut ends the span without an SVD, and the basis
is the one an SVD at every degree builds.  A degree whose SVD keeps nothing
leaves the next degree no rows, and their empty residual closes the span on
the same bound."""

import numpy as np
import pytest
from test_resolution import eps_phase_twin

from pencilspec.conditions import _monomial_span, corollary
from pencilspec.config import DEFAULT, Tolerances
from pencilspec.instances import FAMILIES
from pencilspec.linalg import prepare_tuple


def svd_every_degree(mats, degree_bound, tol, record=None):
    """The span's loop without the norm close: every degree projects off the
    basis twice, even an empty one, and runs the SVD.  With ``record``, each
    degree appends its residual's ``(sigma_max, ||R||_F)`` to it."""
    gen = np.stack(mats)
    dim = gen.shape[1]
    span = np.zeros((0, dim * dim), dtype=np.complex128)
    added = np.eye(dim).reshape(1, -1)
    for _ in range(degree_bound):
        rows = np.matmul(added.reshape(-1, 1, dim, dim), gen).reshape(-1, dim * dim)
        for _ in range(2):
            rows = rows - (rows @ span.conj().T) @ span
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        if record is not None:
            record.append((s.max(initial=0.0), np.linalg.norm(rows)))
        added = vh[s > tol.singular_eig_rel]
        if not len(added):
            break
        span = np.concatenate([span, added])
    return span.reshape(-1, dim, dim)


def both_spans(tup, k, tol=DEFAULT):
    """The span ``corollary`` builds for ``tup``, and the every-degree one."""
    mats = prepare_tuple(tup, tol=tol).tup.matrices
    n = tup.dim // k
    return _monomial_span(mats, n * n - n + 1, tol), svd_every_degree(mats, n * n - n + 1, tol)


# the monomials workload's (n, k, m) shapes
SHAPES = [(2, 2, 2), (2, 4, 3), (2, 8, 4), (2, 3, 5), (3, 2, 2),
          (3, 4, 2), (3, 2, 3), (3, 3, 3), (3, 5, 3)]


# conjugate_negative reads only the seed, and its shape is (3, 2, 2)
CASES = [(family, shape) for family in FAMILIES
         for shape in ([(3, 2, 2)] if family == "conjugate_negative" else SHAPES)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family, shape", CASES,
                         ids=["-".join(map(str, (f, *s))) for f, s in CASES])
def test_norm_close_keeps_every_basis_bit(family, shape, seed):
    n, k, m = shape
    tup, desc = FAMILIES[family](n, k, m, seed)
    got, want = both_spans(tup, desc.k)
    assert len(got)
    assert np.array_equal(got, want)


def test_norm_close_keeps_the_basis_at_n36():
    tup, _ = FAMILIES["decomposable"](12, 3, 2, 7)
    got, want = both_spans(tup, 3)
    assert len(got) == 144  # M_12 (x) I_3
    assert np.array_equal(got, want)


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (3, 3)])
def test_norm_close_keeps_the_eps_phase_twins_basis(n, m, seed, eps):
    got, want = both_spans(eps_phase_twin(n, m, seed, eps), 2)
    assert len(got)
    assert np.array_equal(got, want)


def test_a_cut_above_every_direction_still_leaves_the_span_empty():
    tup, _ = FAMILIES["decomposable"](3, 2, 2, 7)
    tol = Tolerances(resolution=1e3)
    got, want = both_spans(tup, 2, tol)
    assert got.shape == want.shape == (0, 6, 6)
    with pytest.raises(ValueError, match="the span is empty"):
        corollary(tup, 2, tol=tol)


def test_only_degrees_that_add_a_direction_run_the_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(rows, *args, **kwargs):
        calls.append(rows.shape)
        return svd(rows, *args, **kwargs)

    tup, _ = FAMILIES["decomposable"](3, 2, 3, 7)
    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = corollary(tup, 2)
    assert rep.verdict.is_kth_power
    # degree 1 adds the generators and degree 2 fills M_3 (x) I_2; degree 3
    # adds nothing, and its residual is closed by its norm
    assert len(calls) == 2


def test_a_degree_whose_svd_keeps_nothing_closes_the_span(monkeypatch):
    # The first resolution on a grid at which the copy loop ends on a degree
    # whose residual the norm bound leaves open, sigma_max < cut <= 2 ||R||_F,
    # with a basis already built: that degree's SVD runs and keeps nothing
    tup, _ = FAMILIES["decomposable"](3, 2, 2, 0)
    for resolution in np.logspace(1, 3, 21):
        tol = Tolerances(resolution=float(resolution))
        mats = prepare_tuple(tup, tol=tol).tup.matrices
        record = []
        want = svd_every_degree(mats, 7, tol, record)
        sigma_max, norm = record[-1]
        if len(want) and sigma_max < tol.singular_eig_rel <= 2 * norm:
            break
    else:
        pytest.fail("no resolution on the grid reaches a degree whose SVD keeps nothing")
    assert len(record) < 7
    calls = []
    svd = np.linalg.svd

    def counted(rows, *args, **kwargs):
        calls.append(rows.shape)
        return svd(rows, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    got = _monomial_span(mats, 7, tol)
    # the span runs the same SVDs, the last keeping nothing, and the next
    # degree's empty residual closes it
    assert len(calls) == len(record)
    assert np.array_equal(got, want)
