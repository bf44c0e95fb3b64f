"""Characteristic polynomials of matrix pencils and the k-th-power test.

The pencil of a tuple ``(A_1, ..., A_m)`` is ``x_1 A_1 + ... + x_m A_m - I``;
its determinant is a degree-N polynomial whose zero set is the (affine part
of the) joint spectrum of the tuple.

The k-th-power certificate never factors anything symbolically: a degree-N
polynomial is a perfect k-th power of a degree-n polynomial exactly when a
generic line meets its zero set in n points of multiplicity k each, so the
test samples seeded random real lines and inspects root multiplicity
profiles (a polynomial vanishing at every real point vanishes identically,
so real lines are as generic as complex ones).  The lines pass through the
origin: the polynomial is the affine chart of the homogeneous
``det(x_1 A_1 + ... + x_m A_m - x_0 I)``, and on ``x = t q`` it reads
``det(t (q . A) - I)``, whose roots are ``1/lambda`` for the eigenvalues
``lambda`` of ``q . A``.  A zero eigenvalue is the root at infinity (the
``x_0`` factor), and ``det(-I) = +-1`` keeps the origin off every
component, so a generic such line separates the components just as a
generic affine line does.  The generators are Hermitian, so ``q . A`` is
too: ``eigvalsh`` returns its spectrum real and sorted, and the test
clusters it by its gaps; no polynomial coefficient is ever formed.
:func:`kth_power_test` admits a pencil from outside the program as a
:class:`~pencilspec.linalg.HermitianTuple`, the rule of a tuple file; every
pencil a command builds is exactly Hermitian and goes to :func:`_spectra`
and :func:`_verdicts` unchecked.  :func:`_spectra` solves whatever stack
it is given at once; the word battery, the one caller that stacks more
than one pencil, bounds its stacks.

Error model: a pencil fails when any line fails.  An algebraic miss has
probability zero: the lines on which a non-power restricts to a power form
a proper algebraic set, which Gaussian directions avoid.  A numerical miss
happens when a failing line's spread falls under ``ctol``, the cluster
tolerance of that line.  Measured at commit d12df1f on 53 negatives, line 0
alone missed 654 of 6888 failing words (9.5%), and each of the 53 tuples
still had a word that fails on line 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import HermitianTuple

__all__ = ["KPowerVerdict", "kth_power_test"]


@dataclass(frozen=True)
class KPowerVerdict:
    """Outcome of the sampled perfect-power test.

    ``per_line_clusters`` records, per sampled line, ``(cluster_sizes,
    spread)``: the eigenvalue cluster sizes found, in ascending order of
    the eigenvalues, and the worst intra-cluster spread.  ``failing_line``
    is the index of the first line that failed, ``None`` when all passed.
    The pencil's directions pin every line (see :func:`kth_power_test`).
    """

    is_kth_power: bool
    k: int
    n: int
    per_line_clusters: tuple
    worst_spread: float
    failure_reason: str = ""
    failing_line: int | None = None


def _draw_directions(rng, lines, m, pencils=None):
    """``lines`` random real directions in m variables with standard
    Gaussian entries, from one call of ``rng``: ``(lines, m)``, or
    ``(pencils, lines, m)`` for a stack of pencils.  Row i of a stack is the
    same whatever ``pencils`` is, as the generator fills it in order."""
    return rng.standard_normal((lines, m) if pencils is None else (pencils, lines, m))


def _spectra(gens, dirs):
    """The sorted line spectra ``(P, lines, N)`` of a stack of admitted
    pencils ``gens`` ``(P, m, N, N)`` on the lines ``dirs`` ``(P, lines,
    m)``, in one matmul and one stacked ``eigvalsh``."""
    p_count, m, dim = gens.shape[:3]
    # q . A for every line as one real matmul on the (re, im) view; real q
    # keeps it Hermitian.  A pencil split into k identical blocks gives
    # k-fold eigenvalues, which rounding moves linearly (Weyl), not by
    # eps**(1/k) as a root finder on coefficients would.
    flat = np.ascontiguousarray(gens).view(np.float64).reshape(p_count, m, -1)
    return np.linalg.eigvalsh((dirs @ flat).view(np.complex128).reshape(p_count, -1, dim, dim))


def _verdicts(lams, k, n, tol):
    """Power-test verdicts from the line spectra of a stack of pencils."""
    p_count, lines, dim = lams.shape
    # Column r of ``spectra`` is row r = (pencil, line); its eigenvalues come
    # sorted, so single linkage at ctol cuts it where a gap exceeds ctol:
    # clusters are runs, their spread the run's range.
    spectra = np.ascontiguousarray(lams.reshape(-1, dim).T)
    ctol = tol.cluster_rel * (1.0 + np.maximum(-spectra[0], spectra[-1]))
    cut = spectra[1:] - spectra[:-1] > ctol
    odd = cut[np.arange(1, dim) % k != 0].any(axis=0)
    # start[i] becomes the first eigenvalue of eigenvalue i + 1's cluster
    start = np.where(cut, spectra[1:], -np.inf)
    prev = spectra[0]
    for row in start:
        prev = np.maximum(prev, row, out=row)
    spreads = (spectra[1:] - start).max(axis=0, initial=0.0)
    line_ok = (~odd & (spreads <= ctol)).reshape(p_count, lines)
    # rows cut after every k-th eigenvalue and nowhere else have n clusters of
    # size k: they share one profile, and only the others build theirs
    profiles = [(k,) * n] * len(spreads)
    for r in np.flatnonzero(odd | ~cut[k - 1 :: k].all(axis=0)).tolist():
        profiles[r] = tuple(np.diff(np.flatnonzero(np.r_[True, cut[:, r], True])).tolist())
    # one pass over the pencils, past the frozen dataclass's __init__
    verdicts, new = [], object.__new__
    rows = zip(line_ok.all(axis=1).tolist(), line_ok.argmin(axis=1).tolist(),
               spreads.reshape(p_count, lines).max(axis=1).tolist(),
               zip(*[zip(profiles, spreads.tolist())] * lines))
    for ok, bad, worst, rec in rows:
        reason = "" if ok else "line {}: cluster sizes {}, spread {:.3e}".format(bad, *rec[bad])
        verdict = new(KPowerVerdict)
        verdict.__dict__.update(is_kth_power=ok, k=k, n=n, per_line_clusters=rec, worst_spread=worst,
                                failure_reason=reason, failing_line=None if ok else bad)
        verdicts.append(verdict)
    return verdicts


def kth_power_test(
    mats,
    k: int,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> KPowerVerdict:
    """Decide whether the pencil determinant of Hermitian generators ``mats``
    from outside the program is a perfect k-th power.

    ``mats`` is admitted as ``HermitianTuple(mats, tol=tol)`` admits it,
    refusals and messages alike (a :class:`ValueError`, or its subclass
    :class:`~pencilspec.errors.NotHermitian` for a Hermitian defect above
    ``tol.hermitian_rel`` times the spectral norm); the spectra read the
    generators as given, not their Hermitian parts.  ``n * k`` must equal N,
    and generators whose line combinations ``q . A`` could overflow (an
    entry bound above the largest float over 4N) raise :class:`ValueError`.

    The pencil is restricted to the ``tol.lines`` lines ``x = t q`` whose
    directions ``q`` are drawn in one call of a generator seeded with
    ``seed``, as ``analyze`` draws the full tuple's.  On every line the
    eigenvalues of the Hermitian ``q . A`` (the reciprocal roots, zero for
    the root at infinity) must form clusters whose sizes are all multiples
    of k, with intra-cluster spread below the cluster tolerance: single
    linkage splits the sorted spectrum where a gap exceeds that tolerance.
    ``prod f_j^e_j`` is a k-th power exactly when k divides every ``e_j``,
    so a base with repeated factors passes.
    """
    HermitianTuple(mats, tol=tol)  # the tuple rule, for the decision only
    gens = np.asarray(mats, dtype=np.complex128)
    m, dim = gens.shape[:2]
    if k < 1 or n < 1 or n * k != dim:
        raise ValueError(f"need n*k == {dim}, got n={n}, k={k}")
    dirs = _draw_directions(np.random.default_rng(seed), tol.lines, m)
    # A line's q . A has real and imaginary parts at most |q| . (each
    # generator's largest part), its eigenvalues at most sqrt(2) N times that
    # and their gaps twice it; 4N in place of 2 sqrt(2) N leaves room for
    # rounding, so nothing overflows below the limit.
    parts = np.maximum(np.abs(gens.real), np.abs(gens.imag)).max(axis=(-2, -1))
    with np.errstate(over="ignore"):  # an overflowing bound is refused below
        bound = np.abs(dirs) @ parts
    limit = np.finfo(np.float64).max / (4 * dim)
    if np.any(bound > limit):
        raise ValueError(
            f"line combinations q . A overflow: entry bound {np.max(bound):.3e} "
            f"above {limit:.3e}"
        )
    return _verdicts(_spectra(gens[None], dirs[None]), k, n, tol)[0]
