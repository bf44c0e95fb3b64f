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
:func:`kth_power_batch` admits pencils from outside the program by the one
rule of every matrix that enters (``linalg._admitted``, as for a tuple file);
every pencil a command builds is exactly Hermitian and goes to
:func:`_spectra` and :func:`_verdicts` unchecked.

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
from .linalg import _admitted

__all__ = ["KPowerVerdict", "kth_power_test", "kth_power_batch"]


@dataclass(frozen=True)
class KPowerVerdict:
    """Outcome of the sampled perfect-power test.

    ``per_line_clusters`` records, per sampled line, ``(cluster_sizes,
    spread)``: the eigenvalue cluster sizes found, in ascending order of
    the eigenvalues, and the worst intra-cluster spread.  ``failing_line``
    is the index of the first line that failed, ``None`` when all passed.
    The pencil's directions pin every line (see :func:`kth_power_batch`).
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


# Working-set budget of the batched power test: pencils are cut into chunks
# of at most this many (line, matrix entry) pairs, so the stacked operands
# stay small whatever the number of pencils.
_BATCH_ENTRIES = 20_000


def _spectra(gens, dirs, tol):
    """The sorted line spectra ``(P, lines, N)`` of a stack of admitted
    pencils, a chunk of at most ``_BATCH_ENTRIES`` (line, matrix entry)
    pairs at a time; they are smaller than the generators."""
    (p_count, m, dim), lines = gens.shape[:3], tol.lines
    chunk = max(1, _BATCH_ENTRIES // (lines * dim * dim))
    # q . A for every line as one real matmul on the (re, im) view; real q
    # keeps it Hermitian.  A pencil split into k identical blocks gives
    # k-fold eigenvalues, which rounding moves linearly (Weyl), not by
    # eps**(1/k) as a root finder on coefficients would.
    flat = np.ascontiguousarray(gens).view(np.float64).reshape(p_count, m, -1)
    out = np.empty((p_count, lines, dim))
    for start in range(0, p_count, chunk):
        part = dirs[start : start + chunk] @ flat[start : start + chunk]
        out[start : start + chunk] = np.linalg.eigvalsh(
            part.view(np.complex128).reshape(-1, lines, dim, dim)
        )
    return out


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


def kth_power_batch(
    gens,
    k: int,
    n: int,
    dirs,
    tol: Tolerances = DEFAULT,
) -> list:
    """Decide, for each pencil of a stack of Hermitian generators from
    outside the program, whether its determinant is a perfect k-th power.

    ``gens`` holds P pencils of m Hermitian generators each, shape
    ``(P, m, N, N)``, and ``dirs`` the real directions of their lines, shape
    ``(P, tol.lines, m)``: pencil p is restricted to the lines ``x = t q``
    through the origin for the rows ``q`` of ``dirs[p]``, so its verdict
    depends on its generators and its directions alone, neither on
    evaluation order nor on the rest of the stack.  A direction with a NaN
    or infinite entry raises :class:`ValueError`.  The generators are
    admitted by the rule of :class:`~pencilspec.linalg.HermitianTuple` (the
    eigensolver reads one triangle only), with its messages: a NaN or
    infinite entry ("matrix entries must be finite") or a Hermitian part
    ``(G + G^H) / 2`` that overflows, as entries above half the largest float
    do, raises :class:`ValueError`, and a Hermitian defect ``max|G - G^H|``
    above ``tol.hermitian_rel`` times the spectral norm of ``G`` raises
    :class:`~pencilspec.errors.NotHermitian`, a :class:`ValueError` too.
    The spectra read the generators as given, not their Hermitian parts.
    Admitted generators and directions whose line combinations ``q . A``
    could overflow raise :class:`ValueError` as well: an entry bound above
    the largest float over 4N.

    On every line the eigenvalues of the Hermitian ``q . A`` (the reciprocal
    roots, zero for the root at infinity) must form clusters whose sizes are
    all multiples of k, with intra-cluster spread below the cluster
    tolerance: single linkage splits the sorted spectrum where a gap exceeds
    that tolerance.  ``prod f_j^e_j`` is a k-th power exactly when k divides
    every ``e_j``, so a base with repeated factors passes.  Returns one
    :class:`KPowerVerdict` per pencil.
    """
    gens = np.asarray(gens, dtype=np.complex128)
    if gens.ndim != 4 or gens.shape[-1] != gens.shape[-2]:
        raise ValueError("pencils must be stacked as (P, m, N, N)")
    dim = gens.shape[-1]
    dirs = np.asarray(dirs, dtype=np.float64)
    if dirs.shape != (gens.shape[0], tol.lines, gens.shape[1]):
        raise ValueError(
            f"need directions of shape {(gens.shape[0], tol.lines, gens.shape[1])}, "
            f"got {dirs.shape}"
        )
    if not np.all(np.isfinite(dirs)):
        raise ValueError("line directions must be finite")
    if k < 1 or n < 1 or n * k != dim:
        raise ValueError(f"need n*k == {dim}, got n={n}, k={k}")
    if not len(gens):
        return []
    # the tuple rule, for the decision only: the spectra read the caller's
    # matrices, not their Hermitian parts
    _admitted(gens.reshape(-1, dim, dim), tol)
    # A line's q . A has real and imaginary parts at most |q| . (each
    # generator's largest part), its eigenvalues at most sqrt(2) N times that
    # and their gaps twice it; 4N in place of 2 sqrt(2) N leaves room for
    # rounding, so nothing overflows below the limit.
    parts = np.maximum(np.abs(gens.real), np.abs(gens.imag)).max(axis=(-2, -1))
    with np.errstate(over="ignore"):  # an overflowing bound is refused below
        bound = np.abs(dirs) @ parts[..., None]
    limit = np.finfo(np.float64).max / (4 * dim)
    if np.any(bound > limit):
        raise ValueError(
            f"line combinations q . A overflow: entry bound {np.max(bound):.3e} "
            f"above {limit:.3e}"
        )
    return _verdicts(_spectra(gens, dirs, tol), k, n, tol)


def kth_power_test(
    mats,
    k: int,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> KPowerVerdict:
    """Decide whether the pencil determinant of ``mats`` is a perfect k-th
    power: :func:`kth_power_batch` on a stack of one pencil, its directions
    drawn in one call of a generator seeded with ``seed``, so it admits and
    refuses what that function does.  Generators of unequal shapes,
    non-square ones and an empty ``mats`` raise :class:`ValueError`."""
    gen = np.stack([np.asarray(a, dtype=np.complex128) for a in mats])
    dirs = _draw_directions(np.random.default_rng(seed), tol.lines, len(gen))
    return kth_power_batch(gen[None], k, n, dirs[None], tol=tol)[0]
