"""Dense complex matrix layer: Hermitian tuples, clustered eigendecomposition,
spectral projections, the block grid and the direct-sum helper.

Matrices are plain ``numpy`` complex128 arrays throughout; the only wrapped
type is :class:`HermitianTuple`, which pins down the pencil generators
``A_1, ..., A_m`` and admits them once, where they enter; a tuple the
program builds Hermitian to the last bit is wrapped by
:meth:`HermitianTuple.exact` and checked for finiteness only.
:func:`prepare_tuple` is the one entry of ``analyze``, ``decompose`` and
``corollary``: from one eigendecomposition per generator it derives scale,
invertibility, the spectra admissibility and ``decompose`` read and, for a
split into ``k`` copies, the first generator's spectral pattern.
:func:`extract_block_structure` is the one route to the k x k blocks that
``analyze`` builds its words from and ``decompose`` factors.
Everything here is pure and safe to share across threads.
"""

from __future__ import annotations

import sys
from dataclasses import KW_ONLY, InitVar, dataclass, replace
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import ClusterAmbiguity, NotHermitian, SpectrumPatternViolation

__all__ = [
    "HermitianTuple",
    "SpectralData",
    "PreparedTuple",
    "hermitian_part",
    "spectral_norm",
    "direct_sum_k_copies",
    "prepare_tuple",
    "extract_block_structure",
]


def spectral_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


def _require_finite(stack):
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")


def hermitian_part(stack):
    """``(G + G*) / 2`` for each of a finite stack of square matrices; one
    that overflows raises :class:`ValueError`, and nothing warns."""
    _require_finite(stack)
    with np.errstate(over="ignore", invalid="ignore"):  # complex inf / 2 is NaN
        part = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
    if not np.isfinite(part).all():
        raise ValueError("Hermitian part (A + A^H) / 2 overflows: entries too large")
    return part


def _admitted(stack, tol: Tolerances):
    """The exact Hermitian parts (:func:`hermitian_part`) of a finite
    ``(m, N, N)`` stack whose generators' Hermitian defects are within
    ``tol.hermitian_rel`` times their spectral norms, at every scale; raises
    :class:`NotHermitian` naming the first that is not."""
    part = hermitian_part(stack)
    with np.errstate(over="ignore"):  # an overflowing defect is refused below
        diff = stack - stack.conj().swapaxes(-1, -2)
    # exact first: the defects and the norms are formed only when some entry differs
    if diff.any():
        defects = np.abs(diff).max(axis=(-2, -1))
        bounds = tol.hermitian_rel * np.linalg.norm(stack, 2, axis=(-2, -1))
        if (bad := defects > bounds).any():
            i = int(np.argmax(bad))
            raise NotHermitian(f"Hermitian defect {defects[i]:.3e} exceeds {bounds[i]:.3e}")
    return part


@dataclass(frozen=True)
class HermitianTuple:
    """An ordered tuple of same-size Hermitian matrices (pencil generators).

    Each generator's Hermitian defect must be within ``tol.hermitian_rel``
    times its spectral norm, at any scale; its exact Hermitian part is
    stored, so tuples derived from it pass any later check.  The generators
    are admitted in one pass over their stack, which must be a non-empty
    ``(m, N, N)`` stack of numbers; :meth:`exact` wraps the tuples the
    program builds.
    """

    matrices: tuple
    _: KW_ONLY
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol):
        try:  # numpy refuses ragged input and entries that are not numbers
            stack = np.array(self.matrices, dtype=np.complex128)
            if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
                raise ValueError(f"got shape {stack.shape}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"generators must be a non-empty (m, N, N) stack of numbers: {exc}") from None
        object.__setattr__(self, "matrices", tuple(_admitted(stack, tol)))

    @classmethod
    def exact(cls, mats) -> HermitianTuple:
        """The tuple of ``mats``, same-size matrices Hermitian to the last
        bit by construction, stored as they are.  Only finiteness is checked."""
        stack = np.asarray(mats, dtype=np.complex128)
        _require_finite(stack)
        tup = object.__new__(cls)
        object.__setattr__(tup, "matrices", tuple(stack))
        return tup

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.matrices)

    def max_norm(self) -> float:
        return max(spectral_norm(a) for a in self.matrices)


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of one Hermitian matrix.

    ``eigenvalues`` holds the ascending cluster centers, ``multiplicities``
    the cluster sizes, and ``basis`` the unitary whose columns are the
    eigenvectors grouped by cluster.  ``projections[j]``, the orthogonal
    projection onto the j-th cluster's eigenspace, is formed on first
    access: only the reference routes read it.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple
    basis: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def projections(self) -> tuple:
        ends = np.cumsum(self.multiplicities)
        groups = (np.arange(end - size, end) for end, size in zip(ends, self.multiplicities))
        return tuple(self.basis[:, g] @ self.basis[:, g].conj().T for g in groups)

    def rotation(self) -> np.ndarray:
        """Unitary V with V A V* diagonal (rows are eigenvectors)."""
        return self.basis.conj().T


def _cluster_groups(w, tol: Tolerances):
    """Index groups of the ascending eigenvalues ``w``, split at every gap
    above ``tol.gap_tol * max(1, max |w|)``.  A gap within a factor of 10 of
    that threshold (on either side) makes the clustering ill-defined and
    raises :class:`ClusterAmbiguity`."""
    threshold = tol.gap_tol * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    gaps = np.diff(w)
    ambiguous = (gaps > threshold / 10.0) & (gaps < threshold * 10.0)
    if np.any(ambiguous):
        g = float(gaps[np.argmax(ambiguous)])
        raise ClusterAmbiguity(
            f"eigenvalue gap {g:.3e} lies within a factor 10 of the split threshold {threshold:.3e}"
        )
    return np.split(np.arange(len(w)), np.flatnonzero(gaps > threshold) + 1)


def _clustered(w, q, tol: Tolerances) -> SpectralData:
    """:class:`SpectralData` of the eigenpairs ``(w, q)`` of one Hermitian matrix."""
    groups = _cluster_groups(w, tol)
    return SpectralData(
        eigenvalues=np.array([float(np.mean(w[g])) for g in groups]),
        multiplicities=tuple(len(g) for g in groups),
        basis=q,
    )


def direct_sum_k_copies(tup: HermitianTuple, k: int) -> HermitianTuple:
    """Block-diagonal tuple with k copies of every generator."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return HermitianTuple.exact([np.kron(np.eye(k), a) for a in tup.matrices])


def _invertible_shift(w, tol: Tolerances) -> float:
    """``||A|| + 1`` for a Hermitian ``A`` with eigenvalues ``w`` whose
    smallest modulus is below ``tol.singular_eig_rel * max(1, ||A||)``, else 0."""
    nrm = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and float(np.min(np.abs(w))) < tol.singular_eig_rel * max(1.0, nrm):
        return nrm + 1.0
    return 0.0


@dataclass(frozen=True)
class PreparedTuple:
    """A tuple brought to unit scale and made invertible, with its spectra.

    ``tup.matrices[l]`` is ``(A_l + shifts[l] I) / scales[l]``, so
    ``shifts`` are in the input's units; its eigenpairs are
    ``eigenvalues[l]`` (ascending, largest modulus at least 1) and the
    columns of ``eigenvectors[l]``.  When prepared for a split into ``k``
    copies, ``spec`` is the clustered eigendecomposition of the first
    prepared generator, with N/k clusters of size ``k``.
    """

    tup: HermitianTuple
    scales: tuple
    shifts: tuple
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spec: SpectralData = None


def prepare_tuple(tup: HermitianTuple, k: int = None, tol: Tolerances = DEFAULT) -> PreparedTuple:
    """Divide each generator by its spectral norm, then shift singular ones.

    One batched ``eigh`` gives everything: the scale ``max |w_l|`` (a zero
    generator keeps 1), the shift of the unit spectrum ``w_l / scale_l`` by
    the rule of :func:`_invertible_shift`, and the prepared eigenpairs
    (same eigenvectors); a subnormal scale, ``scale * finfo.max < 1``,
    raises :class:`ValueError` first.  Neither step changes whether the tuple
    splits into identical copies (``x_l -> x_l / c_l`` keeps a perfect power a
    perfect power), so verdicts do not depend on the generators' scales.
    With ``k``, also check that k divides N and that the first generator
    has N/k eigenvalue clusters of size k, raising
    :class:`SpectrumPatternViolation` otherwise, or :class:`ClusterAmbiguity`
    when its clusters are ill-defined.  This is the one place those
    preconditions of ``analyze`` and ``decompose`` are checked.
    """
    if k is not None:
        if k < 1:
            raise ValueError("k must be a positive integer")
        if tup.dim % k:
            raise SpectrumPatternViolation(f"k={k} does not divide N={tup.dim}")
    stack = np.stack(tup.matrices)
    w, q = np.linalg.eigh(stack)
    norms = np.max(np.abs(w), axis=1)
    scales = np.where(norms > 0, norms, 1.0)
    # numpy divides the complex stack through 1 / scale, which overflows where
    # scale * finfo.max < 1 (a product of Python floats, which cannot warn)
    if (smallest := float(scales.min())) * sys.float_info.max < 1:
        raise ValueError(f"generator norm {smallest:.3e} is below the normal range: "
                         "unit scaling overflows")
    unit = w / scales[:, None]
    mus = np.array([_invertible_shift(u, tol) for u in unit])
    # a real scale and a real diagonal shift keep each generator exactly Hermitian
    mats = stack / scales[:, None, None] + mus[:, None, None] * np.eye(tup.dim)
    prep = PreparedTuple(HermitianTuple.exact(mats), tuple(scales.tolist()),
                         tuple((mus * scales).tolist()), unit + mus[:, None], q)
    if k is None:
        return prep
    n = tup.dim // k
    try:
        spec = _clustered(prep.eigenvalues[0], q[0], tol)
    except ClusterAmbiguity as exc:
        raise ClusterAmbiguity(f"first generator: {exc}") from None
    if spec.multiplicities != (k,) * n:
        raise SpectrumPatternViolation(
            f"first generator has cluster sizes {list(spec.multiplicities)}, "
            f"wanted {n} clusters of size {k}"
        )
    return replace(prep, spec=spec)


def extract_block_structure(tup: HermitianTuple, spec: SpectralData) -> np.ndarray:
    """The (m-1, n, n, k, k) grid ``U_i* A_(l+2) U_j`` of every generator
    beyond the first, ``U_j`` the N x k eigenvector block of cluster j, from
    one batched ``V A_l V*``; empty for a one-generator tuple.  Raises
    :class:`SpectrumPatternViolation` unless all clusters share one size."""
    mults = set(spec.multiplicities)
    if len(mults) != 1:
        raise SpectrumPatternViolation(f"cluster sizes {list(spec.multiplicities)} are not uniform")
    k, n = mults.pop(), spec.n
    v = spec.rotation()
    rot = v @ np.reshape(tup.matrices[1:], (-1, tup.dim, tup.dim)) @ v.conj().T
    return rot.reshape(-1, n, k, n, k).transpose(0, 1, 3, 2, 4)
