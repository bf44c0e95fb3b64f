"""Dense complex matrix layer: Hermitian tuples, clustered eigendecomposition,
spectral projections, and the block/direct-sum helpers the splitting
construction needs.

Matrices are plain ``numpy`` complex128 arrays throughout; the only wrapped
type is :class:`HermitianTuple`, which pins down the pencil generators
``A_1, ..., A_m`` and validates them once at construction.
:func:`prepare_tuple` is the one entry of ``analyze``, ``decompose`` and
``corollary``: it decides scale, invertibility and the first generator's
spectral pattern in one place.  Everything here is pure and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    ClusterAmbiguity,
    NotHermitian,
    NotUnitary,
    SeparationTooSmall,
    SpectrumPatternViolation,
)

__all__ = [
    "HermitianTuple",
    "SpectralData",
    "PreparedTuple",
    "as_complex_matrix",
    "spectral_norm",
    "norm_scale",
    "hermitian_defect",
    "unitarity_defect",
    "eigendecompose_clustered",
    "projection_by_interpolation",
    "reduced_resolvent",
    "conjugate",
    "direct_sum_k_copies",
    "shift_to_invertible",
    "prepare_tuple",
    "apply_tuple_map",
]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex128 array."""
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


def spectral_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


def norm_scale(a) -> float:
    """max(1, ||a||_2): the scale factor used by relative tolerances."""
    return max(1.0, spectral_norm(a))


def hermitian_defect(a) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def unitarity_defect(u) -> float:
    n = u.shape[0]
    return float(np.linalg.norm(u @ u.conj().T - np.eye(n)))


def _require_hermitian(a, tol: Tolerances):
    defect = hermitian_defect(a)
    # norm_scale(a) >= 1, so an exactly Hermitian matrix skips the norm
    if defect > tol.hermitian_rel and defect > (bound := tol.hermitian_rel * norm_scale(a)):
        raise NotHermitian(f"Hermitian defect {defect:.3e} exceeds {bound:.3e}")


@dataclass(frozen=True)
class HermitianTuple:
    """An ordered tuple of same-size Hermitian matrices (pencil generators).

    Each generator must be Hermitian within ``tol.hermitian_rel``; its exact
    Hermitian part is stored, so tuples derived from it pass any later check.
    """

    matrices: tuple
    _: KW_ONLY
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol):
        mats = tuple(as_complex_matrix(a) for a in self.matrices)
        if not mats:
            raise ValueError("tuple must contain at least one matrix")
        dim = mats[0].shape[0]
        for a in mats:
            if a.shape[0] != dim:
                raise ValueError("all generators must share one dimension")
            _require_hermitian(a, tol)
        object.__setattr__(self, "matrices", tuple((a + a.conj().T) / 2.0 for a in mats))

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

    ``eigenvalues`` holds the ascending cluster centers, ``projections[j]``
    the orthogonal projection onto the j-th cluster's eigenspace, and
    ``basis`` the unitary whose columns are the eigenvectors grouped by
    cluster.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple
    projections: tuple
    basis: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def reduced_resolvents(self) -> tuple:
        """Scaled reduced resolvents ``sum_{i != j} lam_j / (lam_i - lam_j) * P_i``.

        The j-th one has range orthogonal to the range of ``projections[j]``.
        Diagnostic only, so built on first access.
        """
        lams = self.eigenvalues
        out = []
        for j in range(self.n):
            r = np.zeros_like(self.basis)
            for i, p in enumerate(self.projections):
                if i != j:
                    r += lams[j] / (lams[i] - lams[j]) * p
            out.append(r)
        return tuple(out)

    def rotation(self) -> np.ndarray:
        """Unitary V with V A V* diagonal (rows are eigenvectors)."""
        return self.basis.conj().T


def eigendecompose_clustered(a, gap_tol: float = None, tol: Tolerances = DEFAULT) -> SpectralData:
    """Eigendecompose a Hermitian matrix and cluster its eigenvalues.

    Eigenvalues are sorted ascending and split greedily wherever a
    consecutive gap exceeds ``gap_tol * max(1, ||a||)``.  A gap within a
    factor of 10 of that threshold (on either side) makes the clustering
    ill-defined and raises :class:`ClusterAmbiguity`.
    """
    a = as_complex_matrix(a)
    _require_hermitian(a, tol)
    if gap_tol is None:
        gap_tol = tol.gap_tol
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")

    w, q = np.linalg.eigh(a)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    threshold = gap_tol * scale

    gaps = np.diff(w)
    ambiguous = (gaps > threshold / 10.0) & (gaps < threshold * 10.0)
    if np.any(ambiguous):
        g = float(gaps[np.argmax(ambiguous)])
        raise ClusterAmbiguity(
            f"eigenvalue gap {g:.3e} lies within a factor 10 of the split threshold {threshold:.3e}"
        )

    splits = np.flatnonzero(gaps > threshold) + 1
    groups = np.split(np.arange(len(w)), splits)

    centers = np.array([float(np.mean(w[g])) for g in groups])
    mults = tuple(len(g) for g in groups)
    projections = tuple(
        q[:, g] @ q[:, g].conj().T for g in groups
    )
    return SpectralData(
        eigenvalues=centers,
        multiplicities=mults,
        projections=projections,
        basis=q,
    )


def reduced_resolvent(spec: SpectralData, j: int) -> np.ndarray:
    """Scaled reduced resolvent at the j-th cluster (0-based)."""
    if not 0 <= j < spec.n:
        raise ValueError(f"cluster index {j} out of range for n={spec.n}")
    return spec.reduced_resolvents[j]


def projection_by_interpolation(a, spec: SpectralData, j: int, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Spectral projection via the Lagrange product formula.

    Computes ``prod_{r != j} (a - lam_r I) / prod_{r != j} (lam_j - lam_r)``
    over the cluster centers.  This lives in the algebra generated by ``a``
    itself, unlike the eigenvector construction, and is used as a
    cross-check of ``spec.projections[j]``.
    """
    a = as_complex_matrix(a)
    if not 0 <= j < spec.n:
        raise ValueError(f"cluster index {j} out of range for n={spec.n}")
    lams = spec.eigenvalues
    scale = norm_scale(a)
    if spec.n > 1:
        seps = np.abs(lams[:, None] - lams[None, :])
        min_sep = float(np.min(seps[~np.eye(spec.n, dtype=bool)]))
        if min_sep < tol.interpolation_sep_rel * scale:
            raise SeparationTooSmall(
                f"cluster separation {min_sep:.3e} below {tol.interpolation_sep_rel * scale:.3e}"
            )
    dim = a.shape[0]
    num = np.eye(dim, dtype=np.complex128)
    den = 1.0
    for r in range(spec.n):
        if r == j:
            continue
        num = num @ (a - lams[r] * np.eye(dim))
        den *= lams[j] - lams[r]
    return num / den


def conjugate(a, u, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Return ``u a u*`` after validating that ``u`` is unitary."""
    a = as_complex_matrix(a)
    u = as_complex_matrix(u)
    if u.shape != a.shape:
        raise ValueError("matrix and unitary must have equal shapes")
    defect = unitarity_defect(u)
    bound = tol.unitary_rel * a.shape[0]
    if defect > bound:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {bound:.3e}")
    return u @ a @ u.conj().T


def direct_sum_k_copies(tup: HermitianTuple, k: int) -> HermitianTuple:
    """Block-diagonal tuple with k copies of every generator."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return HermitianTuple(tuple(np.kron(np.eye(k), a) for a in tup.matrices))


def shift_to_invertible(tup: HermitianTuple, tol: Tolerances = DEFAULT):
    """Shift singular generators by ``||A|| + 1`` times the identity.

    Adding a real multiple of the identity changes neither the lattice of
    invariant subspaces nor any of the block relations the construction
    tests, so analyses run on the shifted tuple transfer back verbatim.
    Returns ``(shifted_tuple, shifts)`` where ``shifts[l]`` is the amount
    added to generator l (0.0 if untouched).
    """
    mats = []
    shifts = []
    dim = tup.dim
    for a in tup.matrices:
        w = np.linalg.eigvalsh(a)
        nrm = float(np.max(np.abs(w))) if w.size else 0.0
        if w.size and float(np.min(np.abs(w))) < tol.singular_eig_rel * max(1.0, nrm):
            mu = nrm + 1.0
            mats.append(a + mu * np.eye(dim))
            shifts.append(mu)
        else:
            mats.append(a)
            shifts.append(0.0)
    return HermitianTuple(tuple(mats)), tuple(shifts)


@dataclass(frozen=True)
class PreparedTuple:
    """A tuple brought to unit scale and made invertible.

    ``tup.matrices[l]`` is ``(A_l + shifts[l] I) / scales[l]``, so
    ``shifts`` are in the input's units.  When prepared for a split into
    ``k`` copies, ``spec`` is the clustered eigendecomposition of the first
    prepared generator, with N/k clusters of size ``k``.
    """

    tup: HermitianTuple
    scales: tuple
    shifts: tuple
    spec: SpectralData = None


def prepare_tuple(tup: HermitianTuple, k: int = None, tol: Tolerances = DEFAULT) -> PreparedTuple:
    """Divide each generator by its spectral norm, then shift singular ones.

    A zero generator keeps scale 1.  Neither step changes whether the tuple
    splits into identical copies (``x_l -> x_l / c_l`` keeps a perfect power
    a perfect power), so verdicts do not depend on the generators' scales.
    With ``k``, also check that k divides N and that the first generator has
    N/k eigenvalue clusters of size k; :class:`SpectrumPatternViolation`
    otherwise.
    """
    if k is not None:
        if k < 1:
            raise ValueError("k must be a positive integer")
        if tup.dim % k:
            raise SpectrumPatternViolation(f"k={k} does not divide N={tup.dim}")
    scales = tuple(spectral_norm(a) or 1.0 for a in tup.matrices)
    unit = HermitianTuple(tuple(a / c for a, c in zip(tup.matrices, scales)))
    shifted, unit_shifts = shift_to_invertible(unit, tol=tol)
    shifts = tuple(mu * c for mu, c in zip(unit_shifts, scales))
    if k is None:
        return PreparedTuple(shifted, scales, shifts)
    n = tup.dim // k
    spec = eigendecompose_clustered(shifted.matrices[0], tol=tol)
    if spec.multiplicities != (k,) * n:
        raise SpectrumPatternViolation(
            f"first generator has cluster sizes {list(spec.multiplicities)}, "
            f"wanted {n} clusters of size {k}"
        )
    return PreparedTuple(shifted, scales, shifts, spec)


def apply_tuple_map(tup: HermitianTuple, c) -> HermitianTuple:
    """New tuple with generators ``sum_s c[j, s] * A_s`` (real mixing matrix)."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (tup.m, tup.m):
        raise ValueError(f"mixing matrix must be {tup.m}x{tup.m}")
    mats = tuple(
        sum(c[j, s] * tup.matrices[s] for s in range(tup.m)) for j in range(tup.m)
    )
    return HermitianTuple(mats)
