"""Reference routes: the tests compare the production route against them,
and no command runs them.  The coefficient route expands the pencil
determinant by tensor interpolation on roots of unity (:func:`pencil_charpoly`,
inverse DFT per axis, radius 1, which keeps the Vandermonde system perfectly
conditioned), restricts it to a line ``t -> det(M0 + t M1)`` evaluated at
N+1 unit roots and recovered by a single FFT (:func:`restrict_pencil_to_line`),
and gives the variable transformation law (:func:`transform_tuple_vars`).
The cycle walker (:func:`verify_cycle_identity`) multiplies block unitaries
around any cycle; ``decompose`` checks only the triangles of its spanning
forest, from the forest's own pieces.  Thresholds are the module constants
below, not :class:`Tolerances` fields, and the errors only these routes
raise are defined here.  The dependency is one way: this module imports the
production modules, and none of them imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import WordSpec
from .config import DEFAULT, Tolerances
from .decomposer import BlockStructure, _unimodular_defect
from .errors import SpectralError
from .linalg import (HermitianTuple, SpectralData, _admitted, _clustered, _invertible_shift,
                     as_complex_matrix, spectral_norm)


class GridTooLarge(SpectralError):
    """Full tensor interpolation grid would exceed the evaluation cap."""


class DegenerateDirection(SpectralError):
    """Line restriction lost its top-degree coefficient."""


class SingularTransform(SpectralError):
    pass


class BranchTrackingLost(SpectralError):
    """Root cluster near a tracked branch point is not uniquely identifiable."""


class SeparationTooSmall(SpectralError):
    """Cluster centers too close for stable Lagrange interpolation."""


class IndexOutOfRange(SpectralError):
    pass


class ZeroCoefficientOnCycle(SpectralError):
    pass


def _as_generator_stack(mats):
    """The generators stacked as ``(m, N, N)``, and N; none, generators of
    unequal shapes and non-square ones raise :class:`ValueError`."""
    gen = np.stack([np.asarray(a, dtype=np.complex128) for a in mats])
    if gen.ndim != 3 or gen.shape[1] != gen.shape[2]:
        raise ValueError("all pencil generators must be square and equal-sized")
    return gen, gen.shape[1]


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients ascending in degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(t, self.coeffs)

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly(np.zeros(1, dtype=np.complex128))
        d = self.coeffs[1:] * np.arange(1, self.coeffs.size)
        return UniPoly(d)


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> complex coefficient."""

    nvars: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for exps, c in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for nvars={self.nvars}")
            c = complex(c)
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "terms", clean)

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    @property
    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def constant_term(self) -> complex:
        return self.terms.get((0,) * self.nvars, 0.0 + 0.0j)

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at points of shape (..., nvars)."""
        pts = np.asarray(points, dtype=np.complex128)
        flat = pts.reshape(-1, self.nvars)
        out = np.zeros(flat.shape[0], dtype=np.complex128)
        for exps, c in self.terms.items():
            mono = np.full(flat.shape[0], c, dtype=np.complex128)
            for v, e in enumerate(exps):
                if e:
                    mono *= flat[:, v] ** e
            out += mono
        return out.reshape(pts.shape[:-1])


def coefficient_distance(p: MultiPoly, q: MultiPoly) -> float:
    """Max coefficient difference relative to max(1, largest coefficient)."""
    if p.nvars != q.nvars:
        raise ValueError("polynomials have a different number of variables")
    keys = set(p.terms) | set(q.terms)
    diff = max(
        (abs(p.terms.get(k, 0.0) - q.terms.get(k, 0.0)) for k in keys), default=0.0
    )
    scale = max(1.0, p.max_abs_coeff, q.max_abs_coeff)
    return diff / scale


def _det_chunked(stack):
    """Determinants of a (..., N, N) stack, bounded working memory."""
    flat = stack.reshape(-1, stack.shape[-2], stack.shape[-1])
    n = flat.shape[-1]
    chunk = max(1, int(4e6 / (n * n)))
    if flat.shape[0] <= chunk:
        dets = np.linalg.det(flat)
    else:
        dets = np.concatenate(
            [np.linalg.det(flat[i : i + chunk]) for i in range(0, flat.shape[0], chunk)]
        )
    return dets.reshape(stack.shape[:-2])


def _unit_root_grid(npts: int, m: int) -> np.ndarray:
    """The tensor grid of ``npts``-th roots of unity in m variables, (G, m)."""
    nodes = np.exp(2j * np.pi * np.arange(npts) / npts)
    axes = np.meshgrid(*([nodes] * m), indexing="ij")
    return np.stack([ax.reshape(-1) for ax in axes], axis=-1)


# Interpolated coefficients at or below this fraction of the largest one are
# rounding noise and are dropped.
_PRUNE_REL = 5e-12


def _interpolate_grid(vals, npts: int, m: int, degree: int) -> MultiPoly:
    """Polynomial of total degree <= ``degree`` from its values on the grid.

    Inverts the DFT axis by axis and prunes coefficients at or below
    ``_PRUNE_REL`` times the largest one.
    """
    coeff_grid = np.fft.fftn(vals.reshape((npts,) * m)) / npts**m
    cut = _PRUNE_REL * float(np.max(np.abs(coeff_grid)))
    terms = {}
    for idx in np.argwhere(np.abs(coeff_grid) > cut):
        exps = tuple(int(e) for e in idx)
        if sum(exps) <= degree:
            terms[exps] = complex(coeff_grid[tuple(idx)])
    return MultiPoly(nvars=m, terms=terms)


def pencil_charpoly(mats, grid_cap: int = 10**6) -> MultiPoly:
    """Expand ``det(x_1 A_1 + ... + x_m A_m - I)`` in full.

    Interpolates on the tensor grid of (N+1)-st roots of unity per axis and
    inverts the DFT axis by axis.  Limited to m <= 3 and (N+1)**m grid
    points below ``grid_cap``; use line restrictions beyond that.
    """
    gen, dim = _as_generator_stack(mats)
    m = gen.shape[0]
    npts = dim + 1
    if m > 3 or npts**m > grid_cap:
        raise GridTooLarge(f"grid of {npts}**{m} points exceeds the cap {grid_cap}")

    pencil = np.einsum("gm,mij->gij", _unit_root_grid(npts, m), gen)
    pencil -= np.eye(dim)
    return _interpolate_grid(_det_chunked(pencil), npts, m, dim)


# A line restriction whose leading coefficient is below this fraction of the
# largest one has lost degree: its direction meets the part at infinity.
_DEGENERATE_LEAD_REL = 1e-12


def restrict_pencil_to_line(mats, base, direction) -> UniPoly:
    """Univariate restriction ``q(t) = det(sum (base_i + t dir_i) A_i - I)``.

    Raises :class:`DegenerateDirection` when the leading coefficient
    (``det`` of the direction pencil) is negligible, which happens exactly
    when the chosen direction meets the variety's part at infinity.
    """
    gen, dim = _as_generator_stack(mats)
    base = np.asarray(base, dtype=np.complex128).ravel()
    direction = np.asarray(direction, dtype=np.complex128).ravel()
    if base.size != gen.shape[0] or direction.size != gen.shape[0]:
        raise ValueError("base and direction must have one entry per generator")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    # values at the N+1 unit roots, turned into ascending coefficients by one FFT
    nodes = np.exp(2j * np.pi * np.arange(dim + 1) / (dim + 1))
    m0 = np.einsum("m,mij->ij", base, gen) - np.eye(dim)
    m1 = np.einsum("m,mij->ij", direction, gen)
    coeffs = np.fft.fft(_det_chunked(m0 + nodes[:, None, None] * m1)) / (dim + 1)
    lead = abs(coeffs[-1])
    if lead < _DEGENERATE_LEAD_REL * float(np.max(np.abs(coeffs))):
        raise DegenerateDirection(
            f"leading coefficient {lead:.3e} is negligible for this direction"
        )
    return UniPoly(coeffs)


def transform_tuple_vars(p: MultiPoly, c) -> MultiPoly:
    """Substitute ``x -> C^T x``: the polynomial of the mixed tuple ``C A``.

    For an invertible mixing matrix C this satisfies
    ``pencil_charpoly(apply_tuple_map(A, C)) == transform_tuple_vars(pencil_charpoly(A), C)``.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (p.nvars, p.nvars):
        raise ValueError(f"mixing matrix must be {p.nvars}x{p.nvars}")
    if abs(np.linalg.det(c)) <= 1e-10:
        raise SingularTransform("mixing matrix is numerically singular")

    deg = p.total_degree
    pts = _unit_root_grid(deg + 1, p.nvars)
    return _interpolate_grid(p.evaluate(pts @ c), deg + 1, p.nvars, deg)


def branch_derivative(
    mats,
    spec,
    j: int,
    var: int = 1,
    eps: float = 1e-4,
):
    """Slope of the tracked x_1-root branch through ``1/lambda_j``.

    The pencil determinant of ``mats`` vanishes along a branch
    ``x_1 = b(x_var)`` with ``b(0) = 1/lambda_j`` (first generator assumed
    Hermitian with invertible spectrum, clusters given by ``spec``).  The
    root cluster of multiplicity ``l_j`` near ``1/lambda_j`` is tracked at
    ``x_var = +-eps, +-2 eps`` and the fourth-order central difference of
    its center is returned.  Cluster centers are used rather than implicit
    differentiation of the determinant because on a multiplicity-k variety
    both partial derivatives vanish, leaving 0/0; the x_1-roots themselves
    come from the eigenvalues of ``A_1^{-1} (I - s A_var)``, which keeps
    multiple roots semisimple.
    """
    gen, dim = _as_generator_stack(mats)
    m = gen.shape[0]
    if not 1 <= var < m:
        raise ValueError(f"direction variable index {var} out of range")
    if not 0 <= j < spec.n:
        raise ValueError(f"cluster index {j} out of range")
    lam = float(spec.eigenvalues[j])
    if lam == 0.0:
        raise ValueError("branch point 1/lambda undefined for a zero eigenvalue")
    mult = spec.multiplicities[j]
    target = 1.0 / lam

    steps = np.array([eps, -eps, 2.0 * eps, -2.0 * eps])
    stack = np.eye(dim) - steps[:, None, None] * gen[var][None, :, :]
    roots_rows = np.linalg.eigvals(np.linalg.solve(gen[0][None, :, :], stack))

    centers = []
    for s, roots in zip(steps, roots_rows):
        order = np.argsort(np.abs(roots - target))
        picked = roots[order[:mult]]
        d_in = float(np.abs(picked[-1] - target))
        if mult < roots.size:
            d_out = float(np.abs(roots[order[mult]] - target))
            if d_out < 3.0 * max(d_in, abs(s)):
                raise BranchTrackingLost(
                    f"root cluster near {target:.6g} not separated at step {s:+.1e}"
                )
        centers.append(complex(np.mean(picked)))
    c1, c1m, c2, c2m = centers
    return (8.0 * (c1 - c1m) - (c2 - c2m)) / (12.0 * eps)


def axis_derivative_closed_form(eigenvalues, j: int) -> float:
    """d/dx of ``prod_l (lambda_l x - 1)`` at ``x = 1/lambda_j``.

    Equals ``lambda_j * prod_{l != j} (lambda_l / lambda_j - 1)``: the slope
    of the reduced axis restriction at its j-th root when all roots are
    simple.
    """
    lams = np.asarray(eigenvalues, dtype=np.float64)
    if not 0 <= j < lams.size:
        raise ValueError("index out of range")
    others = np.delete(lams, j)
    return float(lams[j] * np.prod(others / lams[j] - 1.0))



def cluster_roots(roots, tol: float):
    """Single-linkage clustering of points in the complex plane.

    Two roots within distance ``tol`` land in the same cluster (transitively).
    Returns a list of arrays, ordered by cluster mean (real part, then
    imaginary part); their concatenation is a permutation of the input.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = np.atleast_1d(np.asarray(roots, dtype=np.complex128))
    if pts.size == 0:
        return []
    same = np.abs(pts[:, None] - pts[None, :]) <= tol
    grown = same @ same
    while not np.array_equal(grown, same):
        same, grown = grown, grown @ grown
    clusters = [pts[same[i]] for i in np.unique(np.argmax(same, axis=1))]
    clusters.sort(key=lambda c: (round(float(c.real.mean()), 12), round(float(c.imag.mean()), 12)))
    return clusters



def norm_scale(a) -> float:
    """max(1, ||a||_2): the scale factor used by relative tolerances."""
    return max(1.0, spectral_norm(a))


def eigendecompose_clustered(a, tol: Tolerances = DEFAULT) -> SpectralData:
    """Eigendecompose a Hermitian matrix and cluster its eigenvalues.

    Eigenvalues are sorted ascending and split greedily wherever a
    consecutive gap exceeds ``tol.gap_tol * max(1, ||a||)``.  A gap within a
    factor of 10 of that threshold (on either side) makes the clustering
    ill-defined and raises :class:`ClusterAmbiguity`.  ``a`` must pass the
    Hermitian check at ``tol.hermitian_rel``.
    """
    a = as_complex_matrix(a)
    _admitted(a[None], tol)
    return _clustered(*np.linalg.eigh(a), tol)


# Cluster centers closer than this, times max(1, ||a||), make the Lagrange
# product formula too ill-conditioned to serve as a cross-check.
_INTERPOLATION_SEP_REL = 1e-3


def projection_by_interpolation(a, spec: SpectralData, j: int) -> np.ndarray:
    """Spectral projection via the Lagrange product formula.

    Computes ``prod_{r != j} (a - lam_r I) / prod_{r != j} (lam_j - lam_r)``
    over the cluster centers.  This lives in the algebra generated by ``a``
    itself, unlike the eigenvector construction, and is used as a
    cross-check of ``spec.projections[j]``.  Raises
    :class:`SeparationTooSmall` when two centers are closer than
    ``_INTERPOLATION_SEP_REL * max(1, ||a||)``.
    """
    a = as_complex_matrix(a)
    if not 0 <= j < spec.n:
        raise ValueError(f"cluster index {j} out of range for n={spec.n}")
    lams = spec.eigenvalues
    scale = norm_scale(a)
    if spec.n > 1:
        seps = np.abs(lams[:, None] - lams[None, :])
        min_sep = float(np.min(seps[~np.eye(spec.n, dtype=bool)]))
        if min_sep < _INTERPOLATION_SEP_REL * scale:
            raise SeparationTooSmall(
                f"cluster separation {min_sep:.3e} below {_INTERPOLATION_SEP_REL * scale:.3e}"
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


def shift_to_invertible(tup: HermitianTuple, tol: Tolerances = DEFAULT):
    """Shift singular generators by ``||A|| + 1`` times the identity.

    Adding a real multiple of the identity changes neither the lattice of
    invariant subspaces nor any of the block relations the construction
    tests, so analyses run on the shifted tuple transfer back verbatim.
    Returns ``(shifted_tuple, shifts)`` where ``shifts[l]`` is the amount
    added to generator l (0.0 if untouched).
    """
    shifts = tuple(_invertible_shift(np.linalg.eigvalsh(a), tol) for a in tup.matrices)
    eye = np.eye(tup.dim)
    mats = tuple(a + mu * eye if mu else a for a, mu in zip(tup.matrices, shifts))
    return HermitianTuple(mats), shifts


def apply_tuple_map(tup: HermitianTuple, c) -> HermitianTuple:
    """New tuple with generators ``sum_s c[j, s] * A_s`` (real mixing matrix)."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (tup.m, tup.m):
        raise ValueError(f"mixing matrix must be {tup.m}x{tup.m}")
    mats = tuple(
        sum(c[j, s] * tup.matrices[s] for s in range(tup.m)) for j in range(tup.m)
    )
    return HermitianTuple(mats)


def realize_word(tup: HermitianTuple, spec: SpectralData, w: WordSpec) -> np.ndarray:
    """Multiply out the word as a matrix in the tuple's algebra."""
    if max(w.letters) > tup.m:
        raise IndexOutOfRange(f"letter {max(w.letters)} exceeds tuple length {tup.m}")
    if w.projections and max(w.projections) > spec.n:
        raise IndexOutOfRange(
            f"projection label {max(w.projections)} exceeds cluster count {spec.n}"
        )
    out = tup.matrices[w.letters[0] - 1]
    for jlab, s in zip(w.projections, w.letters[1:]):
        out = out @ spec.projections[jlab - 1] @ tup.matrices[s - 1]
    return out


def verify_first_order_identity(
    tup: HermitianTuple,
    spec: SpectralData,
    i: int,
    l: int,
) -> float:
    """Residual of the compression identity on one cluster.

    The compression of generator ``l`` (label in {2..m}) to the range of the
    i-th projection must be the scalar ``c = -lambda_i * d(branch)/dx``
    where the branch through ``1/lambda_i`` of the pair pencil is tracked
    numerically.  Returns ``||P_i A_l P_i - c P_i||_F``.
    """
    if not 2 <= l <= tup.m:
        raise IndexOutOfRange(f"generator label {l} out of range 2..{tup.m}")
    if not 0 <= i < spec.n:
        raise IndexOutOfRange(f"cluster index {i} out of range")
    a1 = tup.matrices[0]
    al = tup.matrices[l - 1]
    slope = branch_derivative([a1, al], spec, i)
    c = -float(spec.eigenvalues[i]) * slope
    p = spec.projections[i]
    return float(np.linalg.norm(p @ al @ p - c * p))


def verify_cycle_identity(bs: BlockStructure, cycle):
    """Check one cycle of block unitaries for unimodular-scalar defect.

    ``cycle`` is a sequence of distinct 0-based cluster indices.  Returns
    ``(theta, residual)`` where ``theta`` is the least-squares phase
    (argument of the normalized trace) and ``residual`` the Frobenius
    distance of the cycle product from ``exp(i theta) I``.  Raises
    :class:`ZeroCoefficientOnCycle` when a step of the cycle carries no
    block unitary.
    """
    cyc = tuple(int(j) for j in cycle)
    if len(set(cyc)) != len(cyc) or not cyc:
        raise ValueError("cycle must be a non-empty tuple of distinct indices")
    k = bs.k
    prod = np.eye(k, dtype=np.complex128)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if a == b:
            continue
        if (a, b) not in bs.pairs:
            raise ZeroCoefficientOnCycle(
                f"pair of clusters ({a + 1}, {b + 1}) carries no nonzero block"
            )
        prod = prod @ bs.u[(a, b)]
    return _unimodular_defect(prod)
