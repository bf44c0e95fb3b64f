"""Characteristic polynomials of matrix pencils and the k-th-power test.

The pencil of a tuple ``(A_1, ..., A_m)`` is ``x_1 A_1 + ... + x_m A_m - I``;
its determinant is a degree-N polynomial whose zero set is the (affine part
of the) joint spectrum of the tuple.  Everything in this module is built on
two numerically boring primitives:

* full expansion by tensor interpolation on roots of unity (inverse DFT per
  axis, radius 1, which keeps the Vandermonde system perfectly conditioned),
* line restriction ``t -> det(M0 + t M1)`` evaluated at N+1 unit roots and
  recovered by a single FFT.

The k-th-power certificate never factors anything symbolically: a degree-N
polynomial is a perfect k-th power of a degree-n polynomial exactly when a
generic line meets its zero set in n points of multiplicity k each, so the
test samples seeded random complex lines and inspects root multiplicity
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    BranchTrackingLost,
    DegenerateDirection,
    GridTooLarge,
    LineSamplingFailed,
    SingularTransform,
)

__all__ = [
    "UniPoly",
    "MultiPoly",
    "KPowerVerdict",
    "pencil_charpoly",
    "restrict_pencil_to_line",
    "cluster_roots",
    "kth_power_test",
    "transform_tuple_vars",
    "branch_derivative",
    "axis_derivative_closed_form",
    "coefficient_distance",
]


# --------------------------------------------------------------------------
# polynomial containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients ascending in degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        c = np.atleast_1d(np.asarray([leading], dtype=np.complex128))
        for r in np.atleast_1d(np.asarray(roots, dtype=np.complex128)):
            c = np.convolve(c, np.array([-r, 1.0], dtype=np.complex128))
        return cls(c)

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


# --------------------------------------------------------------------------
# pencil evaluation and interpolation
# --------------------------------------------------------------------------


def _as_generator_stack(mats):
    arrs = [np.asarray(a, dtype=np.complex128) for a in mats]
    dim = arrs[0].shape[0]
    for a in arrs:
        if a.shape != (dim, dim):
            raise ValueError("all pencil generators must be square and equal-sized")
    return np.stack(arrs), dim


def _det_chunked(stack, chunk=None):
    """Determinants of a (..., N, N) stack, bounded working memory."""
    flat = stack.reshape(-1, stack.shape[-2], stack.shape[-1])
    n = flat.shape[-1]
    if chunk is None:
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


def _interpolate_grid(vals, npts: int, m: int, degree: int, tol: Tolerances) -> MultiPoly:
    """Polynomial of total degree <= ``degree`` from its values on the grid.

    Inverts the DFT axis by axis and prunes coefficients at or below
    ``tol.prune_rel`` times the largest one.
    """
    coeff_grid = np.fft.fftn(vals.reshape((npts,) * m)) / npts**m
    cut = tol.prune_rel * float(np.max(np.abs(coeff_grid)))
    terms = {}
    for idx in np.argwhere(np.abs(coeff_grid) > cut):
        exps = tuple(int(e) for e in idx)
        if sum(exps) <= degree:
            terms[exps] = complex(coeff_grid[tuple(idx)])
    return MultiPoly(nvars=m, terms=terms)


def pencil_charpoly(mats, grid_cap: int = 10**6, tol: Tolerances = DEFAULT) -> MultiPoly:
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
    return _interpolate_grid(_det_chunked(pencil), npts, m, dim, tol)


def _line_coeff_rows(gen, dim, bases, dirs):
    """Coefficient rows of ``det(sum (a_i + t d_i) A_i - I)`` for many lines.

    bases, dirs: (L, m) complex arrays.  Returns (L, N+1) ascending
    coefficients obtained by FFT through the N+1 unit roots.
    """
    npts = dim + 1
    nodes = np.exp(2j * np.pi * np.arange(npts) / npts)
    m0 = np.einsum("lm,mij->lij", bases, gen)
    m0 -= np.eye(dim)
    m1 = np.einsum("lm,mij->lij", dirs, gen)
    stack = m0[:, None, :, :] + nodes[None, :, None, None] * m1[:, None, :, :]
    vals = _det_chunked(stack)
    return np.fft.fft(vals, axis=1) / npts


def restrict_pencil_to_line(mats, base, direction, tol: Tolerances = DEFAULT) -> UniPoly:
    """Univariate restriction ``q(t) = det(sum (base_i + t dir_i) A_i - I)``.

    Raises :class:`DegenerateDirection` when the leading coefficient
    (``det`` of the direction pencil) is negligible, which happens exactly
    when the chosen direction meets the variety's part at infinity.
    """
    gen, dim = _as_generator_stack(mats)
    base = np.asarray(base, dtype=np.complex128).reshape(1, -1)
    direction = np.asarray(direction, dtype=np.complex128).reshape(1, -1)
    if base.shape[1] != gen.shape[0] or direction.shape[1] != gen.shape[0]:
        raise ValueError("base and direction must have one entry per generator")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    coeffs = _line_coeff_rows(gen, dim, base, direction)[0]
    lead = abs(coeffs[-1])
    if lead < tol.degenerate_lead_rel * float(np.max(np.abs(coeffs))):
        raise DegenerateDirection(
            f"leading coefficient {lead:.3e} is negligible for this direction"
        )
    return UniPoly(coeffs)


# --------------------------------------------------------------------------
# roots and clusters
# --------------------------------------------------------------------------


def _single_linkage(pts, tol: float):
    """Single-linkage clusters of the complex points ``pts`` at distance ``tol``.

    The reflexive ``<= tol`` adjacency is closed transitively by repeated
    boolean squaring.  Returns ``(clusters, spread)``: ascending index
    arrays ordered by cluster mean (real part, then imaginary part, each
    rounded to 12 decimals), and the largest distance between two points of
    one cluster.
    """
    dists = np.abs(pts[:, None] - pts[None, :])
    same = (dists <= tol) | np.eye(pts.size, dtype=bool)
    grown = same @ same
    while not np.array_equal(grown, same):
        same, grown = grown, grown @ grown
    clusters = [np.flatnonzero(same[i]) for i in np.unique(np.argmax(same, axis=1))]
    clusters.sort(key=lambda idx: (round(float(pts[idx].real.sum()) / idx.size, 12),
                                   round(float(pts[idx].imag.sum()) / idx.size, 12)))
    return clusters, float(np.max(dists, where=same, initial=0.0))


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
    return [pts[idx] for idx in _single_linkage(pts, tol)[0]]


# --------------------------------------------------------------------------
# k-th power certificate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KPowerVerdict:
    """Outcome of the sampled perfect-power test.

    ``per_line_clusters`` records, per sampled line, the integer seed it was
    drawn from, the cluster sizes found, and the worst intra-cluster spread.
    """

    is_kth_power: bool
    k: int
    n: int
    per_line_clusters: tuple
    worst_spread: float
    failure_reason: str = ""


def _draw_line(rng, m):
    a = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    d = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return a, d


# A direction pencil this ill-conditioned effectively meets the variety's
# part at infinity; the line is redrawn, as for a vanishing leading
# coefficient in the interpolation route.
_DIRECTION_COND_CAP = 1e8


def _line_roots_via_pencil(gen, dim, bases, dirs):
    """Roots of ``det(sum (a_i + t d_i) A_i - I)`` for a batch of lines.

    Computed as eigenvalues of ``-M1^{-1} M0`` rather than from polynomial
    coefficients: a multiplicity-k root of a pencil that splits into k
    identical blocks is a semisimple eigenvalue here, so rounding perturbs
    it linearly instead of by eps**(1/k) as a root finder working from the
    coefficients would.  Returns ``None`` rows for lines whose direction
    pencil is too ill-conditioned to trust.
    """
    m0 = np.einsum("lm,mij->lij", bases, gen)
    m0 -= np.eye(dim)
    m1 = np.einsum("lm,mij->lij", dirs, gen)
    conds = np.linalg.cond(m1)
    good = np.isfinite(conds) & (conds < _DIRECTION_COND_CAP)
    out = [None] * bases.shape[0]
    if np.any(good):
        roots = np.linalg.eigvals(-np.linalg.solve(m1[good], m0[good]))
        for row, li in enumerate(np.flatnonzero(good)):
            out[li] = roots[row]
    return out


def kth_power_test(
    mats,
    k: int,
    n: int,
    lines: int = None,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> KPowerVerdict:
    """Decide whether the pencil determinant is a perfect k-th power.

    Samples ``lines`` random complex lines (seeded, sub-seed per line fixed
    up front so the outcome is independent of evaluation order), restricts
    the pencil to each, and demands that every line show root clusters whose
    sizes are all multiples of k, with intra-cluster spread below the cluster
    tolerance.  ``prod f_j^e_j`` is a k-th power exactly when k divides every
    ``e_j``, so a base with repeated factors passes.
    """
    gen, dim = _as_generator_stack(mats)
    if k < 1 or n < 1 or n * k != dim:
        raise ValueError(f"need n*k == {dim}, got n={n}, k={k}")
    if lines is None:
        lines = tol.lines
    if lines < 4:
        raise ValueError("need at least 4 sample lines")

    m = gen.shape[0]
    master = np.random.default_rng(seed)
    line_seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=lines)]

    rngs = [np.random.default_rng(s) for s in line_seeds]
    draws = [_draw_line(r, m) for r in rngs]
    bases = np.stack([a for a, _ in draws])
    dirs = np.stack([d for _, d in draws])
    roots_rows = _line_roots_via_pencil(gen, dim, bases, dirs)

    for li, row in enumerate(roots_rows):
        if row is not None:
            continue
        for _ in range(tol.line_retries):
            a, d = _draw_line(rngs[li], m)
            redraw = _line_roots_via_pencil(gen, dim, a[None, :], d[None, :])[0]
            if redraw is not None:
                roots_rows[li] = redraw
                break
        else:
            raise LineSamplingFailed(
                f"line {li} stayed degenerate after {tol.line_retries} redraws"
            )

    records = []
    ok = True
    reason = ""
    worst_spread = 0.0
    for li in range(lines):
        roots = roots_rows[li]
        ctol = tol.cluster_rel * (1.0 + float(np.max(np.abs(roots))))
        clusters, spread = _single_linkage(roots, ctol)
        sizes = tuple(int(c.size) for c in clusters)
        worst_spread = max(worst_spread, spread)
        records.append((line_seeds[li], sizes, spread))
        line_ok = all(s % k == 0 for s in sizes) and spread <= ctol
        if not line_ok and ok:
            ok = False
            reason = f"line {li}: cluster sizes {sizes}, spread {spread:.3e}"
    return KPowerVerdict(
        is_kth_power=ok,
        k=k,
        n=n,
        per_line_clusters=tuple(records),
        worst_spread=worst_spread,
        failure_reason=reason,
    )


# --------------------------------------------------------------------------
# variable transformation and branch tracking
# --------------------------------------------------------------------------


def transform_tuple_vars(p: MultiPoly, c, tol: Tolerances = DEFAULT) -> MultiPoly:
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
    return _interpolate_grid(p.evaluate(pts @ c), deg + 1, p.nvars, deg, tol)


def branch_derivative(
    mats,
    spec,
    j: int,
    var: int = 1,
    eps: float = None,
    tol: Tolerances = DEFAULT,
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
    if eps is None:
        eps = tol.branch_eps
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
