"""Characteristic polynomials of matrix pencils and the k-th-power test.

The pencil of a tuple ``(A_1, ..., A_m)`` is ``x_1 A_1 + ... + x_m A_m - I``;
its determinant is a degree-N polynomial whose zero set is the (affine part
of the) joint spectrum of the tuple.

The k-th-power certificate never factors anything symbolically: a degree-N
polynomial is a perfect k-th power of a degree-n polynomial exactly when a
generic line meets its zero set in n points of multiplicity k each, so the
test samples seeded random complex lines and inspects root multiplicity
profiles.  The lines pass through the origin: the polynomial is the affine
chart of the homogeneous ``det(x_1 A_1 + ... + x_m A_m - x_0 I)``, and on
``x = t q`` it reads ``det(t (q . A) - I)``, whose roots are ``1/lambda``
for the eigenvalues ``lambda`` of ``q . A``.  A zero eigenvalue is the root
at infinity (the ``x_0`` factor), and ``det(-I) = +-1`` keeps the origin
off every component, so a generic such line separates the components just
as a generic affine line does.  The test clusters the eigenvalues
themselves; no polynomial coefficient is ever formed on that route.

The coefficient route is the reference the tests compare against: full
expansion by tensor interpolation on roots of unity (:func:`pencil_charpoly`,
inverse DFT per axis, radius 1, which keeps the Vandermonde system perfectly
conditioned), line restriction ``t -> det(M0 + t M1)`` evaluated at N+1 unit
roots and recovered by a single FFT (:func:`restrict_pencil_to_line`), and
the variable transformation law (:func:`transform_tuple_vars`).  Its
thresholds are the module constants below, not :class:`Tolerances` fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    BranchTrackingLost,
    DegenerateDirection,
    GridTooLarge,
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
    "kth_power_batch",
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
    base = np.asarray(base, dtype=np.complex128).reshape(1, -1)
    direction = np.asarray(direction, dtype=np.complex128).reshape(1, -1)
    if base.shape[1] != gen.shape[0] or direction.shape[1] != gen.shape[0]:
        raise ValueError("base and direction must have one entry per generator")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    coeffs = _line_coeff_rows(gen, dim, base, direction)[0]
    lead = abs(coeffs[-1])
    if lead < _DEGENERATE_LEAD_REL * float(np.max(np.abs(coeffs))):
        raise DegenerateDirection(
            f"leading coefficient {lead:.3e} is negligible for this direction"
        )
    return UniPoly(coeffs)


# --------------------------------------------------------------------------
# roots and clusters
# --------------------------------------------------------------------------


def _closure(pts, tol):
    """Single-linkage relation of each row of complex points at distance ``tol``.

    ``pts`` has shape ``(..., N)`` and ``tol`` one entry per row.  The
    reflexive ``<= tol`` adjacency of every row is closed transitively by
    batched boolean squaring.  Returns ``(dists, same)``: the pairwise
    distances and the closed relation, both ``(..., N, N)``.
    """
    dists = np.abs(pts[..., :, None] - pts[..., None, :])
    same = (dists <= np.asarray(tol)[..., None, None]) | np.eye(pts.shape[-1], dtype=bool)
    grown = same @ same
    while not np.array_equal(grown, same):
        same, grown = grown, grown @ grown
    return dists, same


def _ordered_clusters(pts, same):
    """The classes of one closed relation as ascending index arrays, ordered
    by cluster mean (real part, then imaginary part, each rounded to 12
    decimals)."""
    clusters = [np.flatnonzero(same[i]) for i in np.unique(np.argmax(same, axis=1))]
    clusters.sort(key=lambda idx: (round(float(pts[idx].real.sum()) / idx.size, 12),
                                   round(float(pts[idx].imag.sum()) / idx.size, 12)))
    return clusters


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
    return [pts[idx] for idx in _ordered_clusters(pts, _closure(pts, tol)[1])]


# --------------------------------------------------------------------------
# k-th power certificate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KPowerVerdict:
    """Outcome of the sampled perfect-power test.

    ``per_line_clusters`` records, per sampled line, ``(cluster_sizes,
    spread)``: the eigenvalue cluster sizes found and the worst
    intra-cluster spread.  The pencil's seed pins every line (see
    :func:`kth_power_batch`).
    """

    is_kth_power: bool
    k: int
    n: int
    per_line_clusters: tuple
    worst_spread: float
    failure_reason: str = ""


def _draw_directions(rng, lines, m):
    """``lines`` random complex directions in m variables, ``(lines, m)``
    with standard complex Gaussian entries, from one call of ``rng``."""
    z = rng.standard_normal((2, lines, m))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


# Working-set budget of the batched power test: pencils are cut into chunks
# of at most this many (line, matrix entry) pairs, so the stacked operands
# stay small whatever the number of pencils.
_BATCH_ENTRIES = 20_000


def _verdict_chunk(gens, k, n, seeds, tol):
    """Power-test verdicts for one chunk of pencils (see :func:`kth_power_batch`)."""
    m, dim, lines = gens.shape[1], gens.shape[-1], tol.lines
    dirs = np.stack([_draw_directions(np.random.default_rng(seed), lines, m) for seed in seeds])
    # A multiplicity-k component of a pencil that splits into k identical
    # blocks gives a semisimple eigenvalue of q . A, so rounding moves it
    # linearly, not by eps**(1/k) as a root finder on coefficients would.
    lams = np.linalg.eigvals(np.einsum("plm,pmij->plij", dirs, gens))

    ctol = tol.cluster_rel * (1.0 + np.max(np.abs(lams), axis=-1))
    dists, same = _closure(lams, ctol)
    spreads = np.max(dists, where=same, initial=0.0, axis=(-2, -1))
    # Row sums of the closed relation are the cluster sizes of its points,
    # so a line needs the mean-ordered clusters only when they differ.
    sizes = same.sum(axis=-1)
    uniform = sizes.min(axis=-1) == sizes.max(axis=-1)
    line_ok = np.all(sizes % k == 0, axis=-1) & (spreads <= ctol)

    verdicts = []
    for p in range(len(seeds)):
        records = []
        for li in range(lines):
            if uniform[p, li]:
                size = int(sizes[p, li, 0])
                profile = (size,) * (dim // size)
            else:
                clusters = _ordered_clusters(lams[p, li], same[p, li])
                profile = tuple(int(c.size) for c in clusters)
            records.append((profile, float(spreads[p, li])))
        bad = np.flatnonzero(~line_ok[p])
        reason = ""
        if bad.size:
            profile, spread = records[bad[0]]
            reason = f"line {bad[0]}: cluster sizes {profile}, spread {spread:.3e}"
        verdicts.append(
            KPowerVerdict(
                is_kth_power=not bad.size,
                k=k,
                n=n,
                per_line_clusters=tuple(records),
                worst_spread=float(np.max(spreads[p])),
                failure_reason=reason,
            )
        )
    return verdicts


def kth_power_batch(
    gens,
    k: int,
    n: int,
    seeds,
    tol: Tolerances = DEFAULT,
) -> list:
    """Decide, for each pencil of a stack, whether its determinant is a
    perfect k-th power.

    ``gens`` holds P pencils of m generators each, shape ``(P, m, N, N)``,
    and ``seeds`` one seed per pencil.  Each pencil is restricted to
    ``tol.lines`` random complex lines ``x = t q`` through the origin, all
    directions ``q`` drawn in one call of a generator seeded with its seed,
    so the outcome depends neither on evaluation order nor on the rest of
    the stack.  On every line the eigenvalues of ``q . A`` (the reciprocal
    roots, zero for the root at infinity) must form clusters whose sizes are
    all multiples of k, with intra-cluster spread below the cluster
    tolerance.  ``prod f_j^e_j`` is a k-th power exactly when k divides
    every ``e_j``, so a base with repeated factors passes.  Returns one
    :class:`KPowerVerdict` per pencil.
    """
    gens = np.asarray(gens, dtype=np.complex128)
    if gens.ndim != 4 or gens.shape[-1] != gens.shape[-2]:
        raise ValueError("pencils must be stacked as (P, m, N, N)")
    dim = gens.shape[-1]
    if len(seeds) != gens.shape[0]:
        raise ValueError("need one seed per pencil")
    if k < 1 or n < 1 or n * k != dim:
        raise ValueError(f"need n*k == {dim}, got n={n}, k={k}")
    chunk = max(1, _BATCH_ENTRIES // (tol.lines * dim * dim))
    verdicts = []
    for start in range(0, len(seeds), chunk):
        verdicts += _verdict_chunk(
            gens[start : start + chunk], k, n, seeds[start : start + chunk], tol
        )
    return verdicts


def kth_power_test(
    mats,
    k: int,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> KPowerVerdict:
    """Decide whether the pencil determinant of ``mats`` is a perfect k-th
    power: :func:`kth_power_batch` on a stack of one pencil."""
    gen, _ = _as_generator_stack(mats)
    return kth_power_batch(gen[None], k, n, [seed], tol=tol)[0]


# --------------------------------------------------------------------------
# variable transformation and branch tracking
# --------------------------------------------------------------------------


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
