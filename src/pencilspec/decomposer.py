"""Constructive splitting of a passing tuple into k identical copies.

Pipeline, in the eigenbasis of the first generator (n clusters of size k):

1. slice every other generator into an n x n grid of k x k blocks;
2. factor each nonzero block as ``c * u`` with ``c >= 0`` and ``u`` unitary
   (diagonal blocks must be real scalars);
3. unify layers: one shared unitary per index pair, phases absorbed into
   the per-generator scalars;
4. close the pair set: ``u_st := u_si u_it`` whenever both factors exist,
   then verify every 3-cycle multiplies to a unimodular scalar;
5. partition the cluster indices into the lattices of the closed pair set;
6. assemble the block unitary (anchor row of each partition block), which
   commutes with the diagonalized first generator and turns every k x k
   block of every generator into a scalar;
7. gather the k interleaved invariant subspaces with a permutation and
   read off the reduced n x n tuple.

Structural failures raise typed errors naming the violated relation; a
tuple that does not split never produces a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    CycleInconsistency,
    LayerInconsistency,
    NotUnitaryScalar,
    PartitionInconsistency,
    ScalarizationFailed,
    SpectrumPatternViolation,
)
from .linalg import HermitianTuple, SpectralData, norm_scale, prepare_tuple

__all__ = [
    "BlockStructure",
    "DecompositionResult",
    "extract_block_structure",
    "factor_block",
    "unify_layers",
    "extend_closure",
    "partition_indices",
    "build_block_unitary",
    "decompose",
    "verify_decomposition",
]


@dataclass(frozen=True)
class BlockStructure:
    """Factored k x k block data of all generators beyond the first.

    ``c[l-2, i, j]`` is the block scalar of generator l on cluster pair
    (i, j); after layer unification only the chosen layer's off-diagonal
    scalar is guaranteed real non-negative, the others are complex with the
    cross-layer phase absorbed.  ``u[(i, j)]`` is the shared block unitary
    for pairs in ``pairs`` (symmetric, ``u[(j, i)] = u[(i, j)]*``).
    ``layer_choice[(i, j)]`` records which generator donated the unitary.
    """

    n: int
    k: int
    m: int
    c: np.ndarray
    u: dict
    pairs: frozenset
    layer_choice: dict


def extract_block_structure(tup: HermitianTuple, spec: SpectralData) -> np.ndarray:
    """k x k block grid of every generator beyond the first, in the ordered
    eigenbasis of the first one.

    Returns an array of shape (m-1, n, n, k, k).  Raises
    :class:`SpectrumPatternViolation` unless all clusters share one size.
    """
    mults = set(spec.multiplicities)
    if len(mults) != 1:
        raise SpectrumPatternViolation(
            f"cluster sizes {list(spec.multiplicities)} are not uniform"
        )
    k = mults.pop()
    n = spec.n
    v = spec.rotation()
    out = np.empty((tup.m - 1, n, n, k, k), dtype=np.complex128)
    for li, a in enumerate(tup.matrices[1:]):
        rot = v @ a @ v.conj().T
        out[li] = rot.reshape(n, k, n, k).transpose(0, 2, 1, 3)
    return out


def factor_block(b, tol: float):
    """Split a k x k block into ``(c, u)`` with ``c >= 0`` and ``u`` unitary.

    Returns ``(0.0, None)`` for a numerically zero block.  Raises
    :class:`NotUnitaryScalar` when ``b b*`` is not a scalar matrix within
    ``tol * ||b b*||``, i.e. the block cannot come from a tuple that splits
    into identical copies.
    """
    b = np.asarray(b, dtype=np.complex128)
    k = b.shape[0]
    if float(np.linalg.norm(b)) <= tol:
        return 0.0, None
    bb = b @ b.conj().T
    s = float(np.real(np.trace(bb))) / k
    defect = float(np.linalg.norm(bb - s * np.eye(k)))
    if defect > tol * float(np.linalg.norm(bb)) or s < tol * tol:
        raise NotUnitaryScalar(
            f"block is not scalar-times-unitary: ||bb* - sI|| = {defect:.3e}",
            residual=defect,
        )
    c = float(np.sqrt(s))
    return c, b / c


def _phase_match(u_ref, u_other, k):
    """Least-squares unimodular scalar aligning u_other with u_ref."""
    sigma = complex(np.trace(u_ref.conj().T @ u_other)) / k
    resid = float(np.linalg.norm(u_other - sigma * u_ref))
    return sigma, resid


def unify_layers(blocks, scales, tol: Tolerances = DEFAULT) -> BlockStructure:
    """Factor all blocks and share one unitary per index pair across layers.

    ``blocks`` is the (m-1, n, n, k, k) grid from
    :func:`extract_block_structure`; ``scales`` the per-layer
    ``max(1, ||A_l||)`` factors (the pipeline passes unit-scale generators,
    so these are of order one).  For each pair the layer with the largest
    block scalar donates the unitary (ties to the lowest layer); every
    other nonzero layer must match it up to a unimodular scalar, which is
    absorbed into that layer's ``c``.  A mismatch beyond tolerance raises
    :class:`LayerInconsistency`: the cross-layer 2-cycle relation fails and
    the tuple cannot split into identical copies.
    """
    nlayers, n, _, k, _ = blocks.shape
    if len(scales) != nlayers:
        raise ValueError("need one scale per layer")
    c = np.zeros((nlayers, n, n), dtype=np.complex128)
    u = {}
    pairs = set()
    layer_choice = {}

    for li in range(nlayers):
        for i in range(n):
            b = blocks[li, i, i]
            cd = complex(np.trace(b)) / k
            limit = tol.structural_tol * scales[li]
            defect = float(np.linalg.norm(b - cd * np.eye(k)))
            if defect > limit or abs(cd.imag) > limit:
                raise NotUnitaryScalar(
                    f"diagonal block ({i + 1},{i + 1}) of generator {li + 2} "
                    f"is not a real scalar: defect {defect:.3e}",
                    block=(li + 2, i, i),
                    residual=defect,
                )
            c[li, i, i] = cd.real

    for i in range(n):
        for j in range(i + 1, n):
            factored = []
            for li in range(nlayers):
                cf, uf = factor_block(blocks[li, i, j], tol.structural_tol * scales[li])
                factored.append((cf, uf))
            present = [li for li, (cf, _) in enumerate(factored) if cf > 0.0]
            if not present:
                continue
            chosen = max(present, key=lambda li: (factored[li][0], -li))
            u_shared = factored[chosen][1]
            for li in present:
                cf, uf = factored[li]
                if li == chosen:
                    c[li, i, j] = cf
                else:
                    sigma, resid = _phase_match(u_shared, uf, k)
                    if resid > tol.structural_tol:
                        raise LayerInconsistency(
                            f"generators {chosen + 2} and {li + 2} disagree on pair "
                            f"({i + 1},{j + 1}) beyond a phase: residual {resid:.3e}",
                            pair=(i, j),
                            layer=li + 2,
                            residual=resid,
                        )
                    c[li, i, j] = cf * sigma
                c[li, j, i] = np.conj(c[li, i, j])
            pairs.add((i, j))
            pairs.add((j, i))
            u[(i, j)] = u_shared
            u[(j, i)] = u_shared.conj().T
            layer_choice[(i, j)] = chosen + 2
            layer_choice[(j, i)] = chosen + 2

    return BlockStructure(
        n=n, k=k, m=nlayers + 1, c=c, u=u, pairs=frozenset(pairs), layer_choice=layer_choice
    )


def extend_closure(bs: BlockStructure, tol: Tolerances = DEFAULT) -> BlockStructure:
    """Close the pair set under ``u_st := u_si u_it`` and verify all cycles.

    New pairs are derived through the lowest available pivot and
    cross-checked against every other pivot; after the set stabilizes,
    every 3-cycle inside it must multiply to a unimodular scalar within
    tolerance (longer cycles telescope through 3-cycles, so this check is
    complete).  Violations raise :class:`CycleInconsistency` naming the
    offending cycle with 0-based cluster indices.
    """
    n, k = bs.n, bs.k
    pairs = set(bs.pairs)
    u = dict(bs.u)

    changed = True
    while changed:
        changed = False
        for i in range(n):
            neighbors = sorted(j for j in range(n) if (i, j) in pairs)
            for s, t in combinations(neighbors, 2):
                if (s, t) in pairs:
                    continue
                u_st = u[(s, i)] @ u[(i, t)]
                for p in range(n):
                    if p == i or (s, p) not in pairs or (p, t) not in pairs:
                        continue
                    _, resid = _phase_match(u_st, u[(s, p)] @ u[(p, t)], k)
                    if resid > tol.structural_tol:
                        raise CycleInconsistency(
                            f"pair ({s + 1},{t + 1}) derived through pivots "
                            f"{i + 1} and {p + 1} disagrees: residual {resid:.3e}",
                            cycle=(s, i, t, p),
                            residual=resid,
                        )
                pairs.add((s, t))
                pairs.add((t, s))
                u[(s, t)] = u_st
                u[(t, s)] = u_st.conj().T
                changed = True

    for i, j, l in combinations(range(n), 3):
        if (i, j) in pairs and (j, l) in pairs and (l, i) in pairs:
            prod = u[(i, j)] @ u[(j, l)] @ u[(l, i)]
            tr = complex(np.trace(prod)) / k
            theta = float(np.angle(tr)) if tr != 0 else 0.0
            resid = float(np.linalg.norm(prod - np.exp(1j * theta) * np.eye(k)))
            if resid > tol.structural_tol:
                raise CycleInconsistency(
                    f"cycle through clusters ({i + 1},{j + 1},{l + 1}) is not a "
                    f"unimodular scalar: residual {resid:.3e}",
                    cycle=(i, j, l),
                    residual=resid,
                )

    return BlockStructure(
        n=n,
        k=k,
        m=bs.m,
        c=bs.c,
        u=u,
        pairs=frozenset(pairs),
        layer_choice=dict(bs.layer_choice),
    )


def partition_indices(pairs, n: int):
    """Partition {0..n-1} into the lattices of a closed pair set.

    Greedy, as the closure structure dictates: the smallest index carrying
    any off-diagonal pair collects all its partners as one block; indices
    in no pair become singletons.  Raises
    :class:`PartitionInconsistency` if the set is not a disjoint union of
    complete lattices (unreachable after :func:`extend_closure`).
    """
    remaining = set(range(n))
    out = []
    while remaining:
        i0 = min(remaining)
        partners = {j for (i, j) in pairs if i == i0}
        if not partners:
            out.append((i0,))
            remaining.remove(i0)
            continue
        block = {i0} | partners
        if not block <= remaining:
            raise PartitionInconsistency(
                f"index block {sorted(block)} overlaps an earlier block"
            )
        for a in block:
            if {b for (x, b) in pairs if x == a} != block - {a}:
                raise PartitionInconsistency(
                    f"pair set is not a full lattice on {sorted(block)}"
                )
        out.append(tuple(sorted(block)))
        remaining -= block
    return tuple(out)


def _anchor_map(partition):
    anchor = {}
    for block in partition:
        a = max(block)
        for i in block:
            anchor[i] = a
    return anchor


def _scalarize_layer(ul, rotated, n, k):
    """Conjugate one generator and compress each k x k block to a scalar.

    Returns (scalar matrix, worst off-scalar Frobenius defect, worst block).
    """
    s = ul @ rotated @ ul.conj().T
    view = s.reshape(n, k, n, k).transpose(0, 2, 1, 3)
    scal = np.trace(view, axis1=2, axis2=3) / k
    defects = view - scal[:, :, None, None] * np.eye(k)
    norms = np.linalg.norm(defects, axis=(2, 3))
    worst = np.unravel_index(int(np.argmax(norms)), norms.shape)
    return scal, float(norms[worst]), worst


def build_block_unitary(
    bs: BlockStructure,
    partition,
    blocks=None,
    scales=None,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Assemble the block unitary from the closed structure.

    Cluster i contributes the diagonal k x k entry ``u[(anchor, i)]``
    (identity on anchors and singletons), where anchor is the largest
    index of i's partition block.  The result is unitary and commutes
    exactly with the diagonalized first generator.  When the raw
    ``blocks`` grid and layer ``scales`` are supplied, conjugation is
    verified to make every block scalar within tolerance; a violation
    raises :class:`ScalarizationFailed`.
    """
    n, k = bs.n, bs.k
    anchor = _anchor_map(partition)
    udiag = np.zeros((n * k, n * k), dtype=np.complex128)
    for i in range(n):
        piece = np.eye(k, dtype=np.complex128) if anchor[i] == i else bs.u[(anchor[i], i)]
        udiag[i * k : (i + 1) * k, i * k : (i + 1) * k] = piece

    if blocks is not None:
        nlayers = blocks.shape[0]
        if scales is None:
            scales = [1.0] * nlayers
        for li in range(nlayers):
            rot = blocks[li].transpose(0, 2, 1, 3).reshape(n * k, n * k)
            _, worst, where = _scalarize_layer(udiag, rot, n, k)
            if worst > tol.scalar_block_tol * scales[li]:
                raise ScalarizationFailed(
                    f"generator {li + 2} block ({where[0] + 1},{where[1] + 1}) stays "
                    f"non-scalar after conjugation: defect {worst:.3e}",
                    block=(li + 2,) + where,
                    residual=worst,
                )
    return udiag


@dataclass(frozen=True)
class DecompositionResult:
    """Output of :func:`decompose`.

    The combined transform ``P U V`` (permutation, block unitary,
    eigenbasis rotation) carries every original generator onto the direct
    sum of k copies of the reduced tuple, up to ``residual`` in Frobenius
    norm.  ``permutation[new] = old`` gathers the k interleaved invariant
    subspaces.  ``reduced`` and ``eigenvalues`` are in the input's units;
    ``shifts`` records, also in the input's units, the scalar added to each
    singular generator before analysis (already subtracted from ``reduced``).
    """

    n: int
    k: int
    eigenbasis: np.ndarray
    block_unitary: np.ndarray
    permutation: np.ndarray
    reduced: HermitianTuple
    eigenvalues: np.ndarray
    partition: tuple
    shifts: tuple
    residual: float

    def transform(self) -> np.ndarray:
        p = np.eye(self.eigenbasis.shape[0], dtype=np.complex128)[self.permutation]
        return p @ self.block_unitary @ self.eigenbasis


def _interleave_permutation(n, k):
    # new index s*n + i picks up old index i*k + s: subspace s collects the
    # s-th vector of every cluster.
    old_of_new = np.empty(n * k, dtype=np.intp)
    for s in range(k):
        for i in range(n):
            old_of_new[s * n + i] = i * k + s
    return old_of_new


def _hermitized(a):
    return (a + a.conj().T) / 2.0


def decompose(tup: HermitianTuple, k: int, tol: Tolerances = DEFAULT) -> DecompositionResult:
    """Run the whole (deterministic) splitting pipeline.

    The caller is expected to have run the condition analysis; only the
    cheap spectral precondition is re-validated here.  The pipeline runs on
    the prepared (unit-scale, invertible) tuple; the reduced tuple, the
    eigenvalues and the shifts are returned in the input's units.
    """
    prep = prepare_tuple(tup, k, tol=tol)
    shifted, spec, n = prep.tup, prep.spec, prep.spec.n
    v = spec.rotation()
    layer_scales = [norm_scale(a) for a in shifted.matrices[1:]]

    if k == 1:
        udiag = np.eye(tup.dim, dtype=np.complex128)
        partition = tuple((i,) for i in range(n))
        unit_reduced = [_hermitized(v @ a @ v.conj().T) for a in shifted.matrices]
    else:
        blocks = extract_block_structure(shifted, spec)
        bs = unify_layers(blocks, layer_scales, tol=tol)
        bs = extend_closure(bs, tol=tol)
        partition = partition_indices(bs.pairs, n)
        udiag = build_block_unitary(bs, partition, blocks=blocks, scales=layer_scales, tol=tol)
        unit_reduced = [np.diag(spec.eigenvalues).astype(np.complex128)]
        for a in shifted.matrices[1:]:
            scal, _, _ = _scalarize_layer(udiag, v @ a @ v.conj().T, n, k)
            unit_reduced.append(_hermitized(scal))

    reduced = HermitianTuple(tuple(
        c * b - mu * np.eye(n) for b, c, mu in zip(unit_reduced, prep.scales, prep.shifts)
    ))
    perm = _interleave_permutation(n, k)
    t = np.eye(tup.dim, dtype=np.complex128)[perm] @ udiag @ v
    residual = max(
        float(np.linalg.norm(t @ a @ t.conj().T - np.kron(np.eye(k), b)))
        for a, b in zip(tup.matrices, reduced.matrices)
    )
    # an all-zero tuple, like a zero generator, has scale 1
    bound = tol.residual_tol * (tup.max_norm() or 1.0)
    if residual > bound:
        raise ScalarizationFailed(
            f"final residual {residual:.3e} exceeds {bound:.3e}", residual=residual
        )
    return DecompositionResult(
        n=n,
        k=k,
        eigenbasis=v,
        block_unitary=udiag,
        permutation=perm,
        reduced=reduced,
        eigenvalues=spec.eigenvalues * prep.scales[0] - prep.shifts[0],
        partition=partition,
        shifts=prep.shifts,
        residual=residual,
    )


def verify_decomposition(tup: HermitianTuple, result: DecompositionResult, tol: Tolerances = DEFAULT) -> dict:
    """Independent audit of a decomposition: recomputes every invariant.

    Never raises; returns a report with per-generator residuals, unitarity
    defects, the commutation defect with the diagonalized first generator,
    and an overall ``ok`` flag at the standard tolerances.
    """
    n, k = result.n, result.k
    t = result.transform()
    v = result.eigenbasis
    udiag = result.block_unitary
    dim = tup.dim

    residuals = [
        float(np.linalg.norm(t @ a @ t.conj().T - np.kron(np.eye(k), b)))
        for a, b in zip(tup.matrices, result.reduced.matrices)
    ]
    d1 = v @ tup.matrices[0] @ v.conj().T
    report = {
        "residuals": residuals,
        "max_residual": max(residuals),
        "unitarity_eigenbasis": float(np.linalg.norm(v @ v.conj().T - np.eye(dim))),
        "unitarity_block": float(np.linalg.norm(udiag @ udiag.conj().T - np.eye(dim))),
        "unitarity_transform": float(np.linalg.norm(t @ t.conj().T - np.eye(dim))),
        "commutation_defect": float(np.linalg.norm(udiag @ d1 - d1 @ udiag)),
        "b1_diagonal_defect": float(
            np.linalg.norm(result.reduced.matrices[0] - np.diag(result.eigenvalues))
        ),
    }
    max_norm = tup.max_norm() or 1.0
    report["ok"] = bool(
        report["max_residual"] <= tol.residual_tol * max_norm
        and report["unitarity_transform"] <= tol.unitary_rel * dim
        and report["commutation_defect"] <= 1e-9 * max_norm
        and report["b1_diagonal_defect"] <= tol.residual_tol * max_norm
    )
    return report
