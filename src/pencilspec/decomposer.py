"""Constructive splitting of a passing tuple into k identical copies.

Pipeline, in the eigenbasis of the first generator (n clusters of size k):

1. take every other generator's n x n grid of k x k blocks from
   :func:`~pencilspec.linalg.extract_block_structure`;
2. factor each nonzero block as ``c * u`` with ``c >= 0`` and ``u`` unitary
   (diagonal blocks must be real scalars);
3. unify layers: one shared unitary per index pair, which every layer's
   block there must match up to a phase;
4. derive one unitary per cluster along a breadth-first spanning forest of
   the pair graph, rooted at the largest index of each component, and
   verify that every pair closes its triangle with the root to a
   unimodular scalar; the block unitary of these pieces commutes with the
   diagonalized first generator, and conjugating the grid of step 1 block
   by block, ``piece_i B_ij piece_j*``, must leave every k x k block a
   scalar; the components partition the indices;
5. gather the k interleaved invariant subspaces with a permutation and
   read off the reduced n x n tuple;
6. audit the result on the input with :func:`verify_decomposition`; its
   ``ok`` decides.  Only steps 1 and 6 conjugate a whole generator.

Structural failures raise typed errors naming the violated relation; a
tuple that does not split never produces a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    CycleInconsistency,
    LayerInconsistency,
    NotUnitaryScalar,
    ScalarizationFailed,
)
from .linalg import HermitianTuple, extract_block_structure, prepare_tuple

__all__ = [
    "BlockStructure",
    "DecompositionResult",
    "factor_block",
    "unify_layers",
    "build_block_unitary",
    "decompose",
    "verify_decomposition",
]


@dataclass(frozen=True)
class BlockStructure:
    """The shared k x k block unitaries of all generators beyond the first.

    ``u[(i, j)]`` is the block unitary of cluster pair (i, j), shared by
    every generator whose block there is nonzero, with ``u[(j, i)] =
    u[(i, j)]*``; ``pairs`` holds its keys.  The block scalars are not
    kept: :func:`build_block_unitary` reads them off the conjugated grid.
    """

    n: int
    k: int
    u: dict
    pairs: frozenset


def _unimodular_defect(prod):
    """``(theta, residual)`` of a k x k product: ``theta`` is the argument
    of its normalized trace, the least-squares phase, and ``residual`` the
    Frobenius distance of the product from ``exp(i theta) I``."""
    k = prod.shape[0]
    tr = complex(np.trace(prod)) / k
    theta = float(np.angle(tr)) if tr != 0 else 0.0
    residual = float(np.linalg.norm(prod - np.exp(1j * theta) * np.eye(k)))
    return theta, residual


def factor_block(b, tol: float):
    """Split a k x k block into ``(c, u)`` with ``c >= 0`` and ``u`` unitary.

    Returns ``(0.0, None)`` for a numerically zero block.  Raises
    :class:`NotUnitaryScalar` when ``b b*`` is not a scalar matrix within
    ``tol * ||b b*||``, i.e. the block cannot come from a tuple that splits
    into identical copies.  ``u`` is ``b``'s unitary polar factor, unitary
    to rounding whatever defect ``tol`` admits.
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
    w, _, vh = np.linalg.svd(b)
    return float(np.sqrt(s)), w @ vh


def _phase_match(u_ref, u_other, k):
    """Distance of u_other from its least-squares unimodular multiple of u_ref."""
    sigma = complex(np.trace(u_ref.conj().T @ u_other)) / k
    return float(np.linalg.norm(u_other - sigma * u_ref))


def unify_layers(blocks, scales, tol: Tolerances = DEFAULT) -> BlockStructure:
    """Factor all blocks and share one unitary per index pair across layers.

    ``blocks`` is the (m-1, n, n, k, k) grid of
    :func:`~pencilspec.linalg.extract_block_structure`; ``scales`` holds one
    factor per layer, which multiplies ``tol.structural_tol`` in that
    layer's block checks.  :func:`decompose` passes each prepared
    generator's largest eigenvalue modulus, at least 1 and of order one.
    For each pair the layer with the largest block scalar donates the
    unitary (ties to the lowest layer); every other nonzero layer must match
    it up to a unimodular scalar.  A mismatch beyond tolerance raises
    :class:`LayerInconsistency`: the cross-layer 2-cycle relation fails and
    the tuple cannot split into identical copies.  A diagonal block that is
    not a real scalar raises :class:`NotUnitaryScalar`.
    """
    nlayers, n, _, k, _ = blocks.shape
    if len(scales) != nlayers:
        raise ValueError("need one scale per layer")

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

    u = {}
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
                if li == chosen:
                    continue
                resid = _phase_match(u_shared, factored[li][1], k)
                if resid > tol.structural_tol:
                    raise LayerInconsistency(
                        f"generators {chosen + 2} and {li + 2} disagree on pair "
                        f"({i + 1},{j + 1}) beyond a phase: residual {resid:.3e}",
                        pair=(i, j),
                        layer=li + 2,
                        residual=resid,
                    )
            u[(i, j)] = u_shared
            u[(j, i)] = u_shared.conj().T

    return BlockStructure(n=n, k=k, u=u, pairs=frozenset(u))


def _spanning_forest(bs: BlockStructure, tol: Tolerances):
    """One k x k piece per cluster and the partition, in one breadth-first pass.

    Each component of the pair graph is rooted at its largest index ``a``,
    whose piece is the identity.  A direct neighbour ``j`` of ``a`` gets
    ``u[(a, j)]`` itself, a deeper one its parent's piece times
    ``u[(parent, j)]``: the pieces are the derived ``u[(a, j)]``.  Every pair
    ``(i, j)`` of non-roots must then close the triangle ``(i, j, a)``, the
    product ``u[(i, j)] piece_j* piece_i``, to a unimodular scalar within
    tolerance, else :class:`CycleInconsistency` names it with 0-based
    cluster indices.  The check is complete: a pair's triangle is its
    fundamental cycle, through the tree and the root, and fundamental
    cycles generate every cycle.  The partition lists the components, each
    sorted, in the order of their smallest index.
    """
    n = bs.n
    pieces = [None] * n
    components = []
    for a in range(n - 1, -1, -1):
        if pieces[a] is not None:
            continue
        pieces[a] = np.eye(bs.k, dtype=np.complex128)
        comp = [a]
        for i in comp:
            for j in range(n):
                if (i, j) in bs.pairs and pieces[j] is None:
                    pieces[j] = bs.u[(a, j)] if i == a else pieces[i] @ bs.u[(i, j)]
                    comp.append(j)
        comp.sort()
        components.append(comp)
        for i, j in combinations(comp[:-1], 2):
            if (i, j) not in bs.pairs:
                continue
            _, resid = _unimodular_defect(bs.u[(i, j)] @ pieces[j].conj().T @ pieces[i])
            if resid > tol.structural_tol:
                raise CycleInconsistency(
                    f"cycle through clusters ({i + 1},{j + 1},{a + 1}) is not a "
                    f"unimodular scalar: residual {resid:.3e}",
                    cycle=(i, j, a),
                    residual=resid,
                )
    return pieces, tuple(sorted(tuple(comp) for comp in components))


def build_block_unitary(bs: BlockStructure, blocks, scales, tol: Tolerances = DEFAULT) -> tuple:
    """Assemble the block unitary over a spanning forest and verify it.

    Cluster i contributes the diagonal k x k entry ``u[(a, i)]``, derived
    along the forest from the largest index ``a`` of i's component (the
    identity on ``a`` itself); a pair that closes no unimodular triangle
    with ``a`` raises :class:`CycleInconsistency`.  The result is unitary
    and commutes exactly with the diagonalized first generator.
    Conjugating the raw ``blocks`` grid of
    :func:`~pencilspec.linalg.extract_block_structure` by it, block by block
    as ``piece_i @ B_ij @ piece_j*``, must turn every k x k block of layer
    ``l`` into a scalar within ``tol.scalar_block_tol * scales[l]``; the
    first layer that does not raises :class:`ScalarizationFailed` naming its
    worst block.  Returns ``(udiag, scalars, partition)``: the block
    unitary, the (m-1, n, n) array of the block scalars it verified, and the
    components as sorted index tuples.
    """
    n, k = bs.n, bs.k
    pieces, partition = _spanning_forest(bs, tol)
    pieces = np.stack(pieces)
    udiag = np.zeros((n * k, n * k), dtype=np.complex128)
    for i, piece in enumerate(pieces):
        udiag[i * k : (i + 1) * k, i * k : (i + 1) * k] = piece

    conj = pieces[None, :, None] @ blocks @ pieces.conj().transpose(0, 2, 1)[None, None, :]
    scalars = np.trace(conj, axis1=3, axis2=4) / k
    norms = np.linalg.norm(conj - scalars[..., None, None] * np.eye(k), axis=(3, 4))
    for li, layer in enumerate(norms):
        where = np.unravel_index(int(np.argmax(layer)), layer.shape)
        worst = float(layer[where])
        if worst > tol.scalar_block_tol * scales[li]:
            raise ScalarizationFailed(
                f"generator {li + 2} block ({where[0] + 1},{where[1] + 1}) stays "
                f"non-scalar after conjugation: defect {worst:.3e}",
                block=(li + 2,) + where,
                residual=worst,
            )
    return udiag, scalars, partition


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
    ``verification`` is the :func:`verify_decomposition` report that
    :func:`decompose` took its verdict from, and ``residual`` that report's
    ``max_residual``; a hand-built result may leave it ``None``.
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
    verification: dict | None = None

    def transform(self) -> np.ndarray:
        p = np.eye(self.eigenbasis.shape[0], dtype=np.complex128)[self.permutation]
        return p @ self.block_unitary @ self.eigenbasis


def decompose(tup: HermitianTuple, k: int, tol: Tolerances = DEFAULT) -> DecompositionResult:
    """Run the whole (deterministic) splitting pipeline.

    The caller is expected to have run the condition analysis; only the
    cheap spectral precondition is re-validated here.  The pipeline runs on
    the prepared (unit-scale, invertible) tuple; the reduced tuple, the
    eigenvalues and the shifts are returned in the input's units.  ``k = 1``
    takes the same path: every 1 x 1 block is a scalar times a phase, so
    the block unitary is a diagonal of phases and every such tuple splits.
    The verdict is :func:`verify_decomposition` on the input: unless its
    ``ok`` holds, :class:`ScalarizationFailed` names the first quantity
    that exceeds its bound.
    """
    prep = prepare_tuple(tup, k, tol=tol)
    shifted, spec, n = prep.tup, prep.spec, prep.spec.n
    # every prepared generator's largest eigenvalue modulus is at least 1
    layer_scales = np.max(np.abs(prep.eigenvalues[1:]), axis=1).tolist()

    blocks = extract_block_structure(shifted, spec)
    bs = unify_layers(blocks, layer_scales, tol=tol)
    udiag, scalars, partition = build_block_unitary(bs, blocks, layer_scales, tol=tol)
    unit_reduced = [np.diag(spec.eigenvalues).astype(np.complex128)]
    unit_reduced += list((scalars + scalars.conj().transpose(0, 2, 1)) / 2.0)

    result = DecompositionResult(
        n=n,
        k=k,
        eigenbasis=spec.rotation(),
        block_unitary=udiag,
        # new index s*n + i picks up old index i*k + s: subspace s collects
        # the s-th vector of every cluster
        permutation=np.arange(n * k).reshape(n, k).T.ravel(),
        # real scales and diagonal shifts of exactly Hermitian parts
        reduced=HermitianTuple.exact([
            c * b - mu * np.eye(n) for b, c, mu in zip(unit_reduced, prep.scales, prep.shifts)
        ]),
        eigenvalues=spec.eigenvalues * prep.scales[0] - prep.shifts[0],
        partition=partition,
        shifts=prep.shifts,
        residual=None,
    )
    audit = verify_decomposition(tup, result, tol=tol)
    if not audit["ok"]:
        bounds = _audit_bounds(tup.max_norm() or 1.0, tup.dim, k, tol)
        name = next(key for key, bound in bounds.items() if not audit[key] <= bound)
        label = "final residual" if name == "max_residual" else name.replace("_", " ")
        raise ScalarizationFailed(
            f"{label} {audit[name]:.3e} exceeds {bounds[name]:.3e}", residual=audit[name]
        )
    return replace(result, residual=audit["max_residual"], verification=audit)


def _audit_bounds(max_norm: float, dim: int, k: int, tol: Tolerances) -> dict:
    """The bounds :func:`verify_decomposition`'s ``ok`` reads, in order, for
    a split of an N = ``dim`` tuple into ``k`` copies."""
    # Clustering joins only gaps below gap_tol / 10 (the lower edge of its
    # ambiguity window), so the eigenvalues of a cluster of size k spread over
    # at most k - 1 joined gaps.  A block unitary U mixes a cluster's
    # eigenvectors only, and entry (i, j) of [U, V A_1 V*] is U_ij times the
    # difference of two of its eigenvalues: each row of U has unit norm, so the
    # Frobenius defect over N rows is at most sqrt(N) times the spread.  With
    # k = 1 no gap is joined; the floor of 1 leaves room for the off-diagonal
    # rounding of V A_1 V*.
    return {
        "max_residual": tol.residual_tol * max_norm,
        "unitarity_transform": tol.unitary_rel * dim,
        "commutation_defect": tol.gap_tol / 10 * max(1, k - 1) * np.sqrt(dim) * max_norm,
        "b1_diagonal_defect": tol.residual_tol * max_norm,
    }


def verify_decomposition(tup: HermitianTuple, result: DecompositionResult, tol: Tolerances = DEFAULT) -> dict:
    """Independent audit of a decomposition: recomputes every invariant.

    Never raises; returns a report with per-generator residuals, unitarity
    defects, the commutation defect with the diagonalized first generator,
    and an overall ``ok`` flag at the standard tolerances.  It never reads
    the stored ``residual`` or ``verification``.  Residuals and the
    commutation and ``b1`` defects are taken on matrices divided by the
    input's largest spectral norm, then multiplied back, so squared entries
    neither overflow nor underflow at extreme scales.
    """
    k = result.k
    t = result.transform()
    v = result.eigenbasis
    udiag = result.block_unitary
    dim = tup.dim
    max_norm = tup.max_norm() or 1.0
    mats = tup.matrices / max_norm
    reduced = result.reduced.matrices / max_norm

    residuals = [
        float(np.linalg.norm(t @ a @ t.conj().T - np.kron(np.eye(k), b))) * max_norm
        for a, b in zip(mats, reduced)
    ]
    d1 = v @ mats[0] @ v.conj().T
    report = {
        "residuals": residuals,
        "max_residual": max(residuals),
        "unitarity_eigenbasis": float(np.linalg.norm(v @ v.conj().T - np.eye(dim))),
        "unitarity_block": float(np.linalg.norm(udiag @ udiag.conj().T - np.eye(dim))),
        "unitarity_transform": float(np.linalg.norm(t @ t.conj().T - np.eye(dim))),
        "commutation_defect": float(np.linalg.norm(udiag @ d1 - d1 @ udiag)) * max_norm,
        "b1_diagonal_defect": float(
            np.linalg.norm(reduced[0] - np.diag(result.eigenvalues / max_norm))
        ) * max_norm,
    }
    bounds = _audit_bounds(max_norm, dim, k, tol)
    report["ok"] = all(report[key] <= bound for key, bound in bounds.items())
    return report
