"""Spectral conditions for splitting a Hermitian tuple into identical copies.

The certificate has three layers:

1. a cheap precondition: the first generator must carry exactly n eigenvalue
   clusters of multiplicity k;
2. admissibility: every generator separately shows n clusters of size k with
   well-separated centers (the regularity the construction leans on);
3. the word conditions: for every word ``A_s1 P_j1 A_s2 ... P_jr A_s(r+1)``
   built from generators interleaved with distinct spectral projections of
   the first generator (r <= n-1), the pair pencil with the first generator
   must pass the perfect k-th power test.

``analyze`` aggregates all three into a :class:`ConditionReport`.  It runs
them on the tuple as :func:`~pencilspec.linalg.prepare_tuple` leaves it (unit
scale, invertible), which also checks the precondition.  The words are
realized up front and tested in one call of
:func:`~pencilspec.charpoly.kth_power_batch`, each on its own sub-seed drawn
from the master seed.  A word's lines all come from one generator seeded
with its sub-seed, so a verdict does not depend on the rest of the
battery; no environment variable (thread count or other) affects them.
A word whose adjoint comes earlier in the enumeration shares that word's
verdict instead of being tested (see :func:`adjoint_twins`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

import numpy as np

from .charpoly import KPowerVerdict, branch_derivative, kth_power_batch, kth_power_test
from .config import DEFAULT, Tolerances
from .decomposer import verify_cycle_identity  # re-exported next to the other identity check
from .errors import ClusterAmbiguity, IndexOutOfRange, SpectrumPatternViolation
from .linalg import (
    HermitianTuple,
    SpectralData,
    eigendecompose_clustered,
    norm_scale,
    prepare_tuple,
)

__all__ = [
    "WordSpec",
    "ConditionReport",
    "enumerate_words",
    "count_words",
    "realize_word",
    "adjoint_twins",
    "check_admissibility",
    "analyze",
    "verify_first_order_identity",
    "verify_cycle_identity",
]


@dataclass(frozen=True)
class WordSpec:
    """Symbolic word: generator labels interleaved with projection labels.

    ``letters`` are generator labels in {2..m} (2 means the second
    generator), ``projections`` are cluster labels in {1..n}, pairwise
    distinct, one fewer than the letters.  The realized matrix is
    ``A_letters[0] P_projections[0] A_letters[1] ... A_letters[-1]``.
    """

    letters: tuple
    projections: tuple

    def __post_init__(self):
        letters = tuple(int(s) for s in self.letters)
        projections = tuple(int(j) for j in self.projections)
        if len(letters) != len(projections) + 1:
            raise ValueError("need exactly one more letter than projections")
        if any(s < 2 for s in letters):
            raise ValueError("generator labels start at 2")
        if any(j < 1 for j in projections):
            raise ValueError("projection labels start at 1")
        if len(set(projections)) != len(projections):
            raise ValueError("projection labels must be pairwise distinct")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "projections", projections)

    @property
    def r(self) -> int:
        return len(self.projections)

    def as_dict(self):
        return {"letters": list(self.letters), "projections": list(self.projections)}


def count_words(n: int, m: int, mode: str = "all") -> int:
    """Closed-form size of the word family."""
    if mode == "all":
        arrangements = math.perm
    elif mode == "proof_core":
        arrangements = math.comb
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return sum((m - 1) ** (r + 1) * arrangements(n, r) for r in range(n))


def enumerate_words(n: int, m: int, mode: str = "all", tol: Tolerances = DEFAULT):
    """All words with r <= n-1 distinct projection labels.

    ``mode="all"`` walks every ordered tuple of distinct projections (the
    hypothesis of the splitting theorem); ``mode="proof_core"`` keeps one
    representative per projection subset (strictly increasing labels), the
    words the constructive argument actually consumes.  Returns
    ``(words, truncated)``; enumeration stops at ``tol.word_cap`` words and
    flags the cut in ``truncated``.
    """
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    if mode not in ("all", "proof_core"):
        raise ValueError(f"unknown mode {mode!r}")
    words = []
    truncated = False
    for r in range(n):
        if mode == "all":
            proj_iter = permutations(range(1, n + 1), r)
        else:
            proj_iter = combinations(range(1, n + 1), r)
        for projections in proj_iter:
            for letters in product(range(2, m + 1), repeat=r + 1):
                if len(words) >= tol.word_cap:
                    truncated = True
                    return words, truncated
                words.append(WordSpec(letters=letters, projections=projections))
    return words, truncated


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


def adjoint_twins(words) -> dict:
    """Map each word whose adjoint comes earlier in ``words`` to that word's index.

    Every factor of a word is Hermitian, so the word with reversed letters
    and projections realizes the adjoint ``W*``, and
    ``det(x A_1 + y W* - I) = conj(det(conj(x) A_1 + conj(y) W - I))``: the
    two pair pencils are perfect k-th powers together.  Keys and values are
    indices into ``words``; a word equal to its own reversal maps nowhere.
    """
    first = {}
    twins = {}
    for i, w in enumerate(words):
        j = first.get((w.letters[::-1], w.projections[::-1]))
        if j is None:
            first[(w.letters, w.projections)] = i
        else:
            twins[i] = j
    return twins


# --------------------------------------------------------------------------
# admissibility
# --------------------------------------------------------------------------


def check_admissibility(tup: HermitianTuple, k: int, tol: Tolerances = DEFAULT):
    """Each generator must show n = N/k clusters of size k, separated centers.

    This is the specialization of regular intersection with the coordinate
    lines to the single-component perfect-power premise: on the j-th
    coordinate line the spectrum is the reciprocal spectrum of the j-th
    generator, and regularity of the reduced polynomial there means n
    simple, hence separated, reduced roots.  The generators are inspected
    as given; :func:`analyze` passes them unit-scale and invertible, as
    :func:`~pencilspec.linalg.prepare_tuple` leaves them (a scalar shift
    moves the intersection points but not their multiplicity pattern).

    Returns ``(ok, diagnostics)``; never raises on a failing tuple.
    """
    if tup.dim % k:
        return False, {"reason": f"k={k} does not divide N={tup.dim}"}
    n = tup.dim // k
    per_gen = []
    ok = True
    for idx, a in enumerate(tup.matrices):
        scale = norm_scale(a)
        entry = {"generator": idx + 1}
        try:
            sd = eigendecompose_clustered(a, tol=tol)
        except ClusterAmbiguity as exc:
            entry.update(ok=False, reason=f"ambiguous clustering: {exc}")
            per_gen.append(entry)
            ok = False
            continue
        centers = sd.eigenvalues
        min_sep = (
            float(np.min(np.abs(np.subtract.outer(centers, centers))[~np.eye(sd.n, dtype=bool)]))
            if sd.n > 1
            else float("inf")
        )
        gen_ok = (
            sd.n == n
            and all(mu == k for mu in sd.multiplicities)
            and min_sep >= tol.admissible_sep_rel * scale
        )
        entry.update(
            ok=gen_ok,
            clusters=[float(c) for c in centers],
            multiplicities=list(sd.multiplicities),
            min_separation=min_sep if np.isfinite(min_sep) else None,
        )
        if not gen_ok:
            entry["reason"] = (
                f"wanted {n} clusters of size {k}, got sizes {list(sd.multiplicities)}"
                if sd.n != n or any(mu != k for mu in sd.multiplicities)
                else f"cluster separation {min_sep:.3e} below threshold"
            )
            ok = False
        per_gen.append(entry)
    return ok, {"generators": per_gen}


# --------------------------------------------------------------------------
# aggregate analysis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Aggregated verdicts; ``overall`` is "pass" exactly when the
    precondition, admissibility, the full-tuple power test and every word
    verdict hold."""

    overall: str                      # "pass" | "fail" | "precondition_violated"
    precondition_ok: bool
    admissible_ok: bool
    full_tuple: KPowerVerdict
    word_results: tuple               # ((WordSpec, KPowerVerdict), ...)
    failing_words: tuple
    n: int
    k: int
    mode: str
    seed: int
    shifts: tuple
    truncated: bool
    detail: str = ""
    admissibility: dict = None
    scales: tuple = ()
    adjoint_of: dict = field(default_factory=dict)  # word index -> certifying word index


def analyze(
    tup: HermitianTuple,
    k: int,
    mode: str = "all",
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> ConditionReport:
    """Run the full battery and aggregate the outcome.

    Sub-seeds for the full-tuple test and every word are derived from
    ``seed`` up front, one per check in enumeration order; the adjoint twin
    of an earlier word skips its test and takes that word's verdict.
    """
    if tup.m < 2:
        raise ValueError("need at least two generators")

    def bail(detail, precondition_ok=False, admissible_ok=False, adm=None, prep=None):
        return ConditionReport(
            overall="precondition_violated",
            precondition_ok=precondition_ok,
            admissible_ok=admissible_ok,
            full_tuple=None,
            word_results=(),
            failing_words=(),
            n=tup.dim // k if tup.dim % k == 0 else 0,
            k=k,
            mode=mode,
            seed=seed,
            shifts=prep.shifts if prep else (),
            truncated=False,
            detail=detail,
            admissibility=adm,
            scales=prep.scales if prep else (),
        )

    try:
        prep = prepare_tuple(tup, k, tol=tol)
    except (ClusterAmbiguity, SpectrumPatternViolation) as exc:
        return bail(str(exc))
    shifted, spec, n = prep.tup, prep.spec, prep.spec.n

    admissible_ok, adm = check_admissibility(shifted, k, tol=tol)
    if not admissible_ok:
        return bail("tuple is not admissible", precondition_ok=True, adm=adm, prep=prep)

    words, truncated = enumerate_words(n, tup.m, mode=mode, tol=tol)
    master = np.random.default_rng(seed)
    sub_seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=1 + len(words))]

    full_verdict = kth_power_test(list(shifted.matrices), k, n, seed=sub_seeds[0], tol=tol)

    twins = adjoint_twins(words)
    tested = [i for i in range(len(words)) if i not in twins]
    # filled in place: the stack is the battery's largest array
    pencils = np.empty((len(tested), 2, tup.dim, tup.dim), dtype=np.complex128)
    pencils[:, 0] = shifted.matrices[0]
    for row, i in enumerate(tested):
        pencils[row, 1] = realize_word(shifted, spec, words[i])
    seeds = [sub_seeds[1 + i] for i in tested]
    verdicts = dict(zip(tested, kth_power_batch(pencils, k, n, seeds, tol=tol)))
    word_results = tuple((w, verdicts[twins.get(i, i)]) for i, w in enumerate(words))
    failing = tuple(w for w, v in word_results if not v.is_kth_power)
    ok = full_verdict.is_kth_power and not failing
    return ConditionReport(
        overall="pass" if ok else "fail",
        precondition_ok=True,
        admissible_ok=True,
        full_tuple=full_verdict,
        word_results=word_results,
        failing_words=failing,
        n=n,
        k=k,
        mode=mode,
        seed=seed,
        shifts=prep.shifts,
        truncated=truncated,
        detail="" if ok else (full_verdict.failure_reason or f"{len(failing)} failing words"),
        admissibility=adm,
        scales=prep.scales,
        adjoint_of=twins,
    )


# --------------------------------------------------------------------------
# local identities
# --------------------------------------------------------------------------


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
