"""Spectral conditions for splitting a Hermitian tuple into identical copies.

The certificate has three layers:

1. a cheap precondition: the first generator must carry exactly n eigenvalue
   clusters of multiplicity k;
2. admissibility: every generator separately shows n clusters of size k with
   well-separated centers (the regularity the construction leans on);
3. the word conditions: for every word ``A_s1 P_j1 A_s2 ... P_jr A_s(r+1)``
   built from generators interleaved with distinct spectral projections of
   the first generator (r <= n-1), the pencil of the Hermitian triple
   ``(A_1, W + W*, i (W - W*))`` must pass the perfect k-th power test.  The
   pair pencil ``x A_1 + y W`` is this triple on a plane, so a triple that is
   a k-th power has a pair that is one too; a split tuple splits every triple.

``analyze`` aggregates all three into a :class:`ConditionReport`.  It runs
them on the tuple as :func:`~pencilspec.linalg.prepare_tuple` leaves it (unit
scale, invertible), which also checks the precondition.  One generator,
seeded with the master seed, draws every line: first the full tuple's
directions, then, in one call, a block of directions per word, word i
taking row i.  So a verdict depends on the seed and the word's index
alone, not on how the battery is sliced or ordered; no environment
variable (thread count or other) affects them.  The words are realized
level by level through k-column blocks of the first generator's
eigenbasis and the block grid ``decompose`` factors (see
:class:`_BlockWords`; :func:`~pencilspec.reference.realize_word` is the
reference) and solved a bounded slice at a time (see
:func:`_share_spectra`).  Their pencils and the full tuple's, exactly
Hermitian, go straight to the eigensolves: only a pencil from outside the
program is admitted, as a tuple file is, by
:func:`~pencilspec.charpoly.kth_power_test`, which no command calls.
A word whose adjoint comes earlier in the enumeration shares that word's
verdict instead of being tested (see :func:`adjoint_twins`).  On Linux, a
large battery's tested words are cut into contiguous shares, as many as
repay their forks and one per usable CPU at most (see :func:`_share_count`).
The word table is built once, before any fork; forked processes write the
line spectra of all shares but the first into one anonymous shared
mapping, and the calling process turns each share's spectra into verdicts
in one call.  The CPU count changes only the speed: verdicts and reports
are the same.

:func:`corollary` needs neither the precondition nor admissibility: it runs
the power test on the Hermitian parts of an orthonormal basis of the
monomial span (at most ``2 N^2`` matrices), so it has no cap on the family
size; that pencil, exactly Hermitian like the word pencils, skips the
admission too.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
import warnings
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, permutations, product
from pathlib import Path

import numpy as np

from .charpoly import KPowerVerdict, _draw_directions, _spectra, _verdicts
from .config import DEFAULT, Tolerances
from .errors import ClusterAmbiguity, SpectrumPatternViolation
from .linalg import (HermitianTuple, PreparedTuple, SpectralData, _clustered,
                     extract_block_structure, prepare_tuple)

__all__ = [
    "MODES",
    "WordSpec",
    "ConditionReport",
    "enumerate_words",
    "count_words",
    "hermitian_parts",
    "adjoint_twins",
    "check_admissibility",
    "analyze",
    "CorollaryReport",
    "corollary",
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


# The one list of word modes, whose keys ``analyze --mode`` offers: each mode's
# count of the projection tuples with r of n labels, and their arrangement.
MODES = {
    "all": (math.perm, permutations),
    "proof_core": (math.comb, combinations),
}


def count_words(n: int, m: int, mode: str = "all") -> int:
    """Closed-form size of the word family."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return sum((m - 1) ** (r + 1) * MODES[mode][0](n, r) for r in range(n))


def enumerate_words(n: int, m: int, mode: str = "all", tol: Tolerances = DEFAULT):
    """All words with r <= n-1 distinct projection labels.

    ``mode="all"`` walks every ordered tuple of distinct projections (the
    hypothesis of the splitting theorem); ``mode="proof_core"`` keeps one
    representative per projection subset (strictly increasing labels), the
    words the constructive argument actually consumes.  Returns
    ``(words, truncated)``; enumeration stops at ``tol.word_cap`` words and
    flags the cut in ``truncated``.  A one-generator tuple has no letters,
    hence no words.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    arrange = MODES[mode][1]
    pairs = chain.from_iterable(
        product(arrange(range(1, n + 1), r), product(range(2, m + 1), repeat=r + 1))
        for r in range(n)
    )
    # valid labels by construction: one pass, past the frozen dataclass's __init__
    words, new, put = [], object.__new__, object.__setattr__
    for projections, letters in islice(pairs, tol.word_cap):
        put(word := new(WordSpec), "letters", letters)
        put(word, "projections", projections)
        words.append(word)
    return words, next(pairs, None) is not None


def hermitian_parts(w, out=None) -> np.ndarray:
    """``(W + W*, i (W - W*))`` stacked on a new first axis, for a matrix or
    a stack of them: Hermitian to the last bit, as the power test requires.
    ``x A_1 + (y/2) (W + W*) - (i y/2) i (W - W*)`` is ``x A_1 + y W``.
    With ``out`` (shape ``(2,) + W.shape``, not overlapping ``w``), the
    parts are written there, with no temporary.
    """
    if out is None:
        out = np.empty((2,) + np.shape(w), dtype=complex)
    adj = np.conjugate(np.swapaxes(w, -1, -2), out=out[1])
    np.add(w, adj, out=out[0])
    np.subtract(w, adj, out=adj)
    adj *= 1j
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


class _BlockWords:
    """Word matrices through k-column blocks of the first generator's eigenbasis.

    With ``U_j`` the N x k eigenvector block of cluster j, ``P_j = U_j U_j*``,
    so a word is ``(A_s0 U_j1)(U_j1* A_s1 U_j2) ... (U_jr* A_sr)``.  Its
    prefix, everything before the last ``U_jr* A_sr``, is one N x k matrix,
    and the prefixes of the next level (one more projection) are the
    previous ones times the k x k blocks ``U_j* A_s U_i`` of
    :func:`~pencilspec.linalg.extract_block_structure`: one batched product
    per level.  ``words`` must be an :func:`enumerate_words` list (levels
    ascending; per level, projection tuples in order, each with all its
    letter tuples in order, only the last one possibly cut short).  The
    prefixes of every level are built here, so :meth:`matrices` takes word
    indices in any order.
    """

    def __init__(self, tup: HermitianTuple, spec: SpectralData, words):
        dim, n = tup.dim, spec.n
        u = spec.basis.reshape(dim, n, dim // n).transpose(1, 0, 2)  # U_j, (n, N, k)
        self.a1 = tup.matrices[0]                                    # each pencil's first generator
        self.gens = tup.matrices[1:]                                 # A_s, s = 2..m
        self.letters = letters = len(self.gens)
        left = self.gens[:, None] @ u                                # A_s U_j
        self.right = left.conj().swapaxes(-1, -2)                    # U_j* A_s
        blocks = extract_block_structure(tup, spec)                  # [s, j, i]: U_j* A_s U_i
        self.starts = np.searchsorted([w.r for w in words], np.arange(n + 1))
        # Prefix f of level r has projection tuple f // letters**r and, as
        # index f % letters**r, the word's letters but the last; so word t of
        # the level is prefix t // letters times U_jr* A_s, s = t % letters.
        # The prefixes of levels 1, 2, ... are stacked in that order, level r
        # from self.first[r] on, each with its last projection in self.last.
        counts = -(-np.diff(self.starts[1:]) // letters)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        self.first = np.concatenate([[0], bounds[:-1]])
        self.prefixes = np.empty((bounds[-1], dim, dim // n), dtype=complex)
        self.last = np.empty(bounds[-1], dtype=int)
        ranks = {}
        for level in range(1, n):
            a, b, per = bounds[level - 1], bounds[level], letters**level
            tuples = [words[i].projections
                      for i in range(self.starts[level], self.starts[level + 1], per * letters)]
            f = np.arange(b - a)
            q, s = f // per, f % letters
            j_new = self.last[a:b] = np.array([p[-1] - 1 for p in tuples], dtype=int)[q]
            if level == 1:
                self.prefixes[a:b] = left[s, j_new]
            else:
                parent = np.array([ranks[p[:-1]] for p in tuples], dtype=int)[q] * (per // letters)
                j_old = np.array([p[-2] - 1 for p in tuples], dtype=int)[q]
                np.matmul(self.prefixes[bounds[level - 2] + parent + f % per // letters],
                          blocks[s, j_old, j_new], out=self.prefixes[a:b])
            ranks = {p: i for i, p in enumerate(tuples)}

    def matrices(self, indices) -> np.ndarray:
        """The realized words at ``indices``, stacked as ``(len, N, N)``."""
        indices = np.asarray(indices, dtype=int)
        out = np.empty((len(indices),) + self.gens.shape[1:], dtype=complex)
        levels = np.searchsorted(self.starts, indices, side="right") - 1
        t = indices - self.starts[levels]
        top = levels > 0
        out[~top] = self.gens[t[~top]]
        f = self.first[levels[top]] + t[top] // self.letters
        out[top] = self.prefixes[f] @ self.right[t[top] % self.letters, self.last[f]]
        return out


# --------------------------------------------------------------------------
# admissibility
# --------------------------------------------------------------------------


def check_admissibility(prep: PreparedTuple, k: int, tol: Tolerances = DEFAULT):
    """Each generator must show n = N/k clusters of size k, separated centers.

    This is the specialization of regular intersection with the coordinate
    lines to the single-component perfect-power premise: on the j-th
    coordinate line the spectrum is the reciprocal spectrum of the j-th
    generator, and regularity of the reduced polynomial there means n
    simple, hence separated, reduced roots.  The spectra are read from
    ``prep.eigenvalues``, those of the unit-scale, invertible generators
    :func:`~pencilspec.linalg.prepare_tuple` leaves (a scalar shift moves
    the intersection points but not their multiplicity pattern); they are
    clustered by the ``prepare_tuple`` rule, with no eigenbasis, and the
    separation threshold is relative to each generator's largest eigenvalue
    modulus.  A ``k`` that does not divide N fails every pattern test.

    Returns ``(ok, diagnostics)``; never raises on a failing tuple.
    """
    n = prep.tup.dim // k
    per_gen = []
    ok = True
    for idx, w in enumerate(prep.eigenvalues):
        entry = {"generator": idx + 1}
        try:
            spec = _clustered(w, None, tol)
        except ClusterAmbiguity as exc:
            entry.update(ok=False, reason=f"ambiguous clustering: {exc}")
            per_gen.append(entry)
            ok = False
            continue
        centers, mults = spec.eigenvalues, list(spec.multiplicities)
        # ascending centers: the closest pair is adjacent
        min_sep = float(np.min(np.diff(centers))) if len(centers) > 1 else float("inf")
        pattern_ok = mults == [k] * n
        gen_ok = pattern_ok and min_sep >= tol.admissible_sep_rel * float(np.max(np.abs(w)))
        entry.update(
            ok=gen_ok,
            clusters=centers.tolist(),
            multiplicities=mults,
            min_separation=min_sep if np.isfinite(min_sep) else None,
        )
        if not gen_ok:
            entry["reason"] = (
                f"wanted {n} clusters of size {k}, got sizes {mults}"
                if not pattern_ok
                else f"cluster separation {min_sep:.3e} below threshold"
            )
            ok = False
        per_gen.append(entry)
    return ok, {"generators": per_gen}


# --------------------------------------------------------------------------
# aggregate analysis and the monomial corollary
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
    shifts: tuple
    detail: str = ""
    admissibility: dict = None
    scales: tuple = ()
    adjoint_of: dict = field(default_factory=dict)  # word index -> certifying word index


# Working-set budget of the word battery: a share is solved a slice of at
# most this many (line, matrix entry) pairs at a time, so the stacked pencils
# and their line matrices stay small whatever the battery's size.  Verdicts
# do not depend on it.
_BATCH_ENTRIES = 20_000

# Solve work, in tested words * lines * N^3, that one forked share costs the
# calling process.  Per forked command (2-vCPU VM; ROADMAP.md, north star 1):
# os.fork takes 0.85-0.92 ms; the parent takes 774-1,084 minor faults and the
# child 843-1,133, a copy-on-write fault costing 2.6-4.6 us while the child
# lives and 0.36-0.66 us after it exits, a zero-fill fault 1.9-2.8 us; and the
# next command pays about 0.44 ms of leftover faults.  Against one process,
# two shares tie at (4,2,3), 1040k units at N = 8 (17.46 against 17.06 ms,
# one process winning 6 of 12 rounds), and save 2.1 ms at (4,3,3), 3511k
# units (24.15 against 26.28 ms), and 14.9 ms at (6,2,2), 8599k units (50.1
# against 65.0 ms).  So the break-even of two shares, 850k units, sits just
# under (4,2,3).  A split battery's largest proof_core pencils (15 words at
# N = 16, 492k units) stay in one process.
_FORK_COST = 425_000

# The cgroup CPU quota of this process's container, as (quota, period)
# files: cgroup v2, then v1.  The affinity mask does not show the quota.
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)

# The warning Python 3.12 and later give when a process with more than one
# OS thread forks.  The idle pool threads of OpenBLAS (numpy's wheels ship
# it) count, but OpenBLAS stops them in its own fork handler, and analyze
# forks only when the interpreter runs one thread, so the child inherits
# no lock that another thread held.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def _usable_cpus() -> int:
    """The CPUs of this process's affinity mask, capped by the whole CPUs of
    its cgroup's quota where one is set."""
    cpus = len(os.sched_getaffinity(0))
    for paths in _CPU_QUOTA_FILES:
        try:
            quota, period = map(int, " ".join(Path(p).read_text() for p in paths).split()[:2])
        except (OSError, ValueError):
            continue
        if quota > 0:
            cpus = min(cpus, max(1, quota // period))
        break
    return cpus


def _share_count(words: int, lines: int, dim: int) -> int:
    """Processes for a battery of ``words`` tested words; one where the
    platform cannot fork or the interpreter runs other threads.

    This process forks the children one after another and then solves its
    own share, so ``S`` shares of ``units`` of work take about ``(S - 1) *
    _FORK_COST + units / S``: one more share pays while its fork costs less
    than the work it takes off this process, ``units / (S (S + 1))``.  The
    count grows as the square root of the work, one per usable CPU at most.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() != 1:
        return 1
    units, shares = words * lines * dim**3, 1
    while shares * (shares + 1) * _FORK_COST < units:
        shares += 1
    return min(shares, _usable_cpus()) if shares > 1 else 1


def _share_spectra(realized, rows, dirs, tol, out):
    """Write the line spectra of the words at ``rows`` (ascending indices
    into the battery's words, realized by the word table ``realized``) into
    ``out``, ``(len(rows), lines, N)``, a slice of at most
    ``_BATCH_ENTRIES`` (line, matrix entry) pairs at a time.  Every share of
    the battery, forked or not, is solved here."""
    size = max(1, _BATCH_ENTRIES // (tol.lines * realized.a1.size))
    # the battery's largest array, filled in place a slice of words at a time
    pencils = np.empty((min(size, len(rows)), 3) + realized.a1.shape, dtype=complex)
    pencils[:, 0] = realized.a1
    for start in range(0, len(rows), size):
        part = rows[start : start + size]
        stack = pencils[: len(part)]
        hermitian_parts(realized.matrices(part), out=stack[:, 1:].swapaxes(0, 1))
        out[start : start + len(part)] = _spectra(stack, dirs[part])


def _fork_share(children, i, done, share):
    """Fork a process that writes its spectra by ``_share_spectra(*share)``
    into a mapping shared with this process, then its row count into
    ``done[i]``, and exits.  Record it as ``children[i] = pid``; nothing is
    recorded when the fork fails."""
    # Ctrl-C sends SIGINT to the whole process group.  The child keeps it
    # blocked, so that it leaves only through os._exit and never unwinds its
    # copy of the caller's stack; this process records the child at once.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                _share_spectra(*share)
                done[i] = len(share[1])
                os._exit(0)
            finally:  # reached only when the share fails
                os._exit(1)
        children[i] = pid
    except OSError:
        pass
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _battery(realized, tested, dirs, k, n, tol):
    """Verdicts of the words at ``tested``, in order, over contiguous shares.

    The word table ``realized`` is built once, before any fork.  Shares
    after the first go to forked processes (see :func:`_share_count`) while
    this process solves the first; each child writes its share's spectra
    into one anonymous shared mapping, then marks the share complete, and
    the spectra become verdicts here, one call per share.  A share whose
    child cannot start, fails or leaves its share incomplete is solved here
    instead, so the result, or the exception, is the serial one.  No child
    outlives the call.
    """
    dim = len(realized.a1)
    shares = np.array_split(tested, _share_count(len(tested), tol.lines, dim))
    spectra, done, children = np.empty((len(tested), tol.lines, dim)), None, {}
    if len(shares) > 1:
        try:
            mapping = mmap.mmap(-1, 8 * (len(shares) + spectra.size))
        except OSError:
            shares = [tested]
        else:
            # a row count per share, then the spectra of every tested word
            done = np.frombuffer(mapping, np.int64, len(shares))
            spectra = np.frombuffer(mapping, offset=done.nbytes).reshape(spectra.shape)
    outs = np.split(spectra, np.cumsum([len(rows) for rows in shares[:-1]]))
    try:
        for i, rows in enumerate(shares[1:], 1):
            if len(rows):
                _fork_share(children, i, done, (realized, rows, dirs, tol, outs[i]))
        verdicts = []
        for i, rows in enumerate(shares):
            # a share that no child completed is solved here
            status = os.waitpid(children[i], 0)[1] if i in children else -1
            children.pop(i, None)
            if status or done[i] != len(rows):
                _share_spectra(realized, rows, dirs, tol, outs[i])
            verdicts += _verdicts(outs[i], k, n, tol)
        return verdicts
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def analyze(
    tup: HermitianTuple,
    k: int,
    mode: str = "all",
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> ConditionReport:
    """Run the full battery and aggregate the outcome.

    One generator seeded with ``seed`` draws the full tuple's directions,
    then one block of directions per word in enumeration order; the adjoint
    twin of an earlier word skips its test and takes that word's verdict.
    A battery of more than ``tol.word_cap`` words is refused, like a failed
    precondition, before any of it is tested.  A one-generator tuple has no
    words: its verdict is the precondition, admissibility and the full
    tuple's pencil.
    """
    def bail(detail, precondition_ok=False, admissible_ok=False, adm=None, prep=None):
        return ConditionReport(
            overall="precondition_violated",
            precondition_ok=precondition_ok,
            admissible_ok=admissible_ok,
            full_tuple=None, word_results=(), failing_words=(),
            n=tup.dim // k if tup.dim % k == 0 else 0,
            k=k,
            mode=mode,
            shifts=prep.shifts if prep else (),
            detail=detail,
            admissibility=adm,
            scales=prep.scales if prep else (),
        )

    try:
        prep = prepare_tuple(tup, k, tol=tol)
    except (ClusterAmbiguity, SpectrumPatternViolation) as exc:
        return bail(str(exc))
    shifted, spec, n = prep.tup, prep.spec, prep.spec.n

    admissible_ok, adm = check_admissibility(prep, k, tol=tol)
    if not admissible_ok:
        return bail("tuple is not admissible", precondition_ok=True, adm=adm, prep=prep)
    # no prefix is tested: Kippenhahn-type negatives fail only on some words
    count = count_words(n, tup.m, mode)
    if count > tol.word_cap:
        return bail(f"mode {mode!r} has {count} words, more than word_cap={tol.word_cap}",
                    precondition_ok=True, admissible_ok=True, adm=adm, prep=prep)

    words, _ = enumerate_words(n, tup.m, mode=mode, tol=tol)
    master = np.random.default_rng(seed)
    full_dirs = _draw_directions(master, tol.lines, tup.m)
    word_dirs = _draw_directions(master, tol.lines, 3, pencils=len(words))

    twins = adjoint_twins(words)
    source = np.arange(len(words))  # the word whose verdict each word takes
    source[list(twins)] = list(twins.values())
    tested = np.flatnonzero(source == np.arange(len(words)))
    verdicts = []
    if len(tested):  # a one-generator tuple has no words to build a table of
        verdicts = _battery(_BlockWords(shifted, spec, words), tested, word_dirs, k, n, tol)
    # the full tuple's pencil, exactly Hermitian like the word pencils
    full_verdict = _verdicts(_spectra(shifted.matrices[None], full_dirs[None]), k, n, tol)[0]
    # each word's source is tested, and its place in ``tested`` its verdict's
    slots = np.searchsorted(tested, source).tolist()
    word_results = tuple(zip(words, map(verdicts.__getitem__, slots)))
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
        shifts=prep.shifts,
        detail="" if ok else (full_verdict.failure_reason or f"{len(failing)} failing words"),
        admissibility=adm,
        scales=prep.scales,
        adjoint_of=twins,
    )


def _monomial_span(mats, degree_bound, tol):
    """Orthonormal basis, in the Frobenius inner product, of the span of the
    monomials in the ``(m, N, N)`` stack ``mats`` of degrees 1..degree_bound.

    The span up to degree d+1 is the span up to degree d plus the directions
    that degree d added, times the generators (unit-scale ones, as
    :func:`~pencilspec.linalg.prepare_tuple` leaves them).  Those products
    are projected off the basis twice (degree 1 has no basis to project
    off), and a thin SVD keeps the residual directions above
    ``tol.singular_eig_rel``.  No singular value exceeds the Frobenius norm,
    ``sigma_max <= ||R||_F``, so a residual ``R`` whose norm is below half the
    cut closes the span without the SVD, which could keep nothing there; so
    does the empty residual that follows a degree adding none.  Equal weight
    on every direction makes the verdict depend on the span alone, not on
    the generators' scale.
    """
    dim = mats.shape[1]
    span = np.zeros((0, dim * dim), dtype=np.complex128)
    added = np.eye(dim).reshape(1, -1)
    for _ in range(degree_bound):
        rows = np.matmul(added.reshape(-1, 1, dim, dim), mats).reshape(-1, dim * dim)
        if len(span):
            for _ in range(2):
                rows = rows - (rows @ span.conj().T) @ span
        # the closing degree's residual is rounding, near 1e-15; half the cut
        # leaves room for the rounding of the computed norm and singular
        # values, so the SVD could keep nothing below it
        if np.linalg.norm(rows) < tol.singular_eig_rel / 2:
            break
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        added = vh[s > tol.singular_eig_rel]
        span = np.concatenate([span, added])
    return span.reshape(-1, dim, dim)


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of :func:`corollary`: the monomial degree bound, the number of
    monomials up to it, the prepared tuple's shifts and the power test's
    verdict, which passes exactly when the span's polynomial is a k-th power."""

    degree_bound: int
    family_size: int
    shifts: tuple
    verdict: KPowerVerdict


def corollary(
    tup: HermitianTuple,
    k: int,
    *,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> CorollaryReport:
    """Power-test the monomial span through Hermitian generators.

    The span of the monomials of degree 1 to ``n^2 - n + 1`` is *-closed
    (a monomial's adjoint is its reversal), so ``V + V*`` and ``i (V - V*)``
    over its orthonormal basis ``V`` span it over the reals.  Their
    polynomial is the span's composed with a surjective linear map, hence a
    k-th power exactly when the span's is.  The lines are drawn in one call
    of a generator seeded with ``seed``.  Raises
    :class:`SpectrumPatternViolation` when k does not divide N, and
    :class:`ValueError` when k is below 1 or the span is empty.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    # k | N is the corollary's only precondition: it has no admissibility
    # hypothesis, so the first generator's pattern is not required
    if tup.dim % k:
        raise SpectrumPatternViolation(f"k={k} does not divide N={tup.dim}")
    n = tup.dim // k
    degree_bound = n * n - n + 1
    prep = prepare_tuple(tup, tol=tol)
    span = _monomial_span(prep.tup.matrices, degree_bound, tol)
    if not len(span):
        raise ValueError(
            f"no monomial direction is above singular_eig_rel={tol.singular_eig_rel} "
            f"(resolution={tol.resolution}): the span is empty"
        )
    # exactly Hermitian, like the word pencils: no admission, and the
    # directions kth_power_test(gens, k, n, seed) draws
    gens = hermitian_parts(span).reshape(1, -1, tup.dim, tup.dim)
    dirs = _draw_directions(np.random.default_rng(seed), tol.lines, gens.shape[1], pencils=1)
    return CorollaryReport(
        degree_bound=degree_bound,
        family_size=sum(tup.m**d for d in range(1, degree_bound + 1)),
        shifts=prep.shifts,
        verdict=_verdicts(_spectra(gens, dirs), k, n, tol)[0],
    )
