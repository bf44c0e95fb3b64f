"""The settings that ``analyze``, ``decompose`` and ``corollary`` read.

Three are set: ``resolution``, the relative size below which the commands
cannot tell a spectrum from a perfect power, and the counts ``lines`` and
``word_cap`` (the largest word battery ``analyze`` runs; it refuses a larger
one); ``--tol NAME=VALUE`` sets any of them.  Every threshold is
derived from ``resolution`` by :data:`LADDER`: its value at the reference
resolution ``1e-8`` times ``resolution / 1e-8``, so the default gives those
values bit for bit.  Every report echoes the three values and the derived
thresholds.  Thresholds that only the reference routes read are constants
in :mod:`~pencilspec.reference` instead.

The commands run on unit-scale generators
(:func:`~pencilspec.linalg.prepare_tuple` divides each by its spectral norm
and shifts singular ones), so the spectral thresholds are read against
norms of order one and verdicts do not depend on the input's scale.  The
Hermitian admission check is relative to each input matrix's norm; only
the bounds of a decomposition's audit are read in the input's units.
Every value, derived ones included, must be finite and positive (a huge or
tiny ``resolution`` can overflow or underflow a rung), ``lines`` and
``word_cap`` integers, and ``lines`` at least 4; a :class:`Tolerances` that
breaks a rule is never built, so no reader checks them again.
"""

import math
from dataclasses import dataclass

REFERENCE_RESOLUTION = 1e-8

# Each threshold at the reference resolution.  Detection sits at the
# resolution, structural checks one decade above it and acceptance two, so
# one noisy stage cannot cascade into a false failure; checks of rounding
# sit two to four decades below it, so they never cut what the tests resolve.
LADDER = {
    # Hermitian defect of an input matrix, times its norm: only the
    # Hermitian part is used, so this only rejects what is not rounding
    "hermitian_rel": 1e-12,
    # unitarity defect of a decomposition's transform, times N: the
    # transform is built from orthonormal eigenbases
    "unitary_rel": 1e-10,
    # eigenvalue clustering of the first generator, times max(1, max|w|)
    "gap_tol": 1e-8,
    # a generator with a smaller eigenvalue (times max(1, ||A||)) is
    # shifted, and the corollary's span keeps the directions above it
    "singular_eig_rel": 1e-10,
    # the power test's cluster tolerance, times (1 + max|lambda|).  Over
    # decomposable and commuting tuples (12 shapes x 4 seeds, every word's
    # Hermitian triple) the worst eigenvalue spread is 2.1e-14, 2e-6 of it,
    # and the epsilon-phase twins of tests/test_resolution.py fail at every
    # epsilon down to 1e-6
    "cluster_rel": 1e-8,
    # admissibility: generator clusters separated well beyond clustering
    "admissible_sep_rel": 1e-6,
    # the decomposer's factor, unify and cycle checks, which compare
    # products of a few block unitaries
    "structural_tol": 1e-7,
    # acceptance: the post-conjugation scalar check, then the final
    # residual, times max ||A_l||
    "scalar_block_tol": 1e-6,
    "residual_tol": 1e-6,
}


@dataclass(frozen=True)
class Tolerances:
    """The three settable values; ``__post_init__`` sets one attribute per
    :data:`LADDER` entry."""

    resolution: float = REFERENCE_RESOLUTION
    lines: int = 8                        # random lines per power test (at least 4)
    word_cap: int = 10000                 # largest word battery analyze runs

    def __post_init__(self):
        for name in ("lines", "word_cap"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is an int to isinstance
                raise ValueError(f"tolerance {name} must be an integer, got {value!r}")
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
        if self.lines < 4:
            raise ValueError(f"tolerance lines must be at least 4, got {self.lines}")
        scale = self.resolution / REFERENCE_RESOLUTION
        for name, literal in LADDER.items():
            value = literal * scale
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"resolution {self.resolution} puts {name} at {value}; "
                                 "it must be finite and positive")
            object.__setattr__(self, name, value)

    def as_dict(self):
        # a shallow copy: every value is a number, so nothing needs deep copying
        return dict(vars(self))


DEFAULT = Tolerances()
