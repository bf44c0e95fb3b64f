"""The settings that ``analyze``, ``decompose`` and ``corollary`` read, one
field each; ``--tol NAME=VALUE`` overrides any of them and every report
echoes the whole block.  Thresholds that only the reference routes read
(the coefficient route, the Lagrange projection, branch tracking) are
constants next to them in :mod:`~pencilspec.reference` instead.

The three commands run on unit-scale generators:
:func:`~pencilspec.linalg.prepare_tuple` divides each one by its spectral
norm and shifts singular ones, so the spectral bounds below are read
against norms of order one and verdicts do not depend on the input's scale.
The Hermitian admission check is relative to each input matrix's norm, so
it is scale-free too; only the final residual bounds of a decomposition are
read in the input's units.
The ladder deliberately leaves about two decades between detection
thresholds (structural tests) and acceptance thresholds (final residuals)
so one noisy stage cannot cascade into a false failure.  Every value must
be finite and positive, ``lines`` and ``word_cap`` integers, and ``lines``
at least 4; a :class:`Tolerances` that breaks a rule is never built, so no
reader checks them again.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Hermiticity admission check; unitarity of a decomposition's transform
    hermitian_rel: float = 1e-12          # times ||A||, on the input
    unitary_rel: float = 1e-10            # times N

    # eigenvalue clustering
    gap_tol: float = 1e-8                 # times max(1, max |eigenvalue|)

    # generator regularization
    singular_eig_rel: float = 1e-10       # below this, shift by ||A|| + 1; span rank cut

    # sampled k-th-power test.  Margin of cluster_rel: over decomposable and
    # commuting tuples (12 shapes x 4 seeds, every word's Hermitian triple)
    # the worst eigenvalue spread is 2.1e-14, 2e-6 of the tolerance, and
    # the epsilon-phase twins of tests/test_resolution.py fail at every
    # epsilon down to 1e-6.
    cluster_rel: float = 1e-8             # eigenvalue-cluster tolerance, times (1+max|lambda|)
    lines: int = 8                        # random lines per power test (at least 4)
    word_cap: int = 10000                 # enumeration cap (flagged, not fatal)

    # admissibility
    admissible_sep_rel: float = 1e-6      # generator cluster separation

    # block structure ladder
    structural_tol: float = 1e-7          # factor/unify/cycle checks
    scalar_block_tol: float = 1e-6        # post-conjugation scalar check
    residual_tol: float = 1e-6            # final decomposition residual, times max ||A_l||

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

    def as_dict(self):
        # a shallow copy: every field is a number, so nothing needs deep copying
        return dict(vars(self))


DEFAULT = Tolerances()
