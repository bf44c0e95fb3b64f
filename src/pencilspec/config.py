"""Default tolerances, collected in one place.

``analyze``, ``decompose`` and ``corollary`` run on unit-scale generators:
:func:`~pencilspec.linalg.prepare_tuple` divides each one by its spectral
norm and shifts singular ones, so the spectral bounds below are read
against norms of order one and verdicts do not depend on the input's scale.
Only the Hermitian admission check and the final residual bounds of a
decomposition are read in the input's units.
The ladder deliberately leaves about two decades between detection
thresholds (structural tests) and acceptance thresholds (final residuals)
so one noisy stage cannot cascade into a false failure.  Every value must
be finite and positive.
"""

import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    # Hermiticity / unitarity admission checks
    hermitian_rel: float = 1e-12          # times max(1, ||A||), on the input
    unitary_rel: float = 1e-10            # times N

    # eigenvalue clustering
    gap_tol: float = 1e-8                 # times max(1, max |eigenvalue|)
    interpolation_sep_rel: float = 1e-3   # minimum cluster separation for Lagrange

    # generator regularization
    singular_eig_rel: float = 1e-10       # below this, shift by ||A|| + 1; span rank cut

    # polynomial machinery
    prune_rel: float = 5e-12              # drop interpolated coefficients below this
    degenerate_lead_rel: float = 1e-12    # leading-coefficient cutoff on a line
    cluster_rel: float = 1e-6             # base root-cluster tolerance, times (1+max|root|)

    # sampling
    lines: int = 8                        # random lines per power test
    line_retries: int = 10                # redraws before LineSamplingFailed
    word_cap: int = 10000                 # enumeration cap (flagged, not fatal)
    branch_eps: float = 1e-4              # step for branch-derivative tracking

    # admissibility
    admissible_sep_rel: float = 1e-6      # generator cluster separation

    # block structure ladder
    structural_tol: float = 1e-7          # factor/unify/cycle checks
    scalar_block_tol: float = 1e-6        # post-conjugation scalar check
    residual_tol: float = 1e-6            # final decomposition residual, times max ||A_l||

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")

    def as_dict(self):
        return asdict(self)


DEFAULT = Tolerances()
