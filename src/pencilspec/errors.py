"""Exception hierarchy.

Every failure mode gets its own class so callers (and the CLI exit-code
mapper) can tell a structural verdict ("this tuple is not a direct sum of
identical copies, and here is the violated relation") from a numerical or
usage problem.  The errors only the reference routes raise, the cycle
walker's ``ZeroCoefficientOnCycle`` among them, live in
:mod:`pencilspec.reference`.
"""


class SpectralError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- linalg


class NotHermitian(SpectralError):
    pass


class ClusterAmbiguity(SpectralError):
    """An eigenvalue gap falls too close to the clustering threshold."""


# ------------------------------------------------------------ decomposer


class DecompositionError(SpectralError):
    """Base for structural failures: the tuple provably violates the
    block pattern required for a split into identical copies.  Keyword
    details (``block``, ``pair``, ``layer``, ``cycle``, ``residual``) are
    kept as attributes."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.__dict__.update(details)


class SpectrumPatternViolation(DecompositionError):
    """First generator does not have n eigenvalue clusters of size k."""


class NotUnitaryScalar(DecompositionError):
    """An off-diagonal block is neither zero nor a scalar times a unitary."""


class LayerInconsistency(DecompositionError):
    """Block unitaries of two generators differ by more than a phase."""


class CycleInconsistency(DecompositionError):
    """A product of block unitaries around a cycle is not a unimodular
    scalar times the identity."""


class ScalarizationFailed(DecompositionError):
    """Conjugated generator kept a non-scalar block."""
