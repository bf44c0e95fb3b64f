"""Exception hierarchy.

Every failure mode gets its own class so callers (and the CLI exit-code
mapper) can tell a structural verdict ("this tuple is not a direct sum of
identical copies, and here is the violated relation") from a numerical or
usage problem.
"""


class SpectralError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- linalg


class NotHermitian(SpectralError):
    pass


class ClusterAmbiguity(SpectralError):
    """An eigenvalue gap falls too close to the clustering threshold."""


class SeparationTooSmall(SpectralError):
    """Cluster centers too close for stable Lagrange interpolation."""


# -------------------------------------------------------------- charpoly


class GridTooLarge(SpectralError):
    """Full tensor interpolation grid would exceed the evaluation cap."""


class DegenerateDirection(SpectralError):
    """Line restriction lost its top-degree coefficient."""


class SingularTransform(SpectralError):
    pass


class BranchTrackingLost(SpectralError):
    """Root cluster near a tracked branch point is not uniquely identifiable."""


# ------------------------------------------------------------ conditions


class IndexOutOfRange(SpectralError):
    pass


class ZeroCoefficientOnCycle(SpectralError):
    pass


# ------------------------------------------------------------ decomposer


class DecompositionError(SpectralError):
    """Base for structural failures: the tuple provably violates the
    block pattern required for a split into identical copies."""


class SpectrumPatternViolation(DecompositionError):
    """First generator does not have n eigenvalue clusters of size k."""


class NotUnitaryScalar(DecompositionError):
    """An off-diagonal block is neither zero nor a scalar times a unitary."""

    def __init__(self, message, block=None, residual=None):
        super().__init__(message)
        self.block = block
        self.residual = residual


class LayerInconsistency(DecompositionError):
    """Block unitaries of two generators differ by more than a phase."""

    def __init__(self, message, pair=None, layer=None, residual=None):
        super().__init__(message)
        self.pair = pair
        self.layer = layer
        self.residual = residual


class CycleInconsistency(DecompositionError):
    """A product of block unitaries around a cycle is not a unimodular
    scalar times the identity."""

    def __init__(self, message, cycle=None, residual=None):
        super().__init__(message)
        self.cycle = cycle
        self.residual = residual


class PartitionInconsistency(DecompositionError):
    """Closed pair set is not a disjoint union of full index lattices."""


class ScalarizationFailed(DecompositionError):
    """Conjugated generator kept a non-scalar block."""

    def __init__(self, message, block=None, residual=None):
        super().__init__(message)
        self.block = block
        self.residual = residual

