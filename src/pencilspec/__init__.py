"""Perfect-power certificates for joint spectra of Hermitian matrix tuples,
and the explicit unitary splitting a passing tuple into k identical copies.
"""

from .config import DEFAULT, Tolerances
from .linalg import HermitianTuple, SpectralData, direct_sum_k_copies, extract_block_structure, prepare_tuple
from .charpoly import KPowerVerdict, kth_power_test
from .conditions import (
    ConditionReport,
    CorollaryReport,
    WordSpec,
    adjoint_twins,
    analyze,
    check_admissibility,
    corollary,
    count_words,
    enumerate_words,
)
from .decomposer import (
    BlockStructure,
    DecompositionResult,
    build_block_unitary,
    decompose,
    factor_block,
    unify_layers,
    verify_decomposition,
)
from .instances import (
    InstanceDescriptor,
    gen_commuting,
    gen_conjugate_negative,
    gen_decomposable,
    haar_unitary,
)

__version__ = "0.1.0"
