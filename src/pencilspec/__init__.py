"""Perfect-power certificates for joint spectra of Hermitian matrix tuples,
and the explicit unitary splitting a passing tuple into k identical copies.
"""

from .config import DEFAULT, Tolerances
from .linalg import (
    HermitianTuple,
    SpectralData,
    apply_tuple_map,
    direct_sum_k_copies,
    eigendecompose_clustered,
    prepare_tuple,
    projection_by_interpolation,
    shift_to_invertible,
)
from .charpoly import (
    KPowerVerdict,
    MultiPoly,
    UniPoly,
    axis_derivative_closed_form,
    branch_derivative,
    cluster_roots,
    coefficient_distance,
    kth_power_batch,
    kth_power_test,
    pencil_charpoly,
    restrict_pencil_to_line,
    transform_tuple_vars,
)
from .conditions import (
    ConditionReport,
    WordSpec,
    adjoint_twins,
    analyze,
    check_admissibility,
    count_words,
    enumerate_words,
    realize_word,
    verify_first_order_identity,
)
from .decomposer import (
    BlockStructure,
    DecompositionResult,
    build_block_unitary,
    decompose,
    extract_block_structure,
    factor_block,
    unify_layers,
    verify_cycle_identity,
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
