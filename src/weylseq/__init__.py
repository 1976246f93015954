"""Sequential measurements of conjugate observables on finite abelian groups.

The package builds Weyl systems for groups Z_{d_1} x ... x Z_{d_k},
couples them to probes through the position-adding unitary, and exposes
the resulting covariant instruments, their operator-valued-measure
parametrization, and covariant phase-space observables, with every
structural identity available as a numerical check.
"""

from .algebra import (
    Tolerance,
    approx_eq,
    hermitian_eig,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace_first,
    partial_trace_second,
    trace_norm,
)
from .errors import (
    DimensionError,
    GroupError,
    HermiticityError,
    InvalidInstrumentError,
    InvalidMeasureError,
    NotCovariantError,
    WeylseqError,
)
from .group import Group
from .instruments import (
    CovariantMeasure,
    CpMap,
    Instrument,
    associated_observable,
    compose_sequential,
    coupling_unitary,
    covariant_instrument,
    instrument_from_json,
    instrument_to_json,
    measure_from_json,
    measure_to_json,
    reconstruct_measure,
    reconstruction_residual,
    standard_instrument,
    verify_covariance,
)
from .observables import (
    Povm,
    ProbVector,
    cpso_from_state,
    effect_span_dimension,
    ensure_state,
    is_informationally_complete,
    measure,
    povm_from_json,
    povm_to_json,
    smear_momentum,
    smear_position,
    verify_cpso_covariance,
)
from .sequential import (
    SequentialResult,
    check_map,
    generating_state,
    joint_observable,
    noise_measures,
    run_sequential,
    sequential_from_cpso,
)
from .spin import (
    SpinFrame,
    kronecker_factorization_check,
    pauli_vector,
    spin_povm,
    tradeoff_check,
    unsharp_spin,
)
from .weyl import (
    PhasePoint,
    WeylSystem,
    phase_point_product,
    snag_residuals,
    weyl_relation_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Tolerance", "approx_eq", "hermitian_eig", "is_psd", "kron",
    "matrix_from_json", "matrix_to_json", "partial_trace_first",
    "partial_trace_second", "trace_norm",
    "DimensionError", "GroupError", "HermiticityError",
    "InvalidInstrumentError", "InvalidMeasureError", "NotCovariantError", "WeylseqError",
    "Group",
    "CovariantMeasure", "CpMap", "Instrument", "associated_observable",
    "compose_sequential", "coupling_unitary", "covariant_instrument",
    "instrument_from_json", "instrument_to_json", "measure_from_json",
    "measure_to_json", "reconstruct_measure", "reconstruction_residual",
    "standard_instrument", "verify_covariance",
    "Povm", "ProbVector", "cpso_from_state", "effect_span_dimension",
    "ensure_state", "is_informationally_complete", "measure",
    "povm_from_json", "povm_to_json", "smear_momentum", "smear_position",
    "verify_cpso_covariance",
    "SequentialResult", "check_map", "generating_state", "joint_observable",
    "noise_measures", "run_sequential", "sequential_from_cpso",
    "SpinFrame", "kronecker_factorization_check", "pauli_vector",
    "spin_povm", "tradeoff_check", "unsharp_spin",
    "PhasePoint", "WeylSystem", "phase_point_product", "snag_residuals",
    "weyl_relation_residual",
]
