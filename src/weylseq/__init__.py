"""Sequential measurements of conjugate observables on finite abelian groups.

The package builds Weyl systems for groups Z_{d_1} x ... x Z_{d_k} and
the covariant instruments of a probe coupled through the position-adding
unitary, in closed form from their operator-valued measure, together
with their joint and phase-space observables, with every structural
identity available as a numerical check.
"""

from .algebra import is_psd, matrix_from_json, matrix_to_json
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
from .weyl import WeylSystem, snag_residuals, weyl_relation_residual

__version__ = "0.1.0"

__all__ = [
    "is_psd", "matrix_from_json", "matrix_to_json",
    "DimensionError", "GroupError", "HermiticityError",
    "InvalidInstrumentError", "InvalidMeasureError", "NotCovariantError", "WeylseqError",
    "Group",
    "CovariantMeasure", "CpMap", "Instrument", "covariant_instrument",
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
    "WeylSystem", "snag_residuals", "weyl_relation_residual",
]
