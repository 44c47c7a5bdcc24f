"""retroq: retrodiction of generalised measurement outcomes.

Decide whether the outcome of a generalised quantum measurement can be
retrodicted (perfectly or unambiguously), construct the measurements that
do the retrodicting, and validate every decision by seeded simulation.
"""

from .catalog import NamedExample, catalog, get_example
from .dependence import (
    DependenceVerdict,
    check_linear_independence,
    check_lld,
    check_lld_n2_exact,
    check_lli,
    classify_operators,
    fock_shift_example,
)
from .errors import (
    BadBasisError,
    BadMuError,
    DependentFinalStatesError,
    DimensionMismatchError,
    InvalidOperatorSetError,
    LinearlyDependentStatesError,
    NonUnitaryInputError,
    NotFineGrainedError,
    NotHermitianError,
    NotPerfectlyRetrodictableError,
    NotPsdError,
    NotSquareError,
    RetroqError,
    ShapeMismatchError,
    TooManyOutcomesError,
    ZeroProbabilityOutcomeError,
)
from .linalg import DEFAULT_TOL, Tolerance, numeric_rank, support_projector
from .measurement import Measurement, Povm, QuantumState, apply_outcome, outcome_probabilities, povm_of
from .perfect import (
    PerfectCheckReport,
    ProjectiveEquivalence,
    ProjectiveRetrodictor,
    build_retrodictor,
    check_perfect,
    projective_equivalence,
)
from .simulation import TrialReport, always_inconclusive, run_trials
from .synthesis import SynthesisResult, b_factor, dilated_kraus, standard_basis, synthesize
from .unambiguous import (
    RetrodictionAssessment,
    UnambiguousRetrodictor,
    assess_measurement,
    build_ud_povm,
    discriminate_unitaries,
    maximally_entangled_state,
    retrodict_unambiguously,
)

__version__ = "0.1.0"

__all__ = [
    "BadBasisError",
    "BadMuError",
    "DEFAULT_TOL",
    "DependenceVerdict",
    "DependentFinalStatesError",
    "DimensionMismatchError",
    "InvalidOperatorSetError",
    "LinearlyDependentStatesError",
    "Measurement",
    "NamedExample",
    "NonUnitaryInputError",
    "NotFineGrainedError",
    "NotHermitianError",
    "NotPerfectlyRetrodictableError",
    "NotPsdError",
    "NotSquareError",
    "PerfectCheckReport",
    "Povm",
    "ProjectiveEquivalence",
    "ProjectiveRetrodictor",
    "QuantumState",
    "RetroqError",
    "RetrodictionAssessment",
    "ShapeMismatchError",
    "SynthesisResult",
    "Tolerance",
    "TooManyOutcomesError",
    "TrialReport",
    "UnambiguousRetrodictor",
    "ZeroProbabilityOutcomeError",
    "always_inconclusive",
    "apply_outcome",
    "assess_measurement",
    "b_factor",
    "build_retrodictor",
    "build_ud_povm",
    "catalog",
    "check_linear_independence",
    "check_lld",
    "check_lld_n2_exact",
    "check_lli",
    "check_perfect",
    "classify_operators",
    "dilated_kraus",
    "discriminate_unitaries",
    "fock_shift_example",
    "get_example",
    "maximally_entangled_state",
    "numeric_rank",
    "outcome_probabilities",
    "povm_of",
    "projective_equivalence",
    "retrodict_unambiguously",
    "run_trials",
    "standard_basis",
    "support_projector",
    "synthesize",
]
