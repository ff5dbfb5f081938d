"""Evolution operators, projector families and growth rates on
finite-dimensional spaces, with grid-scale verification of trichotomy /
dichotomy inequality systems and of their Lyapunov-type norm
characterizations.
"""

from .errors import (DomainError, ExtrapolationError, NotStronglyInvariantError,
                     PreconditionError, ScenarioError, StructuralError)
from .rates import GrowthRate
from .projectors import (InverseFamily, ProjectorFamily, build_inverses,
                         check_compatible, check_inverse_properties,
                         check_invariance, check_orthogonal, compute_restricted_inverse)
from .evolution import (EvolutionOperator, GeneratorSpec, check_cocycle,
                        check_identity, conjugate, from_generator,
                        identity_operator, rate_model)
from .trichotomy import (INEQUALITIES, check_dichotomy, check_trichotomy,
                         check_trichotomy_full, check_uniform, required_factor)
from .norms import (LyapunovNormFamily, build_norm_family, check_compatibility,
                    check_rate_specialization, verify_norm_trichotomy,
                    verify_norm_trichotomy_unprojected, verify_sufficiency)
from .scenario import Scenario, parse_scenario, scenario_from_tree
from .runner import RunReport, emit, run
from .util import make_grid

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ExtrapolationError", "NotStronglyInvariantError",
    "PreconditionError", "ScenarioError", "StructuralError",
    "GrowthRate",
    "InverseFamily", "ProjectorFamily", "build_inverses", "check_compatible",
    "check_inverse_properties",
    "check_invariance", "check_orthogonal", "compute_restricted_inverse",
    "EvolutionOperator", "GeneratorSpec", "check_cocycle", "check_identity",
    "conjugate", "from_generator", "identity_operator", "rate_model",
    "INEQUALITIES", "check_dichotomy", "check_trichotomy",
    "check_trichotomy_full", "check_uniform", "required_factor",
    "LyapunovNormFamily", "build_norm_family", "check_compatibility",
    "check_rate_specialization", "verify_norm_trichotomy",
    "verify_norm_trichotomy_unprojected", "verify_sufficiency",
    "Scenario", "parse_scenario", "scenario_from_tree",
    "RunReport", "emit", "run", "make_grid",
]
