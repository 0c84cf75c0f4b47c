"""Exact commuting integrals and constrained integration for magnetic
geodesic flow on the round sphere.

The exact layer (`exactpoly`, `magnetic_model`, `integral_family`)
constructs the first integrals as polynomials over Q and proves their
commutation by computing brackets exactly.  `verify` adds an exact
certificate of functional independence over a prime field, Hamiltonian
membership and the superintegrability probe; `flow` is a
constraint-preserving second-order integrator; `cli` wraps everything in
a batch front-end.
"""

__version__ = "0.1.0"

from .errors import InputError, StepError
from .exactpoly import (
    PhasePoly,
    compiled_evaluator,
    format_rational,
    parse_rational,
    poisson_bracket,
    p_var,
    x_var,
)
from .flow import (
    TrajectoryRecord,
    drift_report,
    integrate,
    picture_map,
    project_initial,
    step,
    write_csv,
)
from .integral_family import (
    IntegralFamily,
    commuting_basis,
    degenerate_integral,
    killing,
    limit_integral,
    uhlenbeck_integral,
)
from .magnetic_model import (
    MagneticModel,
    SkewNormalForm,
    gauge_shift,
    hamiltonian_pert,
    kinetic_energy,
    omega_matrix,
    potential,
    sigma_linear,
    skew_normal_form,
)
from .verify import (
    IndependenceCertificate,
    MembershipResult,
    PairResult,
    ProbeResult,
    VerificationReport,
    check_commutation,
    functional_independence,
    hamiltonian_membership,
    run_verification,
    superintegrability_probe,
)

__all__ = [
    "__version__",
    "InputError",
    "StepError",
    "PhasePoly",
    "poisson_bracket",
    "compiled_evaluator",
    "parse_rational",
    "format_rational",
    "x_var",
    "p_var",
    "MagneticModel",
    "SkewNormalForm",
    "skew_normal_form",
    "kinetic_energy",
    "sigma_linear",
    "potential",
    "hamiltonian_pert",
    "gauge_shift",
    "omega_matrix",
    "IntegralFamily",
    "commuting_basis",
    "killing",
    "uhlenbeck_integral",
    "degenerate_integral",
    "limit_integral",
    "check_commutation",
    "functional_independence",
    "hamiltonian_membership",
    "superintegrability_probe",
    "run_verification",
    "PairResult",
    "IndependenceCertificate",
    "MembershipResult",
    "ProbeResult",
    "VerificationReport",
    "project_initial",
    "step",
    "integrate",
    "picture_map",
    "drift_report",
    "write_csv",
    "TrajectoryRecord",
]
