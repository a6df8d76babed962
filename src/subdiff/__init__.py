"""Discrete Caputo derivatives and finite-difference schemes for the
time-fractional diffusion equation, with executable audits of the provable
weight and energy inequalities and a refinement-study harness."""

from .grids import (
    ErrorSummary,
    SolutionHistory,
    SpaceGrid,
    convergence_order,
    error_norms,
)
from .harness import (
    ConvergenceReport,
    LevelSpec,
    ReportRow,
    StudyPlan,
    emit,
    monomial_error,
    run_study,
    study_plan,
)
from .kernels import (
    L1,
    L21SIGMA,
    AuditCheck,
    EnergyProbe,
    FractionalOrder,
    WeightAudit,
    WeightVector,
    apply,
    audit_weight_family,
    energy_inequality_probe,
    weights,
)
from .problems import (
    PROBLEM_IDS,
    MonomialCase,
    NamedProblem,
    get_problem,
    problem_caputo_monomial,
    problem_timecoeff_compact,
    problem_varcoeff_2nd,
)
from .schemes import (
    ProblemSpec,
    SchemeCompatibilityError,
    a_priori_bound,
    run_compact,
    run_second_order,
)
from .tridiag import SingularSystemError

__version__ = "0.1.0"

__all__ = [
    "AuditCheck",
    "ConvergenceReport",
    "EnergyProbe",
    "ErrorSummary",
    "FractionalOrder",
    "L1",
    "L21SIGMA",
    "LevelSpec",
    "MonomialCase",
    "NamedProblem",
    "PROBLEM_IDS",
    "ProblemSpec",
    "ReportRow",
    "SchemeCompatibilityError",
    "SingularSystemError",
    "SolutionHistory",
    "SpaceGrid",
    "StudyPlan",
    "WeightAudit",
    "WeightVector",
    "__version__",
    "a_priori_bound",
    "apply",
    "audit_weight_family",
    "convergence_order",
    "emit",
    "energy_inequality_probe",
    "error_norms",
    "get_problem",
    "monomial_error",
    "problem_caputo_monomial",
    "problem_timecoeff_compact",
    "problem_varcoeff_2nd",
    "run_compact",
    "run_second_order",
    "run_study",
    "study_plan",
    "weights",
]
