"""Exponential-integrator diffusion ODE solvers driven by empirical model statistics."""

from .ems import (
    EmsConfig,
    EmsTable,
    degenerate_table,
    estimate_table,
    load_table,
    save_table,
)
from .errors import ConvergenceError, DomainError, TableFormatError, UnsupportedVersionError
from .integrals import (
    IntegralTable,
    build_integral_table,
    g_map,
    transition_coefficients,
)
from .models import (
    EvalCounter,
    GaussianMixture,
    Guided,
    ModelSpec,
    PointGaussian,
    model_from_dict,
    model_id,
    reference_solve,
)
from .schedule import Schedule, TimeGrid, make_time_grid
from .solver import (
    SamplerPlan,
    SolverConfig,
    lupdate,
    multistep_sample,
    plan_multistep,
    plan_singlestep,
    singlestep_sample,
)

__version__ = "0.1.0"
