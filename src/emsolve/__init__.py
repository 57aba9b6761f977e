"""Exponential-integrator diffusion ODE solvers driven by empirical model statistics."""

from .ems import (
    EmsConfig,
    EmsTable,
    degenerate_table,
    estimate_l,
    estimate_sb,
    estimate_table,
    eval_f,
    eval_f1,
    load_table,
    save_table,
)
from .errors import ConvergenceError, DomainError, TableFormatError, UnsupportedVersionError
from .integrals import (
    IntegralTable,
    build_integral_table,
    coeff_A,
    coeff_E0,
    coeff_Ek,
    coeff_int_EB,
    g_coefficients,
)
from .models import (
    EvalCounter,
    GaussianMixture,
    Guided,
    ModelSpec,
    PointGaussian,
    forward_diffuse,
    model_from_dict,
    model_id,
    reference_solve,
)
from .schedule import Schedule, TimeGrid, make_time_grid, schedules_equal
from .solver import (
    SolverConfig,
    ddim_sample,
    ddim_step,
    estimate_derivatives,
    estimate_derivatives_pseudo,
    lupdate,
    multistep_sample,
    singlestep_sample,
)

__version__ = "0.1.0"
