"""Quantization-aware-training optimization toolkit.

Library layers, bottom to top: array/rng primitives (``numerics``), the fast
Walsh-Hadamard rotation (``transform``), quantizers with exact error
decomposition (``quantize``), straight-through gradient policies
(``qat_grad``), optimizer steps with the error-correction family (``optim``),
analytic test objectives (``objectives``), stationarity diagnostics
(``pareto``), the capacity scaling-law fit (``scaling``), and the experiment
lanes plus CLI (``experiments``, ``cli``).
"""

from .numerics import (
    Matrix,
    Vector,
    finite_diff_grad,
    gaussian_vector,
    make_rng,
    make_spd,
    matvec,
    pca_project,
    power_iteration_lmax,
)
from .transform import HadamardPlan, fwht_unnormalized, hadamard_forward, hadamard_inverse, hadamard_plan
from .quantize import (
    QuantResult,
    QuantSpec,
    calibrate_clip,
    default_clip_factor,
    gaussian_clip_mse,
    int_spec,
    quant_error,
    quantize,
    quantize_floor,
    quantize_int_row,
    quantize_mxfp4,
)
from .qat_grad import StePolicy, identity_policy, ste_backward, trust_masked_policy
from .optim import (
    AdamState,
    LambdaSchedule,
    OptimConfig,
    adamw_step,
    cage_adamw_coupled_step,
    cage_adamw_decoupled_step,
    cage_sgd_step,
    grad_clip,
    lambda_at,
    sgd_step,
)
from .objectives import Objective, quadratic, rosenbrock, toy_scalar
from .pareto import (
    EfState,
    ParetoMeasure,
    ef_step,
    ergodic_series,
    loglog_fit,
    pareto_gradient,
    rate_fit,
    write_trace_csv,
)
from .scaling import (
    ScalingDatum,
    ScalingFit,
    fit_scaling,
    predict_loss,
    read_scaling_csv,
    synthesize_scaling_data,
    write_scaling_csv,
)
from .experiments import (
    NumericalFailure,
    run_convergence_run,
    run_quadratic,
    run_toy_pareto,
)

__version__ = "0.1.0"
