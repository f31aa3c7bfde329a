"""Bandit learning of Nash equilibria in average-payoff stochastic games."""

from types import ModuleType as _ModuleType

from .analysis import (
    AdvantageTable,
    ExactGradient,
    GapReport,
    ValueReport,
    advantages,
    best_response,
    check_gradient_dominance,
    estimate_mismatch,
    exact_gradient,
    exact_value,
    finite_difference_gradient,
    first_order_residual,
    lipschitz_probe,
    nash_gap,
)
from .games import (
    ChainAnalysis,
    MixingCertificate,
    PolicyProfile,
    StochasticGame,
    analyze_chain,
    certification_sample,
    certify_mixing,
    deterministic_profile,
    dobrushin_coefficient,
    game_hash,
    induced_transition_matrix,
    load_game,
    load_policy,
    random_profile,
    rollout,
    save_game,
    stationary_distribution,
    uniform_profile,
)
from .generators import (
    ExperimentResult,
    GeneratorSpec,
    convergence_benchmark,
    generate,
    sweep,
)
from .learner import (
    HorizonBiasReport,
    LearnerState,
    RunLog,
    Schedule,
    StepDiagnostics,
    decompose_step,
    default_schedule,
    horizon_bias_check,
    run,
    run_batch,
    sqrt_horizon_schedule,
    validate_schedule,
)
from .mirror import (
    Regularizer,
    conjugate,
    fenchel_coupling,
    fenchel_step_bound_check,
    make_regularizer,
    mirror_map,
    project_simplex,
)
from .spsa import (
    GradientEstimate,
    Lifting,
    SafetyNet,
    bias_probe,
    estimate_gradient,
    lift_policy,
    lifting_for,
    perturb,
    reduce_policy,
    reduced_from_full,
    safety_net_for,
    sample_sphere,
    smoothed_gradient_estimate,
)

__all__ = [  # the submodules, which dir() also lists, are not names
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
