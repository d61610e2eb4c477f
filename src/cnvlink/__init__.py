"""Joint Bayesian inference of copy-number states and sparse copy-number to
expression associations, fit by a five-move MCMC sampler.

The public surface re-exported here covers the model types, the collapsed
likelihood, the dependent selection prior, the sampler, posterior
summarization, synthetic data generation, and convergence diagnostics. File
formats and the command line live in :mod:`cnvlink.matrixio`,
:mod:`cnvlink.config`, and :mod:`cnvlink.cli`.

The selection prior has one implementation, :func:`cnvlink.priors.site_log_probs`;
:func:`log_assoc_prior` and the sampler's moves and monitor all call it.
"""

__version__ = "0.1.0"

from .model import (
    AMP,
    GAIN,
    LOSS,
    N_STATES,
    NEUTRAL,
    STATE_NAMES,
    HmmHyper,
    NumericalError,
    ObservedData,
    RegressionHyper,
    SamplerConfig,
    ValidatedContext,
    ValidationError,
    validate,
)
from .likelihood import (
    log_emission,
    log_marginal_likelihood,
    log_state_prior,
    stationary_distribution,
)
from .priors import (
    log_assoc_prior,
    mixture_weights,
    persistence_weights,
    sample_truncated_gamma,
    sample_truncated_normal,
)
from .sampler import (
    ChainState,
    ChainTrace,
    Checkpoint,
    Kernel,
    run_chain,
)
from .inference import (
    PosteriorSummary,
    bfdr_select,
    modal_states,
    posterior_point_estimates,
    ppi,
    q_values,
    summarize,
)
from .simulate import (
    EvalMetrics,
    GroundTruth,
    ScenarioSpec,
    evaluate,
    simulate_associations,
    simulate_dataset,
    simulate_expression,
    simulate_signals,
    simulate_states,
)
from .diagnostics import (
    HWResult,
    ScalarTrace,
    geweke,
    heidelberger_welch,
)

__all__ = [
    "__version__",
    "AMP",
    "GAIN",
    "LOSS",
    "N_STATES",
    "NEUTRAL",
    "STATE_NAMES",
    "ChainState",
    "ChainTrace",
    "Checkpoint",
    "EvalMetrics",
    "GroundTruth",
    "HWResult",
    "HmmHyper",
    "Kernel",
    "NumericalError",
    "ObservedData",
    "PosteriorSummary",
    "RegressionHyper",
    "SamplerConfig",
    "ScalarTrace",
    "ScenarioSpec",
    "ValidatedContext",
    "ValidationError",
    "bfdr_select",
    "evaluate",
    "geweke",
    "heidelberger_welch",
    "log_assoc_prior",
    "log_emission",
    "log_marginal_likelihood",
    "log_state_prior",
    "mixture_weights",
    "modal_states",
    "persistence_weights",
    "posterior_point_estimates",
    "ppi",
    "q_values",
    "run_chain",
    "sample_truncated_gamma",
    "sample_truncated_normal",
    "simulate_associations",
    "simulate_dataset",
    "simulate_expression",
    "simulate_signals",
    "simulate_states",
    "stationary_distribution",
    "summarize",
    "validate",
]
