"""Joint Bayesian inference of copy-number states and sparse copy-number to
expression associations, fit by a five-move MCMC sampler.

The names re-exported here cover the library workflow: validate the observed
data with its hyperparameters and sampler settings, run the chain, summarize
its trace, and check convergence; simulated datasets with a planted truth and
their evaluation come with it. Every other name, the file formats
(:mod:`cnvlink.matrixio`, :mod:`cnvlink.config`) and the command line
(:mod:`cnvlink.cli`) are imported from their modules.
"""

__version__ = "0.1.0"

from .model import (
    STATE_NAMES,
    HmmHyper,
    NumericalError,
    ObservedData,
    RegressionHyper,
    SamplerConfig,
    ValidationError,
    validate,
)
from .sampler import run_chain
from .inference import summarize
from .simulate import ScenarioSpec, evaluate, simulate_dataset
from .diagnostics import geweke, heidelberger_welch

__all__ = [
    "__version__",
    "STATE_NAMES",
    "ObservedData",
    "RegressionHyper",
    "HmmHyper",
    "SamplerConfig",
    "ValidationError",
    "NumericalError",
    "validate",
    "run_chain",
    "summarize",
    "ScenarioSpec",
    "simulate_dataset",
    "evaluate",
    "geweke",
    "heidelberger_welch",
]
