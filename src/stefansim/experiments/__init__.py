from .config import ExperimentConfig, load_config, resolve, stefan_front_coefficient
from .runs import ConvergenceReport, run_converge, run_lemma_suite, run_simulate, run_stefan_oracle

__all__ = [
    "ExperimentConfig",
    "load_config",
    "resolve",
    "ConvergenceReport",
    "run_simulate",
    "run_converge",
    "run_stefan_oracle",
    "run_lemma_suite",
    "stefan_front_coefficient",
]
