"""Covert queueing analysis for a bufferless M/M/1/1 server.

The auditor watches only the busy/idle record of N successive arrivals.
This package simulates that record, runs the likelihood-ratio test that
detects covert traffic, computes the analytical error exponent and the
covert-rate bound, and validates the analytics against simulation and
brute-force oracles.
"""

from .covert import (
    BoundResult,
    CovertnessSpec,
    KFunction,
    covertness_check,
    max_covert_rate,
    scaling_table,
    scaling_table_csv,
)
from .detect import (
    DegenerateModelError,
    ErrorProbabilities,
    LlrResult,
    decide,
    exact_error_probabilities,
    log_likelihood_ratio,
    monte_carlo_error,
)
from .experiment import (
    CampaignConfig,
    ExperimentResult,
    load,
    persist,
    run_campaign,
    threshold_sweep,
)
from .exponent import (
    ExponentReport,
    NumericFailure,
    exponent_report,
    i_err_closed,
    i_err_numeric,
    i_err_taylor,
    r_of_u,
    v_closed_form,
)
from .model import Hypothesis, ModelParams, UnstableRegimeWarning
from .sim import (
    ObservationSequence,
    RngSeed,
    SimTrace,
    simulate_sequence,
    simulate_sequence_batch,
    simulate_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CampaignConfig",
    "CovertnessSpec",
    "DegenerateModelError",
    "ErrorProbabilities",
    "ExperimentResult",
    "ExponentReport",
    "Hypothesis",
    "KFunction",
    "LlrResult",
    "ModelParams",
    "NumericFailure",
    "ObservationSequence",
    "RngSeed",
    "SimTrace",
    "UnstableRegimeWarning",
    "covertness_check",
    "decide",
    "exact_error_probabilities",
    "exponent_report",
    "i_err_closed",
    "i_err_numeric",
    "i_err_taylor",
    "load",
    "log_likelihood_ratio",
    "max_covert_rate",
    "monte_carlo_error",
    "persist",
    "r_of_u",
    "run_campaign",
    "scaling_table",
    "scaling_table_csv",
    "simulate_sequence",
    "simulate_sequence_batch",
    "simulate_trace",
    "threshold_sweep",
    "v_closed_form",
]
