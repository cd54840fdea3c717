"""Covert queueing analysis for a bufferless M/M/1/1 server.

The auditor watches only the busy/idle record of N successive arrivals.
This package simulates that record, runs the likelihood-ratio test that
detects covert traffic, computes the analytical error exponent and the
covert-rate bound, and validates the analytics against simulation and
brute-force oracles.
"""

from importlib import import_module

# The defining submodule of each public name.  Names resolve on first access
# (PEP 562), so `import covertq` loads no numpy until a name that needs it
# is used.
_SUBMODULE = {name: module for module, names in {
    "covert": ("CovertnessSpec", "covertness_check", "max_covert_rate",
               "scaling_table", "scaling_table_csv"),
    "detect": ("decide", "exact_error_probabilities", "log_likelihood_ratio",
               "monte_carlo_error"),
    "experiment": ("CampaignConfig", "persist", "run_campaign", "threshold_sweep"),
    "exponent": ("exponent_report", "i_err_closed", "i_err_numeric",
                 "i_err_taylor", "r_of_u", "v_closed_form"),
    "model": ("DegenerateModelError", "Hypothesis", "ModelParams"),
    "sim": ("ObservationSequence", "RngSeed", "simulate_sequence",
            "simulate_sequence_batch"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULE:
        value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    elif name in _SUBMODULE.values():  # covertq.sim etc., as eager imports gave
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
