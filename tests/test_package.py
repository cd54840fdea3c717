"""The package surface: every public name resolves lazily to its definition."""

import sys

import pytest

import covertq
from covertq import cli, detect, model
from fresh import run_fresh

PUBLIC = (
    "CampaignConfig", "CovertnessSpec", "DegenerateModelError",
    "Hypothesis", "ModelParams", "ObservationSequence",
    "RngSeed", "covertness_check", "decide",
    "exact_error_probabilities", "exponent_report", "i_err_closed", "i_err_numeric",
    "i_err_taylor", "log_likelihood_ratio", "max_covert_rate",
    "monte_carlo_error", "persist", "r_of_u", "run_campaign", "scaling_table",
    "scaling_table_csv", "simulate_sequence", "simulate_sequence_batch",
    "threshold_sweep", "v_closed_form",
)


def test_all_is_unchanged():
    assert covertq.__all__ == list(PUBLIC)


def test_each_name_is_the_object_its_submodule_defines():
    for name in PUBLIC:
        obj = getattr(covertq, name)
        assert obj.__module__.startswith("covertq."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_degenerate_model_error_is_one_class():
    assert covertq.DegenerateModelError is detect.DegenerateModelError
    assert covertq.DegenerateModelError is model.DegenerateModelError


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from covertq import *", ns)
    assert set(PUBLIC) <= set(ns)
    assert all(ns[name] is getattr(covertq, name) for name in PUBLIC)


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'covertq' has no attribute 'nope'"):
        getattr(covertq, "nope")
    with pytest.raises(AttributeError, match="module 'covertq.cli' has no attribute 'nope'"):
        getattr(cli, "nope")


def test_submodules_are_package_attributes_before_any_import():
    script = ("import covertq\n"
              "for m in ('covert', 'detect', 'experiment', 'exponent', 'model', 'sim'):\n"
              "    assert getattr(covertq, m).__name__ == 'covertq.' + m\n")
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
