import json
from importlib import resources

import jsonschema
import pytest

from covertq import detect
from covertq.detect import exact_error_probabilities, monte_carlo_error
from covertq.experiment import (
    CampaignConfig,
    _row_stream,
    result_to_json,
    rows_to_csv,
    run_campaign,
    threshold_sweep,
)
from covertq.exponent import i_err_closed
from covertq.model import ModelParams
from covertq.sim import RngSeed

PARAMS = ModelParams(0.3, 0.2, 1.0)


def exact_campaign(n_grid, params=PARAMS):
    return run_campaign(
        CampaignConfig(
            params=params,
            n_grid=tuple(n_grid),
            trials_per_point=1000,
            master_seed=RngSeed(11),
        )
    )


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(PARAMS, (), 100)
    with pytest.raises(ValueError):
        CampaignConfig(PARAMS, (100, 100), 100)
    with pytest.raises(ValueError):
        CampaignConfig(PARAMS, (100, 200), 0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            CampaignConfig(PARAMS, (100, 200), 100, workers=workers)


def test_degenerate_campaign_is_flat_at_half():
    result = run_campaign(
        CampaignConfig(
            params=ModelParams(0.3, 0.0, 1.0),
            n_grid=(10, 20, 30, 40),
            trials_per_point=500,
            master_seed=RngSeed(3),
        )
    )
    for row in result["rows"]:
        assert row["method"] == "mc"
        assert row["p_f"] == 0.0
        assert row["p_m"] == 1.0
        assert row["p_e"] == 0.5
    assert repr(result["fitted_slope_e"]) == "0.0"  # exactly 0, and not -0.0
    assert result["exponent_ref"] is None


def test_exact_campaign_rows_match_oracle():
    result = exact_campaign([50, 100, 150])
    for row in result["rows"]:
        ep = exact_error_probabilities(PARAMS, row["n"])
        assert row["p_f"] == ep.p_f
        assert row["p_m"] == ep.p_m
        assert (row["se_f"], row["se_m"]) == (0.0, 0.0)
        assert row["method"] == "exact"


def test_decay_slope_approaches_exponent():
    # sub-exponential prefactor (roughly 1/sqrt(n)) steepens the finite-n
    # slope, hence the 10% band on the n <= 2000 window
    result = exact_campaign(range(100, 2001, 100))
    i_err = i_err_closed(PARAMS)
    assert abs(result["fitted_slope_e"] + i_err) / i_err < 0.10


def test_equalized_exponents_at_zero_threshold():
    result = exact_campaign(range(100, 2001, 100))
    gap = abs(result["fitted_slope_f"] - result["fitted_slope_m"])
    assert gap / max(abs(result["fitted_slope_f"]), abs(result["fitted_slope_m"])) < 0.15


def test_slope_window_slides_toward_exponent():
    i_err = i_err_closed(PARAMS)
    low = exact_campaign(range(100, 1001, 100))["fitted_slope_e"]
    high = exact_campaign(range(1000, 2001, 100))["fitted_slope_e"]
    assert abs(high + i_err) < abs(low + i_err)


def test_mc_campaign_agrees_with_exact_everywhere():
    cfg = CampaignConfig(
        params=PARAMS,
        n_grid=(20, 60, 120),
        trials_per_point=20_000,
        master_seed=RngSeed(19),
        use_exact_when_feasible=False,
    )
    result = run_campaign(cfg)
    for row in result["rows"]:
        ep = exact_error_probabilities(PARAMS, row["n"])
        assert abs(row["p_f"] - ep.p_f) < 4 * max(row["se_f"], 1e-9)
        assert abs(row["p_m"] - ep.p_m) < 4 * max(row["se_m"], 1e-9)


def test_mc_campaign_reproducible_across_workers():
    def render(workers):
        cfg = CampaignConfig(
            params=PARAMS,
            n_grid=(20, 50),
            trials_per_point=30_000,
            master_seed=RngSeed(23),
            use_exact_when_feasible=False,
            workers=workers,
        )
        return result_to_json(run_campaign(cfg))

    assert render(1) == render(4)


def _count_simulations(monkeypatch):
    calls = []
    original = detect.simulate_sequence_batch

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(detect, "simulate_sequence_batch", counting)
    return calls


def mc_campaign(n_grid, master):
    return run_campaign(CampaignConfig(params=PARAMS, n_grid=tuple(n_grid),
                                       trials_per_point=600, master_seed=master,
                                       use_exact_when_feasible=False, workers=2))


def test_mc_campaign_rows_are_windows_of_the_longest_rows_simulation(monkeypatch):
    master = RngSeed(41, 6)
    calls = _count_simulations(monkeypatch)
    rows = mc_campaign((30, 64, 65, 200), master)["rows"]
    # one block per hypothesis serves the whole grid
    assert sorted(hyp.value for hyp in calls) == [0, 1]
    stream = _row_stream(master, 200)
    assert [r["seed"] for r in rows] == [stream] * 4
    top = monte_carlo_error(PARAMS, 200, 0.0, 600, master.with_stream(stream))
    assert (rows[-1]["p_f"], rows[-1]["p_m"]) == (top.p_f, top.p_m)
    assert (rows[-1]["se_f"], rows[-1]["se_m"]) == (top.se_f, top.se_m)
    # a grid point below the longest window moves no other row
    keys = ("n", "p_f", "p_m", "se_f", "se_m", "seed")
    inserted = [r for r in mc_campaign((30, 64, 65, 120, 200), master)["rows"]
                if r["n"] != 120]
    assert [[r[k] for k in keys] for r in inserted] == [[r[k] for k in keys] for r in rows]


def test_empty_sweep_is_empty_on_both_paths():
    assert threshold_sweep(PARAMS, 50, []) == []
    assert threshold_sweep(PARAMS, 50, [], trials=100, seed=RngSeed(1)) == []


def test_threshold_sweep_monotone_and_extreme():
    gammas = [-1e9, -2.0, -0.5, 0.0, 0.5, 2.0, 1e9]
    rows = threshold_sweep(PARAMS, 50, gammas)
    p_fs = [r["p_f"] for r in rows]
    p_ms = [r["p_m"] for r in rows]
    assert all(b >= a for a, b in zip(p_fs, p_fs[1:]))
    assert all(b <= a for a, b in zip(p_ms, p_ms[1:]))
    assert rows[0]["p_f"] == 0.0 and rows[0]["p_m"] == 1.0
    assert rows[-1]["p_f"] == 1.0 and rows[-1]["p_m"] == 0.0


def test_zero_threshold_near_optimal():
    # p_e over a fine gamma grid at n = 200; the minimizer must sit within
    # one per-symbol LLR quantization step of 0
    import numpy as np

    step = abs(
        np.log((1 / 1.3) / (2 / 3)) - np.log((0.3 / 1.3) / (1 / 3))
    )
    gammas = np.arange(-10.0, 10.0, step / 10)
    rows = threshold_sweep(PARAMS, 200, list(gammas))
    best = min(rows, key=lambda r: r["p_e"])
    assert abs(best["gamma"]) <= step


def test_mc_sweep_requires_seed():
    with pytest.raises(ValueError):
        threshold_sweep(PARAMS, 20, [0.0], trials=100)


def test_result_file_is_what_the_schema_defines():
    cfg = CampaignConfig(
        params=PARAMS,
        n_grid=(20, 40, 60),
        trials_per_point=500,
        threshold=0.25,
        master_seed=RngSeed(31, 4),
        use_exact_when_feasible=False,
    )
    ref = resources.files("covertq") / "schemas" / "campaign_result.schema.json"
    validator = jsonschema.Draft202012Validator(json.loads(ref.read_text()))
    text = result_to_json(run_campaign(cfg))
    doc = json.loads(text)
    validator.validate(doc)
    assert doc["config"] == cfg.to_dict()
    del doc["rows"][1]["p_m"]
    assert not validator.is_valid(doc)
    doc = json.loads(text)
    doc["version"] = 99
    assert not validator.is_valid(doc)
    for key in ("config", "exponent_ref"):
        doc = json.loads(text)
        del doc[key]
        assert not validator.is_valid(doc), key


def test_result_schema_inlines_the_exponent_report_schema():
    # inlined, not a $ref: a validator built from one file resolves no other
    schemas = resources.files("covertq") / "schemas"
    result = json.loads((schemas / "campaign_result.schema.json").read_text())
    report = json.loads((schemas / "exponent_report.schema.json").read_text())
    del report["$schema"]
    assert result["properties"]["exponent_ref"] == {"anyOf": [{"type": "null"}, report]}


def test_rows_csv_columns():
    result = exact_campaign([100, 200, 300])
    lines = rows_to_csv(result).splitlines()
    assert lines[0] == "n,p_f,p_m,p_e,se_f,se_m,trials"
    assert len(lines) == 4


def test_from_config_reads_every_key_and_its_default():
    cfg = CampaignConfig.from_config(
        "lambda_w = 0.3\nlambda_b = 0.2\nmu = 2\nn_grid = 10, 20\n"
        "trials_per_point = 5\nthreshold = -0.5\nmaster_seed = 9\nstream_id = 4\n"
        "use_exact_when_feasible = NO\n", workers=3)
    assert cfg == CampaignConfig(ModelParams(0.3, 0.2, 2.0), (10, 20), 5, -0.5,
                                 RngSeed(9, 4), False, 3)
    required = ("lambda_w = 0.3\nlambda_b = 0.2\nn_grid = 10\n"
                "trials_per_point = 5\nmaster_seed = 9\n")
    assert CampaignConfig.from_config(required) == CampaignConfig(
        ModelParams(0.3, 0.2, 1.0), (10,), 5, 0.0, RngSeed(9, 0), True, 1)
    for word, value in (("Yes", True), ("1", True), ("false", False), ("0", False)):
        text = required + f"use_exact_when_feasible = {word}\n"
        assert CampaignConfig.from_config(text).use_exact_when_feasible is value
    with pytest.raises(ValueError, match="unknown config key: seed"):
        CampaignConfig.from_config(required + "seed = 1\n")
    with pytest.raises(ValueError, match="missing required key: master_seed"):
        CampaignConfig.from_config(required.replace("master_seed = 9\n", ""))
