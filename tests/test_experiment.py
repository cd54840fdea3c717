import json

import pytest

from covertq.detect import exact_error_probabilities
from covertq.experiment import (
    CampaignConfig,
    ResultParseError,
    ResultVersionError,
    load,
    persist,
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


def test_degenerate_campaign_is_flat_at_half():
    result = run_campaign(
        CampaignConfig(
            params=ModelParams(0.3, 0.0, 1.0),
            n_grid=(10, 20, 30, 40),
            trials_per_point=500,
            master_seed=RngSeed(3),
        )
    )
    for row in result.rows:
        assert row.method == "mc"
        assert row.p_f == 0.0
        assert row.p_m == 1.0
        assert row.p_e == 0.5
    assert result.fitted_slope_e == pytest.approx(0.0, abs=1e-12)
    assert result.exponent_ref is None


def test_exact_campaign_rows_match_oracle():
    result = exact_campaign([50, 100, 150])
    for row in result.rows:
        ep = exact_error_probabilities(PARAMS, row.n)
        assert row.p_f == ep.p_f
        assert row.p_m == ep.p_m
        assert row.method == "exact"


def test_decay_slope_approaches_exponent():
    # sub-exponential prefactor (roughly 1/sqrt(n)) steepens the finite-n
    # slope, hence the 10% band on the n <= 2000 window
    result = exact_campaign(range(100, 2001, 100))
    i_err = i_err_closed(PARAMS)
    assert abs(result.fitted_slope_e + i_err) / i_err < 0.10


def test_equalized_exponents_at_zero_threshold():
    result = exact_campaign(range(100, 2001, 100))
    gap = abs(result.fitted_slope_f - result.fitted_slope_m)
    assert gap / max(abs(result.fitted_slope_f), abs(result.fitted_slope_m)) < 0.15


def test_slope_window_slides_toward_exponent():
    i_err = i_err_closed(PARAMS)
    low = exact_campaign(range(100, 1001, 100)).fitted_slope_e
    high = exact_campaign(range(1000, 2001, 100)).fitted_slope_e
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
    for row in result.rows:
        ep = exact_error_probabilities(PARAMS, row.n)
        assert abs(row.p_f - ep.p_f) < 4 * max(row.se_f, 1e-9)
        assert abs(row.p_m - ep.p_m) < 4 * max(row.se_m, 1e-9)


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


def test_persist_round_trip(tmp_path):
    result = exact_campaign([100, 200, 300])
    path = tmp_path / "result.json"
    persist(result, path)
    again = load(path)
    assert again.rows == result.rows
    assert again.fitted_slope_e == result.fitted_slope_e
    assert again.exponent_ref == result.exponent_ref


def test_persist_round_trips_config(tmp_path):
    cfg = CampaignConfig(
        params=PARAMS,
        n_grid=(20, 40, 60),
        trials_per_point=500,
        threshold=0.25,
        master_seed=RngSeed(31, 4),
        use_exact_when_feasible=False,
        workers=1,
    )
    path = tmp_path / "result.json"
    persist(run_campaign(cfg), path)
    assert load(path).config == cfg


def test_load_missing_field_named(tmp_path):
    result = exact_campaign([100, 200, 300])
    doc = json.loads(result_to_json(result))
    del doc["rows"][1]["p_m"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ResultParseError, match="p_m"):
        load(path)


def test_load_version_mismatch(tmp_path):
    result = exact_campaign([100, 200, 300])
    doc = json.loads(result_to_json(result))
    doc["version"] = 99
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ResultVersionError):
        load(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {")
    with pytest.raises(ResultParseError):
        load(path)


def test_rows_csv_columns():
    result = exact_campaign([100, 200, 300])
    lines = rows_to_csv(result).splitlines()
    assert lines[0] == "n,p_f,p_m,p_e,se_f,se_m,trials"
    assert len(lines) == 4
