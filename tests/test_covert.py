from math import log, sqrt

import pytest

from covertq.covert import (
    CovertnessSpec,
    covertness_check,
    max_covert_rate,
    scaling_table,
    scaling_table_csv,
)
from covertq.model import ModelParams


def test_worked_bound_value():
    bound = max_covert_rate(0.3, CovertnessSpec(epsilon=0.1, n=1000))
    assert bound["feasible"]
    assert bound["bound"] == pytest.approx(sqrt(4.056 * log(1 / 0.9) / 1000), abs=1e-15)
    assert bound["bound"] == pytest.approx(0.020672, abs=1e-6)


def test_bound_at_n_one_million():
    bound = max_covert_rate(0.3, CovertnessSpec(epsilon=0.1, n=10**6))
    assert bound["bound"] == pytest.approx(6.537e-4, abs=1e-7)


def test_bound_vanishes_as_epsilon_vanishes():
    values = [
        max_covert_rate(0.3, CovertnessSpec(epsilon=eps, n=1000))["bound"]
        for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert values[0] > values[1] > values[2]
    assert values[-1] < 1e-3


def test_quadrupling_n_halves_bound():
    b1 = max_covert_rate(0.3, CovertnessSpec(epsilon=0.1, n=500))["bound"]
    b4 = max_covert_rate(0.3, CovertnessSpec(epsilon=0.1, n=2000))["bound"]
    assert b4 == pytest.approx(b1 / 2, abs=1e-15)


def test_covertness_spec_validation():
    with pytest.raises(ValueError):
        CovertnessSpec(epsilon=0.0, n=10)
    with pytest.raises(ValueError):
        CovertnessSpec(epsilon=1.0, n=10)
    with pytest.raises(ValueError):
        CovertnessSpec(epsilon=0.5, n=0)


def test_boundary_equality_at_the_bound():
    spec = CovertnessSpec(epsilon=0.1, n=1000)
    rate = max_covert_rate(0.3, spec)["bound"]
    chk = covertness_check(ModelParams(0.3, rate, 1.0), spec, mode="taylor")
    assert chk["p_e_raw"] == pytest.approx(0.9, abs=1e-12)
    assert chk["covert"]
    above = covertness_check(ModelParams(0.3, rate * 1.0001, 1.0), spec, mode="taylor")
    assert not above["covert"]


def test_closed_and_taylor_agree_near_the_bound():
    # the two exponent modes differ by about 5% at this scale, so their
    # covert flags only agree away from the boundary itself (the taylor
    # and closed boundaries are ~0.0207 and ~0.0212)
    spec = CovertnessSpec(epsilon=0.1, n=1000)
    for lb, expected in ((0.019, True), (0.03, False)):
        params = ModelParams(0.3, lb, 1.0)
        closed = covertness_check(params, spec, mode="closed")
        taylor = covertness_check(params, spec, mode="taylor")
        assert abs(closed["i_err"] - taylor["i_err"]) / closed["i_err"] < 0.08
        assert closed["covert"] == taylor["covert"] == expected


def test_zero_lambda_b_always_covert_with_unit_k():
    spec = CovertnessSpec(epsilon=0.1, n=1000)
    chk = covertness_check(ModelParams(0.3, 0.0, 1.0), spec)
    assert chk["i_err"] == 0.0
    assert chk["p_e_raw"] == 1.0
    assert chk["covert"]


def test_bound_monotone_in_epsilon_and_lambda_w():
    eps_values = [max_covert_rate(0.3, CovertnessSpec(epsilon=e, n=1000))["bound"]
                  for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(eps_values, eps_values[1:]))
    lw_values = [max_covert_rate(lw, CovertnessSpec(epsilon=0.1, n=1000))["bound"]
                 for lw in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(lw_values, lw_values[1:]))


def test_sqrt_n_law_in_scaling_table():
    rows = scaling_table(0.3, 0.1, [100, 400, 1600, 6400, 25600])
    col = [r["bound_times_sqrt_n"] for r in rows]
    for val in col[1:]:
        assert val == pytest.approx(col[0], abs=1e-12)


def test_scaling_table_input_validation():
    with pytest.raises(ValueError):
        scaling_table(0.3, 0.1, [])
    with pytest.raises(ValueError):
        scaling_table(0.3, 0.1, [100, 100])


def test_scaling_table_csv_columns():
    rows = scaling_table(0.3, 0.1, [100, 200])
    text = scaling_table_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "N,K_of_N,bound,bound_times_sqrtN"
    assert len(lines) == 3
