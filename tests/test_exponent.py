import functools
from math import exp, isfinite, log
from sys import float_info

import numpy as np
import pytest

import oracles
from covertq import exponent
from covertq.exponent import (
    exponent_report,
    i_err_closed,
    i_err_numeric,
    i_err_taylor,
    r_of_u,
    v_closed_form,
)
from covertq.model import Hypothesis, ModelParams, NonFiniteError, json_text
from oracles import (
    big_f,
    chernoff_information,
    dominant_eigenvalue,
    mpmath_exponent,
    mpmath_row_sum,
    param_grid,
    q_derivative_facts,
    q_of,
    transition_matrix,
)

PARAMS = ModelParams(0.3, 0.2, 1.0)
GRID = param_grid(40, np.random.default_rng(2024))


def test_r_endpoints_are_one():
    # r(u) = q (p/q)^u + (1-q) ((1-p)/(1-q))^u is q + (1-q) = 1 at u = 0
    # and p + (1-p) = 1 at u = 1
    for params in GRID:
        assert r_of_u(params, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert r_of_u(params, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_r_midpoint_hand_value():
    assert r_of_u(PARAMS, 0.5) == pytest.approx(0.993465, abs=1e-6)


def test_r_two_factorizations_agree():
    # r(u) = A B^u + C D^u, A..D formed from the rates apart from ModelParams._ratios
    rng = np.random.default_rng(7)
    for params in param_grid(20, rng):
        lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
        a = mu / (lw + lb + mu)
        b = (lw + lb + mu) / (lw + mu)
        c = (lw + lb) / (lw + lb + mu)
        d = (lw / (lw + lb)) * ((lw + lb + mu) / (lw + mu))
        for u in rng.uniform(0.0, 1.0, size=5):
            assert r_of_u(params, u) == pytest.approx(a * b**u + c * d**u, abs=1e-14)


def test_r_rejects_u_outside_unit_interval():
    with pytest.raises(ValueError):
        r_of_u(PARAMS, -0.1)
    with pytest.raises(ValueError):
        r_of_u(PARAMS, 1.1)


def test_r_degenerate_lambda_b():
    assert r_of_u(ModelParams(0.3, 0.0, 1.0), 0.37) == 1.0


def test_row_sum_is_spectral_radius():
    # the equal-row shortcut against a dense eigensolve of the tilted matrix
    for params in GRID[:10]:
        p = transition_matrix(params, Hypothesis.H0)[0, 0]
        q = transition_matrix(params, Hypothesis.H1)[0, 0]
        for u in (0.2, 0.5, 0.8):
            tilted = np.array(
                [
                    [p**u * q ** (1 - u), (1 - p) ** u * (1 - q) ** (1 - u)],
                    [p**u * q ** (1 - u), (1 - p) ** u * (1 - q) ** (1 - u)],
                ]
            )
            assert r_of_u(params, u) == pytest.approx(
                dominant_eigenvalue(tilted), abs=1e-12
            )


def test_v_closed_form_hand_value():
    assert v_closed_form(PARAMS) == pytest.approx(0.490653, abs=1e-6)


def test_v_closed_form_is_the_zero_of_dr_du():
    for params in GRID:
        _, slope = mpmath_row_sum(params, v_closed_form(params))
        assert abs(slope) < 1e-10


def test_v_limit_is_half():
    assert abs(v_closed_form(ModelParams(0.3, 1e-6, 1.0)) - 0.5) < 1e-3
    gaps = [
        abs(v_closed_form(ModelParams(0.3, lb, 1.0)) - 0.5)
        for lb in (1e-4, 1e-6, 1e-8)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_v_closed_form_at_tiny_lambda_b_is_the_mpmath_value():
    # 1/2 - 7.5e-12, which a switch to the limit 1/2 would miss
    assert v_closed_form(ModelParams(0.3, 1e-10, 1.0)) == pytest.approx(
        0.49999999999252137, rel=1e-15)


def test_v_rejects_zero_lambda_b():
    with pytest.raises(ValueError):
        v_closed_form(ModelParams(0.3, 0.0, 1.0))


def assert_matches_mpmath(rates, rep):
    """An exponent report's v and I against `mpmath_exponent` at these rates.

    v_closed to 1e-14, v_numeric to its bracket, and both exponents to 1e-14
    relative where mpmath's I is a normal double, two subnormal steps where not.
    """
    v_ref, i_ref = (float(x) for x in mpmath_exponent(*rates))
    assert abs(rep["v_closed"] - v_ref) <= 1e-14, (rates, rep, v_ref)
    assert abs(rep["v_numeric"] - v_ref) <= exponent.V_NUMERIC_TOL, (rates, rep, v_ref)
    tol = 1e-14 * i_ref if i_ref >= float_info.min else 2 * 5e-324
    for key in ("i_err_closed", "i_err_numeric"):
        assert abs(rep[key] - i_ref) <= tol, (rates, key, rep[key], i_ref)


@pytest.mark.parametrize("rates, i_err", [
    # p - q of order 1/lambda_w, so (p - q)^2 is 0 or subnormal while s and v
    # are not: v is 1/2, and I is 0.0 at 1e200 as mpmath's is
    ((1e200, 1.0, 1.0), 0.0),
    ((1e161, 1.0, 1.0), 0.0),
    ((2.59e-74, 3.62e-70, 1.05e-255), 2.6712150893001473e-182),  # v = 0.7636397077791709
    ((1e150, 1e140, 1.0), 1.2499999998125002e-171),
    ((1.3e154, 1e100, 1.0), 5.689576695493856e-264),
], ids=["1e200", "1e161", "2.59e-74", "1e150", "1.3e154"])
def test_exponent_answers_where_squares_of_order_p_minus_q_underflow(rates, i_err):
    rep = exponent_report(ModelParams(*rates))
    assert_matches_mpmath(rates, rep)
    assert rep["i_err_closed"] == pytest.approx(i_err, rel=1e-15, abs=0)


def test_closed_and_numeric_agree():
    for params in GRID:
        v_num, i_num = i_err_numeric(params)
        assert abs(v_closed_form(params) - v_num) < 1e-8
        assert abs(i_err_closed(params) - i_num) < 1e-10


def test_numeric_minimality_on_grid():
    for params in GRID[:10]:
        v_num, _ = i_err_numeric(params)
        r_min = r_of_u(params, v_num)
        for u in np.linspace(0.0, 1.0, 101):
            assert r_min <= r_of_u(params, float(u)) + 1e-14


def test_i_err_zero_when_lambda_b_zero():
    assert i_err_closed(ModelParams(0.3, 0.0, 1.0)) == 0.0
    assert i_err_taylor(ModelParams(0.3, 0.0, 1.0)) == 0.0


def test_i_err_closed_hand_value():
    # -log r(v) at v = 0.490653; cross-checked by the numeric minimizer
    # and the Chernoff oracle
    assert i_err_closed(PARAMS) == pytest.approx(0.0065588, abs=1e-7)


def test_chernoff_oracle_agreement():
    for params in GRID:
        p = params.idle_probability(Hypothesis.H0)
        q = params.idle_probability(Hypothesis.H1)
        assert abs(i_err_closed(params) - chernoff_information(p, q)) < 1e-9


@pytest.mark.parametrize("lb", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2])
@pytest.mark.parametrize("lw", [0.05, 0.1, 0.2, 0.3, 0.5, 0.6])
def test_exponent_matches_mpmath_at_small_lambda_b(lw, lb):
    # r(v) sits within ~lb^2 of 1 here, so -log r(v) keeps its digits only
    # if nothing forms r - 1 from two terms of order lb
    params = ModelParams(lw, lb, 1.0)
    v_ref, i_ref = (float(x) for x in mpmath_exponent(lw, lb, 1.0))
    v_num, i_num = i_err_numeric(params)
    assert abs(v_closed_form(params) - v_ref) <= 1e-8
    assert abs(v_num - v_ref) <= 1e-8
    assert abs(i_err_closed(params) - i_ref) <= 1e-9 * i_ref
    assert abs(i_num - i_ref) <= 1e-9 * i_ref


PINNED_LB = [1e-150, 1e-120, 1e-90, 1e-60, 1e-40, 1e-30, 1e-20, 1e-15, 1e-12, 1e-9,
             1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 3.0]


@pytest.mark.parametrize("lw, lb, mu", [
    *((lw, lb, 1.0) for lw in (0.1, 0.3, 0.6, 5.0) for lb in PINNED_LB),
    (50.0, 0.5, 1e-12),  # 1 - p a hair below 1 - q
    (0.3, 0.2, 1e8),  # p and q a hair below 1
    (0.3, 1e160, 1.0),  # q near 1e-160
])
def test_exponent_pinned_to_mpmath(lw, lb, mu):
    # every exponent quantity to 1e-13 relative (the numeric minimizer to
    # its bracket), from lambda_b = 1e-150, where the exponent is 4e-301
    params = ModelParams(lw, lb, mu)
    v_ref, i_ref = (float(x) for x in mpmath_exponent(lw, lb, mu))
    v_num, i_num = i_err_numeric(params)
    assert v_closed_form(params) == pytest.approx(v_ref, rel=1e-13, abs=0)
    assert i_err_closed(params) == pytest.approx(i_ref, rel=1e-13, abs=0)
    assert i_num == pytest.approx(i_ref, rel=1e-13, abs=0)
    assert abs(v_num - v_ref) <= 1e-10
    for u in (0.25, 0.5, 0.75):
        r_ref, _ = mpmath_row_sum(params, u)
        assert r_of_u(params, u) == pytest.approx(float(r_ref), rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "lw, lb, mu", [(50.0, 0.5, 1e-12), (10.0, 0.1, 1e-6), (1e3, 1.0, 1e-3), (0.3, 0.2, 1e-8)]
)
def test_exponent_matches_mpmath_at_slow_service(lw, lb, mu):
    # mu << lambda_w makes (1-p)/(1-q) a hair below 1: its log has to come
    # from one exact ratio, not from a difference of two logs
    params = ModelParams(lw, lb, mu)
    v_ref, i_ref = (float(x) for x in mpmath_exponent(lw, lb, mu))
    v_num, i_num = i_err_numeric(params)
    assert abs(v_closed_form(params) - v_ref) <= 1e-9
    assert abs(v_num - v_ref) <= 1e-9
    assert abs(i_err_closed(params) - i_ref) <= 1e-9 * i_ref
    assert abs(i_num - i_ref) <= 1e-9 * i_ref


def test_mpmath_exponent_sizes_its_digits_from_the_rate_ratios(monkeypatch):
    # lambda_b/lambda_w = 7.7e-55 and mu/lambda_w = 7.7e-155 here; digits
    # sized from lambda_b alone (260) gave v = 0.8039 and I = 7.45e-262
    rates = (1.3e154, 1e100, 1.0)
    v, i_err = mpmath_exponent(*rates)
    monkeypatch.setattr(oracles, "_mpmath_dps", lambda *_: 800)
    v_800, i_800 = mpmath_exponent(*rates)
    assert abs(v - v_800) < 1e-40 and abs(i_err - i_800) < 1e-40 * i_800
    assert float(v) == pytest.approx(0.5, rel=1e-15, abs=0)
    assert float(i_err) == pytest.approx(5.69e-264, rel=1e-3, abs=0)


def test_log_r_convex_on_grid():
    us = np.linspace(0.0, 1.0, 101)
    for params in GRID[:10]:
        vals = np.array([log(r_of_u(params, float(u))) for u in us])
        assert (np.diff(vals, 2) >= -1e-10).all()


def test_taylor_hand_values():
    assert i_err_taylor(PARAMS) == pytest.approx(0.04 / 4.056, abs=1e-12)
    small = i_err_taylor(ModelParams(0.3, 0.02, 1.0))
    assert small == pytest.approx(9.862e-5, rel=1e-3)
    closed = i_err_closed(ModelParams(0.3, 0.02, 1.0))
    assert abs(small - closed) / closed < 0.05


def test_taylor_ratio_tends_to_one():
    # frozen regression values from 50-digit evaluation of the true
    # exponent; the gap shrinks linearly in lambda_b, closed/taylor being
    # 1 - kappa(lambda_w) * lambda_b + O(lambda_b^2) with
    # kappa = (3 lambda_w + 1) / (2 lambda_w (1 + lambda_w)) (acceptance 4)
    expected = {0.1: 0.9941288, 0.3: 0.9975697, 0.6: 0.9985435}
    for lw, ratio_ref in expected.items():
        params = ModelParams(lw, 1e-3, 1.0)
        ratio = i_err_closed(params) / i_err_taylor(params)
        assert ratio == pytest.approx(ratio_ref, abs=1e-6)
    tighter = i_err_closed(ModelParams(0.1, 1e-4, 1.0)) / i_err_taylor(
        ModelParams(0.1, 1e-4, 1.0)
    )
    assert abs(tighter - 1.0) < abs(expected[0.1] - 1.0)


def test_taylor_documented_divergence_at_moderate_rate():
    # regression value: the quadratic form overshoots by about 50 percent
    # at lambda_b = 0.2, lambda_w = 0.3
    ratio = i_err_taylor(PARAMS) / i_err_closed(PARAMS)
    assert ratio == pytest.approx(1.504, abs=0.01)


def test_i_err_strictly_increasing_in_lambda_b():
    values = [i_err_closed(ModelParams(0.3, lb, 1.0)) for lb in np.linspace(0.01, 0.6, 25)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_scale_invariance():
    base = i_err_closed(PARAMS)
    for c in (0.1, 3.0, 10.0):
        scaled = ModelParams(0.3 * c, 0.2 * c, 1.0 * c)
        assert abs(i_err_closed(scaled) - base) < 1e-12
        assert abs(i_err_taylor(scaled) - i_err_taylor(PARAMS)) < 1e-12


def test_q_derivative_facts_values():
    facts = q_derivative_facts(ModelParams(0.3, 0.0, 1.0))
    assert facts.q0 == pytest.approx(1 / 1.3, abs=1e-15)
    assert facts.q_prime0 == pytest.approx(-(1 / 1.3) ** 2, abs=1e-15)
    assert facts.q_double_prime0 == pytest.approx(2 * (1 / 1.3) ** 3, abs=1e-15)
    assert facts.f0 == 1.0
    assert facts.f_prime0 == 0.0
    assert facts.f_double_prime0 == pytest.approx(-1 / (4 * 0.3 * 1.69), abs=1e-12)


def test_q_derivative_facts_requires_unit_mu():
    with pytest.raises(ValueError):
        q_derivative_facts(ModelParams(0.3, 0.0, 2.0))


@pytest.mark.parametrize("lw", [0.1, 0.3, 0.6])
def test_finite_difference_checks(lw):
    facts = q_derivative_facts(ModelParams(lw, 0.0, 1.0))
    h = 1e-6
    fd_q1 = (q_of(lw, h) - q_of(lw, -h)) / (2 * h)
    assert fd_q1 == pytest.approx(facts.q_prime0, rel=1e-6)
    h = 1e-4
    fd_q2 = (q_of(lw, h) - 2 * q_of(lw, 0.0) + q_of(lw, -h)) / h**2
    assert fd_q2 == pytest.approx(facts.q_double_prime0, rel=1e-4)
    # F facts by central differences at two step sizes (Richardson agreement)
    assert big_f(lw, 0.0) == 1.0
    for h in (1e-3, 1e-4):
        fd_f1 = (big_f(lw, h) - big_f(lw, -h)) / (2 * h)
        assert abs(fd_f1) < 1e-3
        fd_f2 = (big_f(lw, h) - 2.0 + big_f(lw, -h)) / h**2
        assert fd_f2 == pytest.approx(facts.f_double_prime0, rel=1e-3)


def test_exponent_report_fields():
    rep = exponent_report(PARAMS)
    assert rep["v_closed"] == pytest.approx(rep["v_numeric"], abs=1e-8)
    assert rep["i_err_closed"] >= 0
    assert rep["p"] == pytest.approx(10 / 13, abs=1e-15)
    assert rep["q"] == pytest.approx(2 / 3, abs=1e-15)
    for params in GRID:  # bit for bit the formulas, formed here from the rates
        rep = exponent_report(params)
        lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
        assert (rep["p"], rep["q"]) == (mu / (lw + mu), mu / (lw + lb + mu))


def test_exponent_report_json():
    import json

    rec = json.loads(json_text(exponent_report(PARAMS)))
    assert set(rec) == {
        "v_closed", "v_numeric", "i_err_closed", "i_err_numeric",
        "i_err_taylor", "p", "q",
    }


@pytest.mark.parametrize("rates, fields", [
    # p subnormal: the slope s overflows, and the rescaled rates in the Taylor term
    ((0.3, 1.0, 1e-310), "v_closed, i_err_closed, i_err_numeric, i_err_taylor"),
    # (lambda_b/mu)^2 / (8 lambda_w/mu) passes the float range; the rest is right
    ((2.544925609897243e-89, 3.742364277868881e+67, 1.4394107473115648e-86),
     "i_err_taylor"),
    ((0.3, 1e160, 1.0), "i_err_taylor"),
])
def test_exponent_report_names_its_non_finite_fields_and_rates(rates, fields):
    params = ModelParams(*rates)
    rep = exponent_report(params)  # the report itself, as computed
    assert fields == ", ".join(k for k, v in rep.items() if not isfinite(v))
    with pytest.raises(NonFiniteError) as info:
        exponent._finite_report(params, rep)
    assert str(info.value) == (f"exponent report has non-finite {fields} at "
                               f"(lambda_w, lambda_b, mu) = {rates!r}")
    finite = exponent_report(PARAMS)
    assert exponent._finite_report(PARAMS, finite) is finite


@pytest.mark.parametrize("lambda_b", [1e-9, 1e-3])
def test_report_runs_the_minimizer_once(monkeypatch, lambda_b):
    calls = []

    def counting(params):
        calls.append(params)
        return i_err_numeric(params)

    monkeypatch.setattr(exponent, "i_err_numeric", counting)
    params = ModelParams(0.3, lambda_b, 1.0)
    report = exponent_report(params)
    assert len(calls) == 1
    # i_err_closed reads the closed-form minimizer alone, at every lambda_b
    assert report["i_err_closed"] == i_err_closed(params)
    assert len(calls) == 1


def test_report_derives_the_rates_once_and_the_closed_minimizer_once(monkeypatch):
    cores, closed = [], []
    derive = ModelParams.__dict__["_ratios"].func

    def counting_core(params):
        cores.append(params)
        return derive(params)

    def counting_closed(params):
        closed.append(params)
        return v_closed_form(params)

    core = functools.cached_property(counting_core)
    core.__set_name__(ModelParams, "_ratios")
    monkeypatch.setattr(ModelParams, "_ratios", core)
    monkeypatch.setattr(exponent, "v_closed_form", counting_closed)
    exponent_report(ModelParams(0.3, 0.2, 1.0))
    assert (len(cores), len(closed)) == (1, 1)
