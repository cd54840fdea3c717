from math import log, sqrt

import numpy as np
import pytest

from covertq.detect import (
    DegenerateModelError,
    _llr,
    decide,
    exact_error_probabilities,
    log_likelihood_ratio,
    matrices,
    monte_carlo_error,
)
from covertq.model import Hypothesis, ModelParams
from covertq.sim import ObservationSequence, RngSeed
from oracles import brute_force_error_probabilities

PARAMS = ModelParams(0.3, 0.2, 1.0)
P_MAT, Q_MAT = matrices(PARAMS)


def obs(*bits):
    return ObservationSequence(np.array(bits, dtype=np.uint8))


def test_identical_hypotheses_give_zero_llr():
    p_mat, q_mat = matrices(ModelParams(0.3, 0.0, 1.0))
    for bits in [(0,), (1,), (0, 1, 1, 0), (1, 1, 1)]:
        assert log_likelihood_ratio(obs(*bits), p_mat, q_mat) == 0.0


def test_single_symbol_llr():
    # log(p/q) with p = 1/1.3, q = 2/3
    expected = log((1 / 1.3) / (2 / 3))
    assert log_likelihood_ratio(obs(0), P_MAT, Q_MAT) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.143100844, abs=1e-9)


def test_two_symbol_llr():
    expected = log((1 / 1.3) / (2 / 3)) + log((0.3 / 1.3) / (1 / 3))
    got = log_likelihood_ratio(obs(0, 1), P_MAT, Q_MAT)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.224624, abs=1e-6)


def test_conditioned_mode_drops_first_symbol_term():
    for bits in [(0, 1, 0), (1, 1, 0, 0), (0,), (1, 0)]:
        o = obs(*bits)
        stat = log_likelihood_ratio(o, P_MAT, Q_MAT, "stationary")
        cond = log_likelihood_ratio(o, P_MAT, Q_MAT, "conditioned")
        first = log(P_MAT[0, bits[0]] / Q_MAT[0, bits[0]])
        assert stat - cond == pytest.approx(first, abs=1e-15)


def test_decide_tie_goes_to_h0():
    p_mat, q_mat = matrices(ModelParams(0.3, 0.0, 1.0))
    result = decide(obs(0, 1, 1), p_mat, q_mat, threshold=0.0)
    assert result.llr == 0.0
    assert result.decision is Hypothesis.H0


def test_decide_ties_match_the_idle_count_rule():
    # a threshold equal to an attainable LLR value is a tie and must decide
    # H0, exactly as the exact and Monte Carlo paths decide it
    p, q = P_MAT[0, 0], Q_MAT[0, 0]
    cases = []
    for initial, lead in (("stationary", ()), ("conditioned", (1,))):
        for m in (5, 12, 40, 200):
            for k in range(m + 1):
                bits = lead + (0,) * k + (1,) * (m - k)
                result = decide(obs(*bits), P_MAT, Q_MAT, _llr(k, m, p, q), initial)
                cases.append(result.decision)
    assert len(cases) == 522
    assert cases.count(Hypothesis.H1) == 0
    general = np.array([[0.9, 0.1], [0.6, 0.4]])
    with pytest.raises(ValueError):
        log_likelihood_ratio(obs(0, 1), general, Q_MAT)


def test_decide_sign_rule():
    assert decide(obs(0), P_MAT, Q_MAT).decision is Hypothesis.H0
    assert decide(obs(0, 1), P_MAT, Q_MAT).decision is Hypothesis.H1


def test_exact_rejects_zero_lambda_b():
    with pytest.raises(DegenerateModelError):
        exact_error_probabilities(ModelParams(0.3, 0.0, 1.0), 10)


def test_exact_single_sample():
    ep = exact_error_probabilities(PARAMS, 1)
    assert ep.p_f == pytest.approx(1 - 1 / 1.3, abs=1e-12)
    assert ep.p_m == pytest.approx(2 / 3, abs=1e-12)


def test_vanishing_lambda_b_collapses_to_tie():
    # lambda_b below float resolution: q rounds to p exactly, llr is 0,
    # ties decide H0 so p_f = 0 and p_m = 1
    ep = exact_error_probabilities(ModelParams(0.3, 1e-18, 1.0), 100)
    assert ep.p_f == 0.0
    assert ep.p_m == 1.0
    assert ep.p_e == 0.5


def test_small_but_resolvable_lambda_b_splits_errors():
    # once the LLR coefficients are resolvable the threshold sits in the
    # middle of both nearly identical binomials: each error rate is near
    # 1/2, and only the total stays pinned at 1/2
    ep = exact_error_probabilities(ModelParams(0.3, 1e-12, 1.0), 1000)
    assert 0.3 < ep.p_f < 0.7
    assert 0.3 < ep.p_m < 0.7
    assert ep.p_e == pytest.approx(0.5, abs=1e-6)


def test_tiny_lambda_b_total_error_near_half():
    ep = exact_error_probabilities(ModelParams(0.3, 1e-9, 1.0), 1000)
    assert ep.p_e == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_equivalence_small_n(n):
    p_f, p_m = brute_force_error_probabilities(PARAMS, n)
    ep = exact_error_probabilities(PARAMS, n)
    assert ep.p_f == pytest.approx(p_f, abs=1e-12)
    assert ep.p_m == pytest.approx(p_m, abs=1e-12)


def test_brute_force_equivalence_conditioned_mode():
    for n in (2, 5, 8):
        p_f, p_m = brute_force_error_probabilities(PARAMS, n, initial="conditioned")
        ep = exact_error_probabilities(PARAMS, n, initial="conditioned")
        assert ep.p_f == pytest.approx(p_f, abs=1e-12)
        assert ep.p_m == pytest.approx(p_m, abs=1e-12)


def test_total_error_monotone_in_n():
    prev = 1.0
    for n in range(1, 201):
        p_e = exact_error_probabilities(PARAMS, n).p_e
        assert p_e <= prev + 1e-12
        prev = p_e


def test_monte_carlo_matches_exact():
    n, trials = 12, 100_000
    exact = exact_error_probabilities(PARAMS, n)
    mc = monte_carlo_error(PARAMS, n, 0.0, trials, RngSeed(101))
    assert abs(mc.p_f - exact.p_f) < 4 * sqrt(exact.p_f * (1 - exact.p_f) / trials)
    assert abs(mc.p_m - exact.p_m) < 4 * sqrt(exact.p_m * (1 - exact.p_m) / trials)


def test_monte_carlo_zero_lambda_b_never_false_alarms():
    mc = monte_carlo_error(ModelParams(0.3, 0.0, 1.0), 20, 0.0, 2000, RngSeed(5))
    assert mc.p_f == 0.0
    assert mc.p_m == 1.0


def test_monte_carlo_single_trial_is_bernoulli():
    mc = monte_carlo_error(PARAMS, 12, 0.0, 1, RngSeed(9))
    assert mc.p_f in (0.0, 1.0)
    assert mc.p_m in (0.0, 1.0)


def test_monte_carlo_worker_count_is_invisible():
    kwargs = dict(n=30, threshold=0.0, trials=50_000, seed=RngSeed(77))
    one = monte_carlo_error(PARAMS, **kwargs, workers=1)
    four = monte_carlo_error(PARAMS, **kwargs, workers=4)
    assert one == four


def test_json_record():
    import json

    ep = exact_error_probabilities(PARAMS, 12)
    rec = json.loads(ep.to_json_record(PARAMS, 12, 0.0))
    assert rec["n"] == 12
    assert rec["p_e"] == ep.p_e
    assert rec["lambda_b"] == 0.2
