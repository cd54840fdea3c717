"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in captured output on failure.

Criterion 4 checks the quadratic exponent `i_err_taylor` against the
exact `i_err_closed` through the known first-order error of the quadratic
form: at mu = 1, taylor/closed = 1 + kappa(lambda_w)*lambda_b + O(lambda_b^2)
with kappa = (3 lambda_w + 1) / (2 lambda_w (1 + lambda_w)), and the
criterion asserts the residual from that prediction is at most 1e-5 at
lambda_b = 1e-3 for lambda_w in {0.1, 0.3, 0.6}, plus the 1.504 overshoot
at lambda_b = 0.2.  An earlier version asserted the ratio itself lay in
[0.995, 1.005]; no correct second-order formula meets that at
lambda_w = 0.1, where the leading error kappa*lambda_b alone is 0.00591
(the 60-digit mpmath ratio is 1.005906), so the band holds there only
for lambda_b below about 8.5e-4.
"""

from math import sqrt

import numpy as np

from covertq.covert import CovertnessSpec, covertness_check, max_covert_rate, scaling_table
from covertq.detect import exact_error_probabilities, monte_carlo_error
from covertq.exponent import (
    i_err_closed,
    i_err_numeric,
    i_err_taylor,
    v_closed_form,
)
from covertq.experiment import CampaignConfig, result_to_json, run_campaign
from covertq.model import Hypothesis, ModelParams
from covertq.sim import RngSeed, simulate_sequence
from oracles import (
    big_f,
    brute_force_error_probabilities,
    chernoff_information,
    empirical_transition_counts,
    param_grid,
    q_derivative_facts,
    q_of,
    transition_matrix,
)

PARAMS = ModelParams(0.3, 0.2, 1.0)
GRID = param_grid(100, np.random.default_rng(20240817))


def report(number: int, description: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    return ok


def test_criterion_01_closed_vs_numeric_exponent():
    worst_v = worst_i = 0.0
    for params in GRID:
        v_num, i_num = i_err_numeric(params)
        worst_v = max(worst_v, abs(v_closed_form(params) - v_num))
        worst_i = max(worst_i, abs(i_err_closed(params) - i_num))
    ok = worst_v < 1e-8 and worst_i < 1e-10
    assert report(
        1,
        f"closed vs numeric exponent on 100-point grid "
        f"(worst dv={worst_v:.2e}, worst dI={worst_i:.2e})",
        ok,
    )


def test_criterion_02_chernoff_oracle():
    worst = 0.0
    for params in GRID:
        p = params.idle_probability(Hypothesis.H0)
        q = params.idle_probability(Hypothesis.H1)
        worst = max(worst, abs(i_err_closed(params) - chernoff_information(p, q)))
    assert report(2, f"Chernoff brute-force oracle (worst gap {worst:.2e})", worst < 1e-9)


def test_criterion_03_limit_facts():
    ok = True
    for lw in (0.1, 0.3, 0.6):
        ok &= abs(v_closed_form(ModelParams(lw, 1e-6, 1.0)) - 0.5) < 1e-3
        facts = q_derivative_facts(ModelParams(lw, 0.0, 1.0))
        h = 1e-6
        fd_q1 = (q_of(lw, h) - q_of(lw, -h)) / (2 * h)
        ok &= abs(fd_q1 - facts.q_prime0) < 1e-3 * abs(facts.q_prime0)
        h = 1e-4
        fd_q2 = (q_of(lw, h) - 2 * q_of(lw, 0.0) + q_of(lw, -h)) / h**2
        ok &= abs(fd_q2 - facts.q_double_prime0) < 1e-3 * abs(facts.q_double_prime0)
        ok &= big_f(lw, 0.0) == 1.0
        d2 = {}
        for h in (1e-3, 1e-4):
            fd_f1 = (big_f(lw, h) - big_f(lw, -h)) / (2 * h)
            ok &= abs(fd_f1) < 1e-3
            d2[h] = (big_f(lw, h) - 2.0 + big_f(lw, -h)) / h**2
            ok &= abs(d2[h] - facts.f_double_prime0) < 1e-3 * abs(facts.f_double_prime0)
        # Richardson agreement between the two step sizes
        ok &= abs(d2[1e-3] - d2[1e-4]) < 1e-3 * abs(facts.f_double_prime0)
    assert report(3, "limit facts: v -> 1/2 and q/F derivative checks", ok)


def taylor_first_order_error(lw: float) -> float:
    """Slope kappa(lw) of taylor/closed - 1 in lambda_b at mu = 1.

    The Chernoff information of Bernoulli(p) vs Bernoulli(q) is symmetric
    in the two laws, so expanded about the midpoint m = (p + q)/2 it is
    d^2 / (8 m (1 - m)) + O(d^4) with d = q - p.  Here p = 1/(1 + lw) and
    q = p / (1 + p lb), so d = -p^2 lb + p^3 lb^2 - ...; the leading term
    p^4 lb^2 / (8 p (1 - p)) is exactly `i_err_taylor`.  The next order
    in d^2 and in 1 / (m (1 - m)) gives
    closed/taylor = (1 - 2 p lb) (1 + (1 - 2p) p lb / (2 (1 - p))) + O(lb^2),
    hence taylor/closed = 1 + kappa lb + O(lb^2) with
    kappa = 2p - (1 - 2p) p / (2 (1 - p)) = (3 lw + 1) / (2 lw (1 + lw)).
    """
    return (3.0 * lw + 1.0) / (2.0 * lw * (1.0 + lw))


def test_criterion_04_taylor_accuracy():
    lb = 1e-3
    rows = []
    for lw in (0.1, 0.3, 0.6):
        ratio = i_err_taylor(ModelParams(lw, lb, 1.0)) / i_err_closed(ModelParams(lw, lb, 1.0))
        predicted = 1.0 + taylor_first_order_error(lw) * lb
        rows.append((lw, ratio, predicted, ratio - predicted))
    # the O(lb^2) residual is about 3e-6 at lw = 0.1 (60-digit mpmath)
    first_order_ok = all(abs(residual) <= 1e-5 for *_, residual in rows)
    regression = i_err_taylor(PARAMS) / i_err_closed(PARAMS)
    regression_ok = abs(regression - 1.504) < 0.01
    detail = ", ".join(
        f"lw={lw}: {ratio:.6f} vs {predicted:.6f} (resid {residual:+.1e})"
        for lw, ratio, predicted, residual in rows
    )
    ok = first_order_ok and regression_ok
    assert report(
        4,
        f"Taylor ratio vs 1+kappa*lb within 1e-5 at lb=1e-3 ({detail}); "
        f"divergence regression {regression:.3f}",
        ok,
    )


def test_criterion_05_exhaustive_detector_oracle():
    rng = np.random.default_rng(5)
    triples = param_grid(20, rng)
    worst = 0.0
    for params in triples:
        for n in range(1, 13):
            bf_f, bf_m = brute_force_error_probabilities(params, n)
            ep = exact_error_probabilities(params, n)
            worst = max(worst, abs(ep["p_f"] - bf_f), abs(ep["p_m"] - bf_m))
    assert report(
        5,
        f"binomial formula vs 2^n enumeration, n<=12 x 20 triples "
        f"(worst gap {worst:.2e})",
        worst < 1e-12,
    )


def test_criterion_06_simulator_fidelity():
    ok = True
    for hyp in (Hypothesis.H0, Hypothesis.H1):
        obs = simulate_sequence(PARAMS, hyp, 10**6, RngSeed(606, hyp.value))
        idle = PARAMS.idle_probability(hyp)
        ok &= abs(obs.busy_fraction - (1 - idle)) < 0.005
        counts = empirical_transition_counts(obs)
        freq = counts / counts.sum(axis=1, keepdims=True)
        ok &= np.abs(freq - transition_matrix(PARAMS, hyp)).max() < 0.005
    assert report(6, "1e6-arrival busy fractions and transition frequencies", ok)


def test_criterion_07_monte_carlo_vs_exact():
    trials = 100_000
    ok = True
    for n in (12, 50, 200):
        exact = exact_error_probabilities(PARAMS, n)
        mc = monte_carlo_error(PARAMS, n, 0.0, trials, RngSeed(707, n))
        ok &= abs(mc["p_f"] - exact["p_f"]) < 4 * sqrt(exact["p_f"] * (1 - exact["p_f"]) / trials)
        ok &= abs(mc["p_m"] - exact["p_m"]) < 4 * sqrt(exact["p_m"] * (1 - exact["p_m"]) / trials)
    assert report(7, "Monte Carlo within 4 SE of exact at n in {12,50,200}", ok)


def test_criterion_08_decay_rate_reproduction():
    cfg = CampaignConfig(
        params=PARAMS,
        n_grid=tuple(range(100, 2001, 100)),
        trials_per_point=1000,
        master_seed=RngSeed(808),
    )
    result = run_campaign(cfg)
    i_err = i_err_closed(PARAMS)
    slope_gap = abs(result["fitted_slope_e"] + i_err) / i_err
    fm_gap = abs(result["fitted_slope_f"] - result["fitted_slope_m"]) / max(
        abs(result["fitted_slope_f"]), abs(result["fitted_slope_m"])
    )
    ok = slope_gap < 0.10 and fm_gap < 0.15
    assert report(
        8,
        f"fitted p_e slope within 10% of -I_err (gap {slope_gap:.3f}), "
        f"slope_f/slope_m gap {fm_gap:.3f} < 15%",
        ok,
    )


def test_criterion_09_bound_mechanics():
    spec = CovertnessSpec(epsilon=0.1, n=1000)
    rate = max_covert_rate(0.3, spec)["bound"]
    chk = covertness_check(ModelParams(0.3, rate, 1.0), spec, mode="taylor")
    boundary_ok = abs(chk["p_e_raw"] - 0.9) < 1e-12
    rows = scaling_table(0.3, 0.1, n_values=[100, 400, 1600, 6400])
    col = [r["bound_times_sqrt_n"] for r in rows]
    sqrt_ok = all(abs(v - col[0]) < 1e-12 for v in col)
    worked_ok = abs(rate - 0.020672) < 1e-6
    ok = boundary_ok and sqrt_ok and worked_ok
    assert report(
        9,
        f"boundary equality, sqrt(N) law, worked bound {rate:.6f}",
        ok,
    )


def test_criterion_10_scale_invariance():
    base = i_err_closed(PARAMS)
    worst = max(
        abs(i_err_closed(ModelParams(0.3 * c, 0.2 * c, c)) - base)
        for c in (0.1, 3.0, 10.0)
    )
    assert report(10, f"exponent invariant under rate rescaling ({worst:.2e})", worst < 1e-12)


def test_criterion_11_reproducibility_across_workers(tmp_path):
    files = {}
    for workers in (1, 4, 8):
        cfg = CampaignConfig(
            params=PARAMS,
            n_grid=(50, 100, 200),
            trials_per_point=50_000,
            master_seed=RngSeed(1111),
            use_exact_when_feasible=False,
            workers=workers,
        )
        path = tmp_path / f"result_w{workers}.json"
        path.write_text(result_to_json(run_campaign(cfg)))
        files[workers] = path.read_bytes()
    ok = files[1] == files[4] == files[8]
    assert report(11, "bit-identical campaign result files at 1/4/8 workers", ok)
