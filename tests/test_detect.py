import sys
import tracemalloc
from math import log, sqrt

import numpy as np
import pytest

from covertq import detect
from covertq.detect import (
    DegenerateModelError,
    _cut,
    _llr,
    decide,
    exact_error_probabilities,
    log_likelihood_ratio,
    monte_carlo_error,
)
from covertq.model import Hypothesis, ModelParams
from covertq.sim import ObservationSequence, RngSeed, simulate_sequence_batch
from oracles import (
    brute_force_error_probabilities,
    log_domain_error_probabilities,
    mpmath_binomial_tails,
    mpmath_cut,
    mpmath_llr_coefficients,
)

PARAMS = ModelParams(0.3, 0.2, 1.0)


def obs(*bits):
    return ObservationSequence(np.array(bits, dtype=np.uint8))


def coefficients(params):
    """The LLR's (c_idle, c_busy), as every test in detect reads them."""
    return params._ratios.a, params._ratios.b


def test_identical_hypotheses_give_zero_llr():
    same = ModelParams(0.3, 0.0, 1.0)
    for bits in [(0,), (1,), (0, 1, 1, 0), (1, 1, 1)]:
        assert log_likelihood_ratio(obs(*bits), same) == 0.0


def test_single_symbol_llr():
    # log(p/q) with p = 1/1.3, q = 2/3
    expected = log((1 / 1.3) / (2 / 3))
    assert log_likelihood_ratio(obs(0), PARAMS) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.143100844, abs=1e-9)


def test_two_symbol_llr():
    expected = log((1 / 1.3) / (2 / 3)) + log((0.3 / 1.3) / (1 / 3))
    got = log_likelihood_ratio(obs(0, 1), PARAMS)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.224624, abs=1e-6)


def test_decide_tie_goes_to_h0():
    result = decide(obs(0, 1, 1), ModelParams(0.3, 0.0, 1.0), threshold=0.0)
    assert result["llr"] == 0.0
    assert result["decision"] == "H0"


def test_decide_ties_match_the_idle_count_rule():
    # a threshold equal to an attainable LLR value is a tie and must decide
    # H0, exactly as the exact and Monte Carlo paths decide it
    cases = []
    for m in (5, 12, 40, 200):
        for k in range(m + 1):
            bits = (0,) * k + (1,) * (m - k)
            result = decide(obs(*bits), PARAMS, _llr(k, m, *coefficients(PARAMS)))
            cases.append(result["decision"])
    assert len(cases) == 261
    assert cases.count("H1") == 0


def test_decide_sign_rule():
    assert decide(obs(0), PARAMS)["decision"] == "H0"
    assert decide(obs(0, 1), PARAMS)["decision"] == "H1"


def test_exact_rejects_zero_lambda_b():
    with pytest.raises(DegenerateModelError):
        exact_error_probabilities(ModelParams(0.3, 0.0, 1.0), 10)


def test_exact_single_sample():
    ep = exact_error_probabilities(PARAMS, 1)
    assert ep["p_f"] == pytest.approx(1 - 1 / 1.3, abs=1e-12)
    assert ep["p_m"] == pytest.approx(2 / 3, abs=1e-12)


def test_error_probabilities_derive_p_e():
    ep = exact_error_probabilities(PARAMS, 1)
    assert ep["p_e"] == (ep["p_f"] + ep["p_m"]) / 2.0
    assert (ep["se_f"], ep["se_m"]) == (0.0, 0.0)


@pytest.mark.parametrize("lambda_b", [1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.2])
@pytest.mark.parametrize("lambda_w", [0.3, 0.6])
def test_one_symbol_llr_matches_mpmath(lambda_w, lambda_b):
    # the coefficients stay exact where the float p and q round together
    # (q == p at lambda_b = 1e-18)
    params = ModelParams(lambda_w, lambda_b, 1.0)
    for bits, ref in zip(((0,), (1,)), mpmath_llr_coefficients(params)):
        got = log_likelihood_ratio(obs(*bits), params)
        assert abs(got - ref) <= 1e-14 * abs(ref), (bits, got, ref)


def test_busy_coefficient_and_cut_at_fast_service():
    # mu >> lambda_w << lambda_b puts (1-p)/(1-q) at 1.8e-16, where log1p(-y)
    # with y a hair below 1 would keep only the first few digits of log of it
    params = ModelParams(5.86e-11, 1.88e10, 3.26e5)
    for bits, ref in zip(((0,), (1,)), mpmath_llr_coefficients(params)):
        got = log_likelihood_ratio(obs(*bits), params)
        assert abs(got - ref) <= 1e-14 * abs(ref), (bits, got, ref)
    for n, k in ((10**3, 768), (10**5, 76783)):
        assert _cut(n, params, 0.0) == mpmath_cut(params, n, 0.0) == k


# Cephes bdtr is 1.5e-9 relative off mid-distribution at N = 1e6 (1.2e-3
# at 1e7), hence the wider band there; one step of the cut moves each tail
# by the pmf at the cut, 1.6e-3 relative at N = 1e6.
@pytest.mark.parametrize("lambda_w, lambda_b, n, rel", [
    (0.3, 1e-18, 10, 1e-9), (0.3, 1e-18, 100, 1e-9), (0.3, 1e-15, 1000, 1e-9),
    (0.6, 1e-12, 10**6, 1e-8),
])
def test_exact_tails_match_the_mpmath_cut(lambda_w, lambda_b, n, rel):
    # both laws nearly coincide, so the cut sits near the middle and each
    # error is near 1/2; a cut moved by rounded coefficients shows at once
    params = ModelParams(lambda_w, lambda_b, 1.0)
    ep = exact_error_probabilities(params, n)
    refs = mpmath_binomial_tails(params, n, mpmath_cut(params, n, 0.0), dps=60)
    for got, ref in zip((ep["p_f"], ep["p_m"]), refs):
        assert abs(got - ref) <= rel * ref, (got, ref)


def test_small_but_resolvable_lambda_b_splits_errors():
    # once the LLR coefficients are resolvable the threshold sits in the
    # middle of both nearly identical binomials: each error rate is near
    # 1/2, and only the total stays pinned at 1/2
    ep = exact_error_probabilities(ModelParams(0.3, 1e-12, 1.0), 1000)
    assert 0.3 < ep["p_f"] < 0.7
    assert 0.3 < ep["p_m"] < 0.7
    assert ep["p_e"] == pytest.approx(0.5, abs=1e-6)


def test_tiny_lambda_b_total_error_near_half():
    ep = exact_error_probabilities(ModelParams(0.3, 1e-9, 1.0), 1000)
    assert ep["p_e"] == pytest.approx(0.5, abs=0.02)


def first_h0_index(decide_h0):
    """Index of the first H0 decision over k = 0..m (m+1 if none)."""
    return int(np.argmax(decide_h0)) if decide_h0.any() else decide_h0.size


@pytest.mark.parametrize("m", [0, 1, 5, 12, 40, 200, 1000, 10**5])
def test_cut_is_the_first_h0_index_of_the_llr_mask(m):
    # thresholds at every attainable LLR value (a sample of them for large
    # m) are ties; one ulp either side, random values and values past
    # either end of the LLR range probe the rounding and the clipping
    rng = np.random.default_rng(m)
    ks = np.arange(m + 1)
    for lambda_b in (0.2, 1e-3, 1e-12, 1e-18):
        params = ModelParams(0.3, lambda_b, 1.0)
        llr = _llr(ks, m, *coefficients(params))
        ties = llr if m <= 1000 else rng.choice(llr, 200)
        thresholds = np.concatenate([
            ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
            rng.uniform(llr.min() - 1.0, llr.max() + 1.0, 50), [-1e300, 1e300],
        ])
        for threshold in thresholds:
            decide_h0 = llr >= threshold
            first = first_h0_index(decide_h0)
            assert decide_h0[first:].all()  # the H0 region is one interval
            assert _cut(m, params, float(threshold)) == first


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10**5])
def test_exact_tails_match_mpmath(n):
    rng = np.random.default_rng(n)
    for lw, lb in ((0.3, 0.2), (0.05, 1e-3), (0.5, 0.05), (0.1, 1e-5)):
        params = ModelParams(lw, lb, 1.0)
        llr = _llr(np.arange(n + 1), n, *coefficients(params))
        for threshold in (-2.0, 0.0, 1.5, float(rng.uniform(-5.0, 5.0))):
            ep = exact_error_probabilities(params, n, threshold)
            cut = first_h0_index(llr >= threshold)
            for got, ref in zip((ep["p_f"], ep["p_m"]),
                                mpmath_binomial_tails(params, n, cut)):
                case = (lw, lb, threshold, got, ref)
                if ref < sys.float_info.min:
                    assert got < sys.float_info.min, case
                else:
                    assert abs(got - ref) <= 1e-9 * ref, case


def test_exact_matches_the_log_domain_sum():
    for n in (1, 2, 7, 100, 5000):
        for threshold in (-1.0, 0.0, 0.5):
            ep = exact_error_probabilities(PARAMS, n, threshold)
            p_f, p_m = log_domain_error_probabilities(PARAMS, n, threshold)
            assert ep["p_f"] == pytest.approx(p_f, rel=1e-9, abs=0.0)
            assert ep["p_m"] == pytest.approx(p_m, rel=1e-9, abs=0.0)


def test_exact_at_ten_million_underflows_in_bounded_memory():
    tracemalloc.start()
    try:
        ep = exact_error_probabilities(PARAMS, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ep["p_f"], ep["p_m"], ep["p_e"]) == (0.0, 0.0, 0.0)
    assert peak < 2**20


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_threshold_rejected(threshold):
    with pytest.raises(ValueError, match="threshold"):
        exact_error_probabilities(PARAMS, 10, threshold)
    with pytest.raises(ValueError, match="threshold"):
        monte_carlo_error(PARAMS, 10, threshold, 10, RngSeed(1))
    with pytest.raises(ValueError, match="threshold"):
        decide(obs(0, 1), PARAMS, threshold)


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_equivalence_small_n(n):
    p_f, p_m = brute_force_error_probabilities(PARAMS, n)
    ep = exact_error_probabilities(PARAMS, n)
    assert ep["p_f"] == pytest.approx(p_f, abs=1e-12)
    assert ep["p_m"] == pytest.approx(p_m, abs=1e-12)


def test_total_error_monotone_in_n():
    prev = 1.0
    for n in range(1, 201):
        p_e = exact_error_probabilities(PARAMS, n)["p_e"]
        assert p_e <= prev + 1e-12
        prev = p_e


def test_monte_carlo_matches_exact():
    n, trials = 12, 100_000
    exact = exact_error_probabilities(PARAMS, n)
    mc = monte_carlo_error(PARAMS, n, 0.0, trials, RngSeed(101))
    assert abs(mc["p_f"] - exact["p_f"]) < 4 * sqrt(exact["p_f"] * (1 - exact["p_f"]) / trials)
    assert abs(mc["p_m"] - exact["p_m"]) < 4 * sqrt(exact["p_m"] * (1 - exact["p_m"]) / trials)


def test_monte_carlo_zero_lambda_b_never_false_alarms():
    mc = monte_carlo_error(ModelParams(0.3, 0.0, 1.0), 20, 0.0, 2000, RngSeed(5))
    assert mc["p_f"] == 0.0
    assert mc["p_m"] == 1.0


def test_monte_carlo_single_trial_is_bernoulli():
    mc = monte_carlo_error(PARAMS, 12, 0.0, 1, RngSeed(9))
    assert mc["p_f"] in (0.0, 1.0)
    assert mc["p_m"] in (0.0, 1.0)


def test_monte_carlo_worker_count_is_invisible():
    kwargs = dict(n=30, threshold=0.0, trials=50_000, seed=RngSeed(77))
    one = monte_carlo_error(PARAMS, **kwargs, workers=1)
    four = monte_carlo_error(PARAMS, **kwargs, workers=4)
    assert one == four


# error counts (H0 false alarms, H1 misses) out of 500 trials per
# hypothesis at one seed, both read off the same draws; with the burn-in
# arrival, N = 63, 64 and 65 fill one MC_CHUNK exactly or spill one or
# two arrivals into a second.  A moved draw in the simulator's batch
# kernel moves some of them; a last-bit change in a float sum seldom
# does, and test_batch_residual_is_lindleys_recursion_over_each_stream pins those.
# Each pin also lies within 4 binomial standard errors of trials times
# the exact error probability, so a new sampler cannot pin a biased count.
@pytest.mark.parametrize("n, false_alarms, misses", [
    pytest.param(*pin, id=f"n{pin[0]}")
    for pin in [(63, 91, 96), (64, 102, 79), (65, 72, 108), (250, 19, 20)]])
def test_monte_carlo_error_counts_are_pinned(n, false_alarms, misses):
    trials = 500
    mc = monte_carlo_error(PARAMS, n, 0.0, trials, RngSeed(2024, 3))
    assert (mc["p_f"], mc["p_m"]) == (false_alarms / trials, misses / trials)
    exact = exact_error_probabilities(PARAMS, n)
    for count, p in ((false_alarms, exact["p_f"]), (misses, exact["p_m"])):
        assert abs(count - trials * p) <= 4 * sqrt(trials * p * (1 - p))


def test_monte_carlo_windows_read_every_cut_off_one_simulation(monkeypatch):
    # three blocks of 256, 256 and 188 trials, each in two halves; each
    # half's idle counts of both hypotheses at the window ends come from
    # one windowed simulation, cut here by hand
    monkeypatch.setattr(detect, "MC_BLOCK_SIZE", 256)
    windows, gamma, trials, seed = (12, 63, 64, 65), 0.5, 700, RngSeed(31, 2)
    grid = monte_carlo_error(PARAMS, windows, gamma, trials, seed)
    errors = np.zeros((2, len(windows)), dtype=np.int64)
    for block, halves in enumerate(((128, 128), (128, 128), (94, 94))):
        for half, ht in enumerate(halves):
            s = seed.with_stream(seed.stream_id + 1 + 2 * block + half)
            counts = simulate_sequence_batch(PARAMS, 65, ht, s, windows=windows)
            for hyp in Hypothesis:
                for i, w in enumerate(windows):
                    below = np.count_nonzero(counts[hyp.value, i] < _cut(w, PARAMS, gamma))
                    errors[hyp.value, i] += below if hyp is Hypothesis.H0 else ht - below
    expected = [{"p_f": f / trials, "p_m": m / trials, "p_e": (f / trials + m / trials) / 2,
                 "se_f": sqrt(f / trials * (1 - f / trials) / trials),
                 "se_m": sqrt(m / trials * (1 - m / trials) / trials)}
                for f, m in zip(errors[0], errors[1])]
    assert grid == expected
    # the longest window is the scalar call's simulation
    assert grid[-1] == monte_carlo_error(PARAMS, 65, gamma, trials, seed)
    assert monte_carlo_error(PARAMS, windows, gamma, trials, seed, workers=3) == grid


def test_monte_carlo_error_shapes_follow_the_arguments():
    one = monte_carlo_error(PARAMS, 20, 0.0, 50, RngSeed(3))
    assert isinstance(one, dict)
    assert monte_carlo_error(PARAMS, (20,), 0.0, 50, RngSeed(3)) == [one]
    assert len(monte_carlo_error(PARAMS, (5, 10, 20), 0.0, 50, RngSeed(3))) == 3
    for n in ((), (20, 10), (10, 10)):
        with pytest.raises(ValueError):
            monte_carlo_error(PARAMS, n, 0.0, 50, RngSeed(3))


def test_monte_carlo_thresholds_read_one_simulation(monkeypatch):
    # two blocks, four half-block jobs; the one call equals the per-threshold calls
    # at the same seed, on one window and on a tuple of windows
    monkeypatch.setattr(detect, "MC_BLOCK_SIZE", 256)
    gammas, trials, seed = (-2.0, -0.5, 0.0, 0.5, 2.0), 400, RngSeed(17, 4)
    calls = []
    original = detect.simulate_sequence_batch
    monkeypatch.setattr(detect, "simulate_sequence_batch",
                        lambda *a, **k: calls.append(a[2]) or original(*a, **k))
    one = monte_carlo_error(PARAMS, 40, gammas, trials, seed)
    assert sorted(calls) == [72, 72, 128, 128]
    assert one == [monte_carlo_error(PARAMS, 40, g, trials, seed) for g in gammas]
    grid = monte_carlo_error(PARAMS, (10, 40), gammas, trials, seed, workers=2)
    assert grid[-1] == one
    assert grid[0] == [monte_carlo_error(PARAMS, (10, 40), g, trials, seed)[0] for g in gammas]
    assert monte_carlo_error(PARAMS, 40, (0.0,), trials, seed) == [one[2]]
    for bad in ((), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="threshold"):
            monte_carlo_error(PARAMS, 40, bad, trials, seed)


def test_monte_carlo_uneven_halves_are_invisible_to_the_worker_count(monkeypatch):
    # 517 trials in blocks of 256 are blocks of 256, 256 and 5 trials, and
    # the last block's halves take 3 and 2; each half is one job on its own
    # stream offset, and the counts are summed in job order
    monkeypatch.setattr(detect, "MC_BLOCK_SIZE", 256)
    seed, jobs = RngSeed(61, 7), []
    original = detect.simulate_sequence_batch

    def recording(params, n, trials, s, **kwargs):
        jobs.append((trials, s.stream_id - seed.stream_id))
        return original(params, n, trials, s, **kwargs)

    monkeypatch.setattr(detect, "simulate_sequence_batch", recording)
    results = [monte_carlo_error(PARAMS, (20, 40), (-0.5, 0.0), 517, seed, workers=workers)
               for workers in (1, 2, 4, 8)]
    assert all(result == results[0] for result in results[1:])
    halves = [(128, 1), (128, 2), (128, 3), (128, 4), (3, 5), (2, 6)]
    assert sorted(jobs) == sorted(halves * 4)
    # one trial: the second half is empty and makes no job
    jobs.clear()
    monte_carlo_error(PARAMS, 20, 0.0, 1, seed, workers=8)
    assert jobs == [(1, 1)]


@pytest.mark.parametrize("workers", [0, -3])
def test_monte_carlo_error_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        monte_carlo_error(PARAMS, 20, 0.0, 50, RngSeed(3), workers=workers)


def test_monte_carlo_error_refuses_trials_that_would_reuse_a_stream(monkeypatch):
    # the halves of block b draw stream offsets 1 + 2b and 2 + 2b, so
    # 2**19 blocks keep every offset at most 2**20; one more block is
    # refused before the call builds a job or simulates a trial
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a block")

    monkeypatch.setattr(detect, "MC_BLOCK_SIZE", 1)
    monkeypatch.setattr(detect, "simulate_sequence_batch", no_simulation)
    with pytest.raises(ValueError, match=r"trials must be <= 524288 .*got 524289"):
        monte_carlo_error(PARAMS, 20, 0.0, 2**19 + 1, RngSeed(3))
