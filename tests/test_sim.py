import tracemalloc

import numpy as np
import pytest

from covertq.model import Hypothesis, ModelParams
from covertq.sim import (
    MC_CHUNK,
    ObservationSequence,
    RngSeed,
    _busy_bits_segmented,
    simulate_sequence,
    simulate_sequence_batch,
)
from oracles import empirical_transition_counts, scalar_busy_bits, willie_busy_bits

PARAMS = ModelParams(0.3, 0.2, 1.0)


def test_determinism():
    a = simulate_sequence(PARAMS, Hypothesis.H1, 5, RngSeed(42, 3))
    b = simulate_sequence(PARAMS, Hypothesis.H1, 5, RngSeed(42, 3))
    np.testing.assert_array_equal(a.bits, b.bits)


def test_distinct_streams_differ():
    a = simulate_sequence(PARAMS, Hypothesis.H1, 2000, RngSeed(42, 0))
    b = simulate_sequence(PARAMS, Hypothesis.H1, 2000, RngSeed(42, 1))
    assert not np.array_equal(a.bits, b.bits)


def test_instant_service_limit():
    # mu huge: expected busy count over 1000 arrivals is about 1e-6
    params = ModelParams(1.0, 0.0, 1e9)
    obs = simulate_sequence(params, Hypothesis.H0, 1000, RngSeed(1))
    assert obs.bits.sum() == 0


def test_busy_fraction_matches_analytic_marginal():
    obs = simulate_sequence(PARAMS, Hypothesis.H1, 10**6, RngSeed(7))
    assert abs(obs.busy_fraction - 1 / 3) < 0.005


def test_n_zero_rejected():
    with pytest.raises(ValueError):
        simulate_sequence(PARAMS, Hypothesis.H0, 0, RngSeed(0))


def test_transition_counts_hand_examples():
    np.testing.assert_array_equal(
        empirical_transition_counts(ObservationSequence(np.array([0, 0, 1, 0]))),
        [[1, 1], [1, 0]],
    )
    np.testing.assert_array_equal(
        empirical_transition_counts(ObservationSequence(np.zeros(5, dtype=np.uint8))),
        [[4, 0], [0, 0]],
    )
    with pytest.raises(ValueError):
        empirical_transition_counts(ObservationSequence(np.array([1])))


def test_transition_frequencies_match_analytic_matrix():
    obs = simulate_sequence(PARAMS, Hypothesis.H0, 10**6, RngSeed(13))
    counts = empirical_transition_counts(obs)
    freq = counts / counts.sum(axis=1, keepdims=True)
    p = 1 / 1.3
    np.testing.assert_allclose(freq, [[p, 1 - p], [p, 1 - p]], atol=0.01)


def test_memorylessness_busy_fraction_after_each_state():
    # fraction busy after a lost job equals fraction busy after a served job
    obs = simulate_sequence(PARAMS, Hypothesis.H1, 10**6, RngSeed(17))
    prev, nxt = obs.bits[:-1], obs.bits[1:]
    after_lost = nxt[prev == 1].mean()
    after_served = nxt[prev == 0].mean()
    # both estimate 1 - q = 1/3; 3 sigma of each is about 0.003
    assert abs(after_lost - after_served) < 0.006


def test_willie_own_jobs_see_the_merged_stream_law():
    # The paper's Willie hears only about his own jobs.  After each of them
    # the server is busy with a memoryless residual service, so his own
    # record is i.i.d. Bernoulli(q) too: idle fraction q, no lag-1
    # correlation, and q after either state.  Each leg holds to 5 sigma.
    n = 200_000
    q = PARAMS.idle_probability(Hypothesis.H1)
    bits = willie_busy_bits(PARAMS, n, np.random.default_rng(61))
    n_w, idle = bits.size, 1.0 - bits
    share = PARAMS.lambda_w / PARAMS.total_rate_h1
    assert abs(n_w / n - share) <= 5 * np.sqrt(share * (1 - share) / n)
    assert abs(idle.mean() - q) <= 5 * np.sqrt(q * (1 - q) / n_w)
    assert abs(np.corrcoef(idle[:-1], idle[1:])[0, 1]) * np.sqrt(n_w) <= 5
    for row in empirical_transition_counts(ObservationSequence(bits)):
        assert abs(row[0] / row.sum() - q) <= 5 * np.sqrt(q * (1 - q) / row.sum())


def test_rate_swap_leaves_sequence_invariant_with_matched_seed():
    # only the total rate enters the draws, so the sequences are
    # identical, well within 3 sigma
    a = simulate_sequence(ModelParams(0.3, 0.2, 1.0), Hypothesis.H1, 10**5, RngSeed(23))
    b = simulate_sequence(ModelParams(0.2, 0.3, 1.0), Hypothesis.H1, 10**5, RngSeed(23))
    assert abs(a.busy_fraction - b.busy_fraction) < 3 * 0.0015
    np.testing.assert_array_equal(a.bits, b.bits)


def test_batch_statistics_match_single_path():
    idle = simulate_sequence_batch(PARAMS, Hypothesis.H1, 50, 20_000, RngSeed(29))
    assert idle.shape == (20_000,)
    assert abs(idle.mean() / 50 - 2 / 3) < 0.005


@pytest.mark.parametrize("hyp", list(Hypothesis))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("burn_in", [0, 1, 70])
def test_batch_counts_equal_the_scalar_recursion_on_the_same_draws(hyp, n, burn_in):
    # rebuild the batch's time-major draws chunk by chunk, then run each
    # trial through the scalar recursion over its whole stream
    trials, seed = 9, RngSeed(43, 5)
    rng = seed.generator()
    rate = PARAMS.lambda_w if hyp is Hypothesis.H0 else PARAMS.total_rate_h1
    gaps, services = [], []
    for start in range(0, n + burn_in, MC_CHUNK):
        size = (min(MC_CHUNK, n + burn_in - start), trials)
        gaps.append(rng.standard_exponential(size) * (1.0 / rate))
        services.append(rng.standard_exponential(size) * (1.0 / PARAMS.mu))
    gaps, services = np.concatenate(gaps), np.concatenate(services)
    expected = [n - scalar_busy_bits(np.cumsum(gaps[:, i]), services[:, i])[burn_in:].sum()
                for i in range(trials)]
    got = simulate_sequence_batch(PARAMS, hyp, n, trials, seed, burn_in=burn_in)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


def _single_stream_draws(params, hyp, n, seed, burn_in):
    # the draws simulate_sequence makes, in its order
    rng = seed.generator()
    rate = params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1
    times = np.cumsum(rng.exponential(1.0 / rate, size=n + burn_in))
    return times, rng.exponential(1.0 / params.mu, size=n + burn_in)


# 99, 100 and 101 arrivals straddle a square: 11 segments of 9, 10 full
# segments of 10, and 11 segments of 10 whose last holds 9 +inf pads
@pytest.mark.filterwarnings("ignore::covertq.model.UnstableRegimeWarning")
@pytest.mark.parametrize("load", [0.05, 1.0, 20.0, 1000.0])
@pytest.mark.parametrize("n", [1, 2, 99, 100, 101, 1237])
@pytest.mark.parametrize("burn_in", [0, 1, 70])
def test_single_stream_equals_the_scalar_recursion_on_the_same_draws(load, n, burn_in):
    # load is the arrival rate over mu; at 20 a segment's true run and its
    # empty-start run take longest to serve a common arrival, and at 1000
    # one busy span covers whole segments, where they never meet
    params = ModelParams(0.5 * load, 0.5 * load, 1.0)
    seed = RngSeed(53, 2)
    times, services = _single_stream_draws(params, Hypothesis.H1, n, seed, burn_in)
    expected = scalar_busy_bits(times, services)
    np.testing.assert_array_equal(_busy_bits_segmented(times, services), expected)
    obs = simulate_sequence(params, Hypothesis.H1, n, seed, burn_in=burn_in)
    np.testing.assert_array_equal(obs.bits, expected[burn_in:])


def test_arrival_on_a_departure_is_served():
    # integer times and services put arrivals exactly on departure times
    times = np.arange(5.0)
    np.testing.assert_array_equal(
        _busy_bits_segmented(times, np.full(5, 2.0)), [0, 1, 0, 1, 0])
    np.testing.assert_array_equal(
        _busy_bits_segmented(times, np.array([2.0, 1, 1, 1, 1])), [0, 1, 0, 0, 0])
    rng = np.random.default_rng(59)
    for n in (2, 16, 17, 99, 100, 101, 1237):
        times = np.arange(float(n))
        services = rng.integers(0, 4, size=n).astype(float)
        # one long service keeps the true run busy across whole segments,
        # where it never meets the empty-start run
        services[n // 3] = n // 2
        np.testing.assert_array_equal(_busy_bits_segmented(times, services),
                                      scalar_busy_bits(times, services))


def test_million_arrival_sequence_equals_the_scalar_recursion():
    seed = RngSeed(7)
    times, services = _single_stream_draws(PARAMS, Hypothesis.H1, 10**6, seed, 1)
    obs = simulate_sequence(PARAMS, Hypothesis.H1, 10**6, seed)
    np.testing.assert_array_equal(obs.bits, scalar_busy_bits(times, services)[1:])


def test_batch_memory_does_not_grow_with_n():
    # (trials, n) float64 arrays would take over 100 MB here
    tracemalloc.start()
    try:
        idle = simulate_sequence_batch(PARAMS, Hypothesis.H1, 10**5, 64, RngSeed(47))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idle.shape == (64,)
    assert peak < 2**20


def test_line_round_trip():
    simulated = simulate_sequence(PARAMS, Hypothesis.H1, 1000, RngSeed(31)).bits
    # a simulated record, all idle, all busy and single symbols
    for bits in (simulated, np.zeros(7), np.ones(7), [0], [1]):
        obs = ObservationSequence(bits)
        line = obs.to_line()
        assert line == "".join("1" if b else "0" for b in obs.bits)
        np.testing.assert_array_equal(ObservationSequence.from_line(line).bits, obs.bits)


def test_line_accepts_surrounding_whitespace():
    np.testing.assert_array_equal(ObservationSequence.from_line(" 0110\n").bits, [0, 1, 1, 0])


def test_bad_line_rejected():
    # digits above 1, bytes below "0" (space, "/"), non-ASCII and unencodable
    # characters, and lines that are empty once stripped
    for line in ("0102", "", " \n", "01 1", "0/1", "01\u00e9", "0\u2080",
                 "0\ud8001", "1\x00"):
        with pytest.raises(ValueError, match="nonempty string of 0/1"):
            ObservationSequence.from_line(line)
