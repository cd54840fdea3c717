import math
import tracemalloc
import warnings

import numpy as np
import pytest

from covertq import sim
from covertq.model import Hypothesis, ModelParams, NonFiniteError
from covertq.sim import (
    MC_CHUNK,
    ObservationSequence,
    RngSeed,
    _busy_bits_batch,
    _busy_bits_segmented,
    _exponential,
    simulate_sequence,
    simulate_sequence_batch,
)
from oracles import (
    empirical_transition_counts,
    masked_busy_bits_batch,
    scalar_busy_bits,
    willie_busy_bits,
)

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


def test_inverted_exponential_has_the_exponential_law():
    # KS distance under its 0.1% critical value; mean and variance within
    # 5 standard errors (the sample variance of Exp has variance 8 s^4 / n)
    n, scale = 200_000, 2.5
    x = np.empty(n)
    _exponential(np.random.default_rng(20211), x, scale)
    assert x.min() >= 0.0 and np.isfinite(x).all()
    cdf = -np.expm1(-np.sort(x) / scale)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < math.sqrt(-math.log(0.0005) / 2) / math.sqrt(n)
    assert abs(x.mean() - scale) < 5 * scale / math.sqrt(n)
    assert abs(x.var(ddof=1) - scale**2) < 5 * scale**2 * math.sqrt(8 / n)


class _FixedUniforms:
    """A generator whose random() repeats the given values."""

    def __init__(self, *values):
        self.values = values

    def random(self, out):
        for i, u in enumerate(self.values):
            out.flat[i::len(self.values)] = u


@pytest.mark.parametrize("scale", [1.0, 3.0, 1e300])
def test_inverted_exponential_stays_finite_at_both_ends_of_the_uniforms(scale):
    x = np.empty(6)
    _exponential(_FixedUniforms(0.0, 1.0 - 2.0**-53), x, scale)
    assert np.isfinite(x).all()  # never NaN or -inf
    np.testing.assert_array_equal(x[0::2], 0.0)
    np.testing.assert_allclose(x[1::2], 53 * math.log(2) * scale, rtol=1e-15)


@pytest.mark.filterwarnings("ignore::covertq.model.UnstableRegimeWarning")
def test_a_nan_draw_at_infinite_scale_is_a_numeric_failure(monkeypatch):
    # U = 0 at scale 1/5e-324 = inf gives 0 * inf = NaN, not a time;
    # every draw is NaN here, so no infinite one can raise instead
    monkeypatch.setattr(RngSeed, "generator", lambda self: _FixedUniforms(0.0))
    tiny = ModelParams(5e-324, 5e-324, 5e-324)
    x = np.empty(3)
    with np.errstate(invalid="ignore"):
        _exponential(_FixedUniforms(0.0), x, 1 / tiny.mu)
    assert np.isnan(x).all()
    with warnings.catch_warnings():  # and numpy prints no warning on the way
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError):
            simulate_sequence(tiny, Hypothesis.H1, 10, RngSeed(1))
        with pytest.raises(NonFiniteError):
            simulate_sequence_batch(tiny, Hypothesis.H1, 10, 4, RngSeed(1))


def _inverted_exponential(rng, size, scale):
    # the simulator's sampler written out: -log(1 - U) times the mean
    return np.log(1.0 - rng.random(size)) * -scale


def _batch_draws(hyp, total, trials, seed):
    """(gaps, services), (total, trials): the batch's time-major draws
    rebuilt chunk by chunk, scaled as the batch scales them."""
    rng = seed.generator()
    rate = PARAMS.lambda_w if hyp is Hypothesis.H0 else PARAMS.total_rate_h1
    gaps, services = [], []
    for start in range(0, total, MC_CHUNK):
        size = (min(MC_CHUNK, total - start), trials)
        gaps.append(_inverted_exponential(rng, size, 1.0 / rate))
        services.append(_inverted_exponential(rng, size, 1.0 / PARAMS.mu))
    return np.concatenate(gaps), np.concatenate(services)


@pytest.mark.parametrize("hyp", list(Hypothesis))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("burn_in", [0, 1, 70])
def test_batch_counts_equal_the_scalar_recursion_on_the_same_draws(hyp, n, burn_in):
    # run each trial through the scalar recursion over its whole stream;
    # the windowed call also records the running count at window ends on,
    # just before and just after a chunk boundary
    trials, seed = 9, RngSeed(43, 5)
    gaps, services = _batch_draws(hyp, n + burn_in, trials, seed)
    busy = np.array([scalar_busy_bits(np.cumsum(gaps[:, i]), services[:, i])[burn_in:]
                     for i in range(trials)])
    windows = tuple(w for w in (1, 2, 63, 64, 65, 130) if w < n) + (n,)
    expected = [[w - busy[i, :w].sum() for i in range(trials)] for w in windows]
    got = simulate_sequence_batch(PARAMS, hyp, n, trials, seed, burn_in=burn_in)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected[-1])
    windowed = simulate_sequence_batch(PARAMS, hyp, n, trials, seed, burn_in=burn_in,
                                       windows=windows)
    assert windowed.dtype == np.int64
    np.testing.assert_array_equal(windowed, expected)
    assert windowed[-1].tobytes() == got.tobytes()


@pytest.mark.parametrize("windows", [(), (0, 10), (5, 5, 10), (10, 5), (5,), (5, 11)])
def test_batch_windows_must_increase_to_n(windows):
    with pytest.raises(ValueError, match="windows"):
        simulate_sequence_batch(PARAMS, Hypothesis.H1, 10, 3, RngSeed(1), windows=windows)


def test_batch_clock_is_one_cumsum_over_each_stream(monkeypatch):
    # a last-bit change in a sum rarely flips a busy bit, so compare the
    # arrival and end times the recursion receives, chunk by chunk
    n, trials, seed = 200, 9, RngSeed(43, 5)
    seen = []

    def recording(times, ends, depart):
        seen.append((times.copy(), ends.copy()))
        return _busy_bits_batch(times, ends, depart)

    monkeypatch.setattr(sim, "_busy_bits_batch", recording)
    simulate_sequence_batch(PARAMS, Hypothesis.H1, n, trials, seed)
    gaps, services = _batch_draws(Hypothesis.H1, n + 1, trials, seed)
    times = np.cumsum(gaps, axis=0)
    np.testing.assert_array_equal(np.concatenate([t for t, _ in seen]).view(np.int64),
                                  times.view(np.int64))
    np.testing.assert_array_equal(np.concatenate([e for _, e in seen]).view(np.int64),
                                  (services + times).view(np.int64))


def _single_stream_draws(params, hyp, n, seed, burn_in):
    # the draws simulate_sequence makes, in its order
    rng = seed.generator()
    rate = params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1
    times = np.cumsum(_inverted_exponential(rng, n + burn_in, 1.0 / rate))
    return times, _inverted_exponential(rng, n + burn_in, 1.0 / params.mu)


def _segmented_busy_bits(times, services):
    """_busy_bits_segmented on flat streams, laid out as simulate_sequence
    lays out its draws: sqrt(n)-arrival segments, time-major, +inf pads."""
    n = times.size
    width = math.isqrt(n)
    segments = -(-n // width)

    def by_segment(stream):
        padded = np.full(segments * width, np.inf)
        padded[:n] = stream
        return padded.reshape(segments, width).T.copy()

    return _busy_bits_segmented(by_segment(times), by_segment(times + services))[:n]


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
    np.testing.assert_array_equal(_segmented_busy_bits(times, services), expected)
    obs = simulate_sequence(params, Hypothesis.H1, n, seed, burn_in=burn_in)
    np.testing.assert_array_equal(obs.bits, expected[burn_in:])


def test_arrival_on_a_departure_is_served():
    # integer times and services put arrivals exactly on departure times
    times = np.arange(5.0)
    np.testing.assert_array_equal(
        _segmented_busy_bits(times, np.full(5, 2.0)), [0, 1, 0, 1, 0])
    np.testing.assert_array_equal(
        _segmented_busy_bits(times, np.array([2.0, 1, 1, 1, 1])), [0, 1, 0, 0, 0])
    rng = np.random.default_rng(59)
    for n in (2, 16, 17, 99, 100, 101, 1237):
        times = np.arange(float(n))
        services = rng.integers(0, 4, size=n).astype(float)
        # one long service keeps the true run busy across whole segments,
        # where it never meets the empty-start run
        services[n // 3] = n // 2
        np.testing.assert_array_equal(_segmented_busy_bits(times, services),
                                      scalar_busy_bits(times, services))


def _chunk(case):
    """(times, ends, depart) of one time-major chunk of 40 trials."""
    rng = np.random.default_rng(67)
    shape = (MC_CHUNK, 40)
    gaps, services = rng.standard_exponential(shape), rng.standard_exponential(shape)
    depart = np.full(shape[1], -np.inf)
    if case == "carried_state":
        depart = rng.uniform(0.0, 3.0, shape[1])
    elif case == "ties":
        # integer gaps, services and departures put arrivals exactly on
        # departure times, some at time 0 with zero service
        gaps = rng.integers(0, 3, shape).astype(float)
        services = rng.integers(0, 4, shape).astype(float)
        depart = rng.integers(0, 3, shape[1]).astype(float)
    elif case == "zero_services":
        services[rng.random(shape) < 0.5] = 0.0
    times = np.cumsum(gaps, axis=0)
    ends = times + services
    if case == "inf_padding":
        # the tail rows simulate_sequence pads its last segment with
        times[-7:, ::2] = ends[-7:, ::2] = np.inf
    return times, ends, depart


@pytest.mark.parametrize("case", ["carried_state", "ties", "zero_services",
                                  "empty_start", "inf_padding"])
def test_branchless_departure_update_equals_the_masked_copy(case):
    times, ends, depart = _chunk(case)
    expected_depart = depart.copy()
    expected = masked_busy_bits_batch(times, ends, expected_depart)
    np.testing.assert_array_equal(_busy_bits_batch(times, ends, depart), expected)
    np.testing.assert_array_equal(depart.view(np.int64), expected_depart.view(np.int64))
    assert 0 < expected.sum() < expected.size


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


def test_single_stream_memory_is_under_four_floats_per_arrival():
    # the draws, arrival times and service ends take three float64 per
    # arrival; a padded or transposed extra copy would make it four
    n = 10**6
    tracemalloc.start()
    try:
        obs = simulate_sequence(PARAMS, Hypothesis.H1, n, RngSeed(47))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.n == n
    assert peak < 32 * n


def test_line_round_trip():
    simulated = simulate_sequence(PARAMS, Hypothesis.H1, 1000, RngSeed(31)).bits
    # a simulated record, all idle, all busy and single symbols
    for bits in (simulated, np.zeros(7), np.ones(7), [0], [1]):
        obs = ObservationSequence(bits)
        line = obs.to_line()
        assert line == "".join("1" if b else "0" for b in obs.bits)
        np.testing.assert_array_equal(ObservationSequence.from_line(line).bits, obs.bits)


@pytest.mark.parametrize("bits", [[0.5, 1.9, 1.0], [0.0, np.nan], [1, 256], [0, 2],
                                  [-1, 0], np.array([0, 2], dtype=np.uint8)])
def test_non_binary_bits_rejected(bits):
    # a uint8 cast first would truncate 1.9 to 1 and wrap 256 to 0
    with pytest.raises(ValueError, match="0/1"):
        ObservationSequence(np.asarray(bits))


def test_line_accepts_surrounding_whitespace():
    np.testing.assert_array_equal(ObservationSequence.from_line(" 0110\n").bits, [0, 1, 1, 0])


def test_bad_line_rejected():
    # digits above 1, bytes below "0" (space, "/"), non-ASCII and unencodable
    # characters, and lines that are empty once stripped
    for line in ("0102", "", " \n", "01 1", "0/1", "01\u00e9", "0\u2080",
                 "0\ud8001", "1\x00"):
        with pytest.raises(ValueError, match="nonempty string of 0/1"):
            ObservationSequence.from_line(line)
