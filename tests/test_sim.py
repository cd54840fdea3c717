import math
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from covertq import sim
from covertq.model import Hypothesis, ModelParams
from covertq.sim import (
    _SETTLE_ROWS,
    MC_CHUNK,
    ObservationSequence,
    RngSeed,
    _chunk_rows,
    _lane_busy_bits,
    _log_uniforms,
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


@pytest.mark.parametrize("n", [1, 7, 999_983, 10**6])
def test_busy_fraction_is_the_mean_of_the_bits(n):
    bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    assert ObservationSequence(bits).busy_fraction == float(bits.mean())


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
    idle = simulate_sequence_batch(PARAMS, 50, 20_000, RngSeed(29))
    assert idle.shape == (2, 20_000)
    assert abs(idle[Hypothesis.H0.value].mean() / 50 - 1 / 1.3) < 0.005
    assert abs(idle[Hypothesis.H1.value].mean() / 50 - 2 / 3) < 0.005


def test_inverted_exponential_has_the_exponential_law():
    # a log(1 - U) draw times -scale, as a service is formed (see sim._load):
    # KS distance under its 0.1% critical value; mean and variance within
    # 5 standard errors (the sample variance of Exp has variance 8 s^4 / n)
    n, scale = 200_000, 2.5
    x = np.empty(n)
    _log_uniforms(np.random.default_rng(20211), x)
    x *= -scale
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
    _log_uniforms(_FixedUniforms(0.0, 1.0 - 2.0**-53), x)
    x *= -scale
    assert np.isfinite(x).all()  # never NaN or -inf
    np.testing.assert_array_equal(x[0::2], 0.0)
    np.testing.assert_allclose(x[1::2], 53 * math.log(2) * scale, rtol=1e-15)


def test_single_stream_at_the_least_rates_sees_only_their_ratios():
    # gaps of mean 1/5e-324 = inf would make an absolute clock inf or NaN;
    # in mean gaps these rates are (1, 1, 1), and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = simulate_sequence(ModelParams(5e-324, 5e-324, 5e-324), Hypothesis.H1,
                                1000, RngSeed(1))
    expected = simulate_sequence(ModelParams(1.0, 1.0, 1.0), Hypothesis.H1, 1000, RngSeed(1))
    np.testing.assert_array_equal(got.bits, expected.bits)


# the largest H1 load lambda_h / mu whose longest service, 53 ln 2 times
# the load, is finite; both simulators cap every higher load to it
_LAST_FINITE_LOAD = 4.8934395673698066e+306


def test_batch_caps_loads_whose_longest_service_overflows(monkeypatch):
    # every draw is the longest: gaps and services of 53 ln 2 mean units
    monkeypatch.setattr(RngSeed, "generator",
                        lambda self: _FixedUniforms(1.0 - 2.0**-53))
    past = math.nextafter(_LAST_FINITE_LOAD, math.inf)
    got = []
    with warnings.catch_warnings():  # numpy prints no warning at any load
        warnings.simplefilter("error", RuntimeWarning)
        # the cap, one ulp past it, and lambda_b / mu = inf
        for params in (ModelParams(1.0, _LAST_FINITE_LOAD, 1.0), ModelParams(1.0, past, 1.0),
                       ModelParams(1e-10, 1e308, 1e-10)):
            got.append(simulate_sequence_batch(params, 10, 4, RngSeed(1), burn_in=0))
    # H0's load is 1, so each service ends on the next arrival, which is
    # served; H1's first service is finite but outlasts the other nine gaps
    for counts in got:
        np.testing.assert_array_equal(counts, [[10] * 4, [1] * 4])


def test_single_stream_caps_loads_as_the_batch_does(monkeypatch):
    # every draw is the longest, as in the batch's test above: H1's first
    # service is the float maximum, not inf, and outlasts the other nine gaps
    monkeypatch.setattr(RngSeed, "generator",
                        lambda self: _FixedUniforms(1.0 - 2.0**-53))
    past = math.nextafter(_LAST_FINITE_LOAD, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for params in (ModelParams(1.0, _LAST_FINITE_LOAD, 1.0), ModelParams(1.0, past, 1.0),
                       ModelParams(1e-10, 1e308, 1e-10)):
            for hyp, bits in ((Hypothesis.H0, [0] * 10), (Hypothesis.H1, [0] + [1] * 9)):
                obs = simulate_sequence(params, hyp, 10, RngSeed(1), burn_in=0)
                np.testing.assert_array_equal(obs.bits, bits)


@pytest.mark.parametrize("k", [-1018, -500, 500, 1000])
def test_batch_counts_depend_only_on_the_rate_ratios(k):
    # scaling all three rates by 2**k is exact and leaves every ratio, so
    # the batch's counts and the single stream's records stay bit for bit
    windows = (1, 64, 65, 300)
    scaled = ModelParams(0.3 * 2.0**k, 0.2 * 2.0**k, 2.0**k)
    got = simulate_sequence_batch(scaled, 300, 50, RngSeed(71), windows=windows)
    expected = simulate_sequence_batch(PARAMS, 300, 50, RngSeed(71), windows=windows)
    np.testing.assert_array_equal(got, expected)
    for hyp in Hypothesis:
        np.testing.assert_array_equal(simulate_sequence(scaled, hyp, 300, RngSeed(71)).bits,
                                      simulate_sequence(PARAMS, hyp, 300, RngSeed(71)).bits)


def _inverted_exponential(rng, size, scale):
    # the single stream's draw written out: -log(1 - U) times the mean,
    # which is 1 for a gap and lambda_h / mu for a service
    return np.log(1.0 - rng.random(size)) * -scale


def _batch_logs(total, trials, seed, fill=None):
    """(gap logs, service logs), (total, trials): the batch's time-major
    draws of log(1 - U), rebuilt chunk by chunk; or what `fill`, standing
    in for sim._log_uniforms, puts in their buffers."""
    rng = seed.generator()
    gaps, services = [], []
    for start in range(0, total, MC_CHUNK):
        size = (min(MC_CHUNK, total - start), trials)
        for logs in (gaps, services):
            if fill is None:
                logs.append(np.log(1.0 - rng.random(size)))
            else:
                logs.append(np.empty(size))
                fill(rng, logs[-1])
    return np.concatenate(gaps), np.concatenate(services)


def _batch_draws(hyp, total, trials, seed):
    """(gaps, services), (total, trials): the batch's draws as exponential
    times, scaled by hyp's mean gap and the mean service."""
    rate = PARAMS.lambda_w if hyp is Hypothesis.H0 else PARAMS.total_rate_h1
    gaps, services = _batch_logs(total, trials, seed)
    return gaps * (-1.0 / rate), services * (-1.0 / PARAMS.mu)


def test_a_chunk_idle_count_fits_the_uint8_it_is_summed_in():
    assert MC_CHUNK < 256


@pytest.mark.parametrize("hyp", list(Hypothesis))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("burn_in", [0, 1, 70])
def test_batch_counts_equal_the_scalar_recursion_on_the_same_draws(hyp, n, burn_in):
    # run each trial through the scalar recursion over its whole stream;
    # the windowed call also records the running count at window ends on,
    # just before and just after a chunk boundary.  One call at one seed
    # serves both hypotheses, each on the draws _batch_draws rebuilds for it
    trials, seed = 9, RngSeed(43, 5)
    gaps, services = _batch_draws(hyp, n + burn_in, trials, seed)
    busy = np.array([scalar_busy_bits(np.cumsum(gaps[:, i]), services[:, i])[burn_in:]
                     for i in range(trials)])
    windows = tuple(w for w in (1, 2, 63, 64, 65, 130) if w < n) + (n,)
    expected = [[w - busy[i, :w].sum() for i in range(trials)] for w in windows]
    got = simulate_sequence_batch(PARAMS, n, trials, seed, burn_in=burn_in)
    assert got.dtype == np.int64 and got.shape == (2, trials)
    np.testing.assert_array_equal(got[hyp.value], expected[-1])
    windowed = simulate_sequence_batch(PARAMS, n, trials, seed, burn_in=burn_in,
                                       windows=windows)
    assert windowed.dtype == np.int64 and windowed.shape == (2, len(windows), trials)
    np.testing.assert_array_equal(windowed[hyp.value], expected)
    assert windowed[:, -1].tobytes() == got.tobytes()


@pytest.mark.parametrize("windows", [(), (0, 10), (5, 5, 10), (10, 5), (5,), (5, 11)])
def test_batch_windows_must_increase_to_n(windows):
    with pytest.raises(ValueError, match="windows"):
        simulate_sequence_batch(PARAMS, 10, 3, RngSeed(1), windows=windows)


def _scalar_residuals(gaps, services, load):
    """Lindley's recursion over one trial's logs, one arrival at a time: the
    work left after each arrival, in units of the mean gap.  `load` is
    -lambda_h / mu, so a log times it is a service in those units."""
    residual, left = -math.inf, []
    for gap, service in zip(gaps.tolist(), services.tolist()):
        residual += gap
        if residual <= 0.0:  # idle: the arrival's service is all the work left
            residual = service * load
        left.append(residual)
    return np.array(left)


def _constructed_logs(case):
    """A stand-in for sim._log_uniforms, whose calls alternate gap and
    service fills.  "ties" fills integer logs, 0 to -2 for gaps and 0 to -3
    for services, so that at the loads 1 and 2 of rates (1, 1, 1) arrivals
    fall exactly on departures, some with zero gap and zero service;
    "zero_services" fills unit exponentials and zeroes half the services."""
    rng = np.random.default_rng(67)
    calls = iter(range(1 << 30))

    def fill(_, out):
        service = next(calls) % 2
        if case == "ties":
            out[...] = -rng.integers(0, 4 if service else 3, out.shape)
        else:
            out[...] = -rng.standard_exponential(out.shape)
            if service:
                out[rng.random(out.shape) < 0.5] = 0.0
    return fill


def test_batch_residual_is_lindleys_recursion_over_each_stream(monkeypatch):
    # a last-bit change in a residual rarely flips a busy bit, so compare
    # the residuals each chunk's row section leaves, and its idle flags
    # row by row with the clock-form recursion; each chunk runs once,
    # over H0's and H1's trials on the same draws.  Besides the draws, two
    # constructed cases at rates (1, 1, 1), where every time is exact
    n, trials, seed = 200, 9, RngSeed(43, 5)
    chunk_ends = np.minimum(np.arange(MC_CHUNK, n + MC_CHUNK, MC_CHUNK), n) - 1
    for case in ("draws", "ties", "zero_services"):
        params = PARAMS if case == "draws" else ModelParams(1.0, 1.0, 1.0)
        fill = None if case == "draws" else _constructed_logs(case)
        seen = []

        def recording(gaps, services, loads, residual):
            idle = _chunk_rows(gaps, services, loads, residual)
            seen.append((residual.copy(), idle.copy()))
            return idle

        with monkeypatch.context() as patch:
            patch.setattr(sim, "_chunk_rows", recording)
            if fill is not None:
                patch.setattr(sim, "_log_uniforms", fill)
            simulate_sequence_batch(params, n, trials, seed, burn_in=0)
        assert len(seen) == chunk_ends.size
        assert all(r.shape == (2, trials) and i.shape[1:] == (2, trials) for r, i in seen)
        gap_logs, service_logs = _batch_logs(
            n, trials, seed, None if fill is None else _constructed_logs(case))
        for hyp in Hypothesis:
            rate = params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1
            left = np.array([_scalar_residuals(gap_logs[:, i], service_logs[:, i],
                                               -rate / params.mu)
                             for i in range(trials)]).T
            got_left = np.array([r[hyp.value] for r, _ in seen])
            np.testing.assert_array_equal(got_left.view(np.int64),
                                          left[chunk_ends].view(np.int64))
            times = np.cumsum(gap_logs * (-1.0 / rate), axis=0)
            services = service_logs * (-1.0 / params.mu)
            got_idle = np.concatenate([i[:, hyp.value] for _, i in seen])
            busy = np.array([scalar_busy_bits(times[:, i], services[:, i])
                             for i in range(trials)]).T
            np.testing.assert_array_equal(got_idle, busy == 0)
            assert 0 < got_idle.sum() < got_idle.size


def _two_window_batch(seed):
    return simulate_sequence_batch(PARAMS, 300, 500, seed, windows=(100, 300))


def test_batch_calls_on_two_threads_equal_the_calls_one_after_the_other(monkeypatch):
    # the row sections of the two calls take turns under the module lock:
    # a row section never starts while another runs, and the counts are
    # those of the calls made one after the other
    calls = [RngSeed(5, 1), RngSeed(6, 2)]
    alone = [_two_window_batch(call) for call in calls]
    running, most = [], []

    def tracked(gaps, services, loads, residual):
        assert sim._ROW_LOCK.locked() and residual.shape == (2, 500)
        running.append(None)
        most.append(len(running))
        time.sleep(0.001)  # long enough for the other thread to arrive
        try:
            return _chunk_rows(gaps, services, loads, residual)
        finally:
            running.pop()

    monkeypatch.setattr(sim, "_chunk_rows", tracked)
    start = threading.Barrier(2)

    def started(call):
        start.wait()
        return _two_window_batch(call)

    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(pool.map(started, calls))
    # two calls, each with one row section per chunk over both hypotheses
    assert max(most) == 1 and len(most) == 2 * -(-301 // MC_CHUNK)
    for one, both in zip(alone, together):
        assert one.shape == (2, 2, 500)
        np.testing.assert_array_equal(both, one)


def test_batch_frees_the_row_lock_when_its_row_section_raises(monkeypatch):
    seed = RngSeed(8, 3)
    before = _two_window_batch(seed)

    def failing(gaps, services, loads, residual):
        raise RuntimeError("row section failed")

    with monkeypatch.context() as patch:
        patch.setattr(sim, "_chunk_rows", failing)
        with pytest.raises(RuntimeError, match="row section failed"):
            _two_window_batch(seed)
    assert not sim._ROW_LOCK.locked()
    np.testing.assert_array_equal(_two_window_batch(seed), before)


class _CountingLock:
    """Stands in for sim._ROW_LOCK and counts the sections run under it."""

    def __init__(self):
        self.entered = 0

    def __enter__(self):
        self.entered += 1

    def __exit__(self, *exc):
        return False


def test_only_the_batch_takes_the_row_lock(monkeypatch):
    lock = _CountingLock()
    monkeypatch.setattr(sim, "_ROW_LOCK", lock)
    simulate_sequence(PARAMS, Hypothesis.H1, 5000, RngSeed(9))
    assert lock.entered == 0
    simulate_sequence_batch(PARAMS, 200, 7, RngSeed(9))
    assert lock.entered == -(-201 // MC_CHUNK)  # once per chunk, for both hypotheses


def _single_stream_layout(params, hyp, n, seed, burn_in):
    """(gaps, services), (width, segments): simulate_sequence's draws as
    exponential times in units of the mean gap, rebuilt from its seed.  The
    stream is cut into isqrt(n + burn_in)-arrival segments, column k being
    segment k.  width * segments gaps of mean 1 are drawn row by row, then
    as many services of mean lambda_h / mu.  The rows past n + burn_in
    follow every real arrival, so they change no bit."""
    total = n + burn_in
    width = math.isqrt(total)
    segments = -(-total // width)
    rng = seed.generator()
    rate = params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1
    gaps = _inverted_exponential(rng, (width, segments), 1.0)
    services = _inverted_exponential(rng, (width, segments), rate / params.mu)
    return gaps, services


def _single_stream_draws(params, hyp, n, seed, burn_in):
    """The arrival times and services of simulate_sequence's draws, in
    stream order: segment k's arrival j is at the sum of its gaps 0..j plus
    the sum of the segment totals before k."""
    gaps, services = _single_stream_layout(params, hyp, n, seed, burn_in)
    times = np.empty_like(gaps)
    base = 0.0
    for k in range(gaps.shape[1]):
        sums = np.cumsum(gaps[:, k])
        times[:, k] = sums + base if k else sums  # segment 0 adds nothing
        base = base + sums[-1]
    return times.T.ravel()[:n + burn_in], services.T.ravel()[:n + burn_in]


def _segmented_busy_bits(times, services, lanes=1):
    """_lane_busy_bits on flat streams, cut as simulate_sequence cuts its
    draws into sqrt(n)-arrival segments, time-major, with `lanes` lanes to
    a segment.  The times are differenced into gap logs and the services
    negated into service logs at load -1, a mean service of one mean gap,
    so integer times and services stay exact.  The tail is padded with
    -inf gap logs: arrivals after every other, which find the server idle."""
    n = times.size
    width = math.isqrt(n)
    segments = -(-n // width)

    def by_segment(stream, pad):
        padded = np.full(segments * width, pad)
        padded[:n] = stream
        return padded.reshape(segments, width).T.copy()

    gaps = by_segment(-np.diff(times, prepend=0.0), -np.inf)
    return _lane_busy_bits(gaps, by_segment(-services, 0.0), -1.0, lanes)[:n]


# 99, 100 and 101 arrivals straddle a square: 11 segments of 9, 10 full
# segments of 10, and 11 segments of 10 whose last holds 9 rows past the end
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


@pytest.mark.parametrize("n", [1, 99, 100, 101, 1237, 40000])
def test_single_stream_lanes_receive_the_layout_draws(monkeypatch, n):
    # a last-bit change in a draw rarely flips a busy bit, so compare the
    # gap and service logs the lanes receive with the replay: a gap is minus
    # its log and a service its log times the load.  At lambda_h / mu = 0.5
    # a segment of width arrivals holds width // 100 lanes, at least one
    seed, seen = RngSeed(43, 5), []

    def recording(gaps, services, load, lanes):
        seen.append((gaps.copy(), services.copy(), load, lanes))
        return _lane_busy_bits(gaps, services, load, lanes)

    monkeypatch.setattr(sim, "_lane_busy_bits", recording)
    obs = simulate_sequence(PARAMS, Hypothesis.H1, n, seed, burn_in=0)
    (gaps, services, load, lanes), = seen
    expected_gaps, expected_services = _single_stream_layout(PARAMS, Hypothesis.H1, n, seed, 0)
    assert load == -PARAMS.total_rate_h1 / PARAMS.mu
    assert lanes == max(1, math.isqrt(n) // 100)
    np.testing.assert_array_equal((-gaps).view(np.int64), expected_gaps.view(np.int64))
    np.testing.assert_array_equal((services * load).view(np.int64),
                                  expected_services.view(np.int64))
    np.testing.assert_array_equal(obs.bits, _lane_busy_bits(gaps, services, load, lanes)[:n])


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


# The cases below cut 100 arrivals at times 0..99 into 10 segments of 10,
# one lane each, segment k holding arrivals 10k..10k+9; zero services serve
# every arrival the server is free for.  _lane_busy_bits' rerun starts
# segment k on the residual its empty-start run leaves segment k - 1 with.

@pytest.mark.parametrize("row", [_SETTLE_ROWS - 1, _SETTLE_ROWS, 9, 10])
def test_first_arrival_after_the_assumed_start_past_the_rows_read(row):
    # arrival 19's service ends just before segment 2's arrival `row`
    # (row 10 is segment 3's first), so the rerun settles segment 2 in its
    # second _SETTLE_ROWS-row block once row >= _SETTLE_ROWS, and at row 10
    # never, leaving it to the walk
    times, services = np.arange(100.0), np.zeros(100)
    services[19] = row + 0.5
    bits = _segmented_busy_bits(times, services)
    np.testing.assert_array_equal(bits, scalar_busy_bits(times, services))
    assert bits[20:20 + row].all() and not bits[20 + row:].any()


@pytest.mark.parametrize("service", [7.0, 12.5, 25.0, 45.0])
def test_segments_after_one_whose_true_run_never_meets(service):
    # arrival 9 keeps the server busy to 15.5, so the true run loses 10..15
    # and serves 16..19, which the empty-start run of segment 1 loses to
    # arrival 15's long service: the runs never meet, segment 1 truly ends
    # idle at 19, and segment 2 on starts off the assumed residual, what is
    # left of 15 + service.  At 7.0 the rerun would settle segment 2 with 20
    # and 21 lost, both served.
    times, services = np.arange(100.0), np.zeros(100)
    services[9], services[15] = 6.5, service
    bits = _segmented_busy_bits(times, services)
    np.testing.assert_array_equal(bits, scalar_busy_bits(times, services))
    assert not bits[16:].any()


@pytest.mark.parametrize("row", [0, 2, _SETTLE_ROWS - 1])
def test_arrival_exactly_on_the_assumed_start_is_served(row):
    times, services = np.arange(100.0), np.zeros(100)
    services[19] = row + 1.0  # drained exactly at segment 2's arrival `row`
    bits = _segmented_busy_bits(times, services)
    np.testing.assert_array_equal(bits, scalar_busy_bits(times, services))
    np.testing.assert_array_equal(bits[20:21 + row], [1] * row + [0])


@pytest.mark.parametrize("service", [0.5, 1.0, 3.0, _SETTLE_ROWS + 0.5, 12.0])
@pytest.mark.parametrize("n", [99, 100, 101])
def test_last_segment_settles_against_its_padding(n, service):
    # 99 and 100 fill their last segment; 101's holds one arrival and 9
    # padding rows, which the rerun reads when the arrival is lost
    width = math.isqrt(n)
    first = (-(-n // width) - 1) * width  # the last segment's first arrival
    times, services = np.arange(float(n)), np.zeros(n)
    services[first - 1] = service
    np.testing.assert_array_equal(_segmented_busy_bits(times, services),
                                  scalar_busy_bits(times, services))


# The lane cases below cut 2500 arrivals at times 0..2499 into 50 segments
# of 50, each viewed as `lanes` lanes of 50 // lanes rows, the last lane
# taking any rows left over.  Zero services serve every arrival the server is
# free for, so each lane's empty-start run is idle throughout but where a
# case puts a longer service.

def _lane_starts(lanes, width=50, segments=50):
    """The first arrival of every lane, in stream order."""
    rows = width // lanes
    return [k * width + i * rows for k in range(segments) for i in range(lanes)]


@pytest.mark.parametrize("every", [True, False])
@pytest.mark.parametrize("lanes, row", [(2, _SETTLE_ROWS), (2, 15), (2, 16), (2, 24),
                                        (5, _SETTLE_ROWS), (5, 9), (7, 6), (3, 15)])
def test_lane_rerun_meets_after_its_first_block(lanes, row, every):
    # the arrival before a lane keeps the server busy until just before the
    # lane's arrival `row`, where the lane's rerun first finds it idle and
    # meets the empty-start run: past the first _SETTLE_ROWS-row block from
    # row 8 on.  Either every lane but the first starts so, or only lane 1
    # of segment 3 does, while every other lane settles in the first block
    times, services = np.arange(2500.0), np.zeros(2500)
    starts = _lane_starts(lanes)[1:] if every else [3 * 50 + 50 // lanes]
    for first in starts:
        services[first - 1] = row + 0.5
    bits = _segmented_busy_bits(times, services, lanes)
    np.testing.assert_array_equal(bits, scalar_busy_bits(times, services))
    for first in starts:
        np.testing.assert_array_equal(bits[first:first + row + 1], [1] * row + [0])


@pytest.mark.parametrize("service", [12.0, 33.0, 150.0])
@pytest.mark.parametrize("lanes, lane", [(3, 1), (5, 2), (10, 8), (2, 1), (5, 4), (7, 6)])
def test_lane_walk_carries_on_past_a_lane_that_never_meets(lanes, lane, service):
    # the arrival before lane `lane` of segment 3 keeps the server busy to
    # 6.5 past it, so the true run loses the lane's first 6 arrivals and
    # serves the rest; the lane's empty-start run serves its arrival 5, whose
    # long service makes it lose the rest of the lane.  The runs never meet,
    # so the walk carries the true residual on into the next lane: of the same
    # segment for a middle lane, of segment 4 from the segment's last lane,
    # whose rerun started on the empty-start run's wrong residual
    starts = _lane_starts(lanes)
    first = starts[3 * lanes + lane]
    times, services = np.arange(2500.0), np.zeros(2500)
    services[first - 1], services[first + 5] = 6.5, service
    bits = _segmented_busy_bits(times, services, lanes)
    np.testing.assert_array_equal(bits, scalar_busy_bits(times, services))
    np.testing.assert_array_equal(bits[first:first + 7], [1] * 6 + [0])
    assert not bits[first + 6:].any()


@pytest.mark.parametrize("lanes", range(2, 11))
def test_lanes_equal_the_scalar_recursion_where_the_width_is_not_a_multiple(lanes):
    # 50 and 49 arrivals to a segment: 3, 4, 6, 7, 8 and 9 lanes leave rows
    # over at 50, and all but 7 at 49.  Integer times and services from
    # light to heavy load put arrivals on departures, in every lane and in
    # the rows the last lane takes over
    rng = np.random.default_rng(73 + lanes)
    for n in (2500, 2401):
        for most in (2, 30, 400):
            times = np.cumsum(rng.integers(0, 3, size=n)).astype(float)
            services = rng.integers(0, most, size=n).astype(float)
            np.testing.assert_array_equal(_segmented_busy_bits(times, services, lanes),
                                          scalar_busy_bits(times, services))


def _residual_bits(gaps, services, load):
    """Busy bits of Lindley's recursion over one stream's logs, one arrival
    at a time, as _scalar_residuals runs it."""
    residual, bits = -math.inf, []
    for gap, service in zip(gaps.tolist(), services.tolist()):
        residual += gap
        bits.append(residual > 0.0)
        if residual <= 0.0:
            residual = service * load
    return np.array(bits, dtype=np.uint8)


@pytest.mark.parametrize("before, served, service, segment_3, tie, lost", [
    (7.5, 29, 0.1 + 0.2, [0.1, 0.2], 31, True),
    (6.5, 28, 1.6, [0.1, 0.5], 31, True),
    (7.5, 29, 9.200000000000001, [0.3, 0.8, 1.4, 0.7, 0.9, 0.1, 1.0, 1.4, 1.3, 1.3], 39, False),
])
def test_walk_decides_a_near_tie_as_the_recursion_does(before, served, service, segment_3,
                                                       tie, lost):
    # 100 arrivals a mean gap apart, 10 segments of 10, one lane each, at
    # load -1.  Segment 1's true run never meets its empty-start run (as in
    # test_segments_after_one_whose_true_run_never_meets), so the walk
    # carries on through segment 2, serving arrival 21 and then, `before`
    # later, arrival `served`, both lost by the empty-start run to arrival
    # 20's long service, as segment 3's are to arrival 30's.  Segment 3
    # starts with the gaps `segment_3`, and the recursion leaves within
    # 1e-15 of no work at arrival `tie`, where sums of the gaps rounded
    # otherwise put it on the other side of 0: within segment 3 from
    # arrival 29, across the segment boundary from arrival 28, and over
    # the whole of segment 3, whose gap sum is a rounding below the service
    gaps, services = np.full(100, -1.0), np.zeros(100)
    services[[9, 15, 19, 20, 21, served, 30]] = [6.5, 45.0, 1.5, 20.0, before, service, 50.0]
    gaps[30:30 + len(segment_3)] = np.negative(segment_3)
    expected = _residual_bits(gaps, -services, -1.0)
    assert expected[tie] == lost and expected[tie + 1 if lost else tie - 1] != lost
    bits = _lane_busy_bits(gaps.reshape(10, 10).T.copy(), -services.reshape(10, 10).T.copy(),
                           -1.0, 1)
    np.testing.assert_array_equal(bits, expected)


@pytest.mark.parametrize("load", [20.0, 1e4])
def test_single_stream_at_heavy_load_equals_the_scalar_recursion(load):
    # one lane to a segment: at 20 most lanes settle in the rerun and the
    # walk takes the rest, and at 1e4 one busy span covers many segments
    seed, n = RngSeed(61, 1), 10**5
    params = ModelParams(0.5 * load, 0.5 * load, 1.0)
    times, services = _single_stream_draws(params, Hypothesis.H1, n, seed, 1)
    obs = simulate_sequence(params, Hypothesis.H1, n, seed)
    np.testing.assert_array_equal(obs.bits, scalar_busy_bits(times, services)[1:])


def test_million_arrival_sequence_equals_the_scalar_recursion():
    seed = RngSeed(7)
    times, services = _single_stream_draws(PARAMS, Hypothesis.H1, 10**6, seed, 1)
    obs = simulate_sequence(PARAMS, Hypothesis.H1, 10**6, seed)
    np.testing.assert_array_equal(obs.bits, scalar_busy_bits(times, services)[1:])


def test_batch_memory_does_not_grow_with_n():
    # (trials, n) float64 arrays would take over 100 MB here
    tracemalloc.start()
    try:
        idle = simulate_sequence_batch(PARAMS, 10**5, 64, RngSeed(47))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idle.shape == (2, 64)
    assert peak < 2**20


def test_batch_memory_is_under_three_chunk_buffers():
    # a chunk's gaps and services are two float64 (MC_CHUNK, trials)
    # buffers and its (MC_CHUNK, 2, trials) idle flags half of one; a
    # third would be a chunk of arrival or end times.  The warm-up call
    # imports numpy.random, which is no part of the kernel's memory
    trials = 2000
    simulate_sequence_batch(PARAMS, 10, trials, RngSeed(47))
    tracemalloc.start()
    try:
        idle = simulate_sequence_batch(PARAMS, 2000, trials, RngSeed(47),
                                       windows=(250, 500, 1000, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idle.shape == (2, 4, trials)
    assert peak < 3 * MC_CHUNK * trials * 8


def test_single_stream_memory_is_under_three_floats_per_arrival():
    # the gap and service logs take two float64 per arrival and the idle
    # flags and busy bits a few bytes; a draw buffer or a transposed copy
    # would make it three
    n = 10**6
    tracemalloc.start()
    try:
        obs = simulate_sequence(PARAMS, Hypothesis.H1, n, RngSeed(47))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.n == n
    assert peak < 24 * n


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
