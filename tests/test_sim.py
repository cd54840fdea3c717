import tracemalloc

import numpy as np
import pytest

from covertq.model import Hypothesis, ModelParams
from covertq.sim import (
    MC_CHUNK,
    ORIGIN_NILLIE,
    ObservationSequence,
    RngSeed,
    _busy_bits,
    simulate_sequence,
    simulate_sequence_batch,
    simulate_trace,
)
from oracles import empirical_transition_counts

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


def test_h0_trace_has_no_nillie_arrivals():
    trace = simulate_trace(PARAMS, Hypothesis.H0, 10_000, RngSeed(3))
    assert not (trace.job_origin == ORIGIN_NILLIE).any()


def test_symmetric_thinning_fraction():
    params = ModelParams(0.4, 0.4, 1.0)
    trace = simulate_trace(params, Hypothesis.H1, 10**6, RngSeed(11))
    frac = (trace.job_origin == ORIGIN_NILLIE).mean()
    assert abs(frac - 0.5) < 0.002


def test_served_flags_complement_bits():
    trace = simulate_trace(PARAMS, Hypothesis.H1, 5000, RngSeed(5))
    np.testing.assert_array_equal(trace.observation().bits, (~trace.served).astype(np.uint8))


def test_arrival_times_strictly_increasing():
    trace = simulate_trace(PARAMS, Hypothesis.H1, 5000, RngSeed(6))
    assert (np.diff(trace.arrival_times) > 0).all()


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


def test_rate_swap_leaves_sequence_invariant_with_matched_seed():
    # only the total rate enters the law of the bits; origins are drawn
    # after timings, so the sequences are identical, well within 3 sigma
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
    expected = [n - _busy_bits(np.cumsum(gaps[:, i]), services[:, i])[burn_in:].sum()
                for i in range(trials)]
    got = simulate_sequence_batch(PARAMS, hyp, n, trials, seed, burn_in=burn_in)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


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


def test_bad_line_rejected():
    with pytest.raises(ValueError):
        ObservationSequence.from_line("0102")
    with pytest.raises(ValueError):
        ObservationSequence.from_line("")


def test_trace_csv_export(tmp_path):
    trace = simulate_trace(PARAMS, Hypothesis.H1, 100, RngSeed(41))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,origin,served"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[1] in ("willie", "nillie")
    assert first[2] in ("0", "1")
