"""Event-driven simulation of the bufferless server.

Generates the busy/idle record seen by successive arrivals from exact
exponential inter-arrival and service samples.  The Bernoulli idle
probabilities of :mod:`covertq.model` are deliberately not used here, so
the simulator is an independent check on that reduction.  Monte Carlo
batches run the same recursion time-major and keep only each trial's
state and idle count, never an array of length n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Hypothesis, ModelParams, csv_text

# Arrival 1 always finds an empty system when the simulation starts idle,
# while the analytic chain treats the first observation as stationary.
# Discarding one leading arrival removes the mismatch.
DEFAULT_BURN_IN = 1

# Arrivals per time-major draw in simulate_sequence_batch.
MC_CHUNK = 64

ORIGIN_WILLIE = 0
ORIGIN_NILLIE = 1
_ORIGIN_NAMES = {ORIGIN_WILLIE: "willie", ORIGIN_NILLIE: "nillie"}


@dataclass(frozen=True)
class RngSeed:
    """(seed, stream_id) pair naming a statistically independent stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError(f"seed and stream_id must be nonnegative, "
                             f"got ({self.seed}, {self.stream_id})")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def with_stream(self, stream_id: int) -> "RngSeed":
        return RngSeed(self.seed, stream_id)


@dataclass
class ObservationSequence:
    """Busy/idle record for n successive arrivals (1 = busy, job lost)."""

    bits: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if self.bits.size and self.bits.max() > 1:
            raise ValueError("bits must be 0/1 valued")
        self.n = int(self.bits.size)

    @property
    def busy_fraction(self) -> float:
        return float(self.bits.mean()) if self.n else 0.0

    def to_line(self) -> str:
        return (self.bits + ord("0")).tobytes().decode()

    @classmethod
    def from_line(cls, line: str) -> "ObservationSequence":
        line = line.strip()
        if not line or set(line) - {"0", "1"}:
            raise ValueError("sequence line must be a nonempty string of 0/1")
        return cls(np.frombuffer(line.encode(), dtype=np.uint8) - ord("0"))


@dataclass
class SimTrace:
    """Full per-arrival bookkeeping, for simulator validation only.

    The detector never sees arrival times or origins; they are not part
    of the conveyed statistic.
    """

    arrival_times: np.ndarray
    job_origin: np.ndarray  # ORIGIN_WILLIE / ORIGIN_NILLIE per arrival
    served: np.ndarray      # True exactly when the arrival found the server idle

    def observation(self) -> ObservationSequence:
        return ObservationSequence((~self.served).astype(np.uint8))

    def to_csv(self, path) -> None:
        origins = [_ORIGIN_NAMES[o] for o in self.job_origin.tolist()]
        served = self.served.astype(int).tolist()
        with open(path, "w") as fh:
            fh.write(csv_text(("time", "origin", "served"),
                              zip(self.arrival_times.tolist(), origins, served)))


def _arrival_rate(params: ModelParams, hyp: Hypothesis) -> float:
    return params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1


def _busy_bits(times: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Run the single-server no-buffer recursion over one arrival stream."""
    bits = np.empty(times.size, dtype=np.uint8)
    depart = -np.inf
    t_list = times.tolist()
    s_list = services.tolist()
    for j, t in enumerate(t_list):
        if t < depart:
            bits[j] = 1
        else:
            bits[j] = 0
            depart = t + s_list[j]
    return bits


def _busy_bits_batch(times: np.ndarray, ends: np.ndarray,
                     depart: np.ndarray) -> np.ndarray:
    """Same recursion over one time-major chunk, vectorized across trials.

    `times` and `ends` (arrival time plus service time) are (arrivals,
    trials); `depart` carries each trial's departure time in and out.
    Returns the (arrivals, trials) flags that are True where the arrival
    found the server idle, i.e. the complement of the busy bits.
    """
    idle = np.empty(times.shape, dtype=bool)
    for j in range(times.shape[0]):
        np.greater_equal(times[j], depart, out=idle[j])
        np.copyto(depart, ends[j], where=idle[j])
    return idle


def simulate_trace(
    params: ModelParams,
    hyp: Hypothesis,
    n: int,
    seed: RngSeed,
    burn_in: int = DEFAULT_BURN_IN,
) -> SimTrace:
    """Simulate n post-burn-in arrivals with full bookkeeping.

    Arrivals form a merged Poisson stream; under H1 each arrival is
    tagged Nillie by thinning with probability lambda_b / (lambda_w+lambda_b).
    Origin draws happen after all timing draws, so the busy/idle bits do
    not depend on how the total rate splits between the two streams.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    total = n + burn_in
    rng = seed.generator()
    rate = _arrival_rate(params, hyp)
    times = np.cumsum(rng.exponential(1.0 / rate, size=total))
    services = rng.exponential(1.0 / params.mu, size=total)
    if hyp is Hypothesis.H1 and params.lambda_b > 0:
        origin = (
            rng.random(total) < params.lambda_b / params.total_rate_h1
        ).astype(np.uint8)
    else:
        origin = np.zeros(total, dtype=np.uint8)
    bits = _busy_bits(times, services)
    sl = slice(burn_in, None)
    return SimTrace(
        arrival_times=times[sl],
        job_origin=origin[sl],
        served=bits[sl] == 0,
    )


def simulate_sequence(
    params: ModelParams,
    hyp: Hypothesis,
    n: int,
    seed: RngSeed,
    burn_in: int = DEFAULT_BURN_IN,
) -> ObservationSequence:
    """Busy/idle record of n arrivals; deterministic given all arguments."""
    return simulate_trace(params, hyp, n, seed, burn_in).observation()


def simulate_sequence_batch(
    params: ModelParams,
    hyp: Hypothesis,
    n: int,
    trials: int,
    seed: RngSeed,
    burn_in: int = DEFAULT_BURN_IN,
) -> np.ndarray:
    """Idle counts of `trials` independent n-arrival records, int64 (trials,).

    Draws run time-major: each MC_CHUNK arrivals take one (chunk, trials)
    block of inter-arrival gaps, then one of service times.  Each trial's
    clock, departure time and idle count carry over from chunk to chunk,
    so memory is O(trials) at any n.  Trial i does NOT reproduce
    simulate_sequence with any particular seed; the statistics are the
    same, which is what Monte Carlo needs.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    total = n + burn_in
    rng = seed.generator()
    gap_scale = 1.0 / _arrival_rate(params, hyp)
    service_scale = 1.0 / params.mu
    gap_buf = np.empty((MC_CHUNK, trials))
    end_buf = np.empty((MC_CHUNK, trials))
    clock = np.zeros(trials)
    depart = np.full(trials, -np.inf)
    counts = np.zeros(trials, dtype=np.int64)
    for start in range(0, total, MC_CHUNK):
        size = min(MC_CHUNK, total - start)
        times, ends = gap_buf[:size], end_buf[:size]
        rng.standard_exponential(out=times)
        rng.standard_exponential(out=ends)
        times *= gap_scale
        times[0] += clock
        np.cumsum(times, axis=0, out=times)  # same sums as one cumsum over n
        clock[:] = times[-1]
        ends *= service_scale
        ends += times
        idle = _busy_bits_batch(times, ends, depart)
        counts += np.count_nonzero(idle[max(burn_in - start, 0):], axis=0)
    return counts
