"""Event-driven simulation of the bufferless server.

Generates the busy/idle record seen by successive arrivals from exact
exponential inter-arrival and service samples.  The transition-matrix
path in :mod:`covertq.model` is deliberately not used here, so the two
implementations cross-validate each other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .model import Hypothesis, ModelParams, csv_text

# Arrival 1 always finds an empty system when the simulation starts idle,
# while the analytic chain treats the first observation as stationary.
# Discarding one leading arrival removes the mismatch.
DEFAULT_BURN_IN = 1

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
        return "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from_line(cls, line: str) -> "ObservationSequence":
        line = line.strip()
        if not line or set(line) - {"0", "1"}:
            raise ValueError("sequence line must be a nonempty string of 0/1")
        return cls(np.frombuffer(line.encode(), dtype=np.uint8) - ord("0"))

    def to_bytes(self) -> bytes:
        return struct.pack("<Q", self.n) + np.packbits(self.bits).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObservationSequence":
        if len(data) < 8:
            raise ValueError("truncated sequence blob: missing length header")
        (n,) = struct.unpack("<Q", data[:8])
        packed = np.frombuffer(data[8:], dtype=np.uint8)
        if packed.size * 8 < n:
            raise ValueError("truncated sequence blob: payload shorter than header")
        return cls(np.unpackbits(packed)[:n])


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


def _busy_bits_batch(times: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Same recursion, vectorized across rows (trials x arrivals)."""
    trials, total = times.shape
    bits = np.empty((trials, total), dtype=np.uint8)
    depart = np.full(trials, -np.inf)
    for j in range(total):
        t = times[:, j]
        busy = t < depart
        bits[:, j] = busy
        idle = ~busy
        depart[idle] = t[idle] + services[idle, j]
    return bits


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
    """`trials` independent busy/idle records as a (trials, n) uint8 array.

    Row i does NOT reproduce simulate_sequence with any particular seed;
    the batch has its own draw order for speed.  Statistical behavior is
    identical, which is what Monte Carlo needs.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = n + burn_in
    rng = seed.generator()
    rate = _arrival_rate(params, hyp)
    times = np.cumsum(rng.exponential(1.0 / rate, size=(trials, total)), axis=1)
    services = rng.exponential(1.0 / params.mu, size=(trials, total))
    bits = _busy_bits_batch(times, services)
    return bits[:, burn_in:]


def empirical_transition_counts(obs: ObservationSequence) -> np.ndarray:
    """2x2 counts of consecutive (previous, next) state pairs."""
    if obs.n < 2:
        raise ValueError("need at least 2 observations to count transitions")
    prev = obs.bits[:-1].astype(np.intp)
    nxt = obs.bits[1:].astype(np.intp)
    counts = np.zeros((2, 2), dtype=np.int64)
    np.add.at(counts, (prev, nxt), 1)
    return counts
