"""Event-driven simulation of the bufferless server.

Generates the busy/idle record seen by successive arrivals from
exponential inter-arrival and service samples.  The Bernoulli idle
probabilities of :mod:`covertq.model` are deliberately not used here, so
the simulator is an independent check on that reduction.  Monte Carlo
batches run the same recursion time-major and keep only each trial's
state and running idle count, read at every requested window end, never
an array of length n.  Each step of the
batch works on whole contiguous rows of trials with no per-trial
branch: the clock is summed row by row and the departure update is a
max (see _busy_bits_batch), so the exponential draws take most of the
time.  Both are exact: the counts are bit for bit those of a per-arrival
loop on the same draws.

Every gap and service is drawn by inversion, -log(1 - U) times its
mean, from one uniform fill and one vectorised log (see _exponential),
which is cheaper than numpy's ziggurat and exact up to a truncated tail
of mass 2**-53.  A run is reproducible from its seed on the same numpy
build and CPU: numpy's SIMD log may differ by an ulp between instruction
sets, but never between worker counts.

A single stream is still simulated event by event and exactly, but
segment-parallel: about sqrt(n) segments run through the batch recursion
side by side, and an exact fix-up walk carries the true departure time
across them, so the record is bit for bit that of a per-arrival loop.
Its draws go straight into the segment layout, so it holds three float64
arrays of the stream's length: one draw buffer and the time-major arrival
and end times the recursion reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Hypothesis, ModelParams, NonFiniteError

# Arrival 1 always finds an empty system when the simulation starts idle,
# while the analytic chain treats the first observation as stationary.
# Discarding one leading arrival removes the mismatch.
DEFAULT_BURN_IN = 1

# Arrivals per time-major draw in simulate_sequence_batch.
MC_CHUNK = 64

# A clock or service end past the float64 range leaves later busy bits meaningless.
_OVERFLOW = "simulated time overflows float64 at these rates"


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
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if bits.dtype == np.uint8:
            bad = bits.size and bits.max() > 1
        else:  # checked before the cast, which truncates 1.9 and wraps 256
            bad = bits.dtype != np.bool_ and not ((bits == 0) | (bits == 1)).all()
        if bad:
            raise ValueError("bits must be 0/1 valued")
        self.bits = bits.astype(np.uint8, copy=False)
        self.n = int(self.bits.size)

    @property
    def busy_fraction(self) -> float:
        return float(self.bits.mean()) if self.n else 0.0

    def to_line(self) -> str:
        return (self.bits + ord("0")).tobytes().decode()

    @classmethod
    def from_line(cls, line: str) -> "ObservationSequence":
        # uint8 subtraction wraps bytes below "0", and every byte of a
        # non-ASCII character is above "1" (an unencodable one becomes
        # "?"), so max() > 1 catches both
        bits = np.frombuffer(line.strip().encode(errors="replace"),
                             dtype=np.uint8) - ord("0")
        if not bits.size or bits.max() > 1:
            raise ValueError("sequence line must be a nonempty string of 0/1")
        return cls(bits)


def _arrival_rate(params: ModelParams, hyp: Hypothesis) -> float:
    return params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1


def _exponential(rng: np.random.Generator, out: np.ndarray, scale: float) -> None:
    """Fill `out` with exponential draws of mean `scale`, by inversion.

    rng.random gives U = k * 2**-53 in [0, 1), so 1 - U is exact and lies
    in (0, 1]: the log never sees 0, and every draw -log(1 - U) * scale
    lies in [0, 53 * ln 2 * scale], which truncates a tail of mass 2**-53.
    U = 0 gives -0.0, which still meets _busy_bits_batch's nonnegative
    precondition, since -0.0 >= 0.  At scale = inf (rates near 5e-324)
    that draw is 0 * inf = NaN, which the callers' overflow checks
    report with the infinite ones.
    """
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    out *= -scale


def _busy_bits_batch(times: np.ndarray, ends: np.ndarray,
                     depart: np.ndarray) -> np.ndarray:
    """Same recursion over one time-major chunk, vectorized across trials.

    `times` and `ends` (arrival time plus service time) are (arrivals,
    trials); `depart` carries each trial's departure time in and out.
    Returns the (arrivals, trials) flags that are True where the arrival
    found the server idle, i.e. the complement of the busy bits.

    Arrival and service times must be nonnegative (+inf allowed); a
    -inf `depart` marks an empty server.  The departure update is then
    the branchless max(depart, end * idle): a served arrival's end is at
    least its arrival time, which is at least depart, and a lost one
    gives 0.0, below its depart.  That is bit for bit the masked copy of
    `end` where idle, without the copy's mispredicted branch per trial.
    A +inf arrival is always idle, so 0 * inf never occurs.
    """
    idle = np.empty(times.shape, dtype=bool)
    served_end = np.empty(times.shape[1])
    for j in range(times.shape[0]):
        np.greater_equal(times[j], depart, out=idle[j])
        np.multiply(ends[j], idle[j], out=served_end)
        np.maximum(depart, served_end, out=depart)
    return idle


def _busy_bits_segmented(times: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Busy bits (uint8, 1 = busy) of one arrival stream, exactly.

    `times` and `ends` (arrival time plus service time) hold the stream
    cut into segments of `width` arrivals, time-major: column k of the
    (width, segments) arrays is segment k, and the tail is padded with
    +inf arrivals.  Every segment runs through _busy_bits_batch once,
    starting empty.  A walk over the segments in order then carries the
    true departure time, stepping from one arrival the true run serves to
    the next with a binary search over the busy span between them: once
    the true run serves an arrival the empty-start run serves too, the
    two agree, so the segment ends on the batch's departure time.  A
    segment where they never meet ends on the walk's.  The walk costs one
    step per arrival served before the runs meet, so heavy load, where a
    busy span covers many arrivals, stays cheap.  Times and services must
    be nonnegative, as _busy_bits_batch requires.  Returns the bits of
    all width * segments arrivals in stream order; a pad is never busy.
    """
    width, segments = times.shape
    depart = np.full(segments, -np.inf)
    idle = _busy_bits_batch(times, ends, depart)
    true_depart = -np.inf
    for k in range(segments):
        j = 0
        while True:
            # skip to the first arrival at or after the true departure time
            m = j
            if m < width and times.item(m, k) < true_depart:
                m += int(np.searchsorted(times[m:, k], true_depart))
                idle[j:m, k] = False
            if m == width:
                break
            if idle.item(m, k):
                true_depart = depart.item(k)
                break
            idle[m, k] = True
            true_depart = ends.item(m, k)
            j = m + 1
    return np.logical_not(idle.T.ravel()).view(np.uint8)


def _check_lengths(n: int, burn_in: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")


def simulate_sequence(
    params: ModelParams,
    hyp: Hypothesis,
    n: int,
    seed: RngSeed,
    burn_in: int = DEFAULT_BURN_IN,
) -> ObservationSequence:
    """Busy/idle record of n arrivals; deterministic given all arguments.

    The n + burn_in arrival times come first from the generator, then the
    service times.  Each is drawn into one flat buffer laid out as the
    segments of _busy_bits_segmented and copied from there once into its
    time-major array.  Each draw is -log(1 - U) times its mean, from one
    rng.random fill per array (see _exponential).
    """
    _check_lengths(n, burn_in)
    total = n + burn_in
    width = math.isqrt(total)
    segments = -(-total // width)
    rng = seed.generator()
    buf = np.empty(segments * width)
    buf[total:] = np.inf
    draws = buf[:total]
    # an overflow, or a 0 * inf draw, is reported as NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        _exponential(rng, draws, 1.0 / _arrival_rate(params, hyp))
        np.cumsum(draws, out=draws)
        last = draws[-1]
        # a copy: ascontiguousarray(.T) is a view of buf if width or segments is 1
        times = buf.reshape(segments, width).T.copy()
        _exponential(rng, draws, 1.0 / params.mu)
        if not math.isfinite(last + draws.max()):
            raise NonFiniteError(_OVERFLOW)
    ends = buf.reshape(segments, width).T.copy()
    ends += times
    return ObservationSequence(_busy_bits_segmented(times, ends)[burn_in:total])


# overflow raises NonFiniteError below; errstate is thread-local, so set it per call
@np.errstate(over="ignore", invalid="ignore")
def simulate_sequence_batch(
    params: ModelParams,
    hyp: Hypothesis,
    n: int,
    trials: int,
    seed: RngSeed,
    burn_in: int = DEFAULT_BURN_IN,
    windows: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Idle counts of `trials` independent n-arrival records, int64 (trials,).

    Draws run time-major: each MC_CHUNK arrivals take one (chunk, trials)
    block of inter-arrival gaps, then one of service times.  Each trial's
    clock, departure time and idle count carry over from chunk to chunk,
    so memory is O(trials) at any n.  Trial i does NOT reproduce
    simulate_sequence with any particular seed; the statistics are the
    same, which is what Monte Carlo needs.

    `windows`, strictly increasing and ending at n, asks for the running
    idle count of every trial after each window's first w observed
    arrivals instead: an int64 (len(windows), trials) array whose rows
    are nested prefixes of the same records.  The draws depend on n
    alone, so the last row equals the single-window call bit for bit.
    """
    _check_lengths(n, burn_in)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    marks = (n,) if windows is None else tuple(windows)
    if not marks or marks[0] < 1 or marks[-1] != n or any(
            b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"windows must increase strictly from >= 1 to n={n}, got {windows}")
    out = np.empty((len(marks), trials), dtype=np.int64)
    pending = 0  # index of the next window to record
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
        _exponential(rng, times, gap_scale)
        _exponential(rng, ends, service_scale)
        times[0] += clock
        # the sums of one cumsum over n, row by row: an axis-0 cumsum
        # walks each column at a stride of one row
        for j in range(1, size):
            np.add(times[j - 1], times[j], out=times[j])
        clock[:] = times[-1]
        ends += times
        idle = _busy_bits_batch(times, ends, depart)
        lo = max(burn_in - start, 0)
        # split the chunk's count at every window end inside it
        while pending < len(marks) and burn_in + marks[pending] <= start + size:
            hi = burn_in + marks[pending] - start
            counts += np.count_nonzero(idle[lo:hi], axis=0)
            out[pending] = counts
            lo, pending = hi, pending + 1
        if lo < size:
            counts += np.count_nonzero(idle[lo:], axis=0)
    if not np.isfinite(depart).all():  # a clock or service end overflowed
        raise NonFiniteError(_OVERFLOW)
    return out[0] if windows is None else out
