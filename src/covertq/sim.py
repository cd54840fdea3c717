"""Event-driven simulation of the bufferless server.

Generates the busy/idle record seen by successive arrivals from
exponential inter-arrival and service samples.  The Bernoulli idle
probabilities of :mod:`covertq.model` are deliberately not used here, so
the simulator is an independent check on that reduction.

A Monte Carlo chunk's row section is some 320 short ufunc calls, and it
runs one thread at a time, under a module lock.  Each short call
releases the GIL, so two Monte Carlo workers running it at once hand the
GIL back and forth at every call and finish later than one after the
other.  Under the lock, one worker runs its rows while the other runs its
few long draw calls.  The lock changes no arithmetic, so the counts stay
the same at any worker count.

A run is reproducible from its seed on the same numpy build and CPU:
numpy's SIMD log may differ by an ulp between instruction sets, but
never between worker counts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .model import Hypothesis, ModelParams

# Arrival 1 always finds an empty system when the simulation starts idle,
# while the analytic chain treats the first observation as stationary.
# Discarding one leading arrival removes the mismatch.
DEFAULT_BURN_IN = 1

# Arrivals per time-major draw in simulate_sequence_batch; under 256, as chunk sums are uint8.
MC_CHUNK = 64

# Rows of each segment _busy_bits_segmented's vectorized pass reads.
_SETTLE_ROWS = 8

# Held by simulate_sequence_batch around each chunk's row section (see
# the module docstring).
_ROW_LOCK = threading.Lock()


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
        return np.count_nonzero(self.bits) / self.n if self.n else 0.0

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


def _load(params: ModelParams, hyp: Hypothesis) -> float:
    """-lambda_h / mu, capped: turns a log(1 - U) draw into a service in hyp's mean gaps.

    The cap is the float maximum over log(2**-53), the least log
    _log_uniforms draws, so at the capped load the longest service is the
    float maximum.  That changes no busy bit: a nonzero service at the cap
    lasts at least 5.4e290 mean gaps, and a gap drains at most 53 ln 2 of
    them, so a served arrival keeps the server busy to the end of any run,
    as at every higher load.  No time overflows.
    """
    rate = params.lambda_w if hyp is Hypothesis.H0 else params.total_rate_h1
    return max(-rate / params.mu, np.finfo(float).max / np.log(2.0**-53))


def _log_uniforms(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill `out` with log(1 - U): minus a unit-mean exponential, by inversion.

    rng.random gives U = k * 2**-53 in [0, 1), so 1 - U is exact and lies
    in (0, 1]: the log never sees 0, and every value lies in [-53 * ln 2,
    0], which truncates the exponential's tail at mass 2**-53.  Both
    simulators count time in mean gaps, where a gap is minus a log and a
    service a log times _load.  U = 0 gives 0.0, and either then gives
    -0.0, which still meets _depart's nonnegative precondition, since
    -0.0 >= 0.
    """
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)


def _depart(depart: np.ndarray, ends: np.ndarray, idle: np.ndarray,
            out: np.ndarray) -> None:
    """The branchless departure update depart = max(depart, ends * idle).

    Arrival and service times must be nonnegative (+inf allowed), and a
    -inf `depart` marks an empty server.  A served arrival's end is then
    at least its arrival time, which is at least depart, and a lost one
    gives 0.0, below its depart.  That is bit for bit the masked copy of
    `ends` where idle, without the copy's mispredicted branch per trial.
    A +inf arrival is always idle, so 0 * inf never occurs.  `out` takes
    ends * idle and may be `ends` itself.  _chunk_rows runs it on residual
    work, where every arrival is at time 0.
    """
    np.multiply(ends, idle, out=out)
    np.maximum(depart, out, out=depart)


def _busy_bits_batch(times: np.ndarray, ends: np.ndarray,
                     depart: np.ndarray) -> np.ndarray:
    """The recursion over _busy_bits_segmented's segments, vectorized across them.

    `times` and `ends` (arrival time plus service time) are (arrivals,
    segments), time-major; `depart` carries each segment's departure
    time in and out.  Returns the (arrivals, segments) flags that are
    True where the arrival found the server idle, i.e. the complement of
    the busy bits.  Times must meet _depart's precondition.
    """
    idle = np.empty(times.shape, dtype=bool)
    served_end = np.empty(times.shape[1])
    for j in range(times.shape[0]):
        np.greater_equal(times[j], depart, out=idle[j])
        _depart(depart, ends[j], idle[j], served_end)
    return idle


def _chunk_rows(gaps: np.ndarray, services: np.ndarray, loads: np.ndarray,
                residual: np.ndarray) -> np.ndarray:
    """The row section of one simulate_sequence_batch chunk; its idle flags.

    `gaps` and `services` are the chunk's (arrivals, trials) draws of
    log(1 - U), and `loads` is the (2, 1) array -lambda_h / mu.  Lindley's
    recursion: `residual` carries the work each (hypothesis, trial)'s
    server has left, in units of that hypothesis's mean gap 1/lambda_h, in
    and out; -inf marks an empty server.  In those units both hypotheses
    take the same gap, -gaps[j], and hypothesis h the service
    services[j] * loads[h].  Row by row, five ufunc calls over (2, trials)
    vectors, which stay in cache: the gap drains the residual, an arrival
    that finds none left (<= 0, so one on the departure is served) is
    idle, and an idle arrival's service becomes the residual (see
    _depart).  The caller keeps every service finite, so service * idle
    never meets 0 * inf.  Returns the (arrivals, 2, trials) flags.
    """
    idle = np.empty((gaps.shape[0], *residual.shape), dtype=bool)
    step = np.empty(residual.shape)
    for j in range(gaps.shape[0]):
        residual += gaps[j]
        np.less_equal(residual, 0.0, out=idle[j])
        np.multiply(services[j], loads, out=step)
        _depart(residual, step, idle[j], step)
    return idle


def _busy_bits_segmented(times: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Busy bits (uint8, 1 = busy) of one arrival stream, exactly.

    `times` and `ends` (arrival time plus service time) hold the stream
    cut into segments of `width` arrivals, time-major: column k of the
    (width, segments) arrays is segment k; rows past the stream's end
    (further arrivals, or +inf) change no earlier bit.  Every segment runs
    through _busy_bits_batch once, starting empty.  Once a segment's true
    run serves an arrival its empty-start run serves too, the two agree,
    so the segment ends on the batch's departure time depart[k].

    One vectorized pass then assumes each segment k >= 1 starts on
    depart[k-1] and reads its first _SETTLE_ROWS rows: where the first
    arrival at or after that time is one the empty-start run serves, the
    arrivals before it are lost and the segment is settled.  At light and
    moderate load that is nearly every segment.  A walk over the segments
    in order then carries the true departure time through the rest,
    stepping from one arrival the true run serves to the next with a
    binary search over the busy span between them until the runs meet.  A
    segment where they never meet ends on the walk's time, so the walk
    goes on into the next segment, settled or not, as its assumed start is
    wrong.  The walk costs one step per arrival served before the runs
    meet, so heavy load, where a busy span covers many arrivals, stays
    cheap.  The lost arrivals of the segments it skipped are marked after
    it, as it reads the empty-start flags.  Times and services must be
    nonnegative, as _busy_bits_batch requires, and each segment's times
    nondecreasing.  Returns the bits of all width * segments arrivals in
    stream order.
    """
    width, segments = times.shape
    depart = np.full(segments, -np.inf)
    idle = _busy_bits_batch(times, ends, depart)
    head = min(width, _SETTLE_ROWS)
    start = np.empty(segments)
    start[0] = -np.inf  # segment 0 starts empty, as the batch ran it
    start[1:] = depart[:-1]
    lost = times[:head] < start  # before the first arrival at or after the start
    first = np.count_nonzero(lost, axis=0)
    settled = first < head
    settled &= idle[np.minimum(first, head - 1), np.arange(segments)]
    walk = (~settled).tolist()
    true_depart = None  # None while each segment so far ended on its depart[k]
    for k in range(segments):
        if true_depart is None:
            if not walk[k]:
                continue
            true_depart = start.item(k)
        settled[k] = False
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
                true_depart = None  # segment k + 1 starts on depart[k]
                break
            idle[m, k] = True
            true_depart = ends.item(m, k)
            j = m + 1
    lost &= settled
    idle[:head][lost] = False
    np.logical_not(idle, out=idle)
    return idle.T.ravel().view(np.uint8)


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

    Time runs in units of the mean gap 1/lambda_h, as in the batch, so
    only the rate ratio lambda_h / mu enters.  The draws go straight into
    the (width, segments) time-major arrays of _busy_bits_segmented:
    first width * segments gap logs into the arrival times, row by row,
    then as many service logs into the end times, so draw j of segment k
    goes to that segment's arrival j (see _log_uniforms).  A gap is minus
    its log and a service its log times _load.  Segment k's clock is its
    own running sum plus the sum of segments 0..k-1, which is exactly its
    predecessor's last arrival time, so arrival times never decrease
    along the stream.  One contiguous add puts the bases on every row;
    segment 0's is -0.0, which leaves each of its times bit for bit as it
    is.  The width * segments - total rows past the end follow every real
    arrival, so they cannot change its bit, and the [burn_in:total] slice
    drops them.  Nothing overflows: an arrival time is at most 53 ln 2 *
    (width * segments), a service at most the float maximum, and their
    sum rounds to at most the float maximum.
    """
    _check_lengths(n, burn_in)
    total = n + burn_in
    width = math.isqrt(total)
    segments = -(-total // width)
    rng = seed.generator()
    times = np.empty((width, segments))
    ends = np.empty((width, segments))
    _log_uniforms(rng, times)
    _log_uniforms(rng, ends)
    ends *= _load(params, hyp)
    np.negative(times[0], out=times[0])
    for j in range(1, width):
        np.subtract(times[j - 1], times[j], out=times[j])
    base = np.empty(segments)
    base[0] = -0.0  # x + -0.0 is x bit for bit, -0.0 included
    np.cumsum(times[-1, :-1], out=base[1:])
    times += base
    ends += times
    return ObservationSequence(_busy_bits_segmented(times, ends)[burn_in:total])


def simulate_sequence_batch(
    params: ModelParams,
    n: int,
    trials: int,
    seed: RngSeed,
    burn_in: int = DEFAULT_BURN_IN,
    windows: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Idle counts of `trials` n-arrival records per hypothesis, int64 (2, trials).

    Row h holds the counts under Hypothesis(h).  Draws run time-major:
    each MC_CHUNK arrivals take one (chunk, trials) block of gap logs
    log(1 - U), then one of service logs (see _log_uniforms).  Both
    hypotheses run on those draws, each in units of its own mean gap
    1/lambda_h, where only the rate ratios lambda_h / mu enter: H1's
    arrivals are H0's compressed in time, with the same services, scaled
    by _load.  _chunk_rows runs the chunk row by row on each trial's
    residual work, so a chunk holds only its draws and idle flags, and
    memory is O(trials) at any n.  The trials are independent within a
    row of the result, and row h is bit for bit what the draws of one
    hypothesis alone would give: only the two rows of one trial are
    dependent.  Trial i does NOT reproduce simulate_sequence with any
    particular seed; the statistics are the same, which is what Monte
    Carlo needs.

    `windows`, strictly increasing and ending at n, asks for the running
    idle count of every trial after each window's first w observed
    arrivals instead: an int64 (2, len(windows), trials) array whose
    windows are nested prefixes of the same records.  The draws depend on
    n alone, so the last window equals the single-window call bit for bit.
    """
    _check_lengths(n, burn_in)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    marks = (n,) if windows is None else tuple(windows)
    if not marks or marks[0] < 1 or marks[-1] != n or any(
            b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"windows must increase strictly from >= 1 to n={n}, got {windows}")
    out = np.empty((2, len(marks), trials), dtype=np.int64)
    pending = 0  # index of the next window to record
    total = n + burn_in
    loads = np.array([[_load(params, hyp)] for hyp in Hypothesis])
    rng = seed.generator()
    gap_buf = np.empty((MC_CHUNK, trials))
    service_buf = np.empty((MC_CHUNK, trials))
    residual = np.full((2, trials), -np.inf)
    counts = np.zeros((2, trials), dtype=np.int64)
    for start in range(0, total, MC_CHUNK):
        size = min(MC_CHUNK, total - start)
        gaps, services = gap_buf[:size], service_buf[:size]
        _log_uniforms(rng, gaps)
        _log_uniforms(rng, services)
        with _ROW_LOCK:
            idle = _chunk_rows(gaps, services, loads, residual)
        # split the chunk's rows at every window end inside it
        lo = max(burn_in - start, 0)
        while lo < size:
            mark = burn_in + marks[pending] - start
            hi = min(mark, size)
            # summed as uint8, exact since a chunk has at most MC_CHUNK < 256 rows
            counts += np.add.reduce(idle[lo:hi].view(np.uint8), axis=0, dtype=np.uint8)
            if hi == mark:
                out[:, pending] = counts
                pending += 1
            lo = hi
        del idle  # before the next chunk's flags are allocated
    return out[:, 0] if windows is None else out
