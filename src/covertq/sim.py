"""Event-driven simulation of the bufferless server.

Generates the busy/idle record seen by successive arrivals from
exponential inter-arrival and service samples.  The Bernoulli idle
probabilities of :mod:`covertq.model` are deliberately not used here, so
the simulator is an independent check on that reduction.

Both simulators run Lindley's recursion on residual work, in units of the
mean gap, through one row kernel, _chunk_rows, and neither forms a clock:
the Monte Carlo batch over its trials, and a single stream over lanes, runs
of consecutive arrivals that each start from an empty server and are then
joined at their seams (see _lane_busy_bits).

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

# Arrivals per single-stream lane at lambda_h / mu <= 1 (see simulate_sequence).
_LANE_ROWS = 100

# Rows of each block of _lane_busy_bits' seam rerun.
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


def _depart(residual: np.ndarray, service: np.ndarray, idle: np.ndarray,
            out: np.ndarray) -> None:
    """The branchless update residual = max(residual, service * idle).

    An idle arrival found no work left (residual <= 0), and its service is
    nonnegative (-0.0 included), so the max is that service; a lost one
    gives service * 0, a zero below its positive residual.  That is bit
    for bit the masked copy of `service` where idle, but for a zero's sign
    where an idle arrival's residual and service are both zero, which no
    later comparison with 0 sees; and it runs without the copy's
    mispredicted branch per trial.  Services must be finite, so 0 * inf
    never occurs.  `out` takes service * idle and may be `service` itself.
    """
    np.multiply(service, idle, out=out)
    np.maximum(residual, out, out=residual)


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


def _stream_walk(gaps: np.ndarray, services: np.ndarray, load: float,
                 idle: np.ndarray, tail: np.ndarray):
    """The walk of _lane_busy_bits over one stream's draws: (walk, served).

    `gaps` and `services` are the stream's (width, segments) logs, and
    `idle` and `tail` the empty-start run's flags, as _lane_busy_bits lays
    them out.  walk(p, work) carries the work that the arrival before
    stream position p left on through the stream, Lindley's recursion as
    _chunk_rows runs it, to the first arrival that both it and the
    empty-start run of that arrival's lane find idle, and returns that
    position, or width * segments at the stream's end.  It appends the
    arrivals it serves to `served`; the others it passes are lost.  It
    takes one step per arrival it serves, folding the busy stretch that
    follows (see settle).
    """
    width, segments = gaps.shape
    total = gaps.size
    rows, lanes = idle.shape[:2]
    main = rows * lanes
    served = []
    # negated gaps of columns cache_first // width.. in stream order, after one spare
    cache, cache_first = np.empty(1), 0

    def settle(p, work):
        """The first arrival from stream position p on that finds no work
        left, the arrival before p having left `work`: the sequential fold.

        np.add.accumulate folds the negated gaps, in stream order, onto
        -work, the fold of _chunk_rows negated, which is exact; it never
        decreases, so a binary search finds the first arrival it takes to 0
        or above.  A gap drains one mean gap on average, so a fold of some
        work + 4 sqrt(work) arrivals mostly reaches it in one call.  The
        gaps come from a transposed copy of 16 columns at a time; -work
        takes the place of the gap before p, which the walk, moving only
        forward, does not read again.
        """
        nonlocal cache, cache_first
        while p < total:
            if not 0 <= p - cache_first < cache.size - 1:
                k = p // width
                columns = min(16, segments - k)
                cache = np.empty(columns * width + 1)
                np.negative(gaps[:, k:k + columns].T, out=cache[1:].reshape(columns, width))
                cache_first = k * width
            at = p - cache_first
            drain = min(max(work, 0.0), total)
            size = min(cache.size - 1 - at, int(drain + 4.0 * math.sqrt(drain)) + 16)
            cache[at] = -work
            fold = np.add.accumulate(cache[at:at + size + 1])
            j = int(fold[1:].searchsorted(0.0))
            if j < size:
                return p + j
            p += size
            work = -fold.item(-1)
        return total

    def walk(p, work):
        while p < total:
            y = settle(p, work)
            if y == total:
                break
            k, row = divmod(y, width)
            if row >= main:
                both = tail.item(row - main, k)
            else:
                i, j = divmod(row, rows)
                both = idle.item(j, i, k)
            if both:  # the empty-start run finds it idle too
                return y
            served.append(y)
            # max(work left, service), as in _depart: its service, a zero's sign aside
            work = services.item(row, k) * load
            p = y + 1
        return total

    return walk, served


def _lane_busy_bits(gaps: np.ndarray, services: np.ndarray, load: float,
                    lanes: int) -> np.ndarray:
    """Busy bits (uint8, 1 = busy) of one arrival stream, exactly.

    `gaps` and `services` hold the stream's draws of log(1 - U) cut into
    segments of `width` arrivals, time-major: column k of the C-ordered
    (width, segments) arrays is segment k.  `load` is _load's
    -lambda_h / mu.  Each column is viewed as `lanes` lanes of
    width // lanes consecutive rows, the last lane taking any rows left
    over, and every lane runs through _chunk_rows at once, from an empty
    server.  Once a lane's true run and this empty-start run find the same
    arrival idle, both hold the same residual from there on (a zero's sign
    aside, see _depart), so the lane ends on the empty-start residual.

    The seam rerun runs each lane again from its predecessor's end
    residual, in _SETTLE_ROWS-row blocks on views over all lanes, for as
    long as each block settles some lane.  A lane is settled at the first
    arrival both runs find idle; before it the rerun's flags hold.  The
    walk (see _stream_walk) then carries the true residual in stream order
    through every lane the rerun left open, from the row where the rerun
    stopped, and on through every lane after one it does not settle, from
    that lane's first row, as their reruns started from a wrong residual.
    Rows past the stream's end (further draws, or padding) change no
    earlier bit.  Returns the bits of all width * segments arrivals in
    stream order.
    """
    width, segments = gaps.shape
    lanes = min(lanes, width)
    rows = width // lanes
    main = lanes * rows  # rows in whole lanes; the rest are the last lane's
    count = lanes * segments  # lane i of column k is lane i * segments + k
    total = width * segments
    loads = np.full((1, 1), load)

    def by_lane(a):  # (rows, lanes, segments): row j of every lane
        return a[:main].reshape(lanes, rows, segments).transpose(1, 0, 2)

    residual = np.full((lanes, segments), -np.inf)
    idle = _chunk_rows(by_lane(gaps), by_lane(services), loads, residual)
    tail = _chunk_rows(gaps[main:], services[main:], loads, residual[-1:])[:, 0]
    flat_idle = idle.reshape(rows, count)

    # the rerun, each lane from its predecessor's end residual
    left = np.empty_like(residual)
    left[1:] = residual[:-1]
    left[0, 1:] = residual[-1, :-1]
    left[0, 0] = -np.inf  # the stream's first lane starts empty
    del residual
    upto = np.zeros(count, dtype=np.intp)  # leading rows the rerun's flags hold
    kept = []  # (first row, rerun flags) of every block
    unmet = np.ones(count, dtype=bool)  # the open lanes
    start = 0
    while start < rows:
        stop = min(start + _SETTLE_ROWS, rows)
        flags = _chunk_rows(by_lane(gaps)[start:stop], by_lane(services)[start:stop],
                            loads, left).reshape(stop - start, count)
        met = flags & flat_idle[start:stop]
        met &= unmet
        hit = met.any(axis=0)
        np.copyto(upto, stop, where=unmet)
        np.copyto(upto, start + met.argmax(axis=0), where=hit)
        unmet &= ~hit
        kept.append((start, flags))
        start = stop
        if not (hit.any() and unmet.any()):
            break
    ids = np.flatnonzero(unmet)
    left = left.reshape(count)[ids]

    walk, served = _stream_walk(gaps, services, load, idle, tail)
    walked = []  # (first, end) stream positions of each walk
    reached = -1  # the last lane a walk entered, in stream order
    order = ids % segments * lanes + ids // segments  # in stream order
    by_stream = np.argsort(order)
    for lane, work in zip(order[by_stream].tolist(), left[by_stream].tolist()):
        if lane <= reached:
            continue
        k, i = divmod(lane, lanes)
        begin = k * width + i * rows + start
        end = walk(begin, work)
        walked.append((begin, end))
        k, row = divmod(end, width)
        reached = k * lanes + min(row // rows, lanes - 1) if end < total else count - 1
        entered = np.arange(lane + 1, reached + 1)
        upto[entered % lanes * segments + entered // lanes] = 0
    served = np.array(served, dtype=np.intp)

    for first, flags in kept:
        before = np.arange(first, first + flags.shape[0])[:, None]
        np.copyto(flat_idle[first:first + flags.shape[0]], flags, where=before < upto)
    # at the peak, the draws, the flags and the bits: nothing per lane, and
    # none of the walk's buffers
    del kept, flags, met, hit, upto, unmet, left, order, by_stream, walk
    busy = np.empty((segments, width), dtype=bool)
    np.logical_not(idle.transpose(2, 1, 0), out=busy[:, :main].reshape(segments, lanes, rows))
    np.logical_not(tail.T, out=busy[:, main:])
    bits = busy.reshape(total)
    for first, end in walked:
        bits[first:end] = True
    bits[served] = False
    return bits.view(np.uint8)


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
    the (width, segments) time-major arrays of _lane_busy_bits, width
    being isqrt(n + burn_in): first width * segments gap logs, row by row,
    then as many service logs, so draw j of segment k is that segment's
    arrival j (see _log_uniforms).  No clock is formed: the recursion runs
    on residual work, where a gap is minus its log and a service its log
    times _load, and its bits are those of _chunk_rows run over the whole
    stream in order.  The clock form this replaced compared absolute
    arrival and end times, which round otherwise: where an arrival falls
    within a few ulps of the clock (about 1e-10 at 1e6 arrivals) of a
    departure, the two can give different bits for the same seed, though
    none did on the seeds compared.  Each segment is viewed as
    max(1, width // (_LANE_ROWS * max(1, lambda_h / mu))) lanes: short
    lanes let many of them share each row of the recursion, and a lane of
    _LANE_ROWS mean service times outlasts most busy spans, so that most
    lanes meet their true run and settle in the seam rerun.  The
    width * segments - total rows past the end follow every real arrival,
    so they cannot change its bit, and the [burn_in:total] slice drops
    them.
    """
    _check_lengths(n, burn_in)
    total = n + burn_in
    width = math.isqrt(total)
    segments = -(-total // width)
    rng = seed.generator()
    gaps = np.empty((width, segments))
    services = np.empty((width, segments))
    _log_uniforms(rng, gaps)
    _log_uniforms(rng, services)
    load = _load(params, hyp)
    lanes = max(1, int(width / max(1.0, -load)) // _LANE_ROWS)
    return ObservationSequence(_lane_busy_bits(gaps, services, load, lanes)[burn_in:total])


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
