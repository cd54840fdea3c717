"""Log-likelihood-ratio detection and exact error-probability oracles.

The busy/idle record is i.i.d. Bernoulli, so the LLR is the affine function
`_llr` of the idle count k.  Its coefficients log(p/q) >= 0 >= log((1-p)/(1-q))
are the fields `a` and `b` of the rate-ratio core the error exponent reads
(`ModelParams._ratios`).  IEEE rounding is monotone, so the float LLR never
decreases in k, and every test is one integer cut k* (`_cut`): H0 exactly when
k >= k*.  Ties at the threshold decide H0 (the ">= gamma implies H0"
orientation), which makes every error probability bit-exactly reproducible.
Monte Carlo blocks compare the simulator's per-trial idle counts with the same
cut, every window of a request on one simulation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import ceil, isfinite, isnan, sqrt

import numpy as np

from .model import DegenerateModelError, Hypothesis, ModelParams, NonFiniteError
from .sim import ObservationSequence, RngSeed, simulate_sequence_batch

MC_BLOCK_SIZE = 20_000


def _rates(p_f: float, p_m: float, se_f: float = 0.0, se_m: float = 0.0) -> dict:
    """Error rates of one test as campaign rows key them; p_e = (p_f + p_m)/2."""
    return {"p_f": p_f, "p_m": p_m, "p_e": (p_f + p_m) / 2.0, "se_f": se_f, "se_m": se_m}


def _llr(k, n: int, c_idle: float, c_busy: float):
    """LLR of H0 over H1 for k idle symbols among n (coefficients: the core's a and b)."""
    return k * c_idle + (n - k) * c_busy


def log_likelihood_ratio(obs: ObservationSequence, params: ModelParams) -> float:
    """Natural-log likelihood ratio of H0 over H1 for the busy/idle record."""
    if obs.n < 1:
        raise ValueError("observation sequence is empty")
    c = params._ratios
    return _llr(obs.n - int(np.count_nonzero(obs.bits)), obs.n, c.a, c.b)


def decide(
    obs: ObservationSequence,
    params: ModelParams,
    threshold: float = 0.0,
) -> dict:
    """Threshold rule: H0 when llr >= threshold, H1 otherwise.

    Returns the `llr_result` document the detect command prints.
    """
    if not isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    llr = log_likelihood_ratio(obs, params)
    return {"llr": llr, "decision": "H0" if llr >= threshold else "H1",
            "threshold": threshold, "n": obs.n}


def _cut(n: int, params: ModelParams, threshold: float) -> int:
    """Smallest k in [0, n+1] whose LLR is >= threshold.

    The closed form only starts the search: the steps test the float
    predicate of `decide`, so ties match it.
    """
    c_idle, c_busy = params._ratios.a, params._ratios.b
    if c_idle == c_busy:  # both underflow to 0 (lambda_b = 5e-324, lambda_w = mu = 1)
        return 0 if threshold <= 0.0 else n + 1
    x = (threshold - n * c_busy) / (c_idle - c_busy)
    k = 0 if x <= 0 else n + 1 if x > n + 1 else ceil(x)
    while k > 0 and _llr(k - 1, n, c_idle, c_busy) >= threshold:
        k -= 1
    while k <= n and not _llr(k, n, c_idle, c_busy) >= threshold:
        k += 1
    return k


def exact_error_probabilities(
    params: ModelParams,
    n: int,
    threshold: float = 0.0,
) -> dict:
    """Closed-form error rates {"p_f", "p_m", "p_e", "se_f", "se_m"} of the threshold test.

    The idle count K over the n symbols is Bin(n, p) under H0 and Bin(n, q)
    under H1, and the test is one cut k* on it, so p_f = P_p(K < k*) and
    p_m = P_q(K >= k*) are two incomplete-beta values: O(1) in n.  Exact
    rates have se 0.
    """
    if params.lambda_b <= 0:
        raise DegenerateModelError("lambda_b must be positive for a nondegenerate test")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    k = _cut(n, params, threshold)
    if 0 < k <= n:
        # imported here: scipy is most of a cold start, and only exact tails need it
        from scipy.special import bdtr, bdtrc
        c = params._ratios
        p_f, p_m = float(bdtr(k - 1, n, c.p)), float(bdtrc(k - 1, n, c.q))
        if isnan(p_f) or isnan(p_m):  # Cephes gives NaN from n = 2**31 on
            raise NonFiniteError(f"binomial tail is NaN at n={n}")
    else:  # one tail is empty and the other full; bdtr(-1, ...) is NaN
        p_f, p_m = (0.0, 1.0) if k == 0 else (1.0, 0.0)
    return _rates(p_f, p_m)


def _check_trials(trials: int) -> None:
    """Refuse more than 2**19 Monte Carlo blocks, past which monte_carlo_error's
    stream offsets would leave [1, 2**20]."""
    if trials > 2**19 * MC_BLOCK_SIZE:
        raise ValueError(f"trials must be <= {2**19 * MC_BLOCK_SIZE} "
                         f"(2**19 blocks of {MC_BLOCK_SIZE}), got {trials}")


def monte_carlo_error(
    params: ModelParams,
    n: int | tuple[int, ...],
    threshold: float | tuple[float, ...],
    trials: int,
    seed: RngSeed,
    workers: int = 1,
) -> dict | list[dict] | list[list[dict]]:
    """Empirical error rates over `trials` simulated sequences per hypothesis.

    Keyed as `exact_error_probabilities` keys them; se_* are binomial standard errors.

    Trials are split into fixed blocks of MC_BLOCK_SIZE, and each block
    into two halves of ceil and floor half its trials; half h of block b
    draws stream offset 1 + 2b + h from `seed.stream_id`, and an empty
    half makes no job.  Each half simulates both hypotheses on one set of
    draws (see simulate_sequence_batch), so its H0 and H1 records of a
    trial are dependent and the rest independent.  Integer error counts
    are summed in job order, so the result is bit-identical at any worker
    count.  `trials` above 2**19 * MC_BLOCK_SIZE raises ValueError; below
    it every offset is at most 2**20.

    The false-alarm and miss estimates of one call are thus coupled: at P
    = (0.3, 0.2, 1) and threshold 0, with 2e5 trials, a trial's H0 and H1
    idle counts correlated at 0.80, but its false-alarm and miss
    indicators at only -0.036 (N = 250) and -0.005 (N = 500).  So p_e is
    estimated no worse than from independent streams, and se_f and se_m
    are each the marginal binomial standard error.

    `n` may be a strictly increasing tuple of windows.  Each half-block is
    then simulated once, up to the longest window, and each window's cut is
    applied to its idle counts at that window's end; the result is a list
    with one dict per window.  The draws depend on the seed
    and the longest window alone, so the last entry equals the scalar call
    there, and a shorter window reads a prefix of the same records:
    entries are positively correlated, and each se is its own marginal
    standard error.

    `threshold` may be a tuple too.  Every threshold's cut is then applied
    to the same idle counts, and each window's entry becomes a list with
    one dict per threshold, each equal to the call with that threshold
    alone.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_trials(trials)
    windows = n if isinstance(n, tuple) else (n,)
    gammas = threshold if isinstance(threshold, tuple) else (threshold,)
    if not windows:
        raise ValueError("n must not be an empty tuple")
    if not gammas:
        raise ValueError("threshold must not be an empty tuple")
    for gamma in gammas:
        if not isfinite(gamma):
            raise ValueError(f"threshold must be finite, got {gamma}")
    # (windows, thresholds, 1): broadcast against each job's (2, windows, 1, trials) counts
    cuts = np.array([[_cut(w, params, gamma) for gamma in gammas] for w in windows])[..., None]
    jobs = []
    for block, done in enumerate(range(0, trials, MC_BLOCK_SIZE)):
        bt = min(MC_BLOCK_SIZE, trials - done)
        for half, ht in enumerate((bt - bt // 2, bt // 2)):
            if ht:
                jobs.append((ht, seed.with_stream(seed.stream_id + 1 + 2 * block + half)))

    def run(job):
        # the simulator streams each trial and returns only its idle counts
        # at the window ends; H0 errs below the cut, H1 at or above it
        ht, s = job
        counts = simulate_sequence_batch(params, windows[-1], ht, s, windows=windows)
        below = np.count_nonzero(counts[:, :, None] < cuts, axis=3)
        return below[Hypothesis.H0.value], ht - below[Hypothesis.H1.value]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    false_alarms = sum(f for f, _ in results)
    misses = sum(m for _, m in results)

    def rates(f, m):
        p_f, p_m = f / trials, m / trials
        return _rates(p_f, p_m, sqrt(p_f * (1.0 - p_f) / trials),
                      sqrt(p_m * (1.0 - p_m) / trials))

    out = [[rates(f, m) for f, m in zip(fs, ms)]
           for fs, ms in zip(false_alarms.tolist(), misses.tolist())]
    if not isinstance(threshold, tuple):
        out = [row[0] for row in out]
    return out if isinstance(n, tuple) else out[0]
