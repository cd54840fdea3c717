"""Log-likelihood-ratio detection and exact error-probability oracles.

The busy/idle record is i.i.d. Bernoulli, so the LLR is the affine function
`_llr` of the idle count k.  Its coefficients log(p/q) >= 0 >= log((1-p)/(1-q))
come from the log1p tilt the error exponent uses (`model._tilt`).  IEEE
rounding is monotone, so the float LLR never decreases in k, and every test
is one integer cut k* (`_cut`): H0 exactly when k >= k*.  Ties at the
threshold decide H0 (the ">= gamma implies H0" orientation), which makes
every error probability bit-exactly reproducible.  Monte Carlo blocks
compare the simulator's per-trial idle counts with the same cut.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import ceil, isfinite, isnan, sqrt

import numpy as np

from .model import DegenerateModelError, Hypothesis, ModelParams, NonFiniteError, _tilt
from .sim import ObservationSequence, RngSeed, simulate_sequence_batch

MC_BLOCK_SIZE = 20_000


@dataclass(frozen=True)
class LlrResult:
    llr: float
    decision: Hypothesis
    threshold: float


@dataclass(frozen=True, kw_only=True)
class ErrorProbabilities:
    """Error rates of one test; p_e = (p_f + p_m)/2, and exact rates have se 0."""

    p_f: float
    p_m: float
    p_e: float = field(init=False)
    se_f: float = 0.0
    se_m: float = 0.0
    trials: int | None = None

    def __post_init__(self):
        for name, v in (("p_f", self.p_f), ("p_m", self.p_m)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0,1]")
        object.__setattr__(self, "p_e", (self.p_f + self.p_m) / 2.0)


def _llr(k, n: int, c_idle: float, c_busy: float):
    """LLR of H0 over H1 for k idle symbols among n (coefficients from `_tilt`)."""
    return k * c_idle + (n - k) * c_busy


def log_likelihood_ratio(obs: ObservationSequence, params: ModelParams) -> float:
    """Natural-log likelihood ratio of H0 over H1 for the busy/idle record."""
    if obs.n < 1:
        raise ValueError("observation sequence is empty")
    _, c_idle, c_busy = _tilt(params.lambda_w, params.lambda_b, params.mu)
    return _llr(obs.n - int(np.count_nonzero(obs.bits)), obs.n, c_idle, c_busy)


def decide(
    obs: ObservationSequence,
    params: ModelParams,
    threshold: float = 0.0,
) -> LlrResult:
    """Threshold rule: H0 when llr >= threshold, H1 otherwise."""
    if not isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    llr = log_likelihood_ratio(obs, params)
    decision = Hypothesis.H0 if llr >= threshold else Hypothesis.H1
    return LlrResult(llr=llr, decision=decision, threshold=threshold)


def _cut(n: int, params: ModelParams, threshold: float) -> int:
    """Smallest k in [0, n+1] whose LLR is >= threshold.

    The closed form only starts the search: the steps test the float
    predicate of `decide`, so ties match it.
    """
    _, c_idle, c_busy = _tilt(params.lambda_w, params.lambda_b, params.mu)
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
) -> ErrorProbabilities:
    """Closed-form error probabilities of the threshold test.

    The idle count K over the n symbols is Bin(n, p) under H0 and Bin(n, q)
    under H1, and the test is one cut k* on it, so p_f = P_p(K < k*) and
    p_m = P_q(K >= k*) are two incomplete-beta values: O(1) in n.
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
        p, q = params.idle_probability(Hypothesis.H0), params.idle_probability(Hypothesis.H1)
        p_f, p_m = float(bdtr(k - 1, n, p)), float(bdtrc(k - 1, n, q))
        if isnan(p_f) or isnan(p_m):  # Cephes gives NaN from n = 2**31 on
            raise NonFiniteError(f"binomial tail is NaN at n={n}")
    else:  # one tail is empty and the other full; bdtr(-1, ...) is NaN
        p_f, p_m = (0.0, 1.0) if k == 0 else (1.0, 0.0)
    return ErrorProbabilities(p_f=p_f, p_m=p_m)


def monte_carlo_error(
    params: ModelParams,
    n: int,
    threshold: float,
    trials: int,
    seed: RngSeed,
    workers: int = 1,
) -> ErrorProbabilities:
    """Empirical error rates over `trials` simulated sequences per hypothesis.

    Trials are split into fixed blocks with independent (seed, stream_id)
    streams; integer error counts are summed in block order, so the result
    is bit-identical at any worker count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    cut = _cut(n, params, threshold)
    jobs = []
    for hyp in (Hypothesis.H0, Hypothesis.H1):
        done = 0
        block_index = 0
        while done < trials:
            bt = min(MC_BLOCK_SIZE, trials - done)
            # hypothesis and block packed into disjoint offset ranges so
            # streams never collide across rows of a campaign grid
            stream = seed.stream_id + 1 + hyp.value * 2**20 + 2 * block_index
            jobs.append((hyp, bt, seed.with_stream(stream)))
            done += bt
            block_index += 1

    def run(job):
        # the simulator streams each trial and returns only its idle count;
        # H0 errs below the cut, H1 at or above it
        hyp, bt, s = job
        below = int(np.count_nonzero(simulate_sequence_batch(params, hyp, n, bt, s) < cut))
        return hyp, below if hyp is Hypothesis.H0 else bt - below

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    p_f = sum(count for hyp, count in results if hyp is Hypothesis.H0) / trials
    p_m = sum(count for hyp, count in results if hyp is Hypothesis.H1) / trials
    return ErrorProbabilities(
        p_f=p_f,
        p_m=p_m,
        se_f=sqrt(p_f * (1.0 - p_f) / trials),
        se_m=sqrt(p_m * (1.0 - p_m) / trials),
        trials=trials,
    )
