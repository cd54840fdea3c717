"""Log-likelihood-ratio detection and exact error-probability oracles.

The busy/idle record is i.i.d. Bernoulli, so the LLR is an affine function
of the idle count and every test here decides through `_llr`.  Ties at the
threshold decide H0 (the ">= gamma implies H0" orientation), which makes
every error probability bit-exactly reproducible.  Monte Carlo blocks
decide from the simulator's per-trial idle counts alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, isfinite, log, sqrt

import numpy as np

from .model import DegenerateModelError, Hypothesis, ModelParams
from .sim import ObservationSequence, RngSeed, simulate_sequence_batch

MC_BLOCK_SIZE = 20_000


@dataclass(frozen=True)
class LlrResult:
    llr: float
    decision: Hypothesis
    threshold: float


@dataclass(frozen=True)
class ErrorProbabilities:
    p_f: float
    p_m: float
    p_e: float
    se_f: float | None = None
    se_m: float | None = None
    trials: int | None = None

    def __post_init__(self):
        for name, v in (("p_f", self.p_f), ("p_m", self.p_m), ("p_e", self.p_e)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0,1]")
        if abs(self.p_e - (self.p_f + self.p_m) / 2.0) > 1e-12:
            raise ValueError("p_e must equal (p_f + p_m)/2")


def _llr(k, n: int, p: float, q: float):
    """LLR of H0 over H1 for k idle symbols among n (p, q: idle probabilities).

    Single sequences, exact tails and Monte Carlo blocks all decide with this
    one expression, so ties at the threshold resolve identically everywhere.
    """
    return k * log(p / q) + (n - k) * log((1.0 - p) / (1.0 - q))


def log_likelihood_ratio(obs: ObservationSequence, params: ModelParams) -> float:
    """Natural-log likelihood ratio of H0 over H1 for the busy/idle record."""
    if obs.n < 1:
        raise ValueError("observation sequence is empty")
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    return _llr(obs.n - int(np.count_nonzero(obs.bits)), obs.n, p, q)


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


def _cut(n: int, p: float, q: float, threshold: float) -> int:
    """Smallest k in [0, n+1] with _llr(k, n, p, q) >= threshold.

    p > q makes the LLR increasing in k.  The closed form only starts the
    search: the steps test the float predicate of `decide`, so ties match it.
    """
    c_idle, c_busy = log(p / q), log((1.0 - p) / (1.0 - q))
    if c_idle == c_busy:  # q rounds to p: the LLR is 0 for every k
        return 0 if _llr(0, n, p, q) >= threshold else n + 1
    x = (threshold - n * c_busy) / (c_idle - c_busy)
    k = 0 if x <= 0 else n + 1 if x > n + 1 else ceil(x)
    while k > 0 and _llr(k - 1, n, p, q) >= threshold:
        k -= 1
    while k <= n and not _llr(k, n, p, q) >= threshold:
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
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    k = _cut(n, p, q, threshold)
    if 0 < k <= n:
        # imported here: scipy is most of a cold start, and only exact tails need it
        from scipy.special import bdtr, bdtrc
        p_f, p_m = float(bdtr(k - 1, n, p)), float(bdtrc(k - 1, n, q))
    else:  # one tail is empty and the other full; bdtr(-1, ...) is NaN
        p_f, p_m = (0.0, 1.0) if k == 0 else (1.0, 0.0)
    return ErrorProbabilities(p_f=p_f, p_m=p_m, p_e=(p_f + p_m) / 2.0)


def _mc_block(
    params: ModelParams,
    hyp: Hypothesis,
    n: int,
    threshold: float,
    block_trials: int,
    seed: RngSeed,
) -> int:
    """Number of erroneous decisions in one simulation block.

    The simulator streams each trial and returns only its idle count k,
    which is all the LLR needs, so a block holds O(block_trials) memory.
    """
    k = simulate_sequence_batch(params, hyp, n, block_trials, seed)
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    decide_h0 = _llr(k, n, p, q) >= threshold
    if hyp is Hypothesis.H0:
        return int(np.count_nonzero(~decide_h0))
    return int(np.count_nonzero(decide_h0))


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
        hyp, bt, s = job
        return hyp, _mc_block(params, hyp, n, threshold, bt, s)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    errors = {Hypothesis.H0: 0, Hypothesis.H1: 0}
    for hyp, count in results:
        errors[hyp] += count
    p_f = errors[Hypothesis.H0] / trials
    p_m = errors[Hypothesis.H1] / trials
    return ErrorProbabilities(
        p_f=p_f,
        p_m=p_m,
        p_e=(p_f + p_m) / 2.0,
        se_f=sqrt(p_f * (1.0 - p_f) / trials),
        se_m=sqrt(p_m * (1.0 - p_m) / trials),
        trials=trials,
    )

