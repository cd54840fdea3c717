"""Log-likelihood-ratio detection and exact error-probability oracles.

The busy/idle record is i.i.d. Bernoulli, so the LLR is an affine function
of the idle count and every test here decides through `_llr`.  Ties at the
threshold decide H0 (the ">= gamma implies H0" orientation), which makes
every error probability bit-exactly reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from math import ceil, isfinite, log, sqrt

import numpy as np
from scipy.special import bdtr, bdtrc

from .model import Hypothesis, ModelParams, json_text, transition_matrix
from .sim import ObservationSequence, RngSeed, simulate_sequence_batch

INITIAL_MODES = ("stationary", "conditioned")

MC_BLOCK_SIZE = 20_000


class DegenerateModelError(ValueError):
    """lambda_b = 0: both hypotheses coincide and errors are degenerate."""


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

    def to_json_record(self, params: ModelParams, n: int, threshold: float) -> str:
        rec = {"n": n, "lambda_w": params.lambda_w, "lambda_b": params.lambda_b,
               "mu": params.mu, "threshold": threshold, **asdict(self)}
        return json_text(rec)


def _llr(k, m: int, p: float, q: float):
    """LLR of H0 over H1 for k idle symbols among m (p, q: idle probabilities).

    Single sequences, exact tails and Monte Carlo blocks all decide with this
    one expression, so ties at the threshold resolve identically everywhere.
    """
    return k * log(p / q) + (m - k) * log((1.0 - p) / (1.0 - q))


def _idle_probability(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.array_equal(m[0], m[1]) or not 0.0 < m[0, 0] < 1.0:
        raise ValueError(f"expected equal 2x2 rows with 0 < idle < 1, got {m.tolist()}")
    return float(m[0, 0])


def log_likelihood_ratio(
    obs: ObservationSequence,
    p_mat: np.ndarray,
    q_mat: np.ndarray,
    initial: str = "stationary",
) -> float:
    """Natural-log likelihood ratio of H0 over H1 for the busy/idle record.

    p_mat and q_mat are the equal-row transition matrices of `matrices`;
    only their common row enters.  With initial='stationary' every symbol
    counts; with 'conditioned' the first symbol contributes nothing.
    """
    if initial not in INITIAL_MODES:
        raise ValueError(f"initial must be one of {INITIAL_MODES}")
    if obs.n < 1:
        raise ValueError("observation sequence is empty")
    p, q = _idle_probability(p_mat), _idle_probability(q_mat)
    counted = obs.bits if initial == "stationary" else obs.bits[1:]
    m = counted.size
    return _llr(m - int(np.count_nonzero(counted)), m, p, q)


def decide(
    obs: ObservationSequence,
    p_mat: np.ndarray,
    q_mat: np.ndarray,
    threshold: float = 0.0,
    initial: str = "stationary",
) -> LlrResult:
    """Threshold rule: H0 when llr >= threshold, H1 otherwise."""
    if not isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    llr = log_likelihood_ratio(obs, p_mat, q_mat, initial)
    decision = Hypothesis.H0 if llr >= threshold else Hypothesis.H1
    return LlrResult(llr=llr, decision=decision, threshold=threshold)


def _cut(m: int, p: float, q: float, threshold: float) -> int:
    """Smallest k in [0, m+1] with _llr(k, m, p, q) >= threshold.

    p > q makes the LLR increasing in k.  The closed form only starts the
    search: the steps test the float predicate of `decide`, so ties match it.
    """
    c_idle, c_busy = log(p / q), log((1.0 - p) / (1.0 - q))
    if c_idle == c_busy:  # q rounds to p: the LLR is 0 for every k
        return 0 if _llr(0, m, p, q) >= threshold else m + 1
    x = (threshold - m * c_busy) / (c_idle - c_busy)
    k = 0 if x <= 0 else m + 1 if x > m + 1 else ceil(x)
    while k > 0 and _llr(k - 1, m, p, q) >= threshold:
        k -= 1
    while k <= m and not _llr(k, m, p, q) >= threshold:
        k += 1
    return k


def exact_error_probabilities(
    params: ModelParams,
    n: int,
    threshold: float = 0.0,
    initial: str = "stationary",
) -> ErrorProbabilities:
    """Closed-form error probabilities of the threshold test.

    The idle count K over the m counted symbols is Bin(m, p) under H0 and
    Bin(m, q) under H1, and the test is one cut k* on it, so p_f = P_p(K < k*)
    and p_m = P_q(K >= k*) are two incomplete-beta values: O(1) in n.
    """
    if initial not in INITIAL_MODES:
        raise ValueError(f"initial must be one of {INITIAL_MODES}")
    if params.lambda_b <= 0:
        raise DegenerateModelError("lambda_b must be positive for a nondegenerate test")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    m = n if initial == "stationary" else n - 1
    k = _cut(m, p, q, threshold)
    if 0 < k <= m:
        p_f, p_m = float(bdtr(k - 1, m, p)), float(bdtrc(k - 1, m, q))
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
    initial: str,
) -> int:
    """Number of erroneous decisions in one simulation block."""
    bits = simulate_sequence_batch(params, hyp, n, block_trials, seed)
    counted = bits if initial == "stationary" else bits[:, 1:]
    m = counted.shape[1]
    k = m - counted.sum(axis=1)  # idle count
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    decide_h0 = _llr(k, m, p, q) >= threshold
    if hyp is Hypothesis.H0:
        return int(np.count_nonzero(~decide_h0))
    return int(np.count_nonzero(decide_h0))


def monte_carlo_error(
    params: ModelParams,
    n: int,
    threshold: float,
    trials: int,
    seed: RngSeed,
    initial: str = "stationary",
    workers: int = 1,
) -> ErrorProbabilities:
    """Empirical error rates over `trials` simulated sequences per hypothesis.

    Trials are split into fixed blocks with independent (seed, stream_id)
    streams; integer error counts are summed in block order, so the result
    is bit-identical at any worker count.
    """
    if initial not in INITIAL_MODES:
        raise ValueError(f"initial must be one of {INITIAL_MODES}")
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
        return hyp, _mc_block(params, hyp, n, threshold, bt, s, initial)

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


def matrices(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: (P, Q) for the two hypotheses."""
    return (
        transition_matrix(params, Hypothesis.H0),
        transition_matrix(params, Hypothesis.H1),
    )
