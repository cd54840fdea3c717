"""Independent oracles and test-only helpers used across the test suite.

These deliberately avoid the code paths they check: sequence
probabilities come from explicit products over the entries of the 2x2
busy/idle transition matrices (which live here, not in the package),
exact error probabilities from all n+1 binomial terms summed in the log
domain or from an mpmath tail sum, the Chernoff information from
grid-plus-refinement minimization or from a 60-digit mpmath root of
d r/du, the spectral radius from a dense eigensolve, and the simulator's
busy/idle record from a per-arrival loop over one stream, which also
gives the record of Willie's own jobs in a thinned merged stream, and
the batch recursion's departure update from a masked select.  The
small-lambda_b derivative facts of criterion 3 and the empirical
transition counts of criterion 6 are kept here too.
"""

import itertools
from dataclasses import dataclass
from math import log, log1p

import mpmath
import numpy as np
from scipy.special import gammaln, logsumexp

from covertq.detect import _llr, decide
from covertq.exponent import SMALL_LAMBDA_B_RATIO, _r_minus_one, _tilt
from covertq.model import Hypothesis, ModelParams
from covertq.sim import ObservationSequence


def transition_matrix(params: ModelParams, hyp: Hypothesis) -> np.ndarray:
    """Exact 2x2 transition matrix of the busy/idle chain.

    States are ordered (idle=0, busy=1).  Under H0 the idle probability is
    p = mu/(lambda_w+mu); under H1 it is q = mu/(lambda_w+lambda_b+mu).
    Both rows are identical.
    """
    idle = params.idle_probability(hyp)
    return np.array([[idle, 1.0 - idle], [idle, 1.0 - idle]])


def stationary_distribution(m: np.ndarray) -> np.ndarray:
    """Left eigenvector of a row-stochastic 2x2 matrix for eigenvalue 1, summing to 1.

    For equal-row matrices this is the row itself, returned exactly;
    otherwise it is (m10, m01) / (m01 + m10).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    rowsums = m.sum(axis=1)
    if not np.allclose(rowsums, 1.0, atol=1e-12):
        raise ValueError(f"matrix is not row-stochastic, row sums {rowsums}")
    if np.array_equal(m[0], m[1]):
        return m[0].copy()
    flow = m[0, 1] + m[1, 0]
    if flow == 0.0:
        raise ValueError("identity matrix: the stationary distribution is not unique")
    return np.array([m[1, 0], m[0, 1]]) / flow


def empirical_transition_counts(obs: ObservationSequence) -> np.ndarray:
    """2x2 counts of consecutive (previous, next) state pairs."""
    if obs.n < 2:
        raise ValueError("need at least 2 observations to count transitions")
    prev = obs.bits[:-1].astype(np.intp)
    nxt = obs.bits[1:].astype(np.intp)
    counts = np.zeros((2, 2), dtype=np.int64)
    np.add.at(counts, (prev, nxt), 1)
    return counts


def scalar_busy_bits(times: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Busy bits (uint8, 1 = busy) of one arrival stream, one arrival at a time.

    An arrival finding the server busy (before the last departure) is
    lost; otherwise it is served and sets the next departure time.
    """
    bits = np.empty(times.size, dtype=np.uint8)
    depart = -np.inf
    for j, (t, s) in enumerate(zip(times.tolist(), services.tolist())):
        if t < depart:
            bits[j] = 1
        else:
            bits[j] = 0
            depart = t + s
    return bits


def masked_busy_bits_batch(times: np.ndarray, ends: np.ndarray,
                           depart: np.ndarray) -> np.ndarray:
    """Idle flags of a time-major (arrivals, trials) chunk, by masked select.

    Each row compares its arrival times with the departure times and
    copies the arrival's end over `depart` where it found the server
    idle; `depart` is updated in place, as in sim._busy_bits_batch.
    """
    idle = np.empty(times.shape, dtype=bool)
    for j in range(times.shape[0]):
        np.greater_equal(times[j], depart, out=idle[j])
        np.copyto(depart, ends[j], where=idle[j])
    return idle


def willie_busy_bits(params: ModelParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Busy bits of Willie's own jobs among n merged H1 arrivals.

    Each arrival of the merged Poisson(lambda_w + lambda_b) stream is
    Willie's with probability lambda_w / (lambda_w + lambda_b), independently
    (Poisson thinning); Nillie's jobs occupy the server but are not
    reported.  One extra leading arrival, which always finds the server
    idle, is dropped.  The times come from numpy's own exponential
    sampler, not the simulator's inversion, so a statistical comparison
    with the simulator also compares two samplers.
    """
    rate = params.total_rate_h1
    times = np.cumsum(rng.exponential(1.0 / rate, size=n + 1))
    services = rng.exponential(1.0 / params.mu, size=n + 1)
    willie = rng.random(n + 1) < params.lambda_w / rate
    return scalar_busy_bits(times, services)[1:][willie[1:]]


def sequence_probability(bits, m):
    """P[x_1^N] for a 2-state chain started from its stationary law."""
    pi = stationary_distribution(m)
    prob = pi[bits[0]]
    for a, b in zip(bits[:-1], bits[1:]):
        prob *= m[a, b]
    return prob


def brute_force_error_probabilities(params: ModelParams, n: int, threshold=0.0):
    """Exhaustive 2^n enumeration of (p_f, p_m) for the threshold test."""
    p_mat = transition_matrix(params, Hypothesis.H0)
    q_mat = transition_matrix(params, Hypothesis.H1)
    p_f = 0.0
    p_m = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        obs = ObservationSequence(np.array(bits, dtype=np.uint8))
        result = decide(obs, params, threshold)
        if result["decision"] == "H1":
            p_f += sequence_probability(bits, p_mat)
        else:
            p_m += sequence_probability(bits, q_mat)
    return p_f, p_m


def log_domain_error_probabilities(params: ModelParams, n: int, threshold=0.0):
    """(p_f, p_m) from every idle count k in [0, n]: O(n) time and memory.

    Each k gets a log-binomial pmf term and a decision from `_llr`; each
    tail is exp(logsumexp) over the terms of the counts it covers.
    """
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    k = np.arange(n + 1)
    _, c_idle, c_busy = _tilt(params.lambda_w, params.lambda_b, params.mu)
    decide_h0 = _llr(k, n, c_idle, c_busy) >= threshold

    def tail(ks, prob):
        if ks.size == 0:
            return 0.0
        if ks.size == n + 1:
            return 1.0
        ks = ks.astype(float)
        log_pmf = (gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
                   + ks * log(prob) + (n - ks) * log(1.0 - prob))
        return float(min(1.0, np.exp(logsumexp(log_pmf))))

    return tail(k[~decide_h0], p), tail(k[decide_h0], q)


def mpmath_binomial_tails(params: ModelParams, m: int, cut: int, dps=40):
    """(P_p(K < cut), P_q(K >= cut)) for K ~ Bin(m, .) in `dps`-digit arithmetic.

    p and q are formed from the exact binary values of the rates.  The
    tail away from the mode is summed outward from the cut until a
    geometric bound on the remaining terms falls below 10^-(dps-5) of the
    sum; the tail holding the mode is one minus that sum.
    """
    with mpmath.workdps(dps):
        lw = mpmath.mpf(params.lambda_w)
        lb, mu = mpmath.mpf(params.lambda_b), mpmath.mpf(params.mu)
        eps = mpmath.mpf(10) ** (5 - dps)

        def split(prob):  # (P(K < cut), P(K >= cut))
            if cut <= 0:
                return mpmath.mpf(0), mpmath.mpf(1)
            if cut > m:
                return mpmath.mpf(1), mpmath.mpf(0)
            mode = int(mpmath.floor((m + 1) * prob))
            k, step = (cut - 1, -1) if cut - 1 < mode else (cut, 1)
            t = mpmath.exp(mpmath.loggamma(m + 1) - mpmath.loggamma(k + 1)
                           - mpmath.loggamma(m - k + 1) + k * mpmath.log(prob)
                           + (m - k) * mpmath.log1p(-prob))
            total, odds = t, prob / (1 - prob)
            while 0 <= k + step <= m:
                r = (m - k) / mpmath.mpf(k + 1) * odds if step > 0 else (
                    k / mpmath.mpf(m - k + 1) / odds)
                k += step
                t *= r
                total += t
                if r < 1 and t * r / (1 - r) < eps * total:
                    break
            return (total, 1 - total) if step < 0 else (1 - total, total)

        p, q = mu / (lw + mu), mu / (lw + lb + mu)
        return split(p)[0], split(q)[1]


def mpmath_llr_coefficients(params: ModelParams):
    """(log(p/q), log((1-p)/(1-q))) in 60-digit arithmetic.

    p and q are formed from the exact binary values of the rates, so the
    coefficients keep their digits where the float p and q round together.
    """
    with mpmath.workdps(60):
        lw = mpmath.mpf(params.lambda_w)
        lb, mu = mpmath.mpf(params.lambda_b), mpmath.mpf(params.mu)
        p, q = mu / (lw + mu), mu / (lw + lb + mu)
        return mpmath.log(p / q), mpmath.log((1 - p) / (1 - q))


def mpmath_cut(params: ModelParams, m: int, threshold: float) -> int:
    """Smallest idle count k in [0, m+1] whose 60-digit LLR is >= threshold."""
    with mpmath.workdps(60):
        c_idle, c_busy = mpmath_llr_coefficients(params)
        k = int(mpmath.ceil((threshold - m * c_busy) / (c_idle - c_busy)))
    return min(max(k, 0), m + 1)


def chernoff_information(p: float, q: float, resolution=1e-12) -> float:
    """Brute-force Chernoff information between Bernoulli(1-p) and Bernoulli(1-q).

    Coarse grid over the tilt followed by successive refinement around the
    best point until the grid spacing drops below `resolution`.
    """

    def obj(u):
        return np.log(p**u * q ** (1.0 - u) + (1.0 - p) ** u * (1.0 - q) ** (1.0 - u))

    lo, hi = 0.0, 1.0
    while True:
        us = np.linspace(lo, hi, 1001)
        vals = obj(us)
        i = int(np.argmin(vals))
        step = us[1] - us[0]
        if step < resolution:
            return -float(vals[i])
        lo = max(0.0, us[i] - step)
        hi = min(1.0, us[i] + step)


def mpmath_exponent(lambda_w: float, lambda_b: float, mu: float):
    """(v, -log r(v)) at the minimizing tilt v, in 60-digit arithmetic.

    p and q are formed from the exact binary values of the rates, and v is
    the root of d r/du on [0, 1]; r is convex, so that root is the minimizer.
    """
    with mpmath.workdps(60):
        lw, lb, mu = mpmath.mpf(lambda_w), mpmath.mpf(lambda_b), mpmath.mpf(mu)
        p, q = mu / (lw + mu), mu / (lw + lb + mu)
        a, b = mpmath.log(p / q), mpmath.log((1 - p) / (1 - q))

        def r(u):
            return q * mpmath.exp(u * a) + (1 - q) * mpmath.exp(u * b)

        def dr(u):
            return q * a * mpmath.exp(u * a) + (1 - q) * b * mpmath.exp(u * b)

        v = mpmath.findroot(dr, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
        return v, -mpmath.log(r(v))


@dataclass(frozen=True)
class QDerivativeFacts:
    """Analytic values used by the small-lambda_b expansion (mu = 1).

    q(x) is the idle probability as a function of the covert rate x, and
    big_f(x) = r(v(x)) evaluated at the minimizing tilt.  The derivative
    values are what finite differences of those two maps must reproduce.
    """

    q0: float
    q_prime0: float
    q_double_prime0: float
    f0: float
    f_prime0: float
    f_double_prime0: float


def q_derivative_facts(params: ModelParams) -> QDerivativeFacts:
    if params.mu != 1.0:
        raise ValueError("derivative facts are stated for mu = 1; rescale rates first")
    p = 1.0 / (params.lambda_w + 1.0)
    lw = params.lambda_w
    return QDerivativeFacts(
        q0=p,
        q_prime0=-p * p,
        q_double_prime0=2.0 * p**3,
        f0=1.0,
        f_prime0=0.0,
        f_double_prime0=-1.0 / (4.0 * lw * (lw + 1.0) ** 2),
    )


def q_of(lambda_w: float, lambda_b: float) -> float:
    """Idle probability under the merged stream as a function of lambda_b (mu=1).

    Defined for small negative lambda_b too, so central differences at 0 work.
    """
    return 1.0 / (lambda_w + lambda_b + 1.0)


def big_f(lambda_w: float, lambda_b: float) -> float:
    """r evaluated at the minimizing tilt, as a function of lambda_b (mu = 1).

    Accepts small negative lambda_b (the formulas extend smoothly), which
    central differences at 0 need.
    """
    if lambda_b == 0.0:
        return 1.0
    tilt = _tilt(lambda_w, lambda_b, 1.0)
    if abs(lambda_b) / lambda_w < SMALL_LAMBDA_B_RATIO:
        v = 0.5
    else:  # the root of d r/du; (1-q)/q = lambda_w + lambda_b at mu = 1
        _, log_idle, log_busy = tilt
        v = log((lambda_w + lambda_b) * (-log_busy / log_idle)) / log1p(lambda_b / lambda_w)
    return 1.0 + _r_minus_one(tilt, v)


def dominant_eigenvalue(m) -> float:
    """Largest-magnitude eigenvalue of a 2x2 matrix, via dense eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def param_grid(count: int, rng: np.random.Generator):
    """Random stable triples with mu = 1: lambda_w in [0.05, 0.9],
    lambda_b in [0.01, 1 - lambda_w - 0.05]."""
    triples = []
    for _ in range(count):
        lw = rng.uniform(0.05, 0.9)
        lb = rng.uniform(0.01, 1.0 - lw - 0.05)
        triples.append(ModelParams(lw, lb, 1.0))
    return triples
