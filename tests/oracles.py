"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: sequence
probabilities come from explicit products over transition matrices,
the Chernoff information from grid-plus-refinement minimization or from
a 60-digit mpmath root of d r/du, and the spectral radius from a dense
eigensolve.
"""

import itertools
from math import log

import mpmath
import numpy as np

from covertq.detect import decide
from covertq.model import (
    Hypothesis,
    ModelParams,
    stationary_distribution,
    transition_matrix,
)
from covertq.sim import ObservationSequence


def sequence_probability(bits, m):
    """P[x_1^N] for a 2-state chain started from its stationary law."""
    pi = stationary_distribution(m)
    prob = pi[bits[0]]
    for a, b in zip(bits[:-1], bits[1:]):
        prob *= m[a, b]
    return prob


def brute_force_error_probabilities(params: ModelParams, n: int, threshold=0.0,
                                    initial="stationary"):
    """Exhaustive 2^n enumeration of (p_f, p_m) for the threshold test."""
    p_mat = transition_matrix(params, Hypothesis.H0)
    q_mat = transition_matrix(params, Hypothesis.H1)
    p_f = 0.0
    p_m = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        obs = ObservationSequence(np.array(bits, dtype=np.uint8))
        result = decide(obs, p_mat, q_mat, threshold, initial)
        if result.decision is Hypothesis.H1:
            p_f += sequence_probability(bits, p_mat)
        else:
            p_m += sequence_probability(bits, q_mat)
    return p_f, p_m


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
