"""Rate parameters and the exact busy/idle transition matrices.

The server holds at most one job.  An arrival that finds the server idle
is served; an arrival that finds it busy is lost.  Because inter-arrival
and service times are exponential, the probability that an arrival finds
the server idle does not depend on what the previous arrival saw, so both
rows of the transition matrix are identical and the busy/idle record is
i.i.d. Bernoulli.  Downstream oracles exploit this; nothing here assumes
it without constructing it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from math import isfinite

import numpy as np


class Hypothesis(Enum):
    H0 = 0  # legitimate traffic only, arrival rate lambda_w
    H1 = 1  # merged traffic, arrival rate lambda_w + lambda_b


class UnstableRegimeWarning(UserWarning):
    """Total arrival rate meets or exceeds the service rate."""


@dataclass(frozen=True)
class ModelParams:
    """Rate triple defining both hypotheses.

    Parameters
    ----------
    lambda_w : float
        Arrival rate of legitimate (Willie) jobs, jobs per unit time.
    lambda_b : float
        Arrival rate of illegitimate (Nillie) jobs, jobs per unit time.
        Zero means the two hypotheses coincide.
    mu : float
        Service rate, jobs per unit time.
    strict : bool
        When True, mu <= lambda_w + lambda_b is an error instead of a
        warning.  Default False so boundary behavior stays probeable.
    """

    lambda_w: float
    lambda_b: float
    mu: float
    strict: bool = False

    def __post_init__(self):
        for name in ("lambda_w", "lambda_b", "mu"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lambda_w > 0:
            raise ValueError(f"lambda_w must be positive, got {self.lambda_w}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lambda_b < 0:
            raise ValueError(f"lambda_b must be nonnegative, got {self.lambda_b}")
        p, q = self.idle_probability(Hypothesis.H0), self.idle_probability(Hypothesis.H1)
        if not 0.0 < q <= p < 1.0:  # the LLR takes log(p/q) and log((1-p)/(1-q))
            raise ValueError(f"rates too far apart: idle probabilities p={p!r}, "
                             f"q={q!r} must lie strictly between 0 and 1")
        if not self.stable:
            msg = (
                f"mu={self.mu} does not exceed lambda_w+lambda_b="
                f"{self.lambda_w + self.lambda_b}"
            )
            if self.strict:
                raise ValueError(msg)
            warnings.warn(msg, UnstableRegimeWarning, stacklevel=2)

    @property
    def stable(self) -> bool:
        """Whether mu > lambda_w + lambda_b (the standing modeling regime)."""
        return self.mu > self.lambda_w + self.lambda_b

    @property
    def total_rate_h1(self) -> float:
        return self.lambda_w + self.lambda_b

    def idle_probability(self, hyp: Hypothesis) -> float:
        """Probability an arrival finds the server idle (p under H0, q under H1)."""
        if hyp is Hypothesis.H0:
            return self.mu / (self.lambda_w + self.mu)
        return self.mu / (self.lambda_w + self.lambda_b + self.mu)

    def to_config(self) -> str:
        """Plain key-value text, one `key = value` per line."""
        return (
            f"lambda_w = {self.lambda_w!r}\n"
            f"lambda_b = {self.lambda_b!r}\n"
            f"mu = {self.mu!r}\n"
        )

    @classmethod
    def from_config(cls, text: str, strict: bool = False) -> "ModelParams":
        kv = parse_config(text)
        try:
            return cls(
                lambda_w=float(kv["lambda_w"]),
                lambda_b=float(kv["lambda_b"]),
                mu=float(kv["mu"]),
                strict=strict,
            )
        except KeyError as exc:
            raise ValueError(f"config missing required key: {exc.args[0]}") from None


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


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
