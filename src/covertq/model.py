"""Rate parameters, the idle probabilities p and q, and the text writers.

The server holds at most one job.  An arrival that finds the server idle
is served; an arrival that finds it busy is lost.  Because inter-arrival
and service times are exponential, the probability that an arrival finds
the server idle does not depend on what the previous arrival saw, so the
busy/idle record is i.i.d. Bernoulli: p = mu/(lambda_w+mu) under H0 and
q = mu/(lambda_w+lambda_b+mu) under H1 determine it.  The event simulator
in :mod:`covertq.sim` does not assume this, and the tests compare the two.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from math import isfinite


class Hypothesis(Enum):
    H0 = 0  # legitimate traffic only, arrival rate lambda_w
    H1 = 1  # merged traffic, arrival rate lambda_w + lambda_b


class UnstableRegimeWarning(UserWarning):
    """Total arrival rate meets or exceeds the service rate."""


class DegenerateModelError(ValueError):
    """lambda_b = 0: both hypotheses coincide and errors are degenerate."""


class NonFiniteError(ValueError, ArithmeticError):
    """A result to be written holds NaN or an infinity; an arithmetic failure too."""


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

    mu <= lambda_w + lambda_b only warns (UnstableRegimeWarning), so
    boundary behavior stays probeable.
    """

    lambda_w: float
    lambda_b: float
    mu: float

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
            # level 3: past the dataclass-generated __init__ to its caller
            warnings.warn(f"mu={self.mu} does not exceed lambda_w+lambda_b="
                          f"{self.lambda_w + self.lambda_b}",
                          UnstableRegimeWarning, stacklevel=3)

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


def json_text(doc, indent: int | None = None) -> str:
    """The one JSON writer: sorted keys; NaN or Infinity raises NonFiniteError."""
    try:
        return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:  # the only ValueError json.dumps raises on acyclic data
        raise NonFiniteError(str(exc)) from None


def _csv_field(v) -> str:
    if isinstance(v, float) and not isfinite(v):
        raise NonFiniteError(f"Out of range float values are not CSV compliant: {v!r}")
    return repr(float(v)) if isinstance(v, float) else str(v)


def csv_text(header, rows) -> str:
    """The one CSV writer: LF-ended lines; floats (numpy's too) as repr(float(v)).

    NaN or an infinity raises NonFiniteError, as in json_text.
    """
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in (header, *rows))
