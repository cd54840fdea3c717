"""Rate parameters, idle probabilities p and q, their log ratios, and text writers.

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
import os
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from math import isfinite, log, log1p
from typing import NamedTuple


class Hypothesis(Enum):
    H0 = 0  # legitimate traffic only, arrival rate lambda_w
    H1 = 1  # merged traffic, arrival rate lambda_w + lambda_b


class DegenerateModelError(ValueError):
    """lambda_b = 0: both hypotheses coincide and errors are degenerate."""


class NonFiniteError(ValueError, ArithmeticError):
    """A result to be written holds NaN or an infinity; an arithmetic failure too."""


def _h2(x: float) -> float:
    """h(x)/x^2 for h(x) = (1+x) log1p(x) - x >= 0; 1/2 at x = 0, 1 at x = -1.

    Below |x| = 0.2, the bd0 series of Loader (2000) in v = x/(2+x),
    h = x v + 2 (1+x) sum_{j>=1} v^(2j+1)/(2j+1), to 1e-17.
    """
    if abs(x) > 0.2:  # x * x could overflow, so divide twice
        return ((1.0 + x) * log1p(x) - x) / x / x if x > -1.0 else 1.0
    v = x / (2.0 + x)
    w = v * v
    s = 1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w * (
        1 / 13 + w * (1 / 15 + w / 17))))))
    return (1.0 + 2.0 * (1.0 + x) * v * s / (2.0 + x)) / (2.0 + x)


def _kl2(q: float, qbar: float, d: float) -> float:
    """D(q+d || q) / d^2 = (q h(d/q) + qbar h(-d/qbar)) / d^2 for Bernoulli laws, qbar = 1-q."""
    return _h2(d / q) / q + _h2(-d / qbar) / qbar


def _l(t: float) -> float:
    """log1p(t)/t; 1 at t = 0."""
    return log1p(t) / t if t else 1.0


class _Ratios(NamedTuple):
    """The rate-ratio core of `ModelParams`; x = lambda_b/lambda_w."""

    p: float  # mu/(lambda_w+mu): an arrival finds the server idle under H0
    pbar: float  # 1 - p
    q: float  # mu/(lambda_w+lambda_b+mu): the same under H1
    qbar: float  # 1 - q
    gap: float  # p - q
    a: float  # log(p/q), the LLR's idle coefficient
    b: float  # log((1-p)/(1-q)), its busy coefficient
    ell: float  # log1p(x)
    s: float  # D(q||p)/ell^2
    big_a: float  # a/ell
    big_b: float  # b/ell


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

    Any load is valid: the server holds at most one job, so the loss
    system is ergodic even where lambda_w + lambda_b exceeds mu.
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
        self._ratios  # forms the core, which refuses rates whose p and q do not resolve

    @property
    def total_rate_h1(self) -> float:
        return self.lambda_w + self.lambda_b

    def idle_probability(self, hyp: Hypothesis) -> float:
        """Probability an arrival finds the server idle (p under H0, q under H1)."""
        return self._ratios.p if hyp is Hypothesis.H0 else self._ratios.q

    @cached_property
    def _ratios(self) -> _Ratios:
        """p, q and what the analytics read of them, formed and checked in this one place.

        Formed once per instance from exact ratios of rates.  a = log1p(r), r = lambda_b/
        (lambda_w+mu), and b = log1p(-y), y = p lambda_b/(lambda_w+lambda_b), or from y = 1/2
        on the log of (1-p)/(1-q) itself.  s = (t* - q)/log1p(x), t* the minimizer's tilted
        law, A = (1-p) l(r)/l(x) and B = -p l(-y)/((1+x) l(x)), l = `_l`, stay of order 1
        as x -> 0: p - q = x (1-p) q, log1p(x) = x (1 + x h2(x))/(1 + x).
        """
        lw, lb, mu = self.lambda_w, self.lambda_b, self.mu
        p, pbar, x = mu / (lw + mu), lw / (lw + mu), lb / lw
        q, qbar = mu / (lw + lb + mu), (lw + lb) / (lw + lb + mu)
        if not 0.0 < q <= p < 1.0:  # the LLR takes log(p/q) and log((1-p)/(1-q))
            raise ValueError(f"rates too far apart: idle probabilities p={p!r}, "
                             f"q={q!r} must lie strictly between 0 and 1")
        r, y, ell = lb / (lw + mu), (lb / (lw + lb)) * p, log1p(x)
        b = log1p(-y) if y < 0.5 else log(pbar * ((lw + lb + mu) / (lw + lb)))
        w = pbar * q * (1.0 + x) / (1.0 + x * _h2(x))  # (p - q)/ell
        s = w * (w * _kl2(p, pbar, -x * pbar * q))  # w * w could underflow where s does not
        return _Ratios(p, pbar, q, qbar, x * pbar * q, log1p(r), b, ell, s,
                       big_a=pbar * _l(r) / _l(x),
                       big_b=-p / (1.0 + x) * _l(-y) / _l(x) if y < 0.5 else b / ell)


_CONTAINERS = (dict, list, tuple)


@cache
def _flat_encoder(indent: str, depth: int):
    """json's C encoder for a container of scalars at `depth` of an indented document.

    Its item separator carries the newline and indentation of the next
    item, so only the brackets lack theirs.
    """
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + indent * (depth + 1), True, False, False)


def _indented(o, indent: str, depth: int) -> str:
    """json.dumps(o, sort_keys=True, indent=indent, allow_nan=False) nested at `depth`.

    A container of scalars is one C encoder call; one that holds a container
    is joined here, its dict keys being str (any other key raises TypeError).
    """
    encode = _flat_encoder(indent, depth)
    if not isinstance(o, _CONTAINERS) or not o:
        return "".join(encode(o, 0))  # a scalar, [] or {}
    pad, end = "\n" + indent * (depth + 1), "\n" + indent * depth
    if isinstance(o, dict):
        if any(isinstance(v, _CONTAINERS) for v in o.values()):
            key = json.encoder.encode_basestring_ascii
            return "{" + pad + ("," + pad).join(
                key(k) + ": " + _indented(v, indent, depth + 1)
                for k, v in sorted(o.items())) + end + "}"
    elif any(isinstance(v, _CONTAINERS) for v in o):
        return "[" + pad + ("," + pad).join(
            _indented(v, indent, depth + 1) for v in o) + end + "]"
    text = "".join(encode(o, 0))
    return text[0] + pad + text[1:-1] + end + text[-1]


def json_text(doc, indent: int | None = None) -> str:
    """The one JSON writer: sorted keys; NaN or Infinity raises NonFiniteError.

    The bytes of json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False).
    An indent is written by `_indented` rather than json's pure-Python encoder,
    which its indent would select; on any failure json.dumps runs instead, so its
    error and message (": inf" included) are the ones raised.
    """
    if indent is not None:
        try:
            return _indented(doc, " " * indent, 0)
        except (ValueError, TypeError, RecursionError):
            pass  # json.dumps raises it again, with its own message
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


def write_text(path, text: str) -> None:
    """The one file writer: the bytes open(path, "w") writes, written in place.

    Not truncated to zero first, which on ext4 forces a data flush at
    close: a longer old file is cut after the write, /dev/null or a FIFO
    (size 0) never.  Not atomic, as "w" is not.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        if os.fstat(fh.fileno()).st_size > fh.write(text.encode()):
            fh.truncate()  # at the position the write left
