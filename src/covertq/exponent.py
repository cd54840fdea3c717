"""Error-exponent machinery for the busy/idle hypothesis test.

The tilted matrix of the two equal-row chains has equal rows itself, so
its spectral radius is just the common row sum

    r(u) = p^u q^(1-u) + (1-p)^u (1-q)^(1-u),

and the exponent is the minimum of -log r(u) over u in [0, 1].  Because
the observations are i.i.d. Bernoulli this coincides with the Chernoff
information between the two marginals; the tests exploit that as an
independent oracle.

r(u) sits within O(lambda_b^2) of 1, so every quantity reads r(u) - 1 from
one log1p-built tilt core (`_tilt`, `_r_minus_one`), never r(u) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, log, log1p, sqrt

from .model import ModelParams, json_text

# Below this ratio the closed-form minimizer is a 0/0 expression and
# cancellation dominates; the limiting value is exactly 1/2.
SMALL_LAMBDA_B_RATIO = 1e-7

GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200
_INV_PHI = (sqrt(5.0) - 1.0) / 2.0


_SCALAR_FIELDS = (
    "v_closed", "v_numeric", "i_err_closed", "i_err_numeric", "i_err_taylor"
)


class NumericFailure(RuntimeError):
    """Scalar minimization failed to converge within the iteration cap."""


@dataclass(frozen=True)
class ExponentReport:
    """Every exponent quantity for one parameter point, side by side."""

    v_closed: float
    v_numeric: float
    i_err_closed: float
    i_err_numeric: float
    i_err_taylor: float
    abcd: tuple[float, float, float, float]
    abc_small: tuple[float, float, float]

    def to_dict(self) -> dict:
        """Flat record; abcd and abc_small spread to keys A-D and a-c."""
        rec = {f: getattr(self, f) for f in _SCALAR_FIELDS}
        rec.update(zip("ABCD", self.abcd))
        rec.update(zip("abc", self.abc_small))
        return rec

    @classmethod
    def from_dict(cls, rec: dict) -> "ExponentReport":
        """Inverse of to_dict; a missing field raises KeyError."""
        return cls(
            **{f: rec[f] for f in _SCALAR_FIELDS},
            abcd=tuple(rec[k] for k in "ABCD"),
            abc_small=tuple(rec[k] for k in "abc"),
        )

    def to_json(self) -> str:
        return json_text(self.to_dict())


def _tilt(lw: float, lb: float, mu: float) -> tuple[float, float, float]:
    """(q, log(p/q), log((1-p)/(1-q))) for p = mu/(lw+mu), q = mu/(lw+lb+mu).

    p/q = 1 + lb/(lw+mu) and (1-p)/(1-q) = (p/q) / (1 + lb/lw), so both logs
    come from log1p of exact small ratios and keep their digits as lb -> 0.
    Small negative lb is accepted (central differences at 0 need it).
    """
    log_pq = log1p(lb / (lw + mu))
    return mu / (lw + lb + mu), log_pq, log_pq - log1p(lb / lw)


def _r_minus_one(tilt: tuple[float, float, float], u: float) -> float:
    """r(u) - 1 = q*((p/q)^u - 1) + (1-q)*(((1-p)/(1-q))^u - 1), kept exact."""
    q, log_idle, log_busy = tilt
    return q * expm1(u * log_idle) + (1.0 - q) * expm1(u * log_busy)


def abcd_coefficients(params: ModelParams) -> tuple[float, float, float, float]:
    """Coefficients of the factored row sum r(u) = A*B^u + C*D^u."""
    lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
    lam = lw + lb
    a_big = mu / (lam + mu)
    b_big = (lam + mu) / (lw + mu)
    c_big = lam / (lam + mu)
    d_big = lw * (lam + mu) / (lam * (lw + mu)) if lam > 0 else 1.0
    return a_big, b_big, c_big, d_big


def abc_small(params: ModelParams) -> tuple[float, float, float]:
    """Ingredients of the closed-form minimizer."""
    lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
    return (lw + lb) / mu, (lw + lb) / lw, (lw + mu) / (lb + lw + mu)


def r_of_u(params: ModelParams, u: float) -> float:
    """Row sum (= spectral radius) of the tilted matrix at tilt u."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    return 1.0 + _r_minus_one(_tilt(params.lambda_w, params.lambda_b, params.mu), u)


def golden_section(f, lo: float, hi: float, tol: float = GOLDEN_TOL,
                   max_iter: int = GOLDEN_MAX_ITER):
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (x, f(x), iterations).  Raises NumericFailure if the bracket
    has not shrunk below tol within max_iter iterations.
    """
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for iteration in range(1, max_iter + 1):
        if hi - lo <= tol:
            x = 0.5 * (lo + hi)
            return x, f(x), iteration
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    raise NumericFailure(
        f"bracket width {hi - lo:.3e} > tol {tol:.3e} after {max_iter} iterations"
    )


def _v_from_rates(lw: float, lb: float, mu: float) -> float:
    # v = log(a * log(b*c) / log(1/c)) / log(b) with a = (lw+lb)/mu,
    # b = (lw+lb)/lw, c = (lw+mu)/(lw+lb+mu).  Both log(b) and log(1/c)
    # vanish linearly in lb, so they are formed via log1p of exact small
    # ratios; forming b*c or 1/c first would throw away most of the
    # significant digits for small lb.
    a = (lw + lb) / mu
    log_b = log1p(lb / lw)
    log_c = -log1p(lb / (lw + mu))  # log(c) = -log(1 + lb/(lw+mu))
    return log(a * (log_b + log_c) / (-log_c)) / log_b


def v_closed_form(params: ModelParams) -> float:
    """Closed-form minimizer of log r(u).

    Zero of stationarity_residual.  For lambda_b/lambda_w below
    the cancellation switch the limiting value 1/2 is returned directly.
    """
    if params.lambda_b <= 0:
        raise ValueError("v is undefined for lambda_b = 0 (take the limit 1/2)")
    if params.lambda_b / params.lambda_w < SMALL_LAMBDA_B_RATIO:
        return 0.5
    return _v_from_rates(params.lambda_w, params.lambda_b, params.mu)


def i_err_numeric(params: ModelParams) -> tuple[float, float]:
    """Minimize log r(u) numerically; returns (v_numeric, i_err).

    Golden section localizes the minimizer to 1e-5, then bisection on the
    sign of d r(u)/du polishes it to GOLDEN_TOL.  Value comparisons alone
    cannot place a flat minimum better than sqrt(machine eps), while the
    derivative sign stays clean down to GOLDEN_TOL.
    """
    if params.lambda_b <= 0:
        raise ValueError("numeric exponent requires lambda_b > 0")
    tilt = _tilt(params.lambda_w, params.lambda_b, params.mu)
    coarse, tol = 1e-5, GOLDEN_TOL
    # log1p is increasing, so r - 1 has the same minimizer as log r
    v0, _, _ = golden_section(lambda u: _r_minus_one(tilt, u), 0.0, 1.0, coarse)
    lo, hi = max(0.0, v0 - coarse), min(1.0, v0 + coarse)
    # the bracket is at most 2 * coarse wide: at most 18 halvings reach tol
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stationarity_residual(params, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    return v, -log1p(_r_minus_one(tilt, v))


def i_err_closed(params: ModelParams) -> float:
    """-log r(v) with the closed-form minimizer; exactly 0 when lambda_b = 0."""
    if params.lambda_b == 0:
        return 0.0
    if params.lambda_b / params.lambda_w < SMALL_LAMBDA_B_RATIO:
        return i_err_numeric(params)[1]
    tilt = _tilt(params.lambda_w, params.lambda_b, params.mu)
    return -log1p(_r_minus_one(tilt, v_closed_form(params)))


def i_err_taylor(params: ModelParams) -> float:
    """Second-order small-lambda_b approximation of the exponent.

    Stated for mu = 1; other mu are handled by rescaling all rates by
    1/mu, which leaves the exponent invariant (p and q are rate ratios).
    """
    lw = params.lambda_w / params.mu
    lb = params.lambda_b / params.mu
    return lb * lb / (8.0 * lw * (lw + 1.0) ** 2)


def exponent_report(params: ModelParams) -> ExponentReport:
    """Compute every exponent quantity for one parameter point."""
    if params.lambda_b > 0:
        v_closed = v_closed_form(params)
        v_num, i_num = i_err_numeric(params)
    else:
        v_closed, v_num, i_num = 0.5, 0.5, 0.0
    # below the switch i_err_closed is i_err_numeric itself: do not run it twice
    small = params.lambda_b / params.lambda_w < SMALL_LAMBDA_B_RATIO
    return ExponentReport(
        v_closed=v_closed,
        v_numeric=v_num,
        i_err_closed=i_num if small else i_err_closed(params),
        i_err_numeric=i_num,
        i_err_taylor=i_err_taylor(params),
        abcd=abcd_coefficients(params),
        abc_small=abc_small(params),
    )


def stationarity_residual(params: ModelParams, v: float) -> float:
    """d r/du at u = v; zero at the true minimizer."""
    q, log_idle, log_busy = _tilt(params.lambda_w, params.lambda_b, params.mu)
    return q * log_idle * exp(v * log_idle) + (1.0 - q) * log_busy * exp(v * log_busy)
