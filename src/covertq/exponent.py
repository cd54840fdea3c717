"""Error-exponent machinery for the busy/idle hypothesis test.

The tilted matrix of the two equal-row chains has equal rows itself, so
its spectral radius is just the common row sum

    r(u) = p^u q^(1-u) + (1-p)^u (1-q)^(1-u),

and the exponent is the minimum of -log r(u) over u in [0, 1].  Because
the observations are i.i.d. Bernoulli this coincides with the Chernoff
information between the two marginals; the tests exploit that as an
independent oracle.

r(u) sits within O(lambda_b^2) of 1, so every quantity reads r(u) - 1 from
the log1p tilt core shared with the LLR (`model._tilt`), never r(u) itself.
"""

from __future__ import annotations

from math import exp, expm1, log, log1p

from .model import ModelParams, _tilt

# Below this ratio the closed-form minimizer is a 0/0 expression and
# cancellation dominates; the limiting value is exactly 1/2.
SMALL_LAMBDA_B_RATIO = 1e-7

# Width of the final bracket around the numeric minimizer.
V_NUMERIC_TOL = 1e-10


def _r_minus_one(tilt: tuple[float, float, float], u: float) -> float:
    """r(u) - 1 = q*((p/q)^u - 1) + (1-q)*(((1-p)/(1-q))^u - 1), kept exact."""
    q, log_idle, log_busy = tilt
    return q * expm1(u * log_idle) + (1.0 - q) * expm1(u * log_busy)


def _dr_du(tilt: tuple[float, float, float], u: float) -> float:
    """d r/du; r is convex, so this increases through 0 at the minimizer."""
    q, log_idle, log_busy = tilt
    return q * log_idle * exp(u * log_idle) + (1.0 - q) * log_busy * exp(u * log_busy)


def abcd_coefficients(params: ModelParams) -> tuple[float, float, float, float]:
    """Coefficients of the factored row sum r(u) = A*B^u + C*D^u."""
    lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
    lam = lw + lb
    a_big = mu / (lam + mu)
    b_big = (lam + mu) / (lw + mu)
    c_big = lam / (lam + mu)
    d_big = (lw / lam) * ((lam + mu) / (lw + mu))
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


def v_closed_form(params: ModelParams) -> float:
    """Closed-form minimizer of log r(u).

    Zero of _dr_du:
    v = log(((1-q)/q) * (-log_busy/log_idle)) / (log_idle - log_busy), where
    (1-q)/q = (lw+lb)/mu and log_idle - log_busy = log1p(lb/lw).  For
    lambda_b/lambda_w below the cancellation switch the limiting value 1/2
    is returned directly.
    """
    lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
    if lb <= 0:
        raise ValueError("v is undefined for lambda_b = 0 (take the limit 1/2)")
    if lb / lw < SMALL_LAMBDA_B_RATIO:
        return 0.5
    _, log_idle, log_busy = _tilt(lw, lb, mu)
    return log((lw + lb) / mu * (-log_busy / log_idle)) / log1p(lb / lw)


def i_err_numeric(params: ModelParams) -> tuple[float, float]:
    """Minimize log r(u) numerically; returns (v_numeric, i_err).

    Bisection on the sign of d r/du over [0, 1] down to V_NUMERIC_TOL
    (34 halvings).  Comparing values of r - 1 instead could not place the
    flat minimum better than sqrt(machine eps).
    """
    if params.lambda_b <= 0:
        raise ValueError("numeric exponent requires lambda_b > 0")
    tilt = _tilt(params.lambda_w, params.lambda_b, params.mu)
    lo, hi = 0.0, 1.0
    while hi - lo > V_NUMERIC_TOL:
        mid = 0.5 * (lo + hi)
        if _dr_du(tilt, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    return v, -log1p(_r_minus_one(tilt, v))


def i_err_closed(params: ModelParams) -> float:
    """-log r(v) with the closed-form minimizer; exactly 0 when lambda_b = 0."""
    if params.lambda_b == 0:
        return 0.0
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


def exponent_report(params: ModelParams) -> dict:
    """Every exponent quantity for one point, keyed as exponent_report.schema.json keys it."""
    if params.lambda_b > 0:
        v_closed = v_closed_form(params)
        v_num, i_num = i_err_numeric(params)
    else:
        v_closed, v_num, i_num = 0.5, 0.5, 0.0
    return {
        "v_closed": v_closed,
        "v_numeric": v_num,
        "i_err_closed": i_err_closed(params),
        "i_err_numeric": i_num,
        "i_err_taylor": i_err_taylor(params),
        **dict(zip("ABCD", abcd_coefficients(params))),
        **dict(zip("abc", abc_small(params))),
    }
