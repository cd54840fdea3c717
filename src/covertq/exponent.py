"""Error-exponent machinery for the busy/idle hypothesis test.

The tilted matrix of the two equal-row chains has equal rows itself, so
its spectral radius is just the common row sum

    r(u) = p^u q^(1-u) + (1-p)^u (1-q)^(1-u),

and the exponent is the minimum of -log r(u) over u in [0, 1].  Because
the observations are i.i.d. Bernoulli this coincides with the Chernoff
information between the two marginals; the tests exploit that as an
independent oracle.

r(u) sits within O(lambda_b^2) of 1, so nothing here forms r(u) - 1: -log r(u) =
u D(t_u||p) + (1-u) D(t_u||q) for the tilted law t_u ~ p^u q^(1-u), whose divergences
are equal at the minimizer (Cover & Thomas, Elements of Information Theory, 11.9).
"""

from __future__ import annotations

from math import exp, expm1, log1p

from .model import ModelParams, _tilt

# Width of the final bracket around the numeric minimizer.
V_NUMERIC_TOL = 1e-10


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


def _laws(params: ModelParams) -> tuple[float, ...]:
    """(p, 1-p, q, 1-q, p-q, log1p(x), s), x = lambda_b/lambda_w, from ratios of rates.

    s = (t* - q) / log1p(x) = D(q||p) / log1p(x)^2, t* the minimizer's tilted law,
    is of order 1 as x -> 0: p - q = x (1-p) q and log1p(x) = x (1 + x h2(x)) / (1 + x).
    """
    lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
    p, pbar, q, x = mu / (lw + mu), lw / (lw + mu), mu / (lw + lb + mu), lb / lw
    s = (pbar * q * (1.0 + x) / (1.0 + x * _h2(x))) ** 2 * _kl2(p, pbar, -x * pbar * q)
    return p, pbar, q, (lw + lb) / (lw + lb + mu), x * pbar * q, log1p(x), s


def _neg_log_r(params: ModelParams, u: float) -> float:
    """-log r(u) = u D(t_u||p) + (1-u) D(t_u||q), t_u the tilted law."""
    p, pbar, q, qbar, gap, ell, _ = _laws(params)
    e = q * expm1(u * ell)
    d = qbar * e / (1.0 + e)  # t_u - q, as logit(t_u) - logit(q) = u log1p(x)
    return u * (d - gap) ** 2 * _kl2(p, pbar, d - gap) + (1.0 - u) * d * d * _kl2(q, qbar, d)


def r_of_u(params: ModelParams, u: float) -> float:
    """Row sum (= spectral radius) of the tilted matrix at tilt u."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    return exp(-_neg_log_r(params, u))


def v_closed_form(params: ModelParams) -> float:
    """Closed-form minimizer (logit(t*) - logit(q)) / log1p(x) of log r(u).

    The numerator is log1p(z) = z (1 + z h2(z)) / (1 + z), z = (t* - q) / (q (1 - t*)).
    """
    if params.lambda_b <= 0:
        raise ValueError("v is undefined for lambda_b = 0 (take the limit 1/2)")
    _, _, q, qbar, _, ell, s = _laws(params)
    z = s * ell / (q * (qbar - s * ell))
    return s * (1.0 + z * _h2(z)) / (qbar * (q + s * ell))  # (1 + z) q (1 - t*) = (1 - q) t*


def i_err_numeric(params: ModelParams) -> tuple[float, float]:
    """Minimize log r(u) numerically; returns (v_numeric, i_err).

    Bisection over [0, 1] down to V_NUMERIC_TOL (34 halvings) on the sign of dr/du /
    log1p(x), dr/du = q a expm1(ua) + (1-q) b expm1(ub) - D(q||p): a, b from `model._tilt`
    have a > 0 > b, so nothing cancels.
    """
    if params.lambda_b <= 0:
        raise ValueError("numeric exponent requires lambda_b > 0")
    _, _, q, qbar, _, ell, s = _laws(params)
    _, a, b = _tilt(params.lambda_w, params.lambda_b, params.mu)
    wa, wb, target = q * a / ell, qbar * b / ell, s * ell
    lo, hi = 0.0, 1.0
    while hi - lo > V_NUMERIC_TOL:
        mid = 0.5 * (lo + hi)
        if wa * expm1(mid * a) + wb * expm1(mid * b) < target:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    return v, _neg_log_r(params, v)


def i_err_closed(params: ModelParams) -> float:
    """-log r(v) with the closed-form minimizer; exactly 0 when lambda_b = 0."""
    return _neg_log_r(params, v_closed_form(params)) if params.lambda_b else 0.0


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
    lw, lb, mu = params.lambda_w, params.lambda_b, params.mu
    lam = lw + lb
    if lb > 0:
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
        # coefficients of the factored row sum r(u) = A*B^u + C*D^u
        "A": mu / (lam + mu),
        "B": (lam + mu) / (lw + mu),
        "C": lam / (lam + mu),
        "D": (lw / lam) * ((lam + mu) / (lw + mu)),
        # rate ratios: a = (1-q)/q, b = 1 + lambda_b/lambda_w, c = q/p
        "a": (lw + lb) / mu,
        "b": (lw + lb) / lw,
        "c": (lw + mu) / (lb + lw + mu),
    }
