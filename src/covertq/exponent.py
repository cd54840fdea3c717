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

from math import exp, expm1, isfinite, log

from .model import ModelParams, NonFiniteError, _h2, _kl2

# Width of the final bracket around the numeric minimizer.
V_NUMERIC_TOL = 1e-10


def _neg_log_r(params: ModelParams, u: float) -> float:
    """-log r(u) = u D(t_u||p) + (1-u) D(t_u||q), t_u the tilted law."""
    c = params._ratios
    p, pbar, q, qbar, gap, ell = c.p, c.pbar, c.q, c.qbar, c.gap, c.ell
    e = q * expm1(u * ell)
    d = qbar * e / (1.0 + e)  # t_u - q, as logit(t_u) - logit(q) = u log1p(x)
    g = d - gap  # t_u - p
    # g (g kl2), not g^2 kl2: a square of order (p - q)^2 underflows where I need not
    return u * (g * (g * _kl2(p, pbar, g))) + (1.0 - u) * (d * (d * _kl2(q, qbar, d)))


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
    c = params._ratios
    q, qbar, ell, s = c.q, c.qbar, c.ell, c.s
    z = s * ell / (q * (qbar - s * ell))
    return s * (1.0 + z * _h2(z)) / (qbar * (q + s * ell))  # (1 + z) q (1 - t*) = (1 - q) t*


def i_err_numeric(params: ModelParams) -> tuple[float, float]:
    """Minimize log r(u) numerically; returns (v_numeric, i_err).

    Bisection over [0, 1] down to V_NUMERIC_TOL (34 halvings) on the sign of dr/du =
    q a e^(ua) + (1-q) b e^(ub), a > 0 > b from the rate-ratio core.  Up to a - b = 1
    it reads dr/du / log1p(x)^2 = u (q A^2 E(ua) + (1-q) B^2 E(ub)) - s, E(t) = expm1(t)/t:
    nothing cancels, and s and the larger term, both of order p (1-p), are subnormal only
    where p (1-p) nearly is.  Past 1 that difference keeps too few digits where q is tiny
    (s then differs from the sum by about q a / log1p(x)^2), so it compares log(q a) + ua
    with log((1-q) |b|) + ub instead.
    """
    if params.lambda_b <= 0:
        raise ValueError("numeric exponent requires lambda_b > 0")
    c = params._ratios
    q, qbar, a, b, s = c.q, c.qbar, c.a, c.b, c.s
    wa, wb = q * c.big_a * c.big_a, qbar * c.big_b * c.big_b
    # log(q a) and log((1-q) |b|), the log-domain form's two intercepts
    logs = (log(q) + log(a), log(qbar) + log(-b)) if a - b > 1.0 else None
    lo, hi = 0.0, 1.0
    while hi - lo > V_NUMERIC_TOL:
        mid = 0.5 * (lo + hi)
        ua, ub = mid * a, mid * b
        if logs:
            falling = logs[0] + ua < logs[1] + ub
        else:
            falling = mid * (wa * (expm1(ua) / ua if ua else 1.0)
                             + wb * (expm1(ub) / ub if ub else 1.0)) < s
        if falling:
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
    r = params.lambda_b / params.mu / (lw + 1.0)
    return r * (r / (8.0 * lw))  # lb**2 and (lw + 1)**2 would leave the float range first


def exponent_report(params: ModelParams) -> dict:
    """The exponents for one point and the p, q fixing them, keyed as the report schema."""
    if params.lambda_b > 0:
        v_closed = v_closed_form(params)
        i_closed = _neg_log_r(params, v_closed)
        v_num, i_num = i_err_numeric(params)
    else:
        v_closed, i_closed, v_num, i_num = 0.5, 0.0, 0.5, 0.0
    return {
        "v_closed": v_closed,
        "v_numeric": v_num,
        "i_err_closed": i_closed,
        "i_err_numeric": i_num,
        "i_err_taylor": i_err_taylor(params),
        "p": params._ratios.p,
        "q": params._ratios.q,
    }


def _finite_report(params: ModelParams, rep: dict) -> dict:
    """`rep`, the exponent_report of params, checked before the CLI or a campaign writes it.

    Raises NonFiniteError naming the fields that are NaN or infinite, and
    the rates, where the float range cannot hold the report.
    """
    bad = [key for key, value in rep.items() if not isfinite(value)]
    if bad:
        raise NonFiniteError(
            f"exponent report has non-finite {', '.join(bad)} at (lambda_w, lambda_b, mu) = "
            f"({params.lambda_w!r}, {params.lambda_b!r}, {params.mu!r})")
    return rep
