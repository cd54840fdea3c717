"""Write refs.json: high-precision reference values for the output checks.

Run once from the repository root with `python3 perfbench/make_refs.py`.
It uses mpmath only, never covertq, so the references are independent of
the code under test.  Rates enter as the exact binary values of the
floats the CLI receives.

Error probabilities follow the threshold test on the binomial idle count
K over N symbols: decide H0 when K*c_idle + (N-K)*c_busy >= gamma, with
c_idle = log(p/q), c_busy = log((1-p)/(1-q)).  The LLR is increasing in K,
so the test is a cut k*: p_f = P_p(K < k*) and p_m = P_q(K >= k*).  Each
tail is summed outward from the cut by the pmf ratio recursion; once the
terms shrink geometrically the remainder is bounded by t*r/(1-r) and the
sum stops below 10^-(DPS-5) relative.
"""

from __future__ import annotations

import json

import mpmath as mp

import workloads as wl

DPS = 60


def _rates(lw: float, lb: float, mu: float):
    lw, lb, mu = mp.mpf(lw), mp.mpf(lb), mp.mpf(mu)
    return mu / (lw + mu), mu / (lw + lb + mu)


def _cut(n: int, p, q, gamma) -> int:
    c_idle, c_busy = mp.log(p / q), mp.log((1 - p) / (1 - q))
    k = int(mp.ceil((gamma - n * c_busy) / (c_idle - c_busy)))
    return min(max(k, 0), n + 1)


def _pmf(n: int, k: int, prob):
    return mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
                  + k * mp.log(prob) + (n - k) * mp.log1p(-prob))


def _tail(n: int, prob, start: int, step: int):
    """Sum of pmf(k) for k = start, start+step, ... inside [0, n]."""
    if not 0 <= start <= n:
        return mp.mpf(0)
    odds = prob / (1 - prob)
    k, t = start, _pmf(n, start, prob)
    total = t
    eps = mp.mpf(10) ** (5 - DPS)
    while 0 <= k + step <= n:
        r = (mp.mpf(n - k) / (k + 1) * odds) if step > 0 else (k / mp.mpf(n - k + 1) / odds)
        k += step
        t *= r
        total += t
        if r < 1 and t * r / (1 - r) < eps * total:
            break
    return total


def error_probabilities(lw: float, lb: float, mu: float, n: int, gamma: float):
    p, q = _rates(lw, lb, mu)
    k = _cut(n, p, q, mp.mpf(gamma))
    p_f = _tail(n, p, k - 1, -1)
    p_m = _tail(n, q, k, +1)
    return {"p_f": p_f, "p_m": p_m, "p_e": (p_f + p_m) / 2}


def bound(lw: float, epsilon: float, n: int):
    lw = mp.mpf(lw)
    log_ratio = -mp.log1p(-mp.mpf(epsilon))  # K(N) = 1
    b = mp.sqrt(8 * lw * (lw + 1) ** 2 / n * log_ratio)
    return {"bound": b, "bound_times_sqrt_n": b * mp.sqrt(n)}


def _s(d: dict) -> dict:
    return {k: mp.nstr(v, 30, min_fixed=0, max_fixed=0) for k, v in d.items()}


def main() -> None:
    mp.mp.dps = DPS
    p = (wl.LAMBDA_W, wl.LAMBDA_B, wl.MU)
    refs = {
        "dps": DPS,
        "mc_campaign": {str(n): _s(error_probabilities(*p, n, 0.0)) for n in wl.MC_GRID},
        "exact_campaign": {str(n): _s(error_probabilities(*p, n, 0.0))
                           for n in wl.EXACT_GRID},
        "sweep": {
            wl.rate_key(lw, lb): {
                repr(g): _s(error_probabilities(lw, lb, wl.MU, wl.SWEEP_N, g))
                for g in wl.THRESHOLDS
            }
            for lw in wl.SWEEP_LW for lb in wl.SWEEP_LB
        },
        "bound": {
            wl.rate_key(lw): {str(n): _s(bound(lw, wl.BOUND_EPSILON, n))
                              for n in wl.BOUND_N}
            for lw in wl.SWEEP_LW
        },
    }
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
