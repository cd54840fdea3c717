"""Covertness criterion and the bound on the covert insertion rate.

Covertness asks that the detector's total error stay at or above
1 - epsilon.  Approximating that error by exp(-I_err * N) and replacing
the exponent with its small-rate expansion inverts into an explicit
ceiling on the covert arrival rate, which decays like
sqrt(-log1p(-epsilon) / N).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, log1p, sqrt

from .exponent import i_err_closed, i_err_taylor
from .model import ModelParams, csv_text


@dataclass(frozen=True)
class CovertnessSpec:
    epsilon: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie strictly in (0,1), got {self.epsilon}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def max_covert_rate(lambda_w: float, spec: CovertnessSpec) -> dict:
    """Largest covert insertion rate compatible with epsilon-covertness.

    Inverts the criterion exp(-I N) >= 1 - epsilon through the quadratic
    exponent approximation.  Returns the single-N `bound` document
    {"n", "bound", "feasible"}; -log1p(-epsilon) > 0 for every epsilon
    in (0, 1), so "feasible" is true.  Rates are in the mu = 1 normalization.
    """
    if not 0 < lambda_w < inf:  # also false for NaN
        raise ValueError(f"lambda_w must be positive and finite, got {lambda_w}")
    # one root per factor, so no product under a root can underflow (epsilon = 5e-324)
    root = sqrt(8.0 * lambda_w) / sqrt(spec.n) * sqrt(-log1p(-spec.epsilon))
    return {"n": spec.n, "bound": (lambda_w + 1.0) * root, "feasible": True}


def covertness_check(
    params: ModelParams, spec: CovertnessSpec, mode: str = "closed"
) -> dict:
    """Evaluate the covertness criterion with the chosen exponent.

    p_e_raw = exp(-I N), which lies in [0, 1].
    """
    if mode == "closed":
        i_err = i_err_closed(params)
    elif mode == "taylor":
        i_err = i_err_taylor(params)
    else:
        raise ValueError(f"mode must be 'closed' or 'taylor', got {mode!r}")
    raw = exp(-i_err * spec.n)
    return {"i_err": i_err, "p_e_raw": raw, "covert": raw >= 1.0 - spec.epsilon}


def scaling_table(
    lambda_w: float, epsilon: float, n_values: list[int]
) -> list[dict]:
    """Tabulate the covert-rate bound across N.

    Each row is the `max_covert_rate` document plus K(N) = 1 and bound *
    sqrt(N); that column is constant, the square-root law in explicit form.
    """
    if not n_values:
        raise ValueError("n_values must be non-empty")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    rows = []
    for n in n_values:
        row = max_covert_rate(lambda_w, CovertnessSpec(epsilon=epsilon, n=n))
        rows.append({**row, "k_of_n": 1.0, "bound_times_sqrt_n": row["bound"] * sqrt(n)})
    return rows


def scaling_table_csv(rows: list[dict]) -> str:
    return csv_text(
        ("N", "K_of_N", "bound", "bound_times_sqrtN"),
        [(r["n"], r["k_of_n"], r["bound"], r["bound_times_sqrt_n"]) for r in rows],
    )
