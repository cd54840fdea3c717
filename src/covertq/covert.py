"""Covertness criterion and the bound on the covert insertion rate.

Covertness asks that the detector's total error stay at or above
1 - epsilon.  Approximating that error by K(N) * exp(-I_err * N) and
replacing the exponent with its small-rate expansion inverts into an
explicit ceiling on the covert arrival rate, which decays like
sqrt(log(K(N)) / N).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, log, sqrt
from typing import NamedTuple

from .exponent import i_err_closed, i_err_taylor
from .model import ModelParams, csv_text, parse_config

K_FAMILIES = ("constant", "power")


@dataclass(frozen=True)
class KFunction:
    """Sub-exponential prefactor family K(N) = k0 * N**(-alpha).

    family='constant' fixes alpha at 0.  Both families satisfy
    (1/N) log K(N) -> 0, the only constraint the theory places on K.
    """

    family: str = "constant"
    k0: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in K_FAMILIES:
            raise ValueError(f"family must be one of {K_FAMILIES}")
        if not 0 < self.k0 < inf:  # also false for NaN
            raise ValueError(f"k0 must be positive and finite, got {self.k0}")
        if not 0 <= self.alpha < inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if self.family == "constant" and self.alpha != 0.0:
            raise ValueError("constant family requires alpha = 0")

    def __call__(self, n: int) -> float:
        return self.k0 * float(n) ** (-self.alpha)

    def log_value(self, n: int) -> float:
        """log K(N) without forming N**alpha (safe at very large N)."""
        return log(self.k0) - self.alpha * log(float(n))


@dataclass(frozen=True)
class CovertnessSpec:
    epsilon: float
    n: int
    k: KFunction = KFunction()

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie strictly in (0,1), got {self.epsilon}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @classmethod
    def from_config(cls, text: str) -> "CovertnessSpec":
        kv = parse_config(text)
        try:
            k = KFunction(
                family=kv.get("k_family", "constant"),
                k0=float(kv.get("k0", 1.0)),
                alpha=float(kv.get("alpha", 0.0)),
            )
            return cls(epsilon=float(kv["epsilon"]), n=int(kv["n"]), k=k)
        except KeyError as exc:
            raise ValueError(f"config missing required key: {exc.args[0]}") from None


class BoundResult(NamedTuple):
    value: float
    feasible: bool


def max_covert_rate(lambda_w: float, spec: CovertnessSpec) -> BoundResult:
    """Largest covert insertion rate compatible with epsilon-covertness.

    Inverts the criterion K(N) exp(-I N) >= 1 - epsilon through the
    quadratic exponent approximation.  When K(N) <= 1 - epsilon the log
    is non-positive and no positive rate qualifies; the result is then
    (0, feasible=False).  Rates are in the mu = 1 normalization.
    """
    if not 0 < lambda_w < inf:  # also false for NaN
        raise ValueError(f"lambda_w must be positive and finite, got {lambda_w}")
    log_ratio = spec.k.log_value(spec.n) - log(1.0 - spec.epsilon)
    if log_ratio <= 0.0:
        return BoundResult(0.0, False)
    value = sqrt(8.0 * lambda_w * (lambda_w + 1.0) ** 2 / spec.n * log_ratio)
    return BoundResult(value, True)


@dataclass(frozen=True)
class CovertnessCheck:
    i_err: float
    p_e_raw: float        # K(N) exp(-I N), can exceed 1 at small N
    p_e_approx: float     # raw value clipped to [0, 1] for reporting
    covert: bool


def covertness_check(
    params: ModelParams, spec: CovertnessSpec, mode: str = "closed"
) -> CovertnessCheck:
    """Evaluate the covertness criterion with the chosen exponent."""
    if mode == "closed":
        i_err = i_err_closed(params)
    elif mode == "taylor":
        i_err = i_err_taylor(params)
    else:
        raise ValueError(f"mode must be 'closed' or 'taylor', got {mode!r}")
    raw = spec.k(spec.n) * exp(-i_err * spec.n)
    return CovertnessCheck(
        i_err=i_err,
        p_e_raw=raw,
        p_e_approx=min(max(raw, 0.0), 1.0),
        covert=raw >= 1.0 - spec.epsilon,
    )


def scaling_table(
    lambda_w: float, epsilon: float, k: KFunction, n_values: list[int]
) -> list[dict]:
    """Tabulate the covert-rate bound across N.

    Rows carry bound * sqrt(N) as well; for constant K that column is
    constant, the square-root law in explicit form.
    """
    if not n_values:
        raise ValueError("n_values must be non-empty")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    rows = []
    for n in n_values:
        bound = max_covert_rate(lambda_w, CovertnessSpec(epsilon=epsilon, n=n, k=k))
        rows.append(
            {
                "n": n,
                "k_of_n": k(n),
                "bound": bound.value,
                "bound_times_sqrt_n": bound.value * sqrt(n),
                "feasible": bound.feasible,
            }
        )
    return rows


def scaling_table_csv(rows: list[dict]) -> str:
    return csv_text(
        ("N", "K_of_N", "bound", "bound_times_sqrtN"),
        [(r["n"], r["k_of_n"], r["bound"], r["bound_times_sqrt_n"]) for r in rows],
    )
