"""Monte Carlo campaigns across N with decay-rate fitting.

For each point on the N grid the campaign computes false-alarm, miss and
total error probabilities, either exactly (binomial oracle) or by Monte
Carlo through the event simulator, then fits log-error versus N by least
squares.  The fitted slope of the total error should track the negative
analytical exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log

from .detect import _check_trials, exact_error_probabilities, monte_carlo_error
from .exponent import _finite_report, exponent_report
from .model import ModelParams, csv_text, json_text, write_text
from .sim import RngSeed

# 2: Monte Carlo rows come from the time-major simulator, whose draw order
# differs from version 1 at the same seed.
# 3: the Monte Carlo rows of a campaign are nested windows of one simulation
# keyed on the longest window, so at the same seed only that row keeps its
# version-2 value.
# 4: each Monte Carlo block runs in two halves, each simulating both
# hypotheses on one set of draws, so every Monte Carlo row differs from
# version 3 at the same seed.
# Still 4: the Monte Carlo recursion on residual work in mean gaps rounds
# apart from the clock it replaced only where a clock's last bit straddled
# a departure, and no recorded output or pinned count moved.
# 5: exponent_ref keeps p and q in place of the seven coefficients A..D, a..c
# that restated them; the rows are those of version 4.
# Still 5: the exponent forms its products of order (p - q)^2 as d (d kl2),
# which moves only last digits of exponent_ref; keys and meaning are unchanged.
RESULT_FORMAT_VERSION = 5

_CONFIG_KEYS = ("lambda_w", "lambda_b", "mu", "n_grid", "trials_per_point",
                "threshold", "master_seed", "stream_id", "use_exact_when_feasible")
_CONFIG_BOOLS = {"true": True, "false": False, "yes": True, "no": False,
                 "1": True, "0": False}


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored, no key twice."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


@dataclass(frozen=True)
class CampaignConfig:
    params: ModelParams
    n_grid: tuple[int, ...]
    trials_per_point: int
    threshold: float = 0.0
    master_seed: RngSeed = RngSeed(0)
    use_exact_when_feasible: bool = True
    workers: int = 1

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not grid:
            raise ValueError("n_grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if grid[0] < 1:
            raise ValueError(f"n_grid values must be >= 1, got {grid[0]}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be positive")
        if not isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self._exact:  # the simulation's streams bound its trials
            _check_trials(self.trials_per_point)

    @property
    def _exact(self) -> bool:
        """Whether run_campaign computes every row exactly, not by Monte Carlo."""
        return self.use_exact_when_feasible and self.params.lambda_b > 0

    def to_dict(self) -> dict:
        """The `config` block of a result file.

        `workers` is not written: results are bit-identical at any worker
        count.
        """
        p, seed = self.params, self.master_seed
        return {
            "lambda_w": p.lambda_w, "lambda_b": p.lambda_b, "mu": p.mu,
            "n_grid": list(self.n_grid), "trials_per_point": self.trials_per_point,
            "threshold": self.threshold,
            "master_seed": seed.seed, "master_stream": seed.stream_id,
            "use_exact_when_feasible": self.use_exact_when_feasible,
        }

    @classmethod
    def from_config(cls, text: str, workers: int = 1) -> "CampaignConfig":
        """Read `key = value` text; an unknown, missing or bad key raises ValueError.

        Optional keys default to mu 1, threshold 0, stream_id 0 and
        use_exact_when_feasible true (true/false/yes/no/1/0, any case).
        """
        kv = parse_config(text)
        unknown = [key for key in kv if key not in _CONFIG_KEYS]
        if unknown:
            raise ValueError(f"unknown config key: {', '.join(unknown)}")
        exact = kv.get("use_exact_when_feasible", "true")
        try:
            if exact.lower() not in _CONFIG_BOOLS:
                raise ValueError(f"use_exact_when_feasible: {exact!r} is not a boolean")
            return cls(
                params=ModelParams(float(kv["lambda_w"]), float(kv["lambda_b"]),
                                   float(kv.get("mu", 1.0))),
                n_grid=tuple(int(s) for s in kv["n_grid"].split(",")),
                trials_per_point=int(kv["trials_per_point"]),
                threshold=float(kv.get("threshold", 0.0)),
                master_seed=RngSeed(int(kv["master_seed"]), int(kv.get("stream_id", 0))),
                use_exact_when_feasible=_CONFIG_BOOLS[exact.lower()],
                workers=workers,
            )
        except KeyError as exc:
            raise ValueError(f"config missing required key: {exc.args[0]}") from None
        except ValueError as exc:
            raise ValueError(f"bad config value: {exc}") from None


def _row_stream(master: RngSeed, n: int) -> int:
    # Streams keyed by n only.  Every Monte Carlo row reads the one
    # simulation keyed on the longest window, so a grid point added at or
    # below it perturbs no other row; one added above it moves them all.
    # The detect module offsets per hypothesis and block within a
    # 2**24-wide window per stream.
    return master.stream_id + (n + 1) * 2**24


def _fit_slope(ns: list[int], ps: list[float], floor: float) -> float | None:
    xs = [n for n, p in zip(ns, ps) if p > floor]
    if len(xs) < 3:
        return None
    ys = [log(p) for p in ps if p > floor]
    # centred least squares on logs shifted to the first kept point: the
    # slope is unchanged, and a flat series fits exactly 0 rather than its
    # log's round-off (+ 0.0 turns a -0.0 slope into 0.0)
    xbar, ybar = sum(xs) / len(xs), sum(y - ys[0] for y in ys) / len(ys)
    sxy = sum((x - xbar) * (y - ys[0] - ybar) for x, y in zip(xs, ys))
    return sxy / sum((x - xbar) ** 2 for x in xs) + 0.0


def run_campaign(cfg: CampaignConfig) -> dict:
    """Estimate error probabilities at every grid point and fit decay rates.

    Returns the `campaign_result` document the campaign command writes;
    its exponent_ref is None at lambda_b = 0.
    """
    exact_ok = cfg._exact
    master = cfg.master_seed
    if exact_ok:
        streams = [_row_stream(master, n) for n in cfg.n_grid]
        eps = [exact_error_probabilities(cfg.params, n, cfg.threshold) for n in cfg.n_grid]
    else:  # one simulation, up to the longest window, serves every row
        streams = [_row_stream(master, cfg.n_grid[-1])] * len(cfg.n_grid)
        eps = monte_carlo_error(cfg.params, cfg.n_grid, cfg.threshold, cfg.trials_per_point,
                                master.with_stream(streams[0]), workers=cfg.workers)
    rows = [{"n": n, **ep, "trials": cfg.trials_per_point, "seed": stream,
             "method": "exact" if exact_ok else "mc"}
            for n, ep, stream in zip(cfg.n_grid, eps, streams)]

    ns = [r["n"] for r in rows]
    # Exact rows are reliable down to tiny probabilities; Monte Carlo rows
    # only down to ~10 observed errors.
    floor = 0.0 if exact_ok else 10.0 / cfg.trials_per_point
    return {
        "version": RESULT_FORMAT_VERSION,
        "rows": rows,
        "fitted_slope_f": _fit_slope(ns, [r["p_f"] for r in rows], floor),
        "fitted_slope_m": _fit_slope(ns, [r["p_m"] for r in rows], floor),
        "fitted_slope_e": _fit_slope(ns, [r["p_e"] for r in rows], floor),
        "exponent_ref": (_finite_report(cfg.params, exponent_report(cfg.params))
                         if cfg.params.lambda_b > 0 else None),
        "config": cfg.to_dict(),
    }


def threshold_sweep(
    params: ModelParams,
    n: int,
    thresholds: list[float],
    trials: int | None = None,
    seed: RngSeed | None = None,
) -> list[dict]:
    """Error trade-off across detection thresholds.

    Exact binomial evaluation by default; pass `trials` (and a seed) for
    the Monte Carlo path instead, where one simulation serves every threshold.
    """
    if trials is None:
        eps = [exact_error_probabilities(params, n, gamma) for gamma in thresholds]
    elif seed is None:
        raise ValueError("Monte Carlo sweep requires a seed")
    else:
        eps = monte_carlo_error(params, n, tuple(thresholds), trials, seed) if thresholds else []
    return [{"gamma": gamma, "p_f": ep["p_f"], "p_m": ep["p_m"], "p_e": ep["p_e"]}
            for gamma, ep in zip(thresholds, eps)]


# --- persistence ----------------------------------------------------------

def result_to_json(result: dict) -> str:
    return json_text(result, indent=1)


def persist(result: dict, path) -> None:
    """No command calls this; perfbench/spans.py wraps it by name until it is retargeted."""
    write_text(path, result_to_json(result))


def rows_to_csv(result: dict) -> str:
    # seed and method are JSON-only
    header = ("n", "p_f", "p_m", "p_e", "se_f", "se_m", "trials")
    return csv_text(header, [[r[f] for f in header] for r in result["rows"]])
