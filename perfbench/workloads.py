"""Workload definitions, input generation and output checks.

Nothing here imports covertq, so the set-up probe can time that import
on its own.  Every input is derived from the workload seed: the same
seed writes the same files and the same argv lists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

LAMBDA_W, LAMBDA_B, MU = 0.3, 0.2, 1.0

# mc_campaign: one block per hypothesis per point (trials < MC_BLOCK_SIZE),
# so the two worker threads each get one block.  trials x (N+1) float64
# arrays per worker stay near 64 MB at N = 2000.
MC_GRID = (250, 500, 1000, 2000)
MC_TRIALS = 4000
MC_THREADS = 2

# exact_campaign: 13 log-spaced points, 3 per decade, 1e3 .. 1e7.
EXACT_GRID = tuple(int(round(10 ** (3 + i / 3))) for i in range(13))

# cli_oneshot: the 5 x 6 rate grid, a 1e6-arrival simulate/detect pair and
# one bound table per lambda_w.
SWEEP_LW = (0.05, 0.1, 0.2, 0.3, 0.5)
SWEEP_LB = (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2)
SWEEP_N = 1000
THRESHOLDS = (-2.0, -1.0, 0.0, 1.0, 2.0)
SIM_N = 1_000_000
BOUND_EPSILON = 0.1
BOUND_N = tuple(10**k for k in range(1, 9))

WORKLOADS = ("mc_campaign", "exact_campaign", "cli_oneshot")
THREADS = {"mc_campaign": MC_THREADS, "exact_campaign": 1, "cli_oneshot": 1}

EXACT_RTOL = 1e-9
MC_SIGMAS = 5.0
# Simulated busy fraction must sit within this many standard errors of
# the analytic busy probability.
SIM_SIGMAS = 6.0

CAMPAIGN_CSV_HEADER = ["n", "p_f", "p_m", "p_e", "se_f", "se_m", "trials"]
EXPONENT_CSV_HEADER = ("lambda_w,lambda_b,mu,v,i_err_closed,i_err_numeric,"
                       "i_err_taylor")

REFS_PATH = Path(__file__).with_name("refs.json")


def rate_key(*values: float) -> str:
    return ",".join(repr(float(v)) for v in values)


@dataclass
class Call:
    """One `covertq.cli.main(argv)` call and what its output is checked for."""

    argv: list[str]
    kind: str
    meta: dict = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(48) for _ in range(count)]


def _rates(lw: float, lb: float) -> list[str]:
    return ["--lambda-w", repr(lw), "--lambda-b", repr(lb)]


def _campaign_config(grid, trials: int, master_seed: int, exact: bool) -> str:
    return (
        f"lambda_w = {LAMBDA_W!r}\n"
        f"lambda_b = {LAMBDA_B!r}\n"
        f"mu = {MU!r}\n"
        f"n_grid = {','.join(str(n) for n in grid)}\n"
        f"trials_per_point = {trials}\n"
        f"master_seed = {master_seed}\n"
        f"use_exact_when_feasible = {'true' if exact else 'false'}\n"
    )


def make_inputs(workload: str, seed: int, tmp: Path) -> list[Call]:
    """Write the workload's input files into `tmp` and return its call list."""
    if workload == "mc_campaign":
        (master,) = _seeds(seed, 1)
        cfg = tmp / "mc.cfg"
        cfg.write_text(_campaign_config(MC_GRID, MC_TRIALS, master, exact=False))
        out = str(tmp / "mc")
        return [Call(["campaign", str(cfg), "--out", out, "--threads", str(MC_THREADS)],
                     "campaign", {"out": out, "method": "mc"})]
    if workload == "exact_campaign":
        (master,) = _seeds(seed, 1)
        cfg = tmp / "exact.cfg"
        cfg.write_text(_campaign_config(EXACT_GRID, 1, master, exact=True))
        out = str(tmp / "exact")
        return [Call(["campaign", str(cfg), "--out", out], "campaign",
                     {"out": out, "method": "exact"})]
    if workload == "cli_oneshot":
        calls = _cli_script(seed, tmp)
        (tmp / "script.json").write_text(
            json.dumps([[c.argv, c.kind, c.meta] for c in calls]))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def _cli_script(seed: int, tmp: Path) -> list[Call]:
    calls = []
    seed_h0, seed_h1 = _seeds(seed, 2)
    rates = _rates(LAMBDA_W, LAMBDA_B)
    for hyp, s in (("h0", seed_h0), ("h1", seed_h1)):
        path = str(tmp / f"{hyp}.txt")
        calls.append(Call(["simulate", *rates, "--n", str(SIM_N), "--hyp", hyp,
                           "--seed", str(s), "--out", path],
                          "simulate", {"path": path, "hyp": hyp}))
    for hyp in ("h0", "h1"):
        calls.append(Call(["detect", *rates, str(tmp / f"{hyp}.txt")],
                          "detect", {"hyp": hyp}))
    thresholds = "--thresholds=" + ",".join(repr(g) for g in THRESHOLDS)
    for lw in SWEEP_LW:
        for lb in SWEEP_LB:
            r = _rates(lw, lb)
            meta = {"lw": lw, "lb": lb}
            calls.append(Call(["exponent", *r, "--self-check"], "exponent_json", meta))
            calls.append(Call(["exponent", *r, "--output", "csv"], "exponent_csv", meta))
            calls.append(Call(["sweep", *r, "--n", str(SWEEP_N), thresholds],
                              "sweep_json", meta))
            calls.append(Call(["sweep", *r, "--n", str(SWEEP_N), thresholds,
                               "--output", "csv"], "sweep_csv", meta))
    n_values = ",".join(str(n) for n in BOUND_N)
    for lw in SWEEP_LW:
        calls.append(Call(["bound", "--lambda-w", repr(lw), "--epsilon",
                           repr(BOUND_EPSILON), "--n-values", n_values],
                          "bound", {"lw": lw}))
    return calls


def arrivals(call: Call) -> int:
    """Arrivals the call simulates: trials x (n + burn_in) per hypothesis."""
    if call.kind == "simulate":
        return SIM_N + 1
    if call.kind == "campaign" and call.meta["method"] == "mc":
        return 2 * MC_TRIALS * sum(n + 1 for n in MC_GRID)
    return 0


# --- output checks ---------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-RFC JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_exact(value: float, ref: str) -> str | None:
    """`value` against a high-precision reference given as a decimal string.

    A reference below the smallest normal double must print as 0.0;
    otherwise the relative error must stay within EXACT_RTOL.
    """
    r = float(ref)
    if r < sys.float_info.min:
        return None if value == 0.0 else f"{value!r} should be 0.0 (ref {ref})"
    if not math.isfinite(value) or abs(value - r) > EXACT_RTOL * r:
        return f"{value!r} vs ref {ref} (rel {abs(value - r) / r:.3g})"
    return None


def check_mc(value: float, ref: str, trials: int, pooled: int = 1) -> str | None:
    """MC estimate within MC_SIGMAS binomial standard errors plus 1/trials.

    The standard error comes from the exact p; `pooled` is how many
    independent estimates the value averages (2 for p_e).
    """
    p = float(ref)
    tol = MC_SIGMAS * math.sqrt(p * (1.0 - p) / (pooled * trials)) + 1.0 / trials
    if not abs(value - p) <= tol:
        return f"MC {value!r} vs exact {p!r} beyond {tol:.3g}"
    return None


class Checker:
    """Validates each call's outputs; state carries across one run."""

    def __init__(self, schema_dir: Path, refs: dict):
        import jsonschema

        self.refs = refs
        self.validators = {
            p.name.removesuffix(".schema.json"): jsonschema.Draft202012Validator(
                json.loads(p.read_text()))
            for p in schema_dir.glob("*.schema.json")
        }
        self.exponent_json: dict[str, dict] = {}
        self.first_bytes: dict[str, bytes] = {}

    def _schema(self, name: str, doc) -> list[str]:
        return [f"{name} schema: {e.message}"
                for e in self.validators[name].iter_errors(doc)]

    def check(self, call: Call, stdout: str, stderr: str) -> list[str]:
        try:
            return getattr(self, "_" + call.kind)(call, stdout, stderr)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                OSError) as exc:
            return [f"{call.kind}: unreadable output: {exc!r}"]

    def _simulate(self, call, stdout, stderr):
        line = Path(call.meta["path"]).read_text()
        if len(line) != SIM_N + 1 or not line.endswith("\n"):
            return [f"simulate wrote {len(line)} characters, want {SIM_N} + newline"]
        busy = float(stderr.split("busy_fraction:")[1].split()[0])
        lam = LAMBDA_W + (LAMBDA_B if call.meta["hyp"] == "h1" else 0.0)
        expect = lam / (lam + MU)
        se = math.sqrt(expect * (1.0 - expect) / SIM_N)
        if abs(busy - expect) > SIM_SIGMAS * se:
            return [f"busy fraction {busy} vs {expect:.6f}"]
        return []

    def _detect(self, call, stdout, stderr):
        doc = strict_json(stdout)
        errs = self._schema("llr_result", doc)
        if doc.get("decision") != call.meta["hyp"].upper():
            errs.append(f"detect decided {doc.get('decision')} on {call.meta['hyp']}")
        if doc.get("n") != SIM_N:
            errs.append(f"detect saw n={doc.get('n')}")
        return errs

    def _exponent_json(self, call, stdout, stderr):
        doc = strict_json(stdout)
        self.exponent_json[rate_key(call.meta["lw"], call.meta["lb"])] = doc
        return self._schema("exponent_report", doc)

    def _exponent_csv(self, call, stdout, stderr):
        header, values, *rest = stdout.splitlines()
        if header != EXPONENT_CSV_HEADER or rest:
            return [f"exponent csv layout: {stdout[:80]!r}"]
        v = [float(s) for s in values.split(",")]
        if not all(math.isfinite(x) for x in v):
            return [f"exponent csv non-finite: {values}"]
        if v[:3] != [call.meta["lw"], call.meta["lb"], MU]:
            return [f"exponent csv rates {v[:3]}"]
        doc = self.exponent_json.get(rate_key(call.meta["lw"], call.meta["lb"]))
        if doc is not None and v[3:] != [doc["v_closed"], doc["i_err_closed"],
                                         doc["i_err_numeric"], doc["i_err_taylor"]]:
            return ["exponent csv disagrees with the JSON report"]
        return []

    def _sweep_rows(self, call, rows) -> list[str]:
        refs = self.refs["sweep"][rate_key(call.meta["lw"], call.meta["lb"])]
        if [r["gamma"] for r in rows] != list(THRESHOLDS):
            return [f"sweep gammas {[r['gamma'] for r in rows]}"]
        errs = []
        for r in rows:
            ref = refs[repr(r["gamma"])]
            for f in ("p_f", "p_m", "p_e"):
                e = check_exact(r[f], ref[f])
                if e:
                    errs.append(f"sweep {rate_key(call.meta['lw'], call.meta['lb'])} "
                                f"gamma={r['gamma']} {f}: {e}")
        return errs

    def _sweep_json(self, call, stdout, stderr):
        rows = strict_json(stdout)
        return self._schema("sweep", rows) or self._sweep_rows(call, rows)

    def _sweep_csv(self, call, stdout, stderr):
        lines = stdout.splitlines()
        if lines[0] != "gamma,p_f,p_m,p_e":
            return [f"sweep csv header {lines[0]!r}"]
        rows = [dict(zip(("gamma", "p_f", "p_m", "p_e"), map(float, ln.split(","))))
                for ln in lines[1:]]
        return self._sweep_rows(call, rows)

    def _bound(self, call, stdout, stderr):
        rows = strict_json(stdout)
        errs = self._schema("bound", rows)
        if errs:
            return errs
        if [r["n"] for r in rows] != list(BOUND_N):
            return [f"bound n column {[r['n'] for r in rows]}"]
        refs = self.refs["bound"][rate_key(call.meta["lw"])]
        for r in rows:
            if r["k_of_n"] != 1.0 or r["feasible"] is not True:
                errs.append(f"bound n={r['n']}: k_of_n/feasible {r}")
            for f in ("bound", "bound_times_sqrt_n"):
                e = check_exact(r[f], refs[str(r["n"])][f])
                if e:
                    errs.append(f"bound lw={call.meta['lw']} n={r['n']} {f}: {e}")
        return errs

    def _campaign(self, call, stdout, stderr):
        out = call.meta["out"]
        raw = Path(out + ".json").read_bytes()
        csv_text = Path(out + ".csv").read_text()
        first = self.first_bytes.setdefault(out, raw + csv_text.encode())
        errs = [] if first == raw + csv_text.encode() else [
            "campaign output bytes differ from the first call of this run"]
        doc = strict_json(raw.decode())
        errs += self._schema("campaign_result", doc)
        if errs:
            return errs
        method = call.meta["method"]
        grid = MC_GRID if method == "mc" else EXACT_GRID
        rows = doc["rows"]
        if [r["n"] for r in rows] != list(grid) or any(r["method"] != method
                                                       for r in rows):
            return [f"campaign rows {[(r['n'], r['method']) for r in rows]}"]
        refs = self.refs[f"{method}_campaign"]
        for r in rows:
            for f in ("p_f", "p_m", "p_e"):
                ref = refs[str(r["n"])][f]
                if method == "exact":
                    e = check_exact(r[f], ref)
                else:
                    e = check_mc(r[f], ref, MC_TRIALS, 2 if f == "p_e" else 1)
                if e:
                    errs.append(f"{method} campaign n={r['n']} {f}: {e}")
        table = list(csv.reader(io.StringIO(csv_text)))
        want = [CAMPAIGN_CSV_HEADER] + [
            [str(r["n"]), *(repr(r[f]) for f in ("p_f", "p_m", "p_e", "se_f", "se_m")),
             str(r["trials"])] for r in rows]
        if table != want:
            errs.append("campaign CSV disagrees with the JSON rows")
        return errs
