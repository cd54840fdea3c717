"""covertq benchmark.

One workload per process:

    python3 perfbench/run.py --workload mc_campaign --seed 1 --seconds 20 --trace 0

drives the CLI in-process through `covertq.cli.main(argv)`, repeats the
workload's call list until `--seconds` have passed, checks every output,
and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run alternates untraced and traced passes and reports per-layer metrics
from the traced ones, plus `trace.overhead`.

A shared host's speed can drift by 20-40% over tens of seconds.  So a
fixed reference kernel (a pure-Python loop plus a gammaln pass over a
fresh array, the latter on as many threads as the workload uses) is timed
before every pass and after the last, and each pass's times are rescaled
by CAL_NOMINAL_S over the mean of the two reference times around it.  The
`*_ref_*` metrics are those rescaled times: seconds on a host where the
reference kernel takes CAL_NOMINAL_S.  The raw times are reported too.

The line before the last holds the full report and provenance.  `--out
DIR` also writes that report, with every recorded span, to a JSON file
in DIR.

All three workloads, each in a fresh process, traced and untraced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

# Reference kernel: CAL_REPS runs of each part, medians summed.
# CAL_NOMINAL_S is about its single-thread time on an idle 2-vCPU Xeon VM
# (2.0 GHz nominal).
CAL_LOOP = 300_000
CAL_ARRAY = 1_000_000
CAL_REPS = 3
CAL_NOMINAL_S = 0.040

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref_s": "s", "call_p50_ref_ms": "ms",
    "call_p90_ref_ms": "ms", "cpu_ref_s": "s", "peak_rss_mb": "MB",
    "wall_s": "s", "call_p50_ms": "ms", "call_p90_ms": "ms", "cpu_s": "s",
    "arrivals_per_s": "1/s", "cal_s": "s",
}
# The end-to-end metrics in the result line: rescaled to the reference
# speed, defined and nonzero on every workload.  arrivals_per_s is 0 on
# exact_campaign and call_p90 needs 100 calls, so those appear in the
# report line only, with the raw times and the median reference time.
RESULT_END_TO_END = ("setup_s", "wall_ref_s", "call_p50_ref_ms", "cpu_ref_s",
                     "peak_rss_mb")
P90_MIN_CALLS = 100
P90_MIN_TAIL = 10

PER_LAYER_UNITS = {
    "cli.calls": "count", "cli.self_s": "s",
    "experiment.campaign.self_s": "s", "experiment.io_s": "s",
    "experiment.io_bytes": "B", "experiment.sweep.self_s": "s",
    "detect.exact.calls": "count", "detect.exact.busy_s": "s",
    "detect.exact.ns_per_symbol": "ns", "detect.exact.peak_alloc_mb": "MB",
    "detect.mc.calls": "count", "detect.mc.blocks": "count",
    "detect.mc.self_s": "s", "detect.mc.parallel_eff": "ratio",
    "detect.llr.busy_s": "s",
    "sim.batch.calls": "count", "sim.batch.arrivals": "count",
    "sim.batch.busy_s": "s", "sim.batch.rng_s": "s",
    "sim.recursion.busy_s": "s", "sim.batch.peak_alloc_mb": "MB",
    "sim.batch.bytes_computed": "B",
    "sim.single.calls": "count", "sim.single.busy_s": "s", "sim.line_io_s": "s",
    "exponent.report.calls": "count", "exponent.report.busy_s": "s",
    "exponent.r_evals": "count",
    "covert.bound.calls": "count", "covert.bound.busy_s": "s",
    "trace.overhead": "ratio",
}
LAYERS = ("cli", "experiment", "detect", "sim", "exponent", "covert")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="directory for the report and span file")
    p.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- provenance ----------------------------------------------------------------


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    import covertq

    return {
        "git_sha": git_sha(ROOT),
        "covertq": covertq.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": wl.THREADS[workload],
        "workload": workload,
        "seed": seed,
    }


# --- running calls ---------------------------------------------------------------


class Runner:
    """Runs one workload's call list and checks each output."""

    def __init__(self, calls: list[wl.Call], checker: wl.Checker):
        self.calls = calls
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, c: wl.Call) -> tuple[float, float]:
        import covertq.cli

        out, err = io.StringIO(), io.StringIO()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = covertq.cli.main(c.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed call, never an abort
                raised = traceback.format_exc(limit=3)
                rc = None
            t1, c1 = time.perf_counter(), time.process_time()
        self.attempted += 1
        if raised is not None:
            problems = [f"raised: {raised}"]
        else:
            problems = self.checker.check(c, out.getvalue(), err.getvalue())
        self.errors += [f"{' '.join(c.argv[:3])}: {e}" for e in problems]
        if problems or rc != 0:
            self.failed += 1
        return t1 - t0, c1 - c0

    def unit(self) -> dict:
        """One pass over the call list; times cover the calls only."""
        times, cpu = [], 0.0
        for c in self.calls:
            dt, dc = self.call(c)
            times.append(dt)
            cpu += dc
        return {"wall": sum(times), "cpu": cpu, "calls": times,
                "arrivals": sum(wl.arrivals(c) for c in self.calls)}

    @property
    def correct(self) -> bool:
        # A call may exit nonzero with correct output (the exponent
        # self-check reporting its own disagreement): that counts in
        # `failed` but does not make the outputs incorrect.
        return not self.errors


def _cal_loop() -> int:
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return total


def _cal_array() -> float:
    import numpy as np
    from scipy.special import gammaln

    k = np.arange(CAL_ARRAY + 1, dtype=float)
    return float(np.sum(gammaln(k + 1.0) - k * 0.5))


def _cal_array_threads(threads: int) -> None:
    """The array part on `threads` threads at once (gammaln releases the GIL)."""
    workers = [threading.Thread(target=_cal_array) for _ in range(threads - 1)]
    for t in workers:
        t.start()
    _cal_array()
    for t in workers:
        t.join()


def calibrate(threads: int = 1) -> tuple[float, float]:
    """Wall and CPU seconds of the reference kernel, its array part run on
    as many threads as the workload uses; CPU time is per thread."""
    array = _cal_array if threads == 1 else lambda: _cal_array_threads(threads)
    walls, cpus = [], []
    for part in (_cal_loop, array):
        w, c = [], []
        for _ in range(CAL_REPS):
            c0, t0 = time.process_time(), time.perf_counter()
            part()
            w.append(time.perf_counter() - t0)
            c.append(time.process_time() - c0)
        walls.append(statistics.median(w))
        cpus.append(statistics.median(c) / (threads if part is array else 1))
    return sum(walls), sum(cpus)


def measure_setup(workload: str, seed: int, tmp: Path) -> list[float]:
    """Wall time of fresh processes that import covertq and write the inputs."""
    times = []
    for i in range(SETUP_PROBES):
        d = tmp / f"setup{i}"
        d.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", str(d)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # A blocking wait: wait(timeout=...) polls in steps of up to 50 ms,
        # which would round every probe to that step.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return times


def timed_unit(runner: Runner, cal: list[tuple[float, float]], threads: int,
               tracer=None) -> dict:
    """One pass, then the reference kernel; the pass keeps the mean of the
    reference times before and after it as `cal_wall`/`cal_cpu`."""
    unit = runner.unit() if tracer is None else traced_unit(runner, tracer)
    cal.append(calibrate(threads))
    (w0, c0), (w1, c1) = cal[-2:]
    unit["cal_wall"], unit["cal_cpu"] = (w0 + w1) / 2, (c0 + c1) / 2
    return unit


def _percentiles(calls: list[float]) -> tuple[float, float | None]:
    tail = len(calls) - int(0.9 * len(calls))
    p90 = (statistics.quantiles(calls, n=10)[-1] * 1e3
           if len(calls) >= P90_MIN_CALLS and tail >= P90_MIN_TAIL else None)
    return statistics.median(calls) * 1e3, p90


def end_to_end(units: list[dict], setup: list[float]) -> dict:
    """Medians over passes; `*_ref_*` rescale each pass to the reference speed."""
    scale = [CAL_NOMINAL_S / u["cal_wall"] for u in units]
    p50, p90 = _percentiles([t for u in units for t in u["calls"]])
    p50_ref, p90_ref = _percentiles([t * k for u, k in zip(units, scale)
                                     for t in u["calls"]])
    return {
        "setup_s": statistics.median(setup),
        "wall_ref_s": statistics.median(u["wall"] * k for u, k in zip(units, scale)),
        "call_p50_ref_ms": p50_ref,
        "call_p90_ref_ms": p90_ref,
        "cpu_ref_s": statistics.median(u["cpu"] * CAL_NOMINAL_S / u["cal_cpu"]
                                       for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.median(u["wall"] for u in units),
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "cpu_s": statistics.median(u["cpu"] for u in units),
        "arrivals_per_s": (sum(u["arrivals"] for u in units)
                           / sum(u["wall"] for u in units)),
        "cal_s": statistics.median(u["cal_wall"] for u in units),
    }


def per_layer(traced: list[dict], untraced: list[dict], memory) -> dict:
    """Medians over the traced passes; peak allocations from the memory pass.

    median_low keeps counts whole: it always returns one of the samples.
    """
    import spans

    values = [spans.layer_metrics(u["tracer"].spans, u["tracer"].counters)
              for u in traced]
    out = {k: statistics.median_low(v[k] for v in values) for k in values[0]}
    for name in ("detect.exact", "sim.batch"):
        out[f"{name}.peak_alloc_mb"] = memory.mem_peak.get(name, 0) / spans.MB
    out = {k: out[k] for k in PER_LAYER_UNITS if k in out}
    out["trace.overhead"] = (
        statistics.median(u["wall"] / u["cal_wall"] for u in traced)
        / statistics.median(u["wall"] / u["cal_wall"] for u in untraced) - 1.0)
    return out


def layer_records(traced: list[dict], workload: str, peak_rss_mb: float,
                  sha: str) -> list[dict]:
    """ROADMAP-style rows: time in each layer's own code per workload pass."""
    import spans

    per_unit = []
    for u in traced:
        tr = u["tracer"]
        own = spans.self_times(tr.spans)
        ms = {layer: 0.0 for layer in LAYERS}
        arrivals = 0
        sim_busy = 0.0
        for s in tr.spans:
            ms[s.name.split(".")[0]] += own[s.id] * 1e3
            if s.name in ("sim.batch", "sim.single"):
                arrivals += s.attrs.get("arrivals", 0)
                sim_busy += s.duration
        per_unit.append((ms, arrivals / sim_busy if sim_busy else None))
    rate = statistics.median(a for _, a in per_unit) if per_unit[0][1] else None
    return [{"layer": layer, "case": workload,
             "ms": statistics.median(m[layer] for m, _ in per_unit),
             "arrivals_per_s": rate if layer == "sim" else None,
             "peak_rss_mb": peak_rss_mb, "git_sha": sha} for layer in LAYERS]


def traced_unit(runner: Runner, tracer) -> dict:
    tracer.install()
    try:
        unit = runner.unit()
    finally:
        tracer.restore()
    unit["tracer"] = tracer
    return unit


def run_workload(args) -> int:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return _run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_workload(args, tmp: Path) -> int:
    import spans

    setup = measure_setup(args.workload, args.seed, tmp)
    calls = wl.make_inputs(args.workload, args.seed, tmp)
    refs = json.loads(wl.REFS_PATH.read_text())
    runner = Runner(calls, wl.Checker(SRC / "covertq" / "schemas", refs))
    prov = provenance(args.workload, args.seed)
    prov.update(seconds=args.seconds, trace=args.trace)

    runner.unit()  # warm-up: checked and counted, not timed
    threads = wl.THREADS[args.workload]
    calibrate(threads)
    cal = [calibrate(threads)]
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not untraced or (args.trace and not traced) or time.perf_counter() < deadline:
        untraced.append(timed_unit(runner, cal, threads))
        if args.trace:
            traced.append(timed_unit(runner, cal, threads, spans.Tracer()))
    if args.trace:
        memory = traced_unit(runner, spans.Tracer(track_memory=True))["tracer"]

    e2e = end_to_end(untraced, setup)
    report = {
        "provenance": prov,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in e2e.items()},
        "ops_failed": runner.failed,
        "ops_total": runner.attempted,
        "setup_samples_s": setup,
        "pass_walls_s": [u["wall"] for u in untraced],
        "pass_cal_s": [u["cal_wall"] for u in untraced],
        "call_samples": sum(len(u["calls"]) for u in untraced),
        "failures": runner.errors[:50],
    }
    if args.trace:
        layer = per_layer(traced, untraced, memory)
        report["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                               for k, v in layer.items()}
        report["records"] = layer_records(traced, args.workload,
                                          e2e["peak_rss_mb"], prov["git_sha"])
        # metrics whose wrapped function is gone read 0 and are listed here
        report["absent"] = sorted({a for u in traced for a in u["tracer"].absent})
        report["notes"] = {
            "sim.batch.bytes_computed": "computed from array shapes, not measured: "
                                        "trials x (n + burn_in) x 25 bytes",
            "exponent.r_evals": "count of r_of_u calls; repeats exactly",
        }
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]}
                   for k in RESULT_END_TO_END}
    for e in runner.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        doc = dict(report, spans=[u["tracer"].dump() for u in traced])
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (args.out / name).write_text(json.dumps(doc, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced; print a table."""
    status = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + args.seconds)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            print(f"== {workload} trace={trace} correct={result['correct']}")
            rows = dict(report["per_layer"] if trace else report["end_to_end"])
            rows["ops_failed"] = {"value": report["ops_failed"], "unit": "count"}
            rows["ops_total"] = {"value": report["ops_total"], "unit": "count"}
            for name, m in rows.items():
                value = ("not reported: fewer than 100 calls" if m["value"] is None
                         else f"{m['value']:.6g} {m['unit']}")
                print(f"  {name:30s} {value}")
    return status


def setup_probe(args) -> int:
    import covertq  # noqa: F401  (the import is what is being timed)

    wl.make_inputs(args.workload, args.seed, args.setup_probe)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "covertq" / "__init__.py").is_file():
        print(f"error: no covertq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
