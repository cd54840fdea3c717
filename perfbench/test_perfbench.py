"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

import covertq.cli  # noqa: E402
import covertq.covert  # noqa: E402
import covertq.detect  # noqa: E402
import covertq.experiment  # noqa: E402
import covertq.exponent  # noqa: E402
import covertq.sim  # noqa: E402

SCHEMAS = run.SRC / "covertq" / "schemas"


def refs() -> dict:
    return json.loads(wl.REFS_PATH.read_text())


def runner_for(calls, references=None) -> run.Runner:
    return run.Runner(calls, wl.Checker(SCHEMAS, references or refs()))


def sweep_call(lw=0.3, lb=0.2) -> wl.Call:
    thresholds = "--thresholds=" + ",".join(repr(g) for g in wl.THRESHOLDS)
    return wl.Call(["sweep", "--lambda-w", repr(lw), "--lambda-b", repr(lb),
                    "--n", str(wl.SWEEP_N), thresholds], "sweep_json",
                   {"lw": lw, "lb": lb})


def test_check_exact_rules():
    assert wl.check_exact(0.25, "0.25") is None
    assert wl.check_exact(0.25 * (1 + 1e-10), "0.25") is None
    assert wl.check_exact(0.25 * (1 + 1e-6), "0.25") is not None
    # true value below the smallest normal double: only 0.0 is accepted
    assert wl.check_exact(0.0, "1.5e-616") is None
    assert wl.check_exact(0.0, "1e-310") is None
    assert wl.check_exact(1e-310, "1e-310") is not None
    assert wl.check_exact(float("nan"), "0.25") is not None


def test_perturbed_reference_counts_as_failure():
    r = refs()
    ok = runner_for([sweep_call()], r)
    ok.unit()
    assert (ok.failed, ok.correct) == (0, True)

    entry = r["sweep"][wl.rate_key(0.3, 0.2)]["0.0"]
    entry["p_m"] = repr(float(entry["p_m"]) * (1 + 1e-6))
    bad = runner_for([sweep_call()], r)
    bad.unit()
    assert (bad.attempted, bad.failed, bad.correct) == (1, 1, False)
    assert "p_m" in bad.errors[0]


def test_strict_json_rejects_non_rfc_constants():
    for text in ("NaN", '{"a": Infinity}', "[-Infinity]"):
        with pytest.raises(ValueError):
            wl.strict_json(text)


def test_self_check_failure_counts_but_output_stays_correct():
    # (0.5, 1e-5) is one of the grid points where the numeric minimizer
    # misses the closed form and the CLI exits 4.
    call = wl.Call(["exponent", "--lambda-w", "0.5", "--lambda-b", "1e-05",
                    "--self-check"], "exponent_json", {"lw": 0.5, "lb": 1e-5})
    r = runner_for([call])
    r.unit()
    assert (r.failed, r.correct) == (1, True)


def _small_script(tmp: Path) -> list[wl.Call]:
    cfg = tmp / "mc.cfg"
    cfg.write_text("lambda_w = 0.3\nlambda_b = 0.2\nn_grid = 20,40\n"
                   "trials_per_point = 300\nmaster_seed = 7\n"
                   "use_exact_when_feasible = false\n")
    seq = tmp / "h1.txt"
    rates = ["--lambda-w", "0.3", "--lambda-b", "0.2"]
    return [
        wl.Call(["campaign", str(cfg), "--out", str(tmp / "mc"), "--threads", "2"],
                "none"),
        wl.Call(["simulate", *rates, "--n", "2000", "--hyp", "h1", "--seed", "3",
                 "--out", str(seq)], "none"),
        wl.Call(["detect", *rates, str(seq)], "none"),
        wl.Call(["exponent", *rates], "none"),
        wl.Call(["bound", "--lambda-w", "0.3", "--epsilon", "0.1",
                 "--n-values", "10,100"], "none"),
        sweep_call(),
    ]


class _NoCheck(wl.Checker):
    def _none(self, call, stdout, stderr):
        return []


def _wrapped_objects() -> dict:
    seen = {}
    for owner in (covertq.cli, covertq.experiment, covertq.detect, covertq.sim,
                  covertq.exponent, covertq.covert, covertq.sim.ObservationSequence):
        for attr, value in vars(owner).items():
            if callable(value) or isinstance(value, classmethod):
                seen[(owner.__name__, attr)] = value
    return seen


def test_traced_pass_restores_every_attribute_and_links_worker_spans(tmp_path):
    before = _wrapped_objects()
    runner = run.Runner(_small_script(tmp_path), _NoCheck(SCHEMAS, refs()))
    tracer = spans.Tracer(track_memory=True)
    unit = run.traced_unit(runner, tracer)
    after = _wrapped_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert runner.failed == 0

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "experiment.campaign", spans.MC_SPAN, "sim.batch",
            "sim.recursion", "sim.single", "sim.line_io", "detect.llr",
            "exponent.report", "covert.bound", "experiment.sweep",
            "detect.exact", "experiment.io"} <= names
    by_id = {s.id: s for s in tracer.spans}
    batches = [s for s in tracer.spans if s.name == "sim.batch"]
    assert len(batches) == 4
    assert all(by_id[s.parent].name == spans.MC_SPAN for s in batches)
    assert any(s.thread != by_id[s.parent].thread for s in batches)
    assert tracer.counters["exponent.r_evals"] > 0
    assert tracer.mem_peak["sim.batch"] > 0

    m = spans.layer_metrics(tracer.spans, tracer.counters)
    assert m["cli.calls"] == len(runner.calls)
    assert m["detect.mc.blocks"] == 4
    assert m["sim.batch.arrivals"] == 2 * 300 * (21 + 41)
    assert 0.0 < m["detect.mc.parallel_eff"] <= 1.0
    assert 0.0 <= m["cli.self_s"] <= unit["wall"]


def test_ref_metrics_rescale_each_pass_by_the_reference_kernel():
    nominal = run.CAL_NOMINAL_S
    units = [{"wall": 2.0, "cpu": 3.0, "calls": [0.5, 1.5], "arrivals": 0,
              "cal_wall": 2 * nominal, "cal_cpu": 3 * nominal},
             {"wall": 1.0, "cpu": 1.0, "calls": [0.25, 0.75], "arrivals": 0,
              "cal_wall": nominal, "cal_cpu": nominal}]
    e = run.end_to_end(units, [0.5])
    assert e["wall_ref_s"] == pytest.approx(1.0)
    assert e["cpu_ref_s"] == pytest.approx(1.0)
    assert e["call_p50_ref_ms"] == pytest.approx(500.0)
    assert e["wall_s"] == pytest.approx(1.5)
    for threads in (1, 2):
        wall, cpu = run.calibrate(threads)
        assert wall > 0 and cpu > 0


def test_self_time_subtracts_union_of_children():
    s = [spans.Span(0, "a", 0.0, 10.0, None, 1),
         spans.Span(1, "b", 1.0, 4.0, 0, 2),
         spans.Span(2, "b", 3.0, 6.0, 0, 3),
         spans.Span(3, "c", 8.0, 12.0, 0, 1)]
    own = spans.self_times(s)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0)


def _run_pass(workload: str, seed: int, tmp: Path) -> bytes:
    calls = wl.make_inputs(workload, seed, tmp)
    runner = runner_for(calls)
    runner.unit()
    assert runner.failed == 0, runner.errors
    out = calls[0].meta["out"]
    return Path(out + ".json").read_bytes() + Path(out + ".csv").read_bytes()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    calls_a = wl.make_inputs(workload, 5, a)
    calls_b = wl.make_inputs(workload, 5, b)
    assert [[x.replace(str(a), "") for x in c.argv] for c in calls_a] == \
        [[x.replace(str(b), "") for x in c.argv] for c in calls_b]
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_text().replace(str(a), "") == \
            (b / name).read_text().replace(str(b), "")
    c = tmp_path / "c"
    c.mkdir()
    wl.make_inputs(workload, 6, c)
    assert any((a / n).read_text().replace(str(a), "")
               != (c / n).read_text().replace(str(c), "") for n in files_a)


@pytest.mark.parametrize("workload", ["mc_campaign", "exact_campaign"])
def test_same_seed_same_result_bytes(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert _run_pass(workload, 5, a) == _run_pass(workload, 5, b)


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*") if ".git" not in p.relative_to(root).parts}


def _git_status(root: Path) -> str | None:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(["git", "status", "--porcelain", "--ignored"], cwd=root,
                          capture_output=True, text=True, check=True).stdout


def test_run_leaves_checkout_untouched():
    root = run.ROOT
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    before, status = _tree(root), _git_status(root)
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                           "exact_campaign", "--seed", "3", "--seconds", "0",
                           "--trace", "1"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert _tree(root) == before
    assert _git_status(root) == status


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "mc_campaign", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        [(k, run.END_TO_END_UNITS[k]) for k in run.RESULT_END_TO_END]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER_UNITS.items())
