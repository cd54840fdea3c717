import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(workload, trace, wall, failures=()):
    """The fields of a `perfbench/run.py --out` report that the record reads."""
    report = {
        "provenance": {"git_sha": "unknown", "covertq": "0.1.0", "python": "3.11.7",
                       "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2, "threads": 1,
                       "workload": workload, "seed": 1, "seconds": 3.0, "trace": trace},
        "passes": {"untraced": 4, "traced": 3 if trace else 0},
        "end_to_end": {"wall_ref_s": {"value": wall, "unit": "s"},
                       "cal_s": {"value": 0.041, "unit": "s"}},
        "ops_failed": len(failures),
        "ops_total": 40,
        "setup_samples_s": [0.09, 0.1],
        "pass_walls_s": [wall, wall * 1.1],
        "pass_cal_s": [0.04, 0.042],
        "failures": list(failures),
        "spans": [],
    }
    if trace:
        report["per_layer"] = {"sim.batch.calls": {"value": 8, "unit": "count"}}
    return report


def test_assemble_reads_one_record_per_workload(tmp_path, bench_record):
    for workload, wall in (("fast", 0.1), ("slow", 2.0)):
        for trace in (0, 1):
            failures = ["detect: wrong llr"] if (workload, trace) == ("slow", 1) else ()
            name = bench_record.report_name(workload, bench_record.SEED, trace)
            (tmp_path / name).write_text(json.dumps(_report(workload, trace, wall, failures)))
    doc = bench_record.assemble(tmp_path, ["fast", "slow"], "abc123", False)
    assert (doc["git_sha"], doc["dirty"], doc["seconds"]) == ("abc123", False, 3.0)
    assert doc["provenance"] == {"covertq": "0.1.0", "python": "3.11.7", "numpy": "2.4.6",
                                 "scipy": "1.17.1", "nproc": 2}
    fast, slow = doc["workloads"]["fast"], doc["workloads"]["slow"]
    assert fast == {
        "seed": 1, "correct": True, "failed": 0, "attempted": 40, "cal_s": 0.041,
        "end_to_end": {"wall_ref_s": {"value": 0.1, "unit": "s"},
                       "cal_s": {"value": 0.041, "unit": "s"}},
        "samples": {"setup_s": [0.09, 0.1], "pass_wall_s": [0.1, 0.1 * 1.1],
                    "pass_cal_s": [0.04, 0.042]},
        "passes": {"untraced": 4, "traced": 3},
        "per_layer": {"sim.batch.calls": {"value": 8, "unit": "count"}},
    }
    # a failed check in the traced run makes the workload incorrect, while
    # `failed` counts the untraced run's calls
    assert (slow["correct"], slow["failed"]) == (False, 0)
    assert slow["end_to_end"]["wall_ref_s"]["value"] == 2.0


def test_assemble_needs_both_trace_settings(tmp_path, bench_record):
    name = bench_record.report_name("fast", bench_record.SEED, 0)
    (tmp_path / name).write_text(json.dumps(_report("fast", 0, 0.1)))
    with pytest.raises(FileNotFoundError):
        bench_record.assemble(tmp_path, ["fast"], "abc123", False)


def test_report_name_is_the_one_the_benchmark_writes(bench_record):
    run_py = (TOOL.parents[1] / "perfbench" / "run.py").read_text()
    assert 'f"{args.workload}-seed{args.seed}-trace{args.trace}.json"' in run_py
    assert bench_record.report_name("mc_campaign", 1, 0) == "mc_campaign-seed1-trace0.json"
