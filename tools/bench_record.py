"""Run the benchmark on one checkout and record it as one BENCH file.

    python tools/bench_record.py CHECKOUT OUT.json

CHECKOUT is a git checkout holding `BENCHMARK.json` and `perfbench/`.
Its `perfbench/run.py --workload all --seed 1 --seconds S --out DIR`
runs every workload at --trace 0 and then 1, each in a fresh process, S
being the `run_seconds` of that BENCHMARK.json, so every record is made
at the run length the benchmark compares.  The reports it writes to DIR
are read back and OUT.json gets, per workload that BENCHMARK.json names:

- the end-to-end metrics of the untraced run, with their samples: the
  setup probes, and each timed pass's wall time and reference-kernel time;
- the per-layer metrics of the traced run;
- `cal_s`, the seed, `correct` (no output check failed in either run) and
  `failed` (calls that failed a check or exited nonzero in the untraced
  run).

The file also holds `git rev-parse HEAD` of CHECKOUT, whether its tree
had uncommitted changes, and the interpreter and library versions that
ran it.  A change that claims a speed-up commits the records of its
parent and of itself as BENCH_<n>.json at the repo root, n being each
one's position in CHANGES.md:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench_record.py ../parent parent.json
    python tools/bench_record.py . change.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1  # perfbench/run.py's default --seed
TRACES = (0, 1)
# provenance fields that describe the run, not the checkout or one workload
SHARED_PROVENANCE = ("python", "numpy", "scipy", "covertq", "nproc")


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def report_name(workload: str, seed: int, trace: int) -> str:
    """The file name `perfbench/run.py --out` gives a report."""
    return f"{workload}-seed{seed}-trace{trace}.json"


def _workload_record(untraced: dict, traced: dict) -> dict:
    e2e = untraced["end_to_end"]
    return {
        "seed": untraced["provenance"]["seed"],
        "correct": not untraced["failures"] and not traced["failures"],
        "failed": untraced["ops_failed"],
        "attempted": untraced["ops_total"],
        "cal_s": e2e["cal_s"]["value"],
        "end_to_end": e2e,
        "samples": {
            "setup_s": untraced["setup_samples_s"],
            "pass_wall_s": untraced["pass_walls_s"],
            "pass_cal_s": untraced["pass_cal_s"],
        },
        "passes": {"untraced": untraced["passes"]["untraced"],
                   "traced": traced["passes"]["traced"]},
        "per_layer": traced["per_layer"],
    }


def assemble(report_dir: Path, workloads: list[str], git_sha: str, dirty: bool) -> dict:
    """The BENCH document from the reports `perfbench/run.py --out` wrote."""
    reports = {(w, t): json.loads((report_dir / report_name(w, SEED, t)).read_text())
               for w in workloads for t in TRACES}
    first = reports[workloads[0], 0]["provenance"]
    return {
        "git_sha": git_sha,
        "dirty": dirty,
        "seconds": first["seconds"],
        "provenance": {k: first[k] for k in SHARED_PROVENANCE},
        "workloads": {w: _workload_record(reports[w, 0], reports[w, 1])
                      for w in workloads},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path)
    p.add_argument("out", type=Path)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sha = _git(checkout, "rev-parse", "HEAD")
    dirty = bool(_git(checkout, "status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        status = subprocess.run(
            [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all",
             "--seed", str(SEED), "--seconds", str(bench["run_seconds"]), "--out", tmp],
        ).returncode
        if status != 0:
            print(f"error: perfbench/run.py exited {status}; no record written",
                  file=sys.stderr)
            return 1
        doc = assemble(Path(tmp), workloads, sha, dirty)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
