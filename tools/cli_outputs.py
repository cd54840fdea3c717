"""Record every output of a fixed list of covertq CLI calls.

    python tools/cli_outputs.py SRC OUT.json

SRC is the `src` directory of the checkout to run; it goes first on
sys.path.  The calls are the seed-7 call lists of the three benchmark
workloads (`perfbench/workloads.make_inputs` of this checkout, imported
read-only), one call per subcommand and --output value, the edge
inputs that must fail with a stated exit code, and argparse's help text
and usage errors (wrapped at 80 columns).  Every call runs through
`covertq.cli.main` in this process.  OUT.json holds, per call, argv, the
exit code, stdout, stderr and every .json/.csv file the call wrote or
changed, each as a list of lines with their line ends kept, the
temporary directory shown as <TMP> and, in stdout and stderr, the SRC
directory shown as <SRC> and a source line number after it as <LINE> (a
warning names the file and line it came from, which any edit above that
line moves).
Running it on two checkouts and diffing the two files shows every output
byte that differs:

    python tools/cli_outputs.py ../parent/src parent.json
    python tools/cli_outputs.py src change.json
    diff parent.json change.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 7
PLACEHOLDER = "<TMP>"
SRC_PLACEHOLDER = "<SRC>"

RATES = ["--lambda-w", "0.3", "--lambda-b", "0.2"]
CAMPAIGN = ("lambda_w = 0.3\nlambda_b = 0.2\nn_grid = 100,200,400\n"
            "trials_per_point = 200\nmaster_seed = 5\n")
BOUND = ["bound", "--lambda-w", "0.3", "--epsilon", "0.1"]


GOOD_CONFIGS = ("exact", "mc")


def _configs(tmp: Path) -> dict[str, str]:
    """Campaign config paths by name: the GOOD_CONFIGS run, the rest fail."""
    texts = {
        "exact": CAMPAIGN,
        "mc": CAMPAIGN + "use_exact_when_feasible = No\nstream_id = 3\n",
        "missing_key": "lambda_w = 0.3\nlambda_b = 0.2\n",
        "nan_threshold": CAMPAIGN + "threshold = nan\n",
        "zero_n": CAMPAIGN.replace("100,200,400", "0,10,20"),
        "negative_seed": CAMPAIGN.replace("= 5", "= -1"),
        "bad_bool": CAMPAIGN + "use_exact_when_feasible = maybe\n",
        "typo_key": CAMPAIGN + "msater_seed = 2\n",
        "no_equals": CAMPAIGN + "garbage\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp / f"{name}.cfg")
        Path(paths[name]).write_text(text)
    return paths


def subcommand_calls(tmp: Path) -> list[list[str]]:
    """One call per subcommand and --output, then the edge inputs."""
    seq = tmp / "seq.txt"
    seq.write_text("0110100111010010\n")
    tail = tmp / "tail.txt"
    tail.write_text("110100111010010\n")  # the last 15 symbols of seq.txt
    cfg = _configs(tmp)
    calls = [
        ["simulate", *RATES, "--n", "40", "--hyp", "h1", "--seed", "3"],
        ["simulate", *RATES, "--n", "40", "--hyp", "h0", "--seed", "3",
         "--out", str(tmp / "sim.txt")],
        ["detect", *RATES, str(seq)],
        ["detect", *RATES, "--threshold", "0.5", str(tail)],
        ["exponent", *RATES],
        ["exponent", *RATES, "--output", "csv"],
        ["exponent", "--lambda-w", "0.3", "--lambda-b", "1e-9", "--self-check"],
        [*BOUND, "--n", "1000"],
        [*BOUND, "--n-values", "10,100,1000"],
        [*BOUND, "--n-values", "10,100,1000", "--output", "csv"],
        [*BOUND, "--n-values", "10,100", "--alpha", "0.5", "--output", "csv"],
        ["sweep", *RATES, "--n", "200", "--thresholds=-1,0,1"],
        ["sweep", *RATES, "--n", "200", "--thresholds=-1,0,1", "--output", "csv"],
        ["sweep", *RATES, "--n", "50", "--thresholds=0", "--trials", "300",
         "--seed", "9", "--output", "csv"],
    ]
    for name in GOOD_CONFIGS:
        calls.append(["campaign", cfg[name], "--out", str(tmp / name), "--threads", "1"])
    calls += [
        [*BOUND],
        [*BOUND, "--n", "100", "--n-values", "10,100"],
        [*BOUND, "--n", "100", "--output", "csv"],
        ["bound", "--lambda-w", "inf", "--epsilon", "0.1", "--n", "100"],
        ["bound", "--lambda-w", "nan", "--epsilon", "0.1", "--n", "100"],
        [*BOUND, "--n", "100", "--alpha", "nan"],
        [*BOUND, "--n", "100", "--k0", "inf"],
        ["bound", "--lambda-w", "1e200", "--epsilon", "0.1", "--n", "100"],
        ["exponent", "--lambda-w", "1e200", "--lambda-b", "1"],
        # (1-p)/(1-q) a hair below 1, and rates whose products underflow
        ["exponent", "--lambda-w", "50", "--lambda-b", "0.5", "--mu", "1e-12"],
        ["exponent", "--lambda-w", "1e-300", "--lambda-b", "0", "--mu", "1e-300"],
        # results that overflow to inf or nan
        ["exponent", "--lambda-w", "0.3", "--lambda-b", "1e160"],
        ["exponent", "--lambda-w", "0.3", "--lambda-b", "1e160", "--output", "csv"],
        ["exponent", "--lambda-w", "0.3", "--lambda-b", "0.3", "--mu", "5e-324",
         "--output", "csv"],
        ["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "-3"],
        ["sweep", *RATES, "--n", "100", "--thresholds=nan"],
        ["sweep", "--lambda-w", "1e-17", "--lambda-b", "0", "--n", "10",
         "--thresholds=0", "--trials", "10", "--seed", "1"],
        # p and q nearly coincide: the cut sits mid-distribution
        ["sweep", "--lambda-w", "0.3", "--lambda-b", "1e-15", "--n", "1000",
         "--thresholds=0"],
        # binomial tails past 2**31 trials, and a K(N) that underflows
        ["sweep", *RATES, "--n", "3000000000", "--thresholds=0"],
        [*BOUND, "--alpha", "200", "--n-values", "10,100"],
        # simulated times past the float64 range
        ["simulate", "--lambda-w=1e-307", "--lambda-b=1e-307", "--mu=1e-307", "--n=1000",
         "--hyp", "h1", "--seed=1"],
        ["sweep", "--lambda-w=6.8e-308", "--lambda-b=8.6e-308", "--mu=6.2e-308", "--n=26",
         "--thresholds=0", "--trials=26", "--seed=26"],
        ["detect", *RATES, str(tmp / "absent.txt")],
        ["campaign", cfg["exact"], "--out", str(tmp / "threads"), "--threads", "0"],
        ["campaign", cfg["exact"], "--out", str(tmp / "threads"), "--threads", "-4"],
        ["detect", *RATES, "--initial", "conditioned", str(seq)],
        [*BOUND, "--n", "100", "--k-family", "power"],
        ["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "3", "--burn-in", "2"],
        # an --out path that cannot be written
        ["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "3",
         "--out", str(tmp / "absent" / "x")],
        ["campaign", cfg["exact"], "--out", str(tmp / "absent" / "x")],
    ]
    for name in cfg:
        if name not in GOOD_CONFIGS:
            calls.append(["campaign", cfg[name], "--out", str(tmp / name)])
    return calls + usage_calls(seq, cfg["exact"], tmp)


def usage_calls(seq: Path, cfg: str, tmp: Path) -> list[list[str]]:
    """Help text and argparse usage errors: each subcommand's --help, a
    missing required argument and an unrecognized one, then the top
    level's --help, no command and an unknown command."""
    # per subcommand: its arguments without one required argument, then that one
    split = {
        "simulate": ([*RATES, "--n", "10", "--seed", "1"], ["--hyp", "h0"]),
        "detect": (RATES, [str(seq)]),
        "exponent": (RATES[:2], RATES[2:]),
        "bound": ([*BOUND[1:3], "--n", "100"], BOUND[3:]),
        "campaign": ([cfg], ["--out", str(tmp / "usage")]),
        "sweep": ([*RATES, "--n", "50"], ["--thresholds=0"]),
    }
    calls = []
    for cmd, (partial, required) in split.items():
        calls += [[cmd, "--help"], [cmd, *partial], [cmd, *partial, *required, "--bogus"]]
    return calls + [["--help"], [], ["frobnicate", *RATES]]


def _lines(text: str, tmp: str) -> list[str]:
    return text.replace(tmp, PLACEHOLDER).splitlines(keepends=True)


def _stream_lines(text: str, tmp: str, src: Path) -> list[str]:
    text = text.replace(str(src), SRC_PLACEHOLDER)
    text = re.sub(rf"({re.escape(SRC_PLACEHOLDER)}/[^:\n]*\.py):\d+:", r"\1:<LINE>:", text)
    return _lines(text, tmp)


def _outputs(tmp: Path) -> dict[str, bytes]:
    return {str(p.relative_to(tmp)): p.read_bytes()
            for pattern in ("**/*.json", "**/*.csv") for p in tmp.glob(pattern)}


def run_call(cli, argv: list[str], tmp: Path, src: Path) -> dict:
    before = _outputs(tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # an uncaught error: record it and go on
            code = f"uncaught {type(exc).__name__}: {exc}".replace(str(tmp), PLACEHOLDER)
    written = {name: _lines(data.decode(), str(tmp))
               for name, data in sorted(_outputs(tmp).items()) if before.get(name) != data}
    return {"argv": [a.replace(str(tmp), PLACEHOLDER) for a in argv], "exit": code,
            "stdout": _stream_lines(out.getvalue(), str(tmp), src),
            "stderr": _stream_lines(err.getvalue(), str(tmp), src),
            "files": written}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out_path = Path(argv[0]).resolve(), Path(argv[1])
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal
    sys.path.insert(0, str(src))
    sys.path.append(str(REPO / "perfbench"))
    import covertq.cli
    import workloads

    if not Path(covertq.cli.__file__).resolve().is_relative_to(src):
        print(f"covertq was imported from {covertq.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    records = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for workload in workloads.WORKLOADS:
            (tmp / workload).mkdir()
            for call in workloads.make_inputs(workload, SEED, tmp / workload):
                records.append(run_call(covertq.cli, call.argv, tmp, src))
        (tmp / "subcommands").mkdir()
        for call_argv in subcommand_calls(tmp / "subcommands"):
            records.append(run_call(covertq.cli, call_argv, tmp, src))
    out_path.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} calls, {sum(r['exit'] != 0 for r in records)} nonzero "
          f"exits -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
