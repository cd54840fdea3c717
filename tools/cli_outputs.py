"""Record every output of a fixed list of covertq CLI calls.

    python tools/cli_outputs.py SRC OUT.json

SRC is the `src` directory of the checkout to run; it goes first on
sys.path.  The calls are the seed-7 call lists of the three benchmark
workloads (`perfbench/workloads.make_inputs` of this checkout, imported
read-only), one call per subcommand and --output value, two calls that
rewrite a longer existing output, the edge inputs that must fail with a
stated exit code, and argparse's help text and usage errors (wrapped at
80 columns).  Every call runs through `covertq.cli.main` in this
process.  OUT.json holds, per call, argv, the exit code, stdout, stderr
and every .json/.csv/.txt file the call wrote or changed.  A .txt file
(a simulated sequence, up to 1 MB) is recorded by its byte count and
sha256; the others and the two streams as lists of lines with their
line ends kept, the temporary directory shown as <TMP> and, in stdout
and stderr, the SRC directory shown as <SRC> and a source line number
after it as <LINE> (a warning names the file and line it came from,
which any edit above that line moves).
Running it on two checkouts and diffing the two files shows every output
byte that differs:

    python tools/cli_outputs.py ../parent/src parent.json
    python tools/cli_outputs.py src change.json
    diff parent.json change.json
"""

from __future__ import annotations

import contextlib
import hashlib
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


GOOD_CONFIGS = ("exact", "mc", "short", "zero_b")


def _configs(tmp: Path) -> dict[str, str]:
    """Campaign config paths by name: the GOOD_CONFIGS run, the rest fail."""
    texts = {
        "exact": CAMPAIGN,
        "mc": CAMPAIGN + "use_exact_when_feasible = No\nstream_id = 3\n",
        "short": CAMPAIGN.replace("100,200,400", "100,200"),
        # no exponent (exponent_ref null) and Monte Carlo rows
        "zero_b": CAMPAIGN.replace("lambda_b = 0.2", "lambda_b = 0"),
        # an exponent that overflows: exit 4, no result file
        "huge_b": CAMPAIGN.replace("lambda_b = 0.2", "lambda_b = 1e160"),
        "missing_key": "lambda_w = 0.3\nlambda_b = 0.2\n",
        "nan_threshold": CAMPAIGN + "threshold = nan\n",
        "zero_n": CAMPAIGN.replace("100,200,400", "0,10,20"),
        "negative_seed": CAMPAIGN.replace("= 5", "= -1"),
        "bad_bool": CAMPAIGN + "use_exact_when_feasible = maybe\n",
        "typo_key": CAMPAIGN + "msater_seed = 2\n",
        "no_equals": CAMPAIGN + "garbage\n",
        "duplicate_key": CAMPAIGN + "lambda_b = 0.0\n",
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
    lines = tmp / "lines.txt"
    lines.write_text("0101\n1111111\nhello\n")
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
        ["sweep", *RATES, "--n", "200", "--thresholds=-1,0,1"],
        ["sweep", *RATES, "--n", "200", "--thresholds=-1,0,1", "--output", "csv"],
        ["sweep", *RATES, "--n", "50", "--thresholds=0", "--trials", "300",
         "--seed", "9", "--output", "csv"],
        ["sweep", *RATES, "--n", "50", "--thresholds=-1,0,1", "--trials", "300",
         "--seed", "1"],
    ]
    for name in GOOD_CONFIGS:
        calls.append(["campaign", cfg[name], "--out", str(tmp / name), "--threads", "1"])
    # rewrites of an existing, longer output: a shorter grid, fewer symbols
    calls += [
        ["campaign", cfg["short"], "--out", str(tmp / "exact"), "--threads", "1"],
        ["simulate", *RATES, "--n", "25", "--hyp", "h0", "--seed", "3",
         "--out", str(tmp / "sim.txt")],
    ]
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
        # (p - q)^2 is 0 or subnormal where v and I are not, or I is 0.0
        ["exponent", "--lambda-w", "1e200", "--lambda-b", "1", "--self-check"],
        ["exponent", "--lambda-w", "1e158", "--lambda-b", "1", "--self-check"],
        ["exponent", "--lambda-w", "6.36e161", "--lambda-b", "1", "--self-check"],
        ["exponent", "--lambda-w", "2.59e-74", "--lambda-b", "3.62e-70", "--mu", "1.05e-255",
         "--self-check"],
        # 1 - epsilon rounds to 1.0, and epsilon is the least subnormal
        ["bound", "--lambda-w", "0.3", "--epsilon", "1e-17", "--n", "100"],
        ["bound", "--lambda-w", "0.3", "--epsilon", "5e-324", "--n", "100"],
        # (1-p)/(1-q) a hair below 1, and rates whose products underflow
        ["exponent", "--lambda-w", "50", "--lambda-b", "0.5", "--mu", "1e-12"],
        ["exponent", "--lambda-w", "1e-300", "--lambda-b", "0", "--mu", "1e-300"],
        # (1-p)/(1-q) = 1.8e-16 at mu >> lambda_w << lambda_b; lambda_b/lambda_w
        # subnormal, then underflowing to 0
        ["exponent", "--lambda-w", "5.86e-11", "--lambda-b", "1.88e10", "--mu", "3.26e5",
         "--self-check"],
        ["detect", "--lambda-w", "5.86e-11", "--lambda-b", "1.88e10", "--mu", "3.26e5",
         str(seq)],
        ["exponent", "--lambda-w", "0.5", "--lambda-b", "5e-324", "--self-check"],
        ["exponent", "--lambda-w", "1000", "--lambda-b", "5e-324", "--self-check"],
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
        # binomial tails past 2**31 trials
        ["sweep", *RATES, "--n", "3000000000", "--thresholds=0"],
        # rates whose absolute clock or services would pass the float64 range;
        # both simulators count time in mean gaps and cap their loads
        ["simulate", "--lambda-w=1e-307", "--lambda-b=1e-307", "--mu=1e-307", "--n=1000",
         "--hyp", "h1", "--seed=1"],
        ["simulate", "--lambda-w=1", "--lambda-b=1", "--mu=1e-308", "--n=26",
         "--hyp=h0", "--seed=1"],
        ["sweep", "--lambda-w=6.8e-308", "--lambda-b=8.6e-308", "--mu=6.2e-308", "--n=26",
         "--thresholds=0", "--trials=26", "--seed=26"],
        # Monte Carlo loads past the cap, lambda_b / mu = 1e308 and inf, which
        # the simulator caps without changing a count
        ["sweep", "--lambda-w=1", "--lambda-b=1e308", "--mu=1", "--n=26",
         "--thresholds=0", "--trials=26", "--seed=26"],
        ["sweep", "--lambda-w=1e308", "--lambda-b=1e307", "--mu=1e-10", "--n=26",
         "--thresholds=0", "--trials=26", "--seed=26"],
        # a length too large to allocate
        ["simulate", *RATES, "--n", str(2**58), "--hyp", "h0", "--seed", "1"],
        ["detect", *RATES, str(tmp / "absent.txt")],
        ["detect", *RATES, str(lines)],
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
            for pattern in ("**/*.json", "**/*.csv", "**/*.txt") for p in tmp.glob(pattern)}


def _file_record(name: str, data: bytes, tmp: str):
    if name.endswith(".txt"):
        return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return _lines(data.decode(), tmp)


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
    written = {name: _file_record(name, data, str(tmp))
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
