import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from covertq import cli
from covertq.model import Hypothesis, ModelParams
from covertq.sim import RngSeed, simulate_trace


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    ref = resources.files("covertq") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_cli_exit(capsys, *argv):
    """run_cli, reading an argparse rejection (SystemExit) as its exit code."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-RFC JSON constant {name}")


RATES = ["--lambda-w", "0.3", "--lambda-b", "0.2", "--mu", "1"]
BOUND = ["bound", "--lambda-w", "0.3", "--epsilon", "0.1"]
CAMPAIGN = ("lambda_w = 0.3\nlambda_b = 0.2\nn_grid = 100,200\n"
            "trials_per_point = 10\nmaster_seed = 1\n")


def test_simulate_writes_sequence(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    code, _, err = run_cli(
        capsys, "simulate", *RATES, "--n", "1000", "--hyp", "h1",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    line = out.read_text().strip()
    assert len(line) == 1000
    assert set(line) <= {"0", "1"}
    assert "busy_fraction" in err


def test_simulate_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(capsys, "simulate", *RATES, "--n", "500", "--hyp", "h1",
                "--seed", "7", "--out", str(out))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_invalid_n_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", *RATES, "--n", "0", "--hyp", "h0", "--seed", "1"
    )
    assert code == 2
    assert "n" in err


def test_simulate_invalid_rate_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--lambda-w", "-1", "--lambda-b", "0", "--mu", "1",
        "--n", "10", "--hyp", "h0", "--seed", "1",
    )
    assert code == 2
    assert "lambda_w" in err


def test_simulate_without_seed_prints_one(capsys):
    code, out, err = run_cli(capsys, "simulate", *RATES, "--n", "10", "--hyp", "h0")
    assert code == 0
    assert "seed:" in err


def test_detect_all_zeros_decides_h0(tmp_path, capsys):
    seq = tmp_path / "zeros.txt"
    seq.write_text("0" * 50 + "\n")
    code, out, _ = run_cli(capsys, "detect", *RATES, str(seq))
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, schema("llr_result"))
    assert rec["decision"] == "H0"
    assert rec["llr"] > 0


def test_detect_zero_lambda_b_gives_zero_llr(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0110\n")
    code, out, _ = run_cli(
        capsys, "detect", "--lambda-w", "0.3", "--lambda-b", "0", "--mu", "1", str(seq)
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["llr"] == 0.0
    assert rec["decision"] == "H0"


def test_detect_empty_file_exits_3(tmp_path, capsys):
    seq = tmp_path / "empty.txt"
    seq.write_text("")
    code, _, err = run_cli(capsys, "detect", *RATES, str(seq))
    assert code == 3


def test_detect_missing_file_exits_3(capsys):
    code, _, _ = run_cli(capsys, "detect", *RATES, "/nonexistent/seq.txt")
    assert code == 3


def test_exponent_json_schema_and_self_check(capsys):
    code, out, _ = run_cli(capsys, "exponent", *RATES, "--self-check")
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, schema("exponent_report"))
    assert rec["v_closed"] == pytest.approx(0.490653, abs=1e-6)


@pytest.mark.parametrize("lambda_b", ["1e-5", "1e-4"])
def test_exponent_self_check_passes_at_small_lambda_b(capsys, lambda_b):
    code, _, err = run_cli(capsys, "exponent", "--lambda-w", "0.5",
                           "--lambda-b", lambda_b, "--self-check")
    assert code == 0, err


def test_exponent_csv(capsys):
    code, out, _ = run_cli(capsys, "exponent", *RATES, "--output", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("lambda_w,lambda_b,mu,v,")
    assert len(row.split(",")) == 7


def test_bound_single_value(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--lambda-w", "0.3", "--epsilon", "0.1", "--n", "1000"
    )
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, schema("bound"))
    assert rec["bound"] == pytest.approx(0.020672, abs=1e-6)
    assert rec["feasible"]


def test_bound_table_json_and_csv(capsys):
    args = ["bound", "--lambda-w", "0.3", "--epsilon", "0.1",
            "--n-values", "100,400,1600"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = json.loads(out)
    jsonschema.validate(rows, schema("bound"))
    assert len(rows) == 3
    code, out, _ = run_cli(capsys, *args, "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == "N,K_of_N,bound,bound_times_sqrtN"


def test_bound_requires_n_or_table(capsys):
    code, _, _ = run_cli(capsys, "bound", "--lambda-w", "0.3", "--epsilon", "0.1")
    assert code == 3


def test_sweep_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", *RATES, "--n", "50", "--thresholds=-1,0,1"
    )
    assert code == 0
    rows = json.loads(out)
    jsonschema.validate(rows, schema("sweep"))
    assert [r["gamma"] for r in rows] == [-1.0, 0.0, 1.0]


def test_campaign_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(
        "lambda_w = 0.3\nlambda_b = 0.2\nmu = 1\n"
        "n_grid = 100,200,300,400\ntrials_per_point = 1000\n"
        "master_seed = 42\n"
    )
    stem = tmp_path / "result"
    code, out, _ = run_cli(capsys, "campaign", str(cfg), "--out", str(stem))
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    jsonschema.validate(doc, schema("campaign_result"))
    csv_lines = (tmp_path / "result.csv").read_text().splitlines()
    assert csv_lines[0] == "n,p_f,p_m,p_e,se_f,se_m,trials"
    assert len(csv_lines) == 5


@pytest.mark.parametrize("argv", [
    ["sweep", *RATES, "--n", "100", "--thresholds=nan"],
    ["sweep", *RATES, "--n", "100", "--thresholds=inf,-inf"],
    ["sweep", *RATES, "--n", "100", "--thresholds=0,nan", "--trials", "10", "--seed", "1"],
    ["sweep", "--lambda-w", "0.3", "--lambda-b", "nan", "--n", "100", "--thresholds=0"],
    ["sweep", *RATES[:4], "--mu", "inf", "--n", "100", "--thresholds=0"],
    ["sweep", "--lambda-w", "1e-17", "--lambda-b", "0", "--n", "10", "--thresholds=0",
     "--trials", "10", "--seed", "1"],
    ["sweep", "--lambda-w", "1e-17", "--lambda-b", "0.5", "--n", "10", "--thresholds=0"],
])
def test_non_finite_or_unusable_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_detect_nan_threshold_exits_2(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0110\n")
    code, out, err = run_cli(capsys, "detect", *RATES, "--threshold", "nan", str(seq))
    assert code == 2
    assert out == ""
    assert "threshold" in err


def test_sweep_accepts_lambda_b_below_float_resolution(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--lambda-w", "0.3", "--lambda-b", "1e-18",
                           "--n", "10", "--thresholds=0")
    assert code == 0
    assert json.loads(out) == [{"gamma": 0.0, "p_e": 0.5, "p_f": 0.0, "p_m": 1.0}]


def test_campaign_nan_threshold_exits_3(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("lambda_w = 0.3\nlambda_b = 0.2\nn_grid = 100,200\n"
                   "trials_per_point = 10\nmaster_seed = 1\nthreshold = nan\n")
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 3
    assert out == ""
    assert "bad config value" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_campaign_missing_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_w = 0.3\nlambda_b = 0.2\n")
    code, _, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 3
    assert "n_grid" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# one valid argument list per subcommand, and the same with a required
# flag or positional left out
VALID = {
    "simulate": [*RATES, "--n", "10", "--hyp", "h0", "--seed", "1"],
    "detect": [*RATES, "seq.txt"],
    "exponent": RATES,
    "bound": BOUND[1:] + ["--n", "100"],
    "campaign": ["c.cfg", "--out", "r"],
    "sweep": [*RATES, "--n", "50", "--thresholds=0"],
}
MISSING = {
    "simulate": [*RATES, "--n", "10", "--seed", "1"],
    "detect": RATES,
    "exponent": ["--lambda-w", "0.3"],
    "bound": ["--lambda-w", "0.3", "--n", "100"],
    "campaign": ["c.cfg"],
    "sweep": [*RATES, "--n", "50"],
}
USAGE_CALLS = [[], ["--help"], ["frobnicate", *RATES]]
for _cmd in VALID:
    USAGE_CALLS += [[_cmd, "--help"], [_cmd, *MISSING[_cmd]],
                    [_cmd, *VALID[_cmd], "--bogus"]]


def _exit_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_CALLS, ids=" ".join)
def test_help_and_usage_errors_match_a_fresh_parser(capsys, argv):
    expected = _exit_output(capsys, cli.build_parser().parse_args, argv)
    assert _exit_output(capsys, cli.main, argv) == expected


def test_shared_parser_parses_as_a_fresh_one(capsys):
    # main() reuses one parser; rejected and help calls must leave it as built
    for argv in USAGE_CALLS:
        _exit_output(capsys, cli._parser().parse_args, argv)
    for cmd, args in VALID.items():
        argv = [cmd, *args]
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, code", [
    (["bound", "--lambda-w", "inf", "--epsilon", "0.1", "--n", "100"], 2),
    (["bound", "--lambda-w", "nan", "--epsilon", "0.1", "--n", "100"], 2),
    ([*BOUND, "--n", "100", "--alpha", "nan"], 2),
    ([*BOUND, "--n", "100", "--k0", "inf"], 2),
    ([*BOUND, "--n", "100", "--n-values", "10,100"], 2),
    ([*BOUND, "--n", "100", "--output", "csv"], 2),
    (["bound", "--lambda-w", "1e200", "--epsilon", "0.1", "--n", "100"], 4),
    (["exponent", "--lambda-w", "1e200", "--lambda-b", "1"], 4),
    (["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "-3"], 2),
    # removed flags are unknown arguments
    (["detect", *RATES, "--initial", "conditioned", "seq.txt"], 2),
    ([*BOUND, "--n", "100", "--k-family", "power"], 2),
    (["simulate", *RATES, "--n", "10", "--hyp", "h0", "--burn-in", "2"], 2),
    # an --out path that cannot be written
    (["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "3",
      "--out", "/nonexistent/x"], 3),
    (["campaign", "good.cfg", "--out", "/nonexistent/x"], 3),
])
@pytest.mark.filterwarnings("ignore::covertq.model.UnstableRegimeWarning")
def test_bad_inputs_exit_with_their_code(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.cfg").write_text(CAMPAIGN)
    got, out, err = run_cli_exit(capsys, *argv)
    assert got == code, err
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("line", [
    "n_grid = 0,10,20",
    "master_seed = -1",
    "stream_id = -2",
    "use_exact_when_feasible = maybe",
    "msater_seed = 2",
    "garbage",
])
def test_campaign_config_garbage_exits_3(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CAMPAIGN + line + "\n")  # a repeated key overrides the first
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 3, err
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_campaign_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg = tmp_path / "good.cfg"
    cfg.write_text(CAMPAIGN)
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"),
                             "--threads", threads)
    assert code == 2
    assert out == ""
    assert err == f"error: --threads must be >= 1, got {threads}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_outputs_are_strict_json_and_lf_csv(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0110\n")
    sweep = ["sweep", *RATES, "--n", "50", "--thresholds=-1,0,1"]
    for argv in (["detect", *RATES, str(seq)], ["exponent", *RATES],
                 [*BOUND, "--n", "100"], [*BOUND, "--n-values", "10,100"], sweep):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out, parse_constant=_reject_constant)
    for argv in (["exponent", *RATES], [*BOUND, "--n-values", "10,100"], sweep):
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        assert "\r" not in out
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(CAMPAIGN)
    assert run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))[0] == 0
    json.loads((tmp_path / "r.json").read_text(), parse_constant=_reject_constant)
    trace = tmp_path / "trace.csv"
    simulate_trace(ModelParams(0.3, 0.2, 1.0), Hypothesis.H1, 20, RngSeed(3)).to_csv(trace)
    for path in (tmp_path / "r.csv", trace):
        assert b"\r" not in path.read_bytes()


# Runs in a fresh interpreter: the calls that compute no exact binomial tail
# must leave scipy unloaded, and an exact sweep must load it.
DEFERRED_SCIPY = f"""
import sys
import covertq, covertq.cli

RATES = {RATES!r}
tmp = sys.argv[1]
calls = [
    ["simulate", *RATES, "--n", "500", "--hyp", "h1", "--seed", "7",
     "--out", tmp + "/seq.txt"],
    ["detect", *RATES, tmp + "/seq.txt"],
    ["exponent", *RATES],
    [*{BOUND!r}, "--n", "1000"],
    ["sweep", *RATES, "--n", "50", "--thresholds=0", "--trials", "20", "--seed", "1"],
    ["campaign", tmp + "/mc.cfg", "--out", tmp + "/mc"],
]
assert "scipy" not in sys.modules, "import covertq"
for argv in calls:
    assert covertq.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
assert covertq.cli.main(["sweep", *RATES, "--n", "50", "--thresholds=0"]) == 0
assert "scipy.special" in sys.modules, "exact sweep"
"""


def test_scipy_is_loaded_only_for_exact_tails(tmp_path):
    (tmp_path / "mc.cfg").write_text(CAMPAIGN + "use_exact_when_feasible = no\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", DEFERRED_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
