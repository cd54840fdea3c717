import contextlib
import inspect
import io
import json
import math
import os
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertq import cli, covert, detect, experiment, exponent
from covertq.model import ModelParams, json_text
from covertq.sim import ObservationSequence, RngSeed, simulate_sequence
from fresh import run_fresh
from oracles import mpmath_exponent
from test_exponent import assert_matches_mpmath
from test_package import PUBLIC


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
TINY_RATES = ["--lambda-w=6.8e-308", "--lambda-b=8.6e-308", "--mu=6.2e-308"]
HUGE_LOAD_SWEEP = ["sweep", "--lambda-w=1", "--lambda-b=1e308", "--mu=1", "--n=26",
                   "--thresholds=0", "--trials=26", "--seed=26"]
LONG_SERVICE_SIMULATE = ["simulate", "--lambda-w=1", "--lambda-b=1", "--mu=1e-308", "--n=26",
                         "--hyp=h0", "--seed=1"]
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


def test_schemas_are_valid():
    refs = [ref for ref in (resources.files("covertq") / "schemas").iterdir()
            if ref.name.endswith(".schema.json")]
    assert refs
    for ref in refs:
        jsonschema.Draft202012Validator.check_schema(json.loads(ref.read_text()))


LIB_PARAMS = ModelParams(0.3, 0.2, 1.0)
LIB_CAMPAIGN = {"params": LIB_PARAMS, "n_grid": (20, 40, 60), "trials_per_point": 200,
                "master_seed": RngSeed(5)}


def campaign_rows(eps, windows, trials, method):
    """Campaign rows as run_campaign builds them from error-rate dicts."""
    return [{"n": n, **ep, "trials": trials, "seed": 0, "method": method}
            for n, ep in zip(windows, eps)]


# each library call and the schema (or `schema/property`) of the document
# the CLI writes from it
LIBRARY_RESULTS = {
    "decide": ("llr_result", lambda: detect.decide(
        ObservationSequence.from_line("0110100111"), LIB_PARAMS, 0.5)),
    "max_covert_rate": ("bound", lambda: covert.max_covert_rate(
        0.3, covert.CovertnessSpec(epsilon=0.1, n=1000))),
    "scaling_table": ("bound", lambda: covert.scaling_table(
        0.3, 0.1, [10, 100, 1000])),
    "threshold_sweep-exact": ("sweep", lambda: experiment.threshold_sweep(
        LIB_PARAMS, 50, [-1.0, 0.0, 1.0])),
    "threshold_sweep-mc": ("sweep", lambda: experiment.threshold_sweep(
        LIB_PARAMS, 50, [-1.0, 0.0, 1.0], trials=200, seed=RngSeed(1))),
    "exponent_report": ("exponent_report", lambda: exponent.exponent_report(LIB_PARAMS)),
    "run_campaign-exact": ("campaign_result", lambda: experiment.run_campaign(
        experiment.CampaignConfig(**LIB_CAMPAIGN))),
    "run_campaign-mc": ("campaign_result", lambda: experiment.run_campaign(
        experiment.CampaignConfig(**LIB_CAMPAIGN, use_exact_when_feasible=False))),
    "exact_error_probabilities": ("campaign_result/rows", lambda: campaign_rows(
        [detect.exact_error_probabilities(LIB_PARAMS, 40)], [40], 1, "exact")),
    "monte_carlo_error-windows": ("campaign_result/rows", lambda: campaign_rows(
        detect.monte_carlo_error(LIB_PARAMS, (20, 40), 0.0, 200, RngSeed(1)),
        [20, 40], 200, "mc")),
}


@pytest.mark.parametrize("name", LIBRARY_RESULTS)
def test_library_results_are_their_schema_documents(name):
    path, call = LIBRARY_RESULTS[name]
    file, *props = path.split("/")
    doc = schema(file)
    for prop in props:
        doc = doc["properties"][prop]
    jsonschema.Draft202012Validator(doc).validate(call())


def test_exponent_json_schema_and_self_check(capsys):
    code, out, _ = run_cli(capsys, "exponent", *RATES, "--self-check")
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, schema("exponent_report"))
    assert rec["v_closed"] == pytest.approx(0.490653, abs=1e-6)


@pytest.mark.parametrize("lambda_w, lambda_b", [
    ("0.5", "1e-5"), ("0.5", "1e-4"), ("0.3", "1e-9"), ("0.2", "1e-150"),
    # lambda_b/lambda_w subnormal, and underflowing to 0
    ("0.5", "5e-324"), ("1000", "5e-324"),
], ids=["1e-5", "1e-4", "0.3-1e-9", "0.2-1e-150", "0.5-5e-324", "1000-5e-324"])
def test_exponent_self_check_passes_at_small_lambda_b(capsys, lambda_w, lambda_b):
    code, out, err = run_cli(capsys, "exponent", "--lambda-w", lambda_w,
                             "--lambda-b", lambda_b, "--self-check")
    assert code == 0, err
    jsonschema.validate(json.loads(out), schema("exponent_report"))


@pytest.mark.parametrize("rates", [
    ["--lambda-w", "50", "--lambda-b", "0.5", "--mu", "1e-12"],
    ["--lambda-w", "1e-300", "--lambda-b", "0", "--mu", "1e-300"],
    ["--lambda-w", "5.86e-11", "--lambda-b", "1.88e10", "--mu", "3.26e5"],
])
def test_exponent_answers_at_extreme_rates(capsys, rates):
    # (1-p)/(1-q) a hair below 1 at mu << lambda_w, rates whose products
    # underflow although every reported quantity is of order 1, and
    # (1-p)/(1-q) = 1.8e-16 at mu >> lambda_w << lambda_b
    code, out, err = run_cli(capsys, "exponent", *rates, "--self-check")
    assert code == 0, err
    jsonschema.validate(json.loads(out), schema("exponent_report"))


@pytest.mark.parametrize("rates", [
    ("1e200", "1", "1"), ("1e158", "1", "1"), ("6.36e161", "1", "1"),
    ("2.59e-74", "3.62e-70", "1.05e-255"),
], ids=["1e200", "1e158", "6.36e161", "2.59e-74"])
def test_exponent_answers_where_the_square_of_p_minus_q_underflows(capsys, rates):
    # p - q is of order 1/lambda_w or q: its square is 0 or subnormal where
    # v (1/2, or 0.7636397077791709 at 2.59e-74) and I are not, or I is 0.0
    code, out, err = run_cli(capsys, "exponent", "--lambda-w", rates[0], "--lambda-b",
                             rates[1], "--mu", rates[2], "--self-check")
    assert code == 0, err
    rep = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(rep, schema("exponent_report"))
    assert_matches_mpmath(tuple(map(float, rates)), rep)


# Drawn once; rates log-uniform in [1e-100, 1e100]
EXPONENT_FUZZ_SEED = 551182061


def test_exponent_fuzz_over_two_hundred_decades(capsys):
    # v and I of every accepted triple are within assert_matches_mpmath's
    # bounds.  Its report is a schema document, and every tenth passes
    # --self-check, unless the quadratic term (lambda_b/mu)^2 / (8 lambda_w/mu)
    # overflows (3 triples here), which exits 4; a refused triple exits 2
    validator = jsonschema.Draft202012Validator(schema("exponent_report"))
    rng = np.random.default_rng(EXPONENT_FUZZ_SEED)
    accepted = 0
    for rates in 10.0 ** rng.uniform(-100.0, 100.0, size=(1000, 3)):
        rates = tuple(map(float, rates))
        argv = ["exponent", *(f"--{flag}={rate!r}" for flag, rate in
                              zip(("lambda-w", "lambda-b", "mu"), rates)), "--self-check"]
        try:
            params = ModelParams(*rates)
        except ValueError:
            assert run_cli(capsys, *argv)[0] == 2
            continue
        rep = exponent.exponent_report(params)
        assert_matches_mpmath(rates, rep)
        if math.isinf(rep["i_err_taylor"]):
            assert run_cli(capsys, *argv)[0] == 4
            continue
        validator.validate(json.loads(json_text(rep)))
        if accepted % 10 == 0:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (rates, err)
            assert json.loads(out) == rep
        accepted += 1
    assert accepted >= 500


def test_numeric_minimizer_keeps_its_digits_where_q_is_tiny(capsys):
    # q = 1e-65 and a - b = 184: dr/du's difference form is s less a sum
    # within q a / log1p(x)^2 of it, so the bisection compares logs there
    rates = (1.0, 1e80, 1e15)
    code, out, err = run_cli(capsys, "exponent", "--lambda-w", "1", "--lambda-b", "1e80",
                             "--mu", "1e15", "--self-check")
    assert code == 0, err
    v_ref = float(mpmath_exponent(*rates)[0])
    assert v_ref == pytest.approx(0.8045397237801604, rel=1e-15, abs=0)
    assert abs(json.loads(out)["v_numeric"] - v_ref) < 1e-9


@pytest.mark.parametrize("argv, key, expected", [
    # (lambda_w + 1)**2 past the float64 range; the true 4.6e-464 underflows
    (["exponent", "--lambda-w", "1.4e154", "--lambda-b", "1"], "i_err_taylor", 0.0),
    # where (p - q)^2 is subnormal, v keeps its digits
    (["exponent", "--lambda-w", "1.4e154", "--lambda-b", "1"], "v_closed", 0.5),
    # lambda_b**2 underflowing to 0
    (["exponent", "--lambda-w", "1e150", "--lambda-b", "1e140"], "i_err_taylor", 1.25e-171),
    (["bound", "--lambda-w", "3e102", "--epsilon", "0.1", "--n", "100"], "bound",
     4.77052108077204e152),
    (["bound", "--lambda-w", "1e200", "--epsilon", "0.1", "--n", "100"], "bound",
     9.18087210052841e298),
])
def test_quadratic_forms_neither_overflow_nor_underflow(capsys, argv, key, expected):
    # expected values from mpmath at 15 digits
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    value = json.loads(out, parse_constant=_reject_constant)[key]
    assert value == pytest.approx(expected, rel=1e-13, abs=0)  # so 0.0 must be exact


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


@pytest.mark.parametrize("epsilon, expected", [
    # 50-digit mpmath values.  1 - epsilon rounds to 1.0 at 1e-17 and drops
    # digits at 1e-16, and 8 lambda_w / N * 5e-324 would underflow under one root
    ("1e-17", 6.368673331236263e-10),
    ("1e-16", 2.0139513400278568e-09),
    ("5e-324", 4.4765279620841153e-163),
], ids=["1e-17", "1e-16", "5e-324"])
def test_bound_keeps_the_digits_of_a_tiny_epsilon(capsys, epsilon, expected):
    code, out, err = run_cli(
        capsys, "bound", "--lambda-w", "0.3", "--epsilon", epsilon, "--n", "100"
    )
    assert code == 0, err
    rec = json.loads(out)
    jsonschema.validate(rec, schema("bound"))
    assert rec["feasible"] is True
    assert rec["bound"] == pytest.approx(expected, rel=1e-15, abs=0)


def test_bound_requires_n_or_table(capsys):
    code, _, err = run_cli_exit(capsys, "bound", "--lambda-w", "0.3", "--epsilon", "0.1")
    assert code == 2
    assert "one of the arguments --n --n-values is required" in err


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
    # q rounds to p here, but the LLR coefficients do not: 60-digit mpmath
    # puts the cut at 8 idle symbols of 10
    code, out, _ = run_cli(capsys, "sweep", "--lambda-w", "0.3", "--lambda-b", "1e-18",
                           "--n", "10", "--thresholds=0")
    assert code == 0
    [row] = json.loads(out)
    assert (row["gamma"], row["p_e"]) == (0.0, 0.5)
    for got, ref in ((row["p_f"], 0.41606789019443393), (row["p_m"], 0.58393210980556607)):
        assert abs(got - ref) <= 1e-9 * ref


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


def test_exact_sweep_at_zero_lambda_b_exits_3(capsys):
    code, out, err = run_cli(capsys, "sweep", "--lambda-w", "0.3", "--lambda-b", "0",
                             "--n", "10", "--thresholds=0")
    assert (code, out) == (3, "")
    assert err == "error: lambda_b must be positive for a nondegenerate test\n"


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


def _dispatched(monkeypatch, argv=None):
    """The namespace main(argv) hands to its command, every command stubbed out."""
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS",
                        {cmd: lambda args: seen.append(dict(vars(args))) or 0 for cmd in VALID})
    assert cli.main(argv) == 0
    return seen[0]


@pytest.mark.parametrize("cmd", VALID)
def test_main_hands_its_command_what_a_fresh_parser_parses(monkeypatch, cmd):
    argv = [cmd, *VALID[cmd]]
    expected = vars(cli.build_parser().parse_args(argv))
    assert _dispatched(monkeypatch, argv) == expected
    monkeypatch.setattr(sys, "argv", ["covertq", *argv])  # main() reads sys.argv[1:]
    assert _dispatched(monkeypatch) == expected


# Explicit ids, so dropping a row renames no other row; each keeps the name
# pytest gave it by position.
@pytest.mark.parametrize("argv, code", [
    pytest.param(["bound", "--lambda-w", "inf", "--epsilon", "0.1", "--n", "100"], 2,
                 id="argv0-2"),
    pytest.param(["bound", "--lambda-w", "nan", "--epsilon", "0.1", "--n", "100"], 2,
                 id="argv1-2"),
    # flags that bound does not define are unrecognized arguments
    pytest.param([*BOUND, "--n", "100", "--alpha", "nan"], 2, id="argv2-2"),
    pytest.param([*BOUND, "--n", "100", "--k0", "inf"], 2, id="argv3-2"),
    pytest.param([*BOUND, "--n", "100", "--n-values", "10,100"], 2, id="argv4-2"),
    pytest.param([*BOUND, "--n", "100", "--output", "csv"], 2, id="argv5-2"),
    # a bound of about 1e450
    pytest.param(["bound", "--lambda-w", "1e300", "--epsilon", "0.1", "--n", "100"], 4,
                 id="argv6-4"),
    pytest.param(["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "-3"], 2,
                 id="argv8-2"),
    # removed flags are unknown arguments
    pytest.param(["detect", *RATES, "--initial", "conditioned", "seq.txt"], 2, id="argv9-2"),
    pytest.param([*BOUND, "--n", "100", "--k-family", "power"], 2, id="argv10-2"),
    pytest.param(["simulate", *RATES, "--n", "10", "--hyp", "h0", "--burn-in", "2"], 2,
                 id="argv11-2"),
    # an --out path that cannot be written
    pytest.param(["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "3",
                  "--out", "/nonexistent/x"], 3, id="argv12-3"),
    pytest.param(["campaign", "good.cfg", "--out", "/nonexistent/x"], 3, id="argv13-3"),
    # a result that overflows to inf or nan
    pytest.param(["exponent", "--lambda-w", "0.3", "--lambda-b", "1e160"], 4, id="argv14-4"),
    pytest.param(["exponent", "--lambda-w", "0.3", "--lambda-b", "1e160", "--output", "csv"],
                 4, id="argv15-4"),
    pytest.param(["exponent", "--lambda-w", "0.3", "--lambda-b", "0.3", "--mu", "5e-324",
                  "--output", "csv"], 4, id="argv16-4"),
    # Cephes binomial tails are NaN from N = 2**31 on
    pytest.param(["sweep", *RATES, "--n", "3000000000", "--thresholds=0"], 4, id="argv18-4"),
    # a campaign whose exponent reference overflows, and a bound table row
    # that does
    pytest.param(["campaign", "huge.cfg", "--out", "r"], 4, id="argv19-4"),
    pytest.param(["bound", "--lambda-w", "1e300", "--epsilon", "0.1", "--n-values", "10,100"],
                 4, id="argv20-4"),
    # a sequence file that is not UTF-8
    pytest.param(["detect", *RATES, "latin1.txt"], 3, id="argv21-3"),
    # 2**58 float64 arrival times (2 EiB) exceed any address space
    pytest.param(["simulate", *RATES, "--n", str(2**58), "--hyp", "h0", "--seed", "1"], 3,
                 id="argv22-3"),
    # a config key given twice, and a sequence file of more than one line
    pytest.param(["campaign", "dup.cfg", "--out", "r"], 3, id="argv23-3"),
    pytest.param(["detect", *RATES, "lines.txt"], 3, id="argv24-3"),
    # an exponent report with a subnormal p, and one whose Taylor term overflows
    pytest.param(["exponent", "--lambda-w", "0.3", "--lambda-b", "1", "--mu", "1e-310"], 4,
                 id="exponent-subnormal-p-4"),
    pytest.param(["exponent", "--lambda-w", "2.544925609897243e-89",
                  "--lambda-b", "3.742364277868881e+67", "--mu", "1.4394107473115648e-86"], 4,
                 id="exponent-taylor-overflow-4"),
])
def test_bad_inputs_exit_with_their_code(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.cfg").write_text(CAMPAIGN)
    (tmp_path / "huge.cfg").write_text(CAMPAIGN.replace("lambda_b = 0.2", "lambda_b = 1e160"))
    (tmp_path / "latin1.txt").write_bytes(b"\xff\xfe")
    (tmp_path / "dup.cfg").write_text(CAMPAIGN + "lambda_b = 0.0\n")
    (tmp_path / "lines.txt").write_text("0101\n1111111\nhello\n")
    got, out, err = run_cli_exit(capsys, *argv)
    assert got == code, err
    assert out == ""
    assert "Traceback" not in err
    assert code != 3 or err.startswith("error: ")
    assert code != 4 or err.startswith("numeric failure: ")


@pytest.mark.parametrize("argv, same", [
    # the burn-in arrival's service, at the capped load, outlasts the run
    (LONG_SERVICE_SIMULATE, None),
    # 1000 gaps of mean 1e307 would pass 1e308, but these rates' ratios are (1, 1, 1)
    (["simulate", "--lambda-w=1e-307", "--lambda-b=1e-307", "--mu=1e-307", "--n=1000",
      "--hyp", "h1", "--seed=1"],
     ["simulate", "--lambda-w", "1", "--lambda-b", "1", "--mu", "1", "--n=1000",
      "--hyp", "h1", "--seed=1"]),
    # the same for a clock of about 26 / 6.8e-308; 2**1000 times each rate is exact
    (["simulate", *TINY_RATES, "--n=26", "--hyp=h0", "--seed=1"],
     ["simulate", *(f"{flag}={float(rate) * 2.0**1000!r}"
                    for flag, rate in (r.split("=") for r in TINY_RATES)),
      "--n=26", "--hyp=h0", "--seed=1"]),
])
def test_simulate_at_extreme_rates_sees_only_their_ratios(capsys, argv, same):
    # the single stream counts time in mean gaps, so no time overflows;
    # numpy warnings would print source paths, or under "error" escape main()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err.startswith("busy_fraction: ")
    if same is None:
        assert out == "1" * 26 + "\n"
    else:
        assert (0, out) == run_cli(capsys, *same)[:2]


def test_monte_carlo_sweep_at_tiny_rates_sees_only_their_ratios(capsys):
    # 26 gaps of mean 1/6.8e-308 pass 1e308, but the Monte Carlo simulator
    # counts time in mean gaps, where only the rates' ratios enter
    mc = [*TINY_RATES, "--n=26", "--thresholds=0"]
    code, out, err = run_cli(capsys, "sweep", *mc, "--trials=4000", "--seed=26")
    assert code == 0, err
    (got,) = json.loads(out)
    code, out, err = run_cli(capsys, "sweep", *mc)
    assert code == 0, err
    (exact,) = json.loads(out)
    for key in ("p_f", "p_m"):
        p = exact[key]
        assert abs(got[key] - p) <= 5 * math.sqrt(p * (1 - p) / 4000)


@pytest.mark.parametrize("argv", [
    HUGE_LOAD_SWEEP,
    # lambda_b / mu = inf
    [*HUGE_LOAD_SWEEP[:2], "--lambda-w=1e308", "--lambda-b=1e307", "--mu=1e-10",
     *HUGE_LOAD_SWEEP[4:]],
])
def test_monte_carlo_sweep_past_the_load_cap_matches_the_exact_sweep(capsys, argv):
    # the Monte Carlo simulator caps a load whose longest service would
    # overflow, which leaves every count as the uncapped load's
    trials = 26
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    (got,) = json.loads(out)
    code, out, err = run_cli(capsys, *argv[:-2])  # no --trials or --seed: exact
    assert code == 0, err
    (exact,) = json.loads(out)
    for key in ("p_f", "p_m"):
        p = exact[key]
        assert abs(got[key] - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1 / trials


def test_exact_campaign_with_nan_tails_exits_4(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(CAMPAIGN.replace("100,200", "100,3000000000"))
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert (code, out) == (4, "")
    assert err == "numeric failure: binomial tail is NaN at n=3000000000\n"
    assert list(tmp_path.iterdir()) == [cfg]


def _past_the_stream_range(monkeypatch):
    """One-trial blocks put the limit at 2**19 trials; simulating one fails the test."""
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a block")

    monkeypatch.setattr(detect, "MC_BLOCK_SIZE", 1)
    monkeypatch.setattr(detect, "simulate_sequence_batch", no_simulation)
    return 2**19 + 1


def test_monte_carlo_trials_past_the_stream_range_exit_2(monkeypatch, capsys):
    # refused before any Monte Carlo job is built, with one error line
    too_many = _past_the_stream_range(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", *RATES, "--n", "10", "--thresholds=0",
                             "--trials", str(too_many), "--seed", "1")
    assert (code, out) == (2, "")
    assert err == f"error: trials must be <= 524288 (2**19 blocks of 1), got {too_many}\n"


@pytest.mark.parametrize("mc_key", ["use_exact_when_feasible = false", "lambda_b = 0"])
def test_monte_carlo_campaign_trials_past_the_stream_range_exit_3(tmp_path, monkeypatch,
                                                                  capsys, mc_key):
    # a bad config value: refused before the --out check or any job, with
    # one error line; an exact campaign draws nothing and takes any count
    too_many = _past_the_stream_range(monkeypatch)
    text = CAMPAIGN.replace("= 10\n", f"= {too_many}\n")
    cfg = tmp_path / "many.cfg"
    cfg.write_text(text.replace("lambda_b = 0.2", mc_key) if mc_key.startswith("lambda_b")
                   else text + mc_key + "\n")
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert (code, out) == (3, "")
    assert err == ("error: bad config value: trials must be <= 524288 "
                   f"(2**19 blocks of 1), got {too_many}\n")
    assert list(tmp_path.iterdir()) == [cfg]
    cfg.write_text(text)
    assert run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))[0] == 0


@pytest.mark.parametrize("text, error", [
    pytest.param(CAMPAIGN.replace("100,200", "0,10,20"),
                 "bad config value: n_grid values must be >= 1, got 0",
                 id="n_grid = 0,10,20"),
    pytest.param(CAMPAIGN.replace("master_seed = 1", "master_seed = -1"),
                 "bad config value: seed and stream_id must be nonnegative, got (-1, 0)",
                 id="master_seed = -1"),
    pytest.param(CAMPAIGN + "stream_id = -2\n",
                 "bad config value: seed and stream_id must be nonnegative, got (1, -2)",
                 id="stream_id = -2"),
    pytest.param(CAMPAIGN + "use_exact_when_feasible = maybe\n",
                 "bad config value: use_exact_when_feasible: 'maybe' is not a boolean",
                 id="use_exact_when_feasible = maybe"),
    pytest.param(CAMPAIGN + "msater_seed = 2\n",
                 "unknown config key: msater_seed",
                 id="msater_seed = 2"),
    pytest.param(CAMPAIGN + "garbage\n",
                 "line 6: expected 'key = value', got 'garbage'",
                 id="garbage"),
])
def test_campaign_config_garbage_exits_3(tmp_path, capsys, text, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 3, err
    assert out == ""
    assert err == f"error: {error}\n"
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


def _no_campaign(cfg):
    raise AssertionError("run_campaign called before the --out paths were checked")


def test_campaign_unwritable_out_fails_before_the_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "run_campaign", _no_campaign)
    cfg = tmp_path / "good.cfg"
    cfg.write_text(CAMPAIGN)
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", "/nonexistent/x")
    assert (code, out) == (3, "")
    assert err == ("error: cannot write output: [Errno 2] No such file or directory: "
                   "'/nonexistent/x.json'\n")
    # the .json path is writable and already holds a result; the .csv is not
    (tmp_path / "r.json").write_text("old\n")
    (tmp_path / "r.csv").mkdir()
    (tmp_path / "s.csv").mkdir()
    for stem in ("r", "s"):
        code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / stem))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot write output: [Errno 21] Is a directory")
    assert (tmp_path / "r.json").read_text() == "old\n"
    assert not (tmp_path / "s.json").exists()


def test_campaign_failed_csv_write_leaves_no_json(tmp_path, monkeypatch, capsys):
    write = cli._write

    def write_json_only(path, text):
        if path.endswith(".csv"):
            raise cli.InputDataError("cannot write output: disk full")
        write(path, text)

    monkeypatch.setattr(cli, "_write", write_json_only)
    cfg = tmp_path / "good.cfg"
    cfg.write_text(CAMPAIGN)
    code, out, err = run_cli(capsys, "campaign", str(cfg), "--out", str(tmp_path / "r"))
    assert (code, out, err) == (3, "", "error: cannot write output: disk full\n")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_campaign_rerun_with_a_shorter_grid_rewrites_both_files(tmp_path, capsys):
    long_cfg, short_cfg = tmp_path / "long.cfg", tmp_path / "short.cfg"
    long_cfg.write_text(CAMPAIGN.replace("100,200", "100,200,400,800"))
    short_cfg.write_text(CAMPAIGN)
    assert run_cli(capsys, "campaign", str(long_cfg), "--out", str(tmp_path / "r"))[0] == 0
    inode = (tmp_path / "r.json").stat().st_ino
    assert run_cli(capsys, "campaign", str(short_cfg), "--out", str(tmp_path / "r"))[0] == 0
    assert run_cli(capsys, "campaign", str(short_cfg), "--out", str(tmp_path / "f"))[0] == 0
    for ext in (".json", ".csv"):
        assert (tmp_path / f"r{ext}").read_bytes() == (tmp_path / f"f{ext}").read_bytes()
    assert (tmp_path / "r.json").stat().st_ino == inode


SIM10 = ["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "3"]


def test_simulate_over_a_longer_file_leaves_only_its_line(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    out.write_text("1" * 1000 + "\n")
    out.chmod(0o600)
    assert run_cli(capsys, *SIM10, "--out", str(out))[0] == 0
    line = run_cli(capsys, *SIM10)[1]
    assert out.read_bytes() == line.encode() and len(line) == 11
    assert out.stat().st_mode & 0o777 == 0o600


def test_simulate_out_follows_a_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("0" * 50 + "\n")
    link.symlink_to(target)
    assert run_cli(capsys, *SIM10, "--out", str(link))[0] == 0
    assert link.is_symlink() and link.readlink() == target
    assert target.read_text() == run_cli(capsys, *SIM10)[1]


def test_simulate_out_dev_null_exits_0(capsys):
    code, out, _ = run_cli(capsys, *SIM10, "--out", os.devnull)
    assert (code, out) == (0, "")


def test_new_out_file_gets_0o666_under_the_umask(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        code = run_cli(capsys, *SIM10, "--out", str(tmp_path / "seq.txt"))[0]
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "seq.txt").stat().st_mode & 0o777 == 0o640


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
    assert b"\r" not in (tmp_path / "r.csv").read_bytes()


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
    proc = run_fresh(DEFERRED_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr


# Runs in a fresh interpreter: the package, its dir(), the CLI module and
# the analytic commands load neither numpy nor scipy; a simulation loads numpy.
DEFERRED_NUMPY = f"""
import sys
import covertq, covertq.cli

HEAVY = ("numpy", "scipy", "concurrent.futures")
RATES = {RATES!r}
BOUND = {BOUND!r}
assert len(covertq.__all__) == {len(PUBLIC)} and set(covertq.__all__) <= set(dir(covertq))
assert not any(m in sys.modules for m in HEAVY), "import covertq"
calls = [
    (["exponent", *RATES], 0),
    (["exponent", *RATES, "--output", "csv"], 0),
    (["exponent", *RATES, "--self-check"], 0),
    ([*BOUND, "--n", "1000"], 0),
    ([*BOUND, "--n-values", "10,100"], 0),
    ([*BOUND, "--n-values", "10,100", "--output", "csv"], 0),
    ([*BOUND, "--n", "100", "--output", "csv"], 2),
]
for argv, code in calls:
    assert covertq.cli.main(argv) == code, argv
    assert "numpy" not in sys.modules and "scipy" not in sys.modules, argv
assert covertq.cli.main(["simulate", *RATES, "--n", "10", "--hyp", "h0", "--seed", "1"]) == 0
assert "numpy" in sys.modules, "simulate"
"""


def test_numpy_is_loaded_only_by_the_simulating_commands(tmp_path):
    proc = run_fresh(DEFERRED_NUMPY, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_simulate_sequence_has_the_simulator_signature():
    params = inspect.signature(cli.simulate_sequence).parameters
    want = inspect.signature(simulate_sequence).parameters
    assert [(p.name, p.default) for p in params.values()] == \
        [(p.name, p.default) for p in want.values()]


# Runs in a fresh interpreter: a wrapper set on cli.simulate_sequence before
# any command has run is the function the simulate command calls.
WRAPPED_SIMULATE = f"""
import covertq.cli as cli

calls = []
original = cli.simulate_sequence
cli.simulate_sequence = lambda *a: calls.append(a) or original(*a)
argv = ["simulate", *{RATES!r}, "--n", "10", "--hyp", "h0", "--seed", "1"]
assert cli.main(argv) == 0 and cli.main(argv) == 0
assert len(calls) == 2, calls
"""


def test_simulate_calls_the_module_attribute(tmp_path):
    proc = run_fresh(WRAPPED_SIMULATE, tmp_path)
    assert proc.returncode == 0, proc.stderr


# Fuzzed flag values: ordinary rates, any float (nan, inf and subnormals
# included), huge, subnormal, zero and negative ones, written as
# --flag=value so a leading minus sign is not read as an option.
FLOATS = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(),
    st.floats(1e160, 1.7e308),
    st.floats(-1e-307, 1e-307),
    st.sampled_from([0.0, -0.0, 5e-324, -1.0]),
)
N_VALUES = st.one_of(st.integers(-2, 10**6), st.integers(10**300, 10**320))
N_LISTS = st.lists(N_VALUES, min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns)))


@st.composite
def fuzz_argv(draw):
    def maybe(*args):
        return list(args) if draw(st.booleans()) else []

    if draw(st.booleans()):
        argv = ["exponent", f"--lambda-w={draw(FLOATS)}", f"--lambda-b={draw(FLOATS)}",
                *maybe(f"--mu={draw(FLOATS)}"), *maybe("--self-check")]
    else:
        argv = ["bound", f"--lambda-w={draw(FLOATS)}", f"--epsilon={draw(FLOATS)}",
                *maybe(f"--n={draw(N_VALUES)}"), *maybe(f"--n-values={draw(N_LISTS)}")]
    return argv + maybe("--output=csv")


def run_fuzzed(argv):
    """cli.main(argv) -> (code, stdout, stderr); exit code and stderr checked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fuzz_argv())
def test_fuzzed_exponent_and_bound_exit_cleanly(argv):
    code, out, _ = run_fuzzed(argv)
    # a failed --self-check is the one nonzero exit that prints its report first
    assert code == 0 or out == "" or "--self-check" in argv
    if out and argv[-1] == "--output=csv":
        for line in out.splitlines()[1:]:
            assert all(math.isfinite(float(field)) for field in line.split(",")), out
    elif out:
        doc = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(doc, schema("bound" if argv[0] == "bound" else "exponent_report"))


def test_exponent_at_tiny_lambda_b_is_what_the_schema_defines(capsys):
    # the exponent is 4.34e-301 here; an r - 1 formed from two terms of
    # order lambda_b would leave a negative rounding residue instead
    code, out, err = run_cli(capsys, "exponent", "--lambda-w", "0.2", "--lambda-b", "1e-150")
    assert code == 0, err
    rec = json.loads(out)
    jsonschema.validate(rec, schema("exponent_report"))
    for key in ("i_err_closed", "i_err_numeric"):
        assert rec[key] == pytest.approx(4.3402777777777775e-301, rel=1e-13, abs=0)


# The simulating commands.  Half the calls draw only usable values, so they
# reach the simulator, the detector or the campaign; the rest draw every
# value from a wide range.  Every N that reaches the simulator is at most 1e4
# and every trial count at most 200, so an example costs milliseconds.
SIM_N = st.one_of(st.integers(1, 50), st.integers(1, 10**4))
SEEDS = st.one_of(st.integers(0, 100), st.integers(2**62, 2**70))
USABLE = {
    "rate": st.floats(1e-3, 10.0), "gamma": st.floats(-5.0, 5.0), "n": SIM_N,
    "exact_n": st.integers(1, 10**6), "trials": st.integers(1, 200), "seed": SEEDS,
    "bool": st.sampled_from(["true", "No", "0"]),
    "sequence": st.text("01", min_size=1, max_size=64).map(lambda t: f"{t}\n".encode()),
}
WIDE = {
    "rate": FLOATS, "gamma": FLOATS, "n": st.integers(-2, 10**4), "exact_n": N_VALUES,
    "trials": st.integers(-2, 200), "seed": st.one_of(st.integers(-2, 0), SEEDS),
    "bool": st.sampled_from(["true", "maybe"]),
    "sequence": st.one_of(st.text("01\n\r ", max_size=64).map(str.encode),
                          st.binary(max_size=16)),
}


@st.composite
def fuzz_sim_argv(draw, tmp):
    """(argv, campaign result path or None) for simulate, detect, sweep or campaign."""
    values = USABLE if draw(st.booleans()) else WIDE

    def pick(kind):
        return draw(values[kind])

    def maybe(*args):
        return list(args) if draw(st.booleans()) else []

    rates = [f"--lambda-w={pick('rate')}", f"--lambda-b={pick('rate')}",
             *maybe(f"--mu={pick('rate')}")]
    command = draw(st.sampled_from(["simulate", "detect", "sweep", "campaign"]))
    if command == "simulate":
        out = draw(st.sampled_from(["-", str(tmp / "seq.txt")]))
        hyp = draw(st.sampled_from(["h0", "h1"]))
        return ["simulate", *rates, f"--n={pick('n')}", f"--hyp={hyp}", f"--seed={pick('seed')}",
                *maybe(f"--stream-id={pick('seed')}"), f"--out={out}"], None
    if command == "detect":
        seq = tmp / "seq.txt"
        seq.write_bytes(pick("sequence"))
        return ["detect", *rates, *maybe(f"--threshold={pick('gamma')}"), str(seq)], None
    if command == "sweep":
        gammas = draw(st.lists(values["gamma"], min_size=1, max_size=3))
        argv = ["sweep", *rates, f"--thresholds={','.join(map(str, gammas))}"]
        if draw(st.booleans()):
            argv += [f"--n={pick('n')}", f"--trials={pick('trials')}", f"--seed={pick('seed')}"]
        else:
            argv += [f"--n={pick('exact_n')}"]
        return argv + maybe("--output=csv"), None
    keys = {
        "lambda_w": pick("rate"), "lambda_b": pick("rate"), "mu": pick("rate"),
        "n_grid": ",".join(map(str, sorted(draw(st.lists(values["n"], min_size=1,
                                                         max_size=3, unique=True))))),
        "trials_per_point": pick("trials"), "threshold": pick("gamma"),
        "master_seed": pick("seed"), "stream_id": pick("seed"),
        "use_exact_when_feasible": pick("bool"),
    }
    if values is WIDE and draw(st.booleans()):
        del keys[draw(st.sampled_from(sorted(keys)))]
    cfg = tmp / "campaign.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    threads = draw(st.sampled_from([1, 2]))
    argv = ["campaign", str(cfg), f"--out={tmp / 'r'}", f"--threads={threads}"]
    return argv, tmp / "r.json"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_simulating_commands_exit_cleanly(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    argv, result = data.draw(fuzz_sim_argv(tmp))
    code, out, _ = run_fuzzed(argv)
    if code != 0:
        assert out == ""
        assert result is None or not result.exists()
    elif argv[0] == "simulate":
        assert set(out.strip()) <= {"0", "1"}
    elif argv[0] == "campaign":
        doc = json.loads(result.read_text(), parse_constant=_reject_constant)
        jsonschema.validate(doc, schema("campaign_result"))
    elif argv[-1] == "--output=csv":
        for line in out.splitlines()[1:]:
            assert all(math.isfinite(float(field)) for field in line.split(",")), out
    else:
        doc = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(doc, schema("llr_result" if argv[0] == "detect" else "sweep"))
