"""Command-line front end.

Subcommands: simulate, detect, exponent, bound, campaign, sweep.

Exit codes are stable: 0 success, 2 argument error, 3 input data error
(a bad sequence file or campaign config, an --out path that cannot be
written, or exact error probabilities asked for at lambda_b = 0), 4
numeric failure (an arithmetic error, or a result that is NaN or
infinite).  Every randomized command either takes an explicit --seed or
prints the one it generated, so any published number can be reproduced.
"""

from __future__ import annotations

import argparse
import functools
import os
import secrets
import sys
from typing import TYPE_CHECKING

from . import covert, exponent
from .model import DegenerateModelError, Hypothesis, ModelParams, csv_text, json_text

if TYPE_CHECKING:
    from .sim import ObservationSequence, RngSeed

# detect, experiment and sim load numpy, so only the commands that use
# them import them; exponent and bound run without numpy.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

SELF_CHECK_TOL = 1e-8


class InputDataError(Exception):
    pass


def simulate_sequence(params, hyp, n, seed, burn_in=1):
    """sim.simulate_sequence, imported on first call.

    The simulate command calls it through this module attribute, which
    perfbench/spans.py replaces with a tracing wrapper.
    """
    from . import sim
    return sim.simulate_sequence(params, hyp, n, seed, burn_in)


def _add_rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-w", type=float, required=True, help="Willie arrival rate")
    p.add_argument("--lambda-b", type=float, required=True, help="Nillie arrival rate")
    p.add_argument("--mu", type=float, default=1.0, help="service rate (default 1)")


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; generated and printed when omitted")
    p.add_argument("--stream-id", type=int, default=0)


def _resolve_seed(args) -> RngSeed:
    from .sim import RngSeed
    if args.seed is None:
        args.seed = secrets.randbits(48)
        print(f"seed: {args.seed}", file=sys.stderr)
    return RngSeed(args.seed, args.stream_id)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Covert queueing analysis for a bufferless M/M/1/1 server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a busy/idle observation sequence")
    _add_rate_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of arrivals")
    p.add_argument("--hyp", choices=["h0", "h1"], required=True)
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")
    _add_seed_flags(p)

    p = sub.add_parser("detect", help="run the likelihood-ratio test on a sequence")
    _add_rate_flags(p)
    p.add_argument("sequence", help="file holding one line of 0/1 characters")
    p.add_argument("--threshold", type=float, default=0.0)

    p = sub.add_parser("exponent", help="error-exponent report for one rate triple")
    _add_rate_flags(p)
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--self-check", action="store_true",
                   help="exit 4 if closed-form and numeric exponents disagree")

    p = sub.add_parser("bound", help="covert-rate bound and scaling table")
    p.add_argument("--lambda-w", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    n_or_table = p.add_mutually_exclusive_group(required=True)
    n_or_table.add_argument("--n", type=int, default=None, help="single N to evaluate")
    n_or_table.add_argument("--n-values", default=None,
                            help="comma-separated increasing N list for the table")
    p.add_argument("--k0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--output", choices=["json", "csv"], default="json")

    p = sub.add_parser("campaign", help="run an error-probability campaign")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--out", required=True, help="output path stem (.json/.csv added)")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("sweep", help="threshold sweep at fixed N")
    _add_rate_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--thresholds", required=True, help="comma-separated gamma values")
    p.add_argument("--trials", type=int, default=None,
                   help="Monte Carlo trials (default: exact binomial)")
    p.add_argument("--output", choices=["json", "csv"], default="json")
    _add_seed_flags(p)

    return parser


def _params_from_args(args) -> ModelParams:
    return ModelParams(args.lambda_w, args.lambda_b, args.mu)


def _read_sequence(path: str) -> ObservationSequence:
    from .sim import ObservationSequence
    try:
        with open(path, errors="replace") as fh:  # undecodable bytes fail from_line
            line = fh.readline()
    except OSError as exc:
        raise InputDataError(f"cannot read sequence file: {exc}")
    try:
        return ObservationSequence.from_line(line)
    except ValueError as exc:
        raise InputDataError(f"{path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputDataError(f"cannot write output: {exc}")


def _check_writable(path: str) -> None:
    """Raise the error `_write` would raise, without creating or truncating."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise InputDataError(f"cannot write output: {exc}")
    if not existed:
        os.remove(path)


def _emit(args, doc, csv) -> None:
    """Print `doc` as JSON, or under --output csv the text `csv()` returns."""
    sys.stdout.write(csv() if args.output == "csv" else json_text(doc) + "\n")


def _cmd_simulate(args) -> int:
    params = _params_from_args(args)
    seed = _resolve_seed(args)
    hyp = Hypothesis.H1 if args.hyp == "h1" else Hypothesis.H0
    obs = simulate_sequence(params, hyp, args.n, seed)
    line = obs.to_line()
    if args.out == "-":
        print(line)
    else:
        _write(args.out, line + "\n")
    print(f"busy_fraction: {obs.busy_fraction:.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_detect(args) -> int:
    from . import detect
    params = _params_from_args(args)
    obs = _read_sequence(args.sequence)
    result = detect.decide(obs, params, args.threshold)
    print(json_text({"llr": result.llr, "decision": result.decision.name,
                     "threshold": result.threshold, "n": obs.n}))
    return EXIT_OK


def _cmd_exponent(args) -> int:
    params = _params_from_args(args)
    rep = exponent.exponent_report(params)
    _emit(args, rep, lambda: csv_text(
        ("lambda_w", "lambda_b", "mu", "v", "i_err_closed", "i_err_numeric",
         "i_err_taylor"),
        [(params.lambda_w, params.lambda_b, params.mu, rep["v_closed"],
          rep["i_err_closed"], rep["i_err_numeric"], rep["i_err_taylor"])],
    ))
    if args.self_check:
        if (abs(rep["v_closed"] - rep["v_numeric"]) > SELF_CHECK_TOL
                or abs(rep["i_err_closed"] - rep["i_err_numeric"]) > SELF_CHECK_TOL):
            print("self-check failed: closed-form and numeric exponents disagree",
                  file=sys.stderr)
            return EXIT_NUMERIC
    return EXIT_OK


def _cmd_bound(args) -> int:
    k = covert.KFunction(k0=args.k0, alpha=args.alpha)
    if args.n_values is not None:
        n_values = [int(s) for s in args.n_values.split(",")]
        rows = covert.scaling_table(args.lambda_w, args.epsilon, k, n_values)
        _emit(args, rows, lambda: covert.scaling_table_csv(rows))
        return EXIT_OK
    if args.output == "csv":
        raise ValueError("--output csv requires --n-values")
    spec = covert.CovertnessSpec(epsilon=args.epsilon, n=args.n, k=k)
    bound = covert.max_covert_rate(args.lambda_w, spec)
    print(json_text({"n": args.n, "bound": bound.value, "feasible": bound.feasible}))
    return EXIT_OK


def _cmd_campaign(args) -> int:
    from . import experiment
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    try:
        with open(args.config) as fh:
            cfg = experiment.CampaignConfig.from_config(fh.read(), args.threads)
    except OSError as exc:
        raise InputDataError(f"cannot read config: {exc}")
    except ValueError as exc:
        raise InputDataError(str(exc))
    json_path, csv_path = args.out + ".json", args.out + ".csv"
    for path in (json_path, csv_path):  # fail before the work, not after it
        _check_writable(path)
    result = experiment.run_campaign(cfg)
    _write(json_path, experiment.result_to_json(result))
    try:
        _write(csv_path, experiment.rows_to_csv(result))
    except InputDataError:
        os.remove(json_path)  # no result file without its pair
        raise
    print(f"wrote {args.out}.json and {args.out}.csv")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import experiment
    params = _params_from_args(args)
    thresholds = [float(s) for s in args.thresholds.split(",")]
    seed = _resolve_seed(args) if args.trials is not None else None
    rows = experiment.threshold_sweep(params, args.n, thresholds, args.trials, seed)
    header = ("gamma", "p_f", "p_m", "p_e")
    _emit(args, rows, lambda: csv_text(header, [[r[h] for h in header] for r in rows]))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "exponent": _cmd_exponent,
    "bound": _cmd_bound,
    "campaign": _cmd_campaign,
    "sweep": _cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so calls to main() in one
    # process share it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputDataError, DegenerateModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:  # NonFiniteError too
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
