"""Command-line front end: ingest operator files, run analyses, emit reports.

Exit codes: 0 for a successful / true verdict, 1 for a false or infeasible
verdict, 2 for input errors (malformed JSON, schema violations, incompatible
files).  JSON output is byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import jsonio
from .catalog import catalog, get_example
from .dependence import classify_operators
from .errors import (
    DependentFinalStatesError,
    InvalidOperatorSetError,
    NotPerfectlyRetrodictableError,
    RetroqError,
    TooManyOutcomesError,
)
from .linalg import Tolerance
from .measurement import Measurement, Povm, QuantumState, Retrodictor
from .perfect import ProjectiveRetrodictor, build_retrodictor, check_perfect
from .simulation import run_trials
from .synthesis import synthesize
from .unambiguous import assess_measurement

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2

_DEFAULT_TRIALS = 10_000


def _number(kind: type, sign: str = "positive"):
    """Argparse type for a ``sign`` ("positive" or "nonnegative") ``kind``; its errors name
    ``kind``, as argparse's own do."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if value < 0 or (value == 0 and sign == "positive"):
            raise argparse.ArgumentTypeError(f"must be {sign}, got {text}")
        return value
    return parse


_seed = _number(int, "nonnegative")


def _default_seed() -> int:
    """``RETROQ_SEED``, 0 when unset; a value that is no seed is an input error naming it."""
    try:
        return _seed(os.environ.get("RETROQ_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"RETROQ_SEED: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroq",
        description="Decide, construct and simulate retrodiction of measurement outcomes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--tol-eq", type=_number(float), default=None,
                        help="relative residual threshold for matrix equations")
    common.add_argument("--tol-rank", type=_number(float), default=None,
                        help="relative singular-value threshold for ranks")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the invariants of a measurement / POVM / state file")
    p.add_argument("file")

    p = sub.add_parser("check-perfect", parents=[common],
                       help="decide perfect outcome retrodictability of a measurement")
    p.add_argument("file")

    p = sub.add_parser("build-retrodictor", parents=[common],
                       help="construct the projective retrodictor of a measurement")
    p.add_argument("file")

    p = sub.add_parser("synthesize", parents=[common],
                       help="build a perfectly retrodictable measurement from a POVM")
    p.add_argument("file")
    p.add_argument("--d-out", type=_number(int), required=True, help="output space dimension")

    p = sub.add_parser("classify", parents=[common],
                       help="linear / local-linear dependence verdicts for an operator set")
    p.add_argument("file")
    p.add_argument("--seed", type=_seed, default=None, help="sampling seed")

    p = sub.add_parser("assess", parents=[common],
                       help="feasibility of unambiguous retrodiction with entanglement")
    p.add_argument("file")

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo measurement + retrodiction confusion statistics")
    p.add_argument("measurement")
    p.add_argument("retrodictor")
    p.add_argument("state")
    p.add_argument("--trials", type=_number(int, "nonnegative"), default=_DEFAULT_TRIALS)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("examples", parents=[common],
                       help="dump a bundled example (no name: list all)")
    p.add_argument("name", nargs="?")

    return parser


def _tolerance(args) -> Tolerance:
    kwargs = {}
    if args.tol_eq is not None:
        kwargs["eq_residual"] = args.tol_eq
    if args.tol_rank is not None:
        kwargs["rank_rel"] = args.tol_rank
    return Tolerance(**kwargs)


def _emit(args, obj: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def _load(path: str, tol: Tolerance, kind: type = object, expects: str = ""):
    """Load a file; anything but a ``kind`` is an input error with message ``expects``."""
    loaded = jsonio.load_file(path, tol)
    if not isinstance(loaded, kind):
        raise ValueError(expects)
    return loaded


def _cmd_validate(args, tol: Tolerance) -> int:
    loaded = _load(args.file, tol)
    if isinstance(loaded, Measurement):
        kind, detail = "measurement", (
            f"d_in={loaded.d_in} d_out={loaded.d_out} outcomes={loaded.n_outcomes} "
            f"fine_grained={loaded.fine_grained}"
        )
    elif isinstance(loaded, Povm):
        kind, detail = "povm", f"d={loaded.d} outcomes={loaded.n_outcomes}"
    elif isinstance(loaded, QuantumState):
        kind, detail = "state", f"kind={loaded.kind} dim={loaded.dim} factors={loaded.factor_dims}"
    elif isinstance(loaded, ProjectiveRetrodictor):
        kind, detail = "projective_retrodictor", f"d_out={loaded.d} outcomes={loaded.n_outcomes}"
    elif isinstance(loaded, Retrodictor):
        kind, detail = "unambiguous_retrodictor", f"d={loaded.d} outcomes={loaded.n_outcomes}"
    else:
        kind, detail = "operators", f"count={len(loaded)}"
    _emit(args, {"valid": True, "type": kind},
          [f"valid {kind}: {detail}"])
    return EXIT_OK


def _cmd_check_perfect(args, tol: Tolerance) -> int:
    m = _load(args.file, tol, Measurement, "check-perfect expects a measurement file")
    report = check_perfect(m, tol)
    lines = [
        f"retrodictable: {str(report.retrodictable).lower()}",
        f"max residual:  {report.max_residual:.6e}",
    ]
    if report.witness is not None:
        k, kp, r, rp = report.witness
        lines.append(f"witness:       outcomes ({k}, {kp}), operators ({r}, {rp})")
    _emit(args, jsonio.perfect_report_to_obj(report), lines)
    return EXIT_OK if report.retrodictable else EXIT_NEGATIVE


def _cmd_build_retrodictor(args, tol: Tolerance) -> int:
    m = _load(args.file, tol, Measurement, "build-retrodictor expects a measurement file")
    retro = build_retrodictor(m, tol)
    obj = jsonio.projective_to_obj(retro)
    ranks = [int(round(float(np.trace(p).real))) for p in retro.projectors]
    _emit(args, obj, [f"projective retrodictor on dimension {retro.d}",
                      f"projector ranks: {ranks}"])
    return EXIT_OK


def _cmd_synthesize(args, tol: Tolerance) -> int:
    p = _load(args.file, tol, Povm, "synthesize expects a POVM file")
    result = synthesize(p, args.d_out, tol=tol)
    obj = jsonio.measurement_to_obj(result.measurement)
    sizes = np.diff(result.measurement.starts).tolist()
    _emit(args, obj, [f"synthesised measurement: d_in={p.d} d_out={args.d_out}",
                      f"kraus group sizes: {sizes}"])
    return EXIT_OK


def _cmd_classify(args, tol: Tolerance) -> int:
    loaded = _load(args.file, tol)
    if isinstance(loaded, Measurement):
        ops = loaded.kraus
    elif isinstance(loaded, list):
        ops = loaded
    else:
        raise ValueError("classify expects a measurement or operator-list file")
    verdict = classify_operators(ops, tol, seed=args.seed)
    lines = [
        f"linearly independent:       {str(verdict.linearly_independent).lower()}",
        f"locally linearly dependent: {verdict.lld} ({verdict.lld_reason})",
        f"locally linearly independent: {verdict.lli}",
        f"min sigma: {verdict.min_sigma:.6e}",
    ]
    _emit(args, jsonio.verdict_to_obj(verdict), lines)
    return EXIT_OK


def _cmd_assess(args, tol: Tolerance) -> int:
    m = _load(args.file, tol, Measurement, "assess expects a measurement file")
    assessment = assess_measurement(m, tol)
    lines = [f"feasible: {assessment.feasible}"]
    if assessment.p_inconclusive is not None:
        lines.append(f"p_inconclusive on recommended state: {assessment.p_inconclusive:.6e}")
    _emit(args, jsonio.assessment_to_obj(assessment), lines)
    return EXIT_OK if assessment.feasible == "yes" else EXIT_NEGATIVE


def _cmd_simulate(args, tol: Tolerance) -> int:
    m = _load(args.measurement, tol, Measurement, "simulate expects a measurement file first")
    retro = _load(args.retrodictor, tol, Retrodictor, "simulate expects a retrodictor file second")
    state = _load(args.state, tol, QuantumState, "simulate expects a state file third")
    report = run_trials(m, retro, state, args.trials, args.seed, tol)
    lines = [
        f"trials:            {report.n_trials}",
        f"agreement rate:    {report.agreement_rate:.6f}",
        f"inconclusive rate: {report.inconclusive_rate:.6f}",
        f"mismatches:        {report.mismatches}",
        "confusion (rows retrodicted + inconclusive, columns actual):",
    ]
    lines += ["  " + " ".join(f"{c:8d}" for c in row) for row in report.confusion]
    _emit(args, jsonio.trial_report_to_obj(report), lines)
    return EXIT_OK


def _cmd_examples(args, tol: Tolerance) -> int:
    if args.name is None:
        names = [ex.name for ex in catalog()]
        _emit(args, {"examples": names}, names)
        return EXIT_OK
    try:
        ex = get_example(args.name)
    except KeyError as exc:
        raise ValueError(str(exc)) from exc
    obj = jsonio.example_to_obj(ex)
    _emit(args, obj, [jsonio.dumps(obj).rstrip("\n")])
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "check-perfect": _cmd_check_perfect,
    "build-retrodictor": _cmd_build_retrodictor,
    "synthesize": _cmd_synthesize,
    "classify": _cmd_classify,
    "assess": _cmd_assess,
    "simulate": _cmd_simulate,
    "examples": _cmd_examples,
}

# domain errors that represent a negative verdict rather than unusable input
_NEGATIVE = (
    NotPerfectlyRetrodictableError,
    TooManyOutcomesError,
    DependentFinalStatesError,
    InvalidOperatorSetError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerance(args)
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _HANDLERS[args.command](args, tol)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    except _NEGATIVE as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except RetroqError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyError as exc:  # a file without a required field
        print(f"error: missing field {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
