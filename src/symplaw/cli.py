"""Command-line interface: JSON in, JSON or canonical exact values out.

    symplaw suite <pfaffian|det-law|invariants|gma|pseudochar|all>
        --d N --trials K --seed S [--input SPEC.json] [--out REPORT.json]
    symplaw eval <pfaffian|detlaw|invariant|theta> --input VALUE.json [--out OUT.json]

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input or
environment: any SymplawError, printed by ``main`` as one "input error:" line,
its message cut to ``_MESSAGE_CHARS`` and "... (N characters)".  JSON nested
past the decoder's recursion limit is refused as any unreadable JSON.
SYMPLAW_MAX_DIM caps 2d (default 12) on every path; it must be a positive
integer.  Every integer read from text, in argv, the environment or JSON,
follows ``words.integer_literal``: an optional "-" and ASCII digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .detlaws import eval_det_law, eval_pf_law
from .errors import SchemaError, SymplawError
from .invariants import eval_invariant
from .pseudochar import Pseudocharacter, theta_eval
from .serialize import (
    eval_arguments,
    gma_spec_from_json,
    group_elem_from_json,
    invariant_from_json,
    json_fields,
    matrix_from_json,
    representation_from_json,
    ring_value_to_string,
)
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .symplectic import pfaffian
from .words import integer_literal, parse_word


_MESSAGE_CHARS = 300  # of a refusal message printed before the cut


def _max_dim() -> int:
    raw = os.environ.get("SYMPLAW_MAX_DIM", "12")
    cap = integer_literal(raw)
    if cap is None or cap < 1:
        raise SymplawError(f"SYMPLAW_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def integer(text: str) -> int:
    """An argv integer by ``integer_literal``; argparse reports the ValueError."""
    value = integer_literal(text)
    if value is None:
        raise ValueError(text)
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # bad, too deep, or past the digit limit
        raise SchemaError(f"cannot read JSON from {path!r}: {e}") from e


def _emit(report: dict, out_path: str | None):
    """Write the report whole to ``out_path`` if given, then print it; a failed write of either
    is refused, and a failed file write leaves stdout empty."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        if out_path:
            Path(out_path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot write to {out_path!r}: {e}") from e
    try:
        print(text, end="", flush=True)
    except OSError as e:  # fd to devnull, so the flush at exit of any bytes still buffered succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SchemaError(f"cannot write to stdout: {e}") from e


def _cmd_suite(args, cap: int) -> int:
    if 2 * args.d > cap:
        raise SchemaError(f"2d = {2 * args.d} exceeds SYMPLAW_MAX_DIM = {cap}")
    cfg = SuiteConfig(suite=args.name, d=args.d, trials=args.trials, seed=args.seed)
    spec = None
    if args.input:
        if args.name not in ("gma", "all"):
            raise SchemaError("--input provides a GMA spec; only the gma/all suites accept one")
        blob = _load_json(args.input)
        spec = gma_spec_from_json(blob, cap)
    report = run_suite(cfg, gma_spec=spec)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_eval(args, cap: int) -> int:
    blob = _load_json(args.input)
    if args.command == "pfaffian":
        (m,) = json_fields(blob, "pfaffian input", ("matrix",))
        values = {"pfaffian": ring_value_to_string(pfaffian(matrix_from_json(m, cap)))}
    elif args.command == "detlaw":
        rep, x, law = json_fields(blob, "detlaw input", ("rep", "element"), {"law": "D"})
        rep, x = representation_from_json(rep, cap), group_elem_from_json(x)
        if law not in ("D", "P"):
            raise SchemaError(f"law must be 'D' or 'P', got {law!r}")
        values = {law: ring_value_to_string((eval_det_law if law == "D" else eval_pf_law)(rep, x))}
    elif args.command == "invariant":
        make, raw = invariant_from_json(blob, "matrices")
        mats = [matrix_from_json(m, cap) for m in eval_arguments(raw, "invariant matrices")]
        values = {"value": ring_value_to_string(eval_invariant(make(len(mats)), mats))}
    else:  # theta; argparse refuses any other verb
        rep, f, raw = json_fields(blob, "theta input", ("rep", "f", "gammas"))
        if not all(isinstance(w, str) for w in eval_arguments(raw, "theta gammas")):
            raise SchemaError("theta gammas must be a list of word strings")
        rep = representation_from_json(rep, cap)
        gammas = [parse_word(w) for w in raw]
        (make,) = invariant_from_json(f)
        theta = theta_eval(Pseudocharacter(rep), make(len(gammas)), gammas)
        values = {"theta": ring_value_to_string(theta)}
    _emit(values, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, with a malformed command line raised as a SchemaError (one line, exit 2)."""

    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symplaw", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    ps = sub.add_parser("suite", help="run a named property suite")
    ps.add_argument("name", choices=SUITE_NAMES)
    ps.add_argument("--d", type=integer, default=2)
    ps.add_argument("--trials", type=integer, default=100)
    ps.add_argument("--seed", type=integer, default=0)
    ps.add_argument("--input", default=None, help="GMA spec JSON (gma suite only)")
    ps.add_argument("--out", default=None, help="also write the JSON report here")
    ps.set_defaults(func=_cmd_suite)

    pe = sub.add_parser("eval", help="evaluate one exact value from a JSON input")
    pe.add_argument("command", choices=("pfaffian", "detlaw", "invariant", "theta"))
    pe.add_argument("--input", required=True)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:  # refuse an unwritable --out before any work, leaving the path as it was found
            if args.out and not Path(args.out).is_fifo():  # a FIFO is opened only by _emit
                target = os.path.realpath(args.out)  # "x" refuses a dangling link; "w" follows it
                try:
                    open(target, "x").close()
                    os.remove(target)
                except FileExistsError:
                    open(target, "a").close()
        except OSError as e:
            raise SchemaError(f"cannot write to {args.out!r}: {e}") from e
        return args.func(args, _max_dim())
    except SymplawError as e:  # every refusal, one line, cut past _MESSAGE_CHARS
        message = str(e)
        if len(message) > _MESSAGE_CHARS:
            message = f"{message[:_MESSAGE_CHARS]}... ({len(message)} characters)"
        sys.stderr.write(f"input error: {message}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
