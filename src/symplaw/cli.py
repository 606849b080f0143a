"""Command-line interface: JSON in, JSON or canonical exact values out.

    symplaw suite <pfaffian|det-law|invariants|gma|pseudochar|all>
        --d N --trials K --seed S [--input SPEC.json] [--out REPORT.json]
    symplaw eval <pfaffian|detlaw|invariant|theta> --input VALUE.json [--out OUT.json]

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input or
environment.  SYMPLAW_MAX_DIM caps 2d (default 12) on every path; it must be
a positive integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .detlaws import eval_det_law, eval_pf_law
from .errors import SchemaError, SymplawError
from .invariants import InvariantFunction, TraceWord, eval_invariant
from .pseudochar import Pseudocharacter, theta_eval
from .serialize import (
    gma_spec_from_json,
    group_elem_from_json,
    int_from_json,
    matrix_from_json,
    representation_from_json,
    ring_value_to_string,
)
from .suites import SuiteConfig, run_suite
from .symplectic import pfaffian
from .words import parse_word


def _max_dim() -> int:
    raw = os.environ.get("SYMPLAW_MAX_DIM", "12")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SymplawError(f"SYMPLAW_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}") from e


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_suite(args) -> int:
    if 2 * args.d > _max_dim():
        sys.stderr.write(f"2d = {2 * args.d} exceeds SYMPLAW_MAX_DIM = {_max_dim()}\n")
        return 2
    cfg = SuiteConfig(suite=args.name, d=args.d, trials=args.trials, seed=args.seed)
    spec = None
    if args.input:
        if args.name not in ("gma", "all"):
            sys.stderr.write("--input provides a GMA spec; only the gma/all suites accept one\n")
            return 2
        blob = _load_json(args.input)
        spec = gma_spec_from_json(blob, _max_dim())
    report = run_suite(cfg, gma_spec=spec)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _parse_trace_word(text: str) -> TraceWord:
    letters = []
    for token in str(text).split():
        starred = token.endswith("*")
        idx = token[:-1] if starred else token
        if not idx.isdigit():
            raise SchemaError(f"bad trace-word token {token!r}")
        letters.append((int(idx), starred))
    if not letters:
        raise SchemaError("empty trace word")
    return TraceWord(tuple(letters))


def _int_field(obj: dict, key: str, default: int) -> int:
    """obj[key] (or ``default`` if absent) as an int; an integer or a string of one."""
    return int_from_json(obj.get(key, default), key)


def _invariant_from_json(obj, arity: int) -> InvariantFunction:
    if not isinstance(obj, dict):
        raise SchemaError("invariant function must be an object")
    if "sigma_index" in obj:
        word = _parse_trace_word(obj.get("word", ""))
        return InvariantFunction.sigma(
            _int_field(obj, "sigma_index", 0), word, _int_field(obj, "arity", arity)
        )
    if "similitude_power" in obj:
        return InvariantFunction.similitude_power(
            _int_field(obj, "var_index", 1),
            _int_field(obj, "similitude_power", 0),
            _int_field(obj, "arity", arity),
        )
    raise SchemaError("invariant function needs sigma_index or similitude_power")


def _cmd_eval(args) -> int:
    blob = _load_json(args.input)
    if args.command == "pfaffian":
        if not isinstance(blob, dict) or "matrix" not in blob:
            raise SchemaError("pfaffian input must be {'matrix': [[..]]}")
        m = matrix_from_json(blob["matrix"])
        if m.rows > _max_dim():
            raise SchemaError("matrix exceeds SYMPLAW_MAX_DIM")
        values = {"pfaffian": ring_value_to_string(pfaffian(m))}
    elif args.command == "detlaw":
        if not isinstance(blob, dict) or "rep" not in blob or "element" not in blob:
            raise SchemaError("detlaw input must be {'rep':.., 'element':.., 'law': 'D'|'P'}")
        rep = representation_from_json(blob["rep"], _max_dim())
        x = group_elem_from_json(blob["element"])
        law = blob.get("law", "D")
        if law == "D":
            values = {"D": ring_value_to_string(eval_det_law(rep, x))}
        elif law == "P":
            values = {"P": ring_value_to_string(eval_pf_law(rep, x))}
        else:
            raise SchemaError(f"law must be 'D' or 'P', got {law!r}")
    elif args.command == "invariant":
        if not isinstance(blob, dict) or not isinstance(blob.get("matrices"), list):
            raise SchemaError("invariant input needs 'matrices', a list of matrices")
        mats = [matrix_from_json(m) for m in blob["matrices"]]
        if any(max(m.rows, m.cols) > _max_dim() for m in mats):
            raise SchemaError("matrix exceeds SYMPLAW_MAX_DIM")
        f = _invariant_from_json(blob, arity=len(mats))
        values = {"value": ring_value_to_string(eval_invariant(f, mats))}
    elif args.command == "theta":
        for key in ("rep", "f", "gammas"):
            if not isinstance(blob, dict) or key not in blob:
                raise SchemaError(f"theta input missing {key!r}")
        rep = representation_from_json(blob["rep"], _max_dim())
        if not isinstance(blob["gammas"], list) or not all(
            isinstance(w, str) for w in blob["gammas"]
        ):
            raise SchemaError("theta gammas must be a list of word strings")
        gammas = [parse_word(w) for w in blob["gammas"]]
        f = _invariant_from_json(blob["f"], arity=len(gammas))
        pc = Pseudocharacter(rep)
        values = {"theta": ring_value_to_string(theta_eval(pc, f, gammas))}
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError(f"unknown eval command {args.command!r}")
    _emit(values, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symplaw", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    ps = sub.add_parser("suite", help="run a named property suite")
    ps.add_argument("name", choices=("pfaffian", "det-law", "invariants", "gma", "pseudochar", "all"))
    ps.add_argument("--d", type=int, default=2)
    ps.add_argument("--trials", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except SymplawError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
