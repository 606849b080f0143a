"""Every function of ``src/symplaw`` is reached from the CLI, or listed in ``unreached.txt``.

The probe runs ``symplaw.cli.main`` on every suite and once on each ``eval`` verb, and
records each call into the package with ``sys.setprofile``.  It runs in a fresh interpreter:
in process, caches that earlier tests filled (``SignedPermutation.standard``'s, or
``multipoly._guard``'s) would answer calls whose bodies then never run.  A function is named
``module:qualname`` from the AST and matched to a frame by its file and first line.

The test fails on a function that the probe never calls and the list does not name, and on
a listed function that the probe calls; its message gives the lines to add or remove.  Each
line of ``unreached.txt`` is ``module:qualname  reason  # note``, with one reason of:
``api`` (public, or a dunder), ``error`` (an error path), ``oracle`` (a second route that a
test compares with) or ``gap`` (the note names the ROADMAP item that would reach it).
The probe's runs change only when a suite or a CLI verb does; never shrink them to move a
function onto the list.  ``python tests/test_reach.py DIR`` runs the probe and prints what
it reached, writing its inputs into DIR.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import symplaw

PACKAGE = Path(symplaw.__file__).parent  # the package under test, as the probe's child imports it
LISTED = Path(__file__).with_name("unreached.txt")
REASONS = ("api", "error", "oracle", "gap")

_SUITE = ["--seed", "1", "--trials", "5"]

# a valid GMA spec: blocks as polynomial strings, and a block "u + v" that spans one of
# its two monomials, so that membership goes through the echelon rows
_GMA_SPEC = {
    "I0": [1], "I1": [2], "I2": [3], "sigma": [1, 3, 2], "dims": [2, 1, 1],
    "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
    "blocks": {"1,2": ["u + v"], "2,1": ["v"], "3,1": ["u + v"], "1,3": ["v"]},
    "tau_signs": {"1,2": 1, "1,3": 1, "2,3": 1},
}

# Sp_4: diag(A, A^-T) and a unipotent [[I, S], [0, I]]; GSp_4 with lambda = 2: diag(2I, I)
# and diag(A, 2 A^-T)
_SP = [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]],
       [[1, 0, 1, 0], [0, 1, 0, "2"], [0, 0, 1, 0], [0, 0, 0, 1]]]
_GSP = [[[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, -2, 2]]]
_ELEMENT = {"terms": [{"word": "g1 g2", "coef": "1/2"}, {"word": "g2^-1", "coef": -3}]}
# x + x* for x = g1 g2 / 2 under lambda = 2: (g1 g2)* = 4 g2^-1 g1^-1
_SYMMETRIC = {"terms": [{"word": "g1 g2", "coef": "1/2"}, {"word": "g2^-1 g1^-1", "coef": 2}]}

_EVALS = {
    "pfaffian": {"matrix": [[0, 1, "2/3", 0], [-1, 0, 5, 1], ["-2/3", -5, 0, 7], [0, -1, -7, 0]]},
    "detlaw": {"rep": {"d": 2, "kind": "Sp", "generators": _SP}, "element": _ELEMENT},
    "detlaw-P": {"rep": {"d": 2, "kind": "GSp", "generators": _GSP, "lambdas": [2, 2]},
                 "element": _SYMMETRIC, "law": "P"},
    "invariant": {"sigma_index": 2, "word": "1 1*",
                  "matrices": [[["u", 1, 0, 0], [0, 1, "v", 0], [2, 0, "u*v - 1", 0], [0, 0, 1, 3]]]},
    "theta": {"rep": {"d": 2, "kind": "Sp", "generators": _SP},
              "f": {"sigma_index": 1, "word": "1 2*"}, "gammas": ["g1 g2", "g2^-1"]},
}


def _runs(workdir: Path) -> list:
    """The probe's command lines, after writing their JSON inputs into ``workdir``."""
    def written(name, blob):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        return str(path)

    runs = [["suite", "all", "--d", d, *_SUITE] for d in ("1", "2")]
    runs.append(["suite", "gma", "--input", written("gma", _GMA_SPEC), *_SUITE])
    runs += [["eval", name.partition("-")[0], "--input", written(name, blob)]
             for name, blob in _EVALS.items()]
    return runs


def functions() -> dict:
    """(file, first line) -> "module:qualname" of every function the package defines.

    The first line of a decorated function is its first decorator's, as in its code object.
    """
    found = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(dec.lineno for dec in child.decorator_list)])
                found[(path, first)] = f"{module}:{prefix}{child.name}"
                visit(child, path, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{prefix}{child.name}.")
            else:
                visit(child, path, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem, "")
    return found


def _probe(workdir: Path) -> dict:
    """{"codes": the exit code of each run, "reached": the sorted names the runs called}."""
    from symplaw import cli

    runs = _runs(workdir)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            sys.setprofile(profile)
            try:
                codes.append(cli.main(argv))
            finally:
                sys.setprofile(None)
    defined = functions()
    reached = {defined.get((code.co_filename, code.co_firstlineno)) for code in called}
    return {"codes": codes, "reached": sorted(reached - {None})}


def listed() -> dict:
    """name -> (reason, note) of each line of ``unreached.txt``; blank and "#" lines skipped."""
    entries = {}
    for line in LISTED.read_text(encoding="utf-8").splitlines():
        entry, _, note = line.partition("#")
        if not entry.strip():
            continue
        name, reason = entry.split()
        assert name not in entries, f"{name} is listed twice"
        entries[name] = (reason, note.strip())
    return entries


def test_every_function_is_reached_or_listed(tmp_path, child_env):
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=child_env,
                          capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout)
    assert probe["codes"] == [0] * len(probe["codes"]), probe["codes"]

    defined, reached, entries = set(functions().values()), set(probe["reached"]), listed()
    add = sorted(defined - reached - entries.keys())
    remove = sorted(name for name in entries if name in reached or name not in defined)
    lines = []
    if add:
        lines += [f"add to {LISTED.name}:",
                  *(f"{name}  <{'|'.join(REASONS)}>  # why nothing reaches it" for name in add)]
    if remove:
        lines += [f"remove from {LISTED.name} (reached, or no longer defined):",
                  *(f"{name}  {entries[name][0]}" for name in remove)]
    assert not lines, "\n" + "\n".join(lines)


def test_every_listed_function_has_one_reason():
    bad = [f"{name}  {reason}  # {note}" for name, (reason, note) in listed().items()
           if reason not in REASONS or (reason == "gap" and "item" not in note)]
    assert not bad, bad


if __name__ == "__main__":
    json.dump(_probe(Path(sys.argv[1])), sys.stdout)
