"""README.md against the package: the library map names every public name in the row of
the module that defines it, every name in a row is one of that module's, and the examples
print what the README says they print."""

import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

import symplaw
from symplaw import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# a map row: | `symplaw.module` | contents |
ROW = re.compile(r"^\|\s*`(symplaw\.\w+)`\s*\|(.*)\|\s*$", re.MULTILINE)
# a backticked name, dotted or not, alone or followed by its arguments: `mat_det(m, dot)`
NAME = re.compile(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`")


def _map_rows() -> dict:
    section = README.split("## Library map", 1)[1]
    return {module: set(NAME.findall(contents)) for module, contents in ROW.findall(section)}


ROWS = _map_rows()


def _resolves(module, dotted: str) -> bool:
    owner = module
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_public_name_is_in_the_row_of_its_module():
    missing = [f"{name} ({getattr(symplaw, name).__module__})" for name in symplaw.__all__
               if name not in ROWS.get(getattr(symplaw, name).__module__, ())]
    assert not missing, missing


@pytest.mark.parametrize("module", sorted(ROWS))
def test_every_name_in_a_row_belongs_to_its_module(module):
    mod = importlib.import_module(module)
    unknown = sorted(name for name in ROWS[module] if not _resolves(mod, name))
    assert not unknown, unknown


def _code_block(after: str, language: str) -> str:
    return README.split(after, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_the_quick_taste_prints_what_its_comment_says():
    code = _code_block("## A quick taste", "python")
    expected = code.rstrip().rsplit("# ", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == expected + "\n" == "t^2 - 3*t + 2\n"


def test_the_eval_pfaffian_example_prints_what_its_comment_says(tmp_path, capsys):
    lines = _code_block("Examples:", "sh").splitlines()
    echo = next(line for line in lines if line.startswith("echo "))
    run = next(line for line in lines if line.startswith("symplaw eval pfaffian"))
    words = shlex.split(echo)
    (tmp_path / words[-1]).write_text(words[1], encoding="utf-8")
    command, expected = run.split("#", 1)
    argv = shlex.split(command)[1:]
    argv[argv.index("--input") + 1] = str(tmp_path / argv[argv.index("--input") + 1])
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(expected) == {"pfaffian": "1"}
