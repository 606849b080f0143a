import hashlib
import json
import os
import subprocess
import sys
import threading

import pytest

from symplaw import cli, gma
from symplaw.cli import main
from symplaw.gma import check_sch_condition, validate_standard_gma
from symplaw.multipoly import MAX_EXPONENT
from symplaw.serialize import MAX_ELEMENT_TERMS, MAX_EVAL_ARGUMENTS, gma_spec_from_json
from symplaw.words import MAX_WORD_LETTERS

RUN = [sys.executable, "-m", "symplaw.cli"]
# the longest refusal line: the message cut to its first cli._MESSAGE_CHARS, then its length
MAX_LINE = len("input error: ") + cli._MESSAGE_CHARS + len("... (999999999 characters)\n")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_eval_pfaffian(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": [[0, "1"], ["-1", 0]]}))
    code, out = run_cli(["eval", "pfaffian", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"pfaffian": "1"}


def test_eval_detlaw_scalar_power(tmp_path, capsys):
    rep = {
        "d": 2,
        "kind": "Sp",
        "generators": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
        "lambdas": ["1"],
    }
    element = {"terms": [{"word": "1", "coef": "c"}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"rep": rep, "element": element, "law": "D"}))
    code, out = run_cli(["eval", "detlaw", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"D": "c^4"}


def test_eval_theta_trivial_rep(tmp_path, capsys):
    rep = {
        "d": 2,
        "kind": "Sp",
        "generators": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
    }
    blob = {"rep": rep, "f": {"sigma_index": 1, "word": "1"}, "gammas": ["g1"]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(["eval", "theta", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"theta": "4"}


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli(["eval", "pfaffian", "--input", str(path)], capsys)
    assert code == 2
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"matrix": [[0, 1], [1, 0]]}))  # not alternating
    code, _ = run_cli(["eval", "pfaffian", "--input", str(path2)], capsys)
    assert code == 2


def test_suite_pfaffian_small(capsys):
    code, out = run_cli(["suite", "pfaffian", "--d", "2", "--trials", "8", "--seed", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert any(c["name"] == "pfaffian_squared_equals_det" for c in report["checks"])


def test_suite_gma_with_counterexample_input(tmp_path, capsys):
    blob = {
        "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1],
        "base_vars": ["u", "v"],
        "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": ["u"], "2,1": ["v"]},
        "tau_signs": {"1,2": -1},
    }
    path = tmp_path / "gma.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(
        ["suite", "gma", "--trials", "10", "--seed", "3", "--input", str(path)], capsys
    )
    assert code == 0
    report = json.loads(out)
    sch = [c for c in report["checks"] if c["name"] == "input_spec_sch_condition"]
    assert sch and sch[0]["sch_condition"] is False
    assert any(c["name"] == "input_spec_chi_p_witness_nonzero" and c["pass"] for c in report["checks"])


def test_suite_gma_tests_the_sch_condition_of_an_input_spec_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return check_sch_condition(spec)

    monkeypatch.setattr(gma, "check_sch_condition", counted)
    path = _write(tmp_path, {
        "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1],
        "base_vars": ["u", "v"],
        "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": ["u"], "2,1": ["v"]},
        "tau_signs": {"1,2": 1},
    })
    code, out = run_cli(["suite", "gma", "--trials", "3", "--input", path], capsys)
    sch = [c for c in json.loads(out)["checks"] if c["name"] == "input_spec_sch_condition"]
    assert code == 0 and len(calls) == 1
    assert sch == [{"name": "input_spec_sch_condition", "pass": True, "sch_condition": True}]


def test_suite_gma_stops_at_an_invalid_input_spec(tmp_path, capsys):
    # a constant in block (1,2) takes span(1,2) * span(2,1) out of Q: the kernel
    # probe would raise on it, so the report ends at the failed validity check
    blob = {
        "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1],
        "base_vars": ["u", "v"],
        "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": ["3"], "2,1": ["v"]},
        "tau_signs": {"1,2": -1},
    }
    path = tmp_path / "gma.json"
    path.write_text(json.dumps(blob))
    code = main(["suite", "gma", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["pass"] is False
    (check,) = report["checks"]
    assert check["name"] == "input_spec_valid" and check["pass"] is False
    assert check["violations"] == [
        "closure: span(1,2)*span(2,1) leaves Q at block (1,1)",
        "closure: span(2,1)*span(1,2) leaves Q at block (2,2)",
    ]


def test_suite_reports_deterministic(capsys):
    args = ["suite", "det-law", "--d", "1", "--trials", "5", "--seed", "11"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_max_dim_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", "4")
    code, _ = run_cli(["suite", "pfaffian", "--d", "3", "--trials", "2"], capsys)
    assert code == 2


def test_console_entry_point_runs(child_env):
    proc = subprocess.run(
        RUN + ["suite", "pfaffian", "--d", "1", "--trials", "3", "--seed", "1"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        ["suite", "pfaffian", "--d", "1", "--trials", "3", "--seed", "2", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out_path.read_text() == out
    json.loads(out_path.read_text())  # round-trips


@pytest.mark.parametrize("where", ["a_directory", "under_a_missing_directory"])
def test_an_unwritable_out_path_exits_2_with_one_line(tmp_path, capsys, where):
    out_path = tmp_path if where == "a_directory" else tmp_path / "missing" / "report.json"
    code = main(["suite", "pfaffian", "--d", "1", "--trials", "1", "--out", str(out_path)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "cannot write" in captured.err


def test_an_unwritable_out_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(cli, "_load_json", refuse)
    out_path = str(tmp_path / "missing" / "report.json")
    for args in (["suite", "pfaffian", "--d", "3", "--trials", "20000"],
                 ["eval", "pfaffian", "--input", str(tmp_path / "in.json")]):
        code = main([*args, "--out", out_path])
        captured = capsys.readouterr()
        _assert_one_line_error(code, captured)
        assert f"cannot write to {out_path!r}" in captured.err


def test_an_out_file_is_replaced_only_by_a_report(tmp_path, capsys):
    """A longer file left at the --out path is overwritten whole, and a run refused with
    exit code 2 leaves it as it was."""
    out_path = tmp_path / "report.json"
    out_path.write_text("x" * 10_000)
    code = main(["eval", "pfaffian", "--input", str(tmp_path / "missing.json"),
                 "--out", str(out_path)])
    assert code == 2 and out_path.read_text() == "x" * 10_000
    code, out = run_cli(["suite", "pfaffian", "--d", "1", "--trials", "3", "--out", str(out_path)],
                        capsys)
    assert code == 0 and out_path.read_text() == out


@pytest.mark.parametrize("argv", [
    ["eval", "pfaffian", "--input", "missing.json"],
    ["suite", "pfaffian", "--d", "7"],
], ids=["missing_input", "suite_over_the_cap"])
def test_a_refused_run_removes_the_out_file_it_created(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "--out", "report.json"])
    _assert_one_line_error(code, capsys.readouterr())
    assert list(tmp_path.iterdir()) == []


def test_a_refused_run_keeps_an_empty_out_file_it_found(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    out_path.touch()
    code = main(["eval", "pfaffian", "--input", str(tmp_path / "missing.json"),
                 "--out", str(out_path)])
    _assert_one_line_error(code, capsys.readouterr())
    assert out_path.read_text() == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_refused_run_leaves_a_fifo_out_path_unopened(tmp_path, child_env):
    """The FIFO is neither opened, which would wait for a reader, nor removed."""
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    proc = subprocess.run(
        RUN + ["eval", "pfaffian", "--input", str(tmp_path / "missing.json"), "--out", str(fifo)],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1 and fifo.is_fifo()


@pytest.mark.parametrize("flag", ["--input", "--out"])
def test_a_path_holding_a_newline_is_quoted_in_one_line(tmp_path, capsys, flag):
    bad = str(tmp_path / "missing" / "x\ny.json")
    good = {"--input": _write(tmp_path, {"matrix": [[0, 1], [-1, 0]]}),
            "--out": str(tmp_path / "out.json")}
    paths = {**good, flag: bad}
    code = main(["eval", "pfaffian", "--input", paths["--input"], "--out", paths["--out"]])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert repr(bad) in captured.err


def test_out_devnull_runs(capsys):
    code, out = run_cli(["suite", "pfaffian", "--d", "1", "--trials", "3", "--out", os.devnull],
                        capsys)
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_out_path_gets_the_whole_report(tmp_path, child_env):
    """A FIFO's reader sees the report: checking the path by opening it first would end the
    reader's input, and the report's own open would then wait for a reader forever."""
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    proc = subprocess.run(
        RUN + ["suite", "pfaffian", "--d", "1", "--trials", "3", "--out", str(fifo)],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    reader.join(60)
    assert proc.returncode == 0 and got == [proc.stdout]


def test_an_interrupted_run_leaves_the_out_path_as_it_found_it(tmp_path, monkeypatch):
    """Nothing is undone on the way out: the probe removes the file it makes at once, and a
    file it finds is only opened for appending."""
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_suite", interrupt)
    found = tmp_path / "found.json"
    found.write_bytes(b"old report\n")
    for out_path in (tmp_path / "new.json", found):
        with pytest.raises(KeyboardInterrupt):
            main(["suite", "pfaffian", "--d", "1", "--trials", "3", "--out", str(out_path)])
    assert list(tmp_path.iterdir()) == [found] and found.read_bytes() == b"old report\n"


def test_an_out_symlink_with_no_target_is_left_dangling_by_a_refused_run(tmp_path, capsys):
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    link.symlink_to(target)
    code = main(["eval", "pfaffian", "--input", str(tmp_path / "missing.json"), "--out", str(link)])
    _assert_one_line_error(code, capsys.readouterr())
    assert link.is_symlink() and not target.exists()
    code, out = run_cli(["suite", "pfaffian", "--d", "1", "--trials", "3", "--out", str(link)],
                        capsys)
    assert code == 0 and target.read_text() == out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_out_file_that_cannot_be_written_exits_2_before_stdout(capsys):
    code = main(["suite", "pfaffian", "--d", "1", "--trials", "2", "--out", "/dev/full"])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert captured.err.startswith("input error: cannot write to '/dev/full': ")


# the pure-Python io keeps the bytes a failed flush could not write, and flushes them again at exit
PYIO_CLI = ("import _pyio, sys; sys.stdout = _pyio.open(1, 'w', closefd=False); "
            "from symplaw.cli import main; sys.exit(main())")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("child", [RUN, [sys.executable, "-c", PYIO_CLI]], ids=["io", "pyio"])
def test_a_stdout_that_cannot_be_written_exits_2_with_one_line(child, child_env):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(child + ["suite", "pfaffian", "--d", "1", "--trials", "2"],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                              env=child_env)
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("input error: cannot write to stdout: ")


def _write(tmp_path, blob, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_malformed_max_dim_exits_2(tmp_path, capsys, monkeypatch):
    pf = _write(tmp_path, {"matrix": [[0, "1"], ["-1", 0]]})
    for raw in ("abc", "0", "-4", ""):
        monkeypatch.setenv("SYMPLAW_MAX_DIM", raw)
        for args in (["suite", "pfaffian", "--d", "1", "--trials", "2"],
                     ["eval", "pfaffian", "--input", pf]):
            code = main(args)
            captured = capsys.readouterr()
            assert code == 2, (raw, args)
            assert captured.out == ""
            assert "SYMPLAW_MAX_DIM" in captured.err


def test_eval_invariant_guards_matrix_size(tmp_path, capsys, monkeypatch):
    blob = {"matrices": [_identity(4), _identity(4)], "sigma_index": 1, "word": "1 2*"}
    path = _write(tmp_path, blob)
    code, out = run_cli(["eval", "invariant", "--input", path], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "4"}
    monkeypatch.setenv("SYMPLAW_MAX_DIM", "2")
    code, out = run_cli(["eval", "invariant", "--input", path], capsys)
    assert code == 2
    assert out == ""


def test_eval_invariant_rejects_non_list_matrices(tmp_path, capsys):
    path = _write(tmp_path, {"matrices": 5, "sigma_index": 1, "word": "1"})
    code, _ = run_cli(["eval", "invariant", "--input", path], capsys)
    assert code == 2


def test_eval_theta_guards_representation_size(tmp_path, capsys, monkeypatch):
    rep = {"d": 2, "kind": "Sp", "generators": [_identity(4)]}
    path = _write(tmp_path, {"rep": rep, "f": {"sigma_index": 1, "word": "1"}, "gammas": ["g1"]})
    monkeypatch.setenv("SYMPLAW_MAX_DIM", "2")
    code, out = run_cli(["eval", "theta", "--input", path], capsys)
    assert code == 2
    assert out == ""


def test_representation_size_checked_before_it_is_built(tmp_path, capsys):
    # 2d = 14 is over the default cap of 12; the 2x2 generator would fail a
    # later shape check, so exit 2 here comes from the size guard itself
    rep = {"d": 7, "kind": "Sp", "generators": [_identity(2)]}
    element = {"terms": [{"word": "g1", "coef": "1"}]}
    path = _write(tmp_path, {"rep": rep, "element": element, "law": "D"})
    code = main(["eval", "detlaw", "--input", path])
    assert code == 2
    assert capsys.readouterr().err == "input error: representation 2d = 14 exceeds SYMPLAW_MAX_DIM = 12\n"


_ONE_TERM = {"terms": [{"word": "g1", "coef": 1}]}


@pytest.mark.parametrize(("argv", "blob", "message"), [
    (["suite", "pfaffian", "--d", "7"], None, "2d = 14 exceeds SYMPLAW_MAX_DIM = 12"),
    (["suite", "pfaffian", "--input", "spec.json"], None,
     "--input provides a GMA spec; only the gma/all suites accept one"),
    (["suite", "pfaffian", "--trials", "0"], None, "trials must be >= 1"),
    (["eval", "detlaw"], {"rep": {"d": 1, "kind": "Sp", "generators": [_identity(2)]},
                          "element": {"terms": [{"word": "gx", "coef": 1}]}}, "bad word token 'gx'"),
    (["eval", "detlaw"], {"rep": {"d": 1, "kind": "Sp", "generators": [[[2, 0], [0, 2]]]},
                          "element": _ONE_TERM}, "Sp representation must have all similitudes equal to 1"),
    (["eval", "invariant"], {"similitude_power": 1, "matrices": [[["u", 0], [0, 1]]]},
     "similitude factor is not a constant: u"),
], ids=["suite_cap", "input_to_a_suite_without_one", "no_trials", "word_token", "sp_similitude",
        "polynomial_similitude"])
def test_a_refusal_is_one_input_error_line(tmp_path, capsys, argv, blob, message):
    """The refusals of the CLI itself and of the library both print one ``input error:`` line."""
    if blob is not None:
        argv = [*argv, "--input", _write(tmp_path, blob)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        ("pfaffian", {"matrix": [[0] * 13]}),
        ("invariant", {"matrices": [[[0] * 13]], "sigma_index": 1, "word": "1"}),
        ("detlaw", {"rep": {"d": 1, "kind": "Sp", "generators": [_identity(13)]},
                    "element": {"terms": [{"word": "g1", "coef": "1"}]}}),
    ],
    ids=["pfaffian_1x13", "invariant_1x13", "detlaw_13x13_generator_at_d_1"],
)
def test_matrix_over_the_cap_exits_2_before_it_is_built(tmp_path, capsys, verb, blob):
    # each would fail a later shape check; the message shows the size guard refused it
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "SYMPLAW_MAX_DIM = 12" in captured.err


def test_malformed_representation_dimension_exits_2(tmp_path, capsys):
    rep = {"d": "abc", "kind": "Sp", "generators": [_identity(2)]}
    element = {"terms": [{"word": "g1", "coef": "1"}]}
    path = _write(tmp_path, {"rep": rep, "element": element, "law": "D"})
    code, _ = run_cli(["eval", "detlaw", "--input", path], capsys)
    assert code == 2


@pytest.mark.parametrize(("d", "size"), [(2.7, 4), (True, 2)], ids=["float", "bool"])
def test_non_integer_representation_d_exits_2(tmp_path, capsys, d, size):
    # int() would read these as d = 2 and d = 1, which fit the identity generators
    rep = {"d": d, "kind": "Sp", "generators": [_identity(size)]}
    element = {"terms": [{"word": "g1", "coef": "1"}]}
    code = main(["eval", "detlaw", "--input", _write(tmp_path, {"rep": rep, "element": element})])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "representation d must be an integer" in captured.err


def test_gma_spec_size_guard(tmp_path, capsys, monkeypatch):
    blob = {
        "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [2, 2],
        "base_vars": ["u"], "nil_monomials": ["u^2"], "blocks": {}, "tau_signs": {},
    }
    path = _write(tmp_path, blob)
    monkeypatch.setenv("SYMPLAW_MAX_DIM", "2")
    code, out = run_cli(["suite", "gma", "--trials", "2", "--input", path], capsys)
    assert code == 2
    assert out == ""


_REP_4 = {"d": 2, "kind": "Sp", "generators": [_identity(4)]}


def _detlaw_blob(word):
    return {"rep": _REP_4, "element": {"terms": [{"word": word, "coef": "1"}]}}


def _invariant_blob(word):
    return {"matrices": [_identity(2)], "sigma_index": 1, "word": word}


def _element_blob(terms):
    return {"rep": _REP_4, "element": {"terms": [{"word": f"g1^{k}", "coef": 1}
                                                 for k in range(terms)]}}


def _theta_blob(gammas, rep=_REP_4):
    return {"rep": rep, "f": {"sigma_index": 1, "word": "1"}, "gammas": ["g1"] * gammas}


def _matrices_blob(count, matrix=_identity(2)):
    return {"matrices": [matrix] * count, "sigma_index": 1, "word": "1"}


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        ("invariant", {"matrices": [_identity(2)], "sigma_index": "x", "word": "1"}),
        ("invariant", {"matrices": [_identity(2)], "sigma_index": 1, "word": "1", "arity": "z"}),
        ("theta", {"rep": _REP_4, "f": {"similitude_power": "q"}, "gammas": ["g1"]}),
        ("theta", {"rep": _REP_4, "f": {"sigma_index": 1, "word": "1"}, "gammas": [1]}),
        ("theta", {"rep": _REP_4, "f": {"sigma_index": 1, "word": "1"}, "gammas": ["g1^x"]}),
        ("detlaw", {"rep": _REP_4, "element": {"terms": [{"word": 1, "coef": "1"}]}}),
        ("invariant", {"matrices": [[[1, 2], [3, 4]]], "sigma_index": 1, "word": "0"}),
        ("detlaw", _detlaw_blob("g1^100000")),
        ("theta", {"rep": _REP_4, "f": {"sigma_index": 1, "word": "1"},
                   "gammas": ["g1^-99999999999999999999"]}),
        ("detlaw", _detlaw_blob(" ".join(["g1"] * (MAX_WORD_LETTERS + 1)))),
        ("detlaw", _detlaw_blob(f"g1^{MAX_WORD_LETTERS} g1^-1")),
        ("invariant", _invariant_blob(" ".join(["1"] * (MAX_WORD_LETTERS + 1)))),
        ("detlaw", _element_blob(MAX_ELEMENT_TERMS + 1)),
        ("theta", _theta_blob(MAX_EVAL_ARGUMENTS + 1)),
        ("invariant", _matrices_blob(MAX_EVAL_ARGUMENTS + 1)),
        ("invariant", _invariant_blob("\u00b2")),
        ("theta", {"rep": _REP_4, "f": {"sigma_index": 1, "word": "1\u00b9"}, "gammas": ["g1"]}),
        ("invariant", _invariant_blob("1" * 5000)),
        ("theta", {"rep": _REP_4, "f": {"sigma_index": 1, "word": "1" * 5000 + "*"},
                   "gammas": ["g1"]}),
        ("detlaw", {"rep": _REP_4, "element": {"terms": [{"word": "g1", "coef": "u^" + "1" * 5000}]}}),
        ("detlaw", _detlaw_blob("g1^")),
        ("invariant", _invariant_blob(1)),
        ("theta", {"rep": _REP_4, "f": {"sigma_index": 1, "word": 1}, "gammas": ["g1"]}),
        ("detlaw", {**_detlaw_blob("g1"), "rep": {**_REP_4, "kind": 5}}),
        ("invariant", {"matrices": [_identity(2), [["1", "2", "3"]]], "sigma_index": 1, "word": "1"}),
        ("invariant", {"matrices": [[[1, 2, 3], [4, 5, 6]], _identity(2)], "similitude_power": 2,
                       "var_index": 2}),
    ],
    ids=["sigma_index", "arity", "similitude_power", "gamma", "gamma_exponent", "term_word",
         "letter_0", "exponent_1e5", "exponent_20_digits", "word_over_cap", "tokens_over_cap",
         "trace_word_over_cap", "element_terms_over_cap", "theta_gammas_over_cap",
         "invariant_matrices_over_cap", "trace_word_superscript", "trace_word_superscript_index",
         "trace_word_index_past_digit_limit", "trace_word_starred_index_past_digit_limit",
         "coefficient_exponent_past_digit_limit", "word_exponent_empty", "trace_word_number",
         "theta_trace_word_number", "representation_kind_number", "invariant_matrices_of_two_sizes",
         "invariant_similitude_after_a_non_square"],
)
def test_malformed_eval_field_exits_2(tmp_path, capsys, verb, blob):
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("input error: ") and len(captured.err) <= MAX_LINE


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        ("detlaw", _detlaw_blob(f"g1^{MAX_WORD_LETTERS}")),
        ("detlaw", _detlaw_blob(" ".join(["g1"] * MAX_WORD_LETTERS))),
        ("invariant", _invariant_blob(" ".join(["1"] * MAX_WORD_LETTERS))),
    ],
    ids=["exponent", "letters", "trace_word"],
)
def test_word_at_the_letter_cap_is_accepted(tmp_path, capsys, verb, blob):
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    assert code == 0, captured.err


def test_element_at_the_term_cap_is_accepted(tmp_path, capsys):
    code = main(["eval", "detlaw", "--input", _write(tmp_path, _element_blob(MAX_ELEMENT_TERMS))])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out) == {"D": str(MAX_ELEMENT_TERMS ** 4)}


@pytest.mark.parametrize(
    ("verb", "blob", "expected"),
    [
        ("theta", _theta_blob(MAX_EVAL_ARGUMENTS), {"theta": "4"}),
        ("invariant", _matrices_blob(MAX_EVAL_ARGUMENTS), {"value": "2"}),
    ],
    ids=["theta_gammas", "invariant_matrices"],
)
def test_arguments_at_the_cap_are_accepted(tmp_path, capsys, verb, blob, expected):
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out) == expected


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        # past the cap, an unreadable representation or matrix is never reached
        ("theta", _theta_blob(MAX_EVAL_ARGUMENTS + 1, rep={"d": "x"})),
        ("invariant", _matrices_blob(MAX_EVAL_ARGUMENTS + 1, matrix=[["1/0"]])),
        ("invariant", _matrices_blob(MAX_EVAL_ARGUMENTS + 1, matrix=_identity(99))),
    ],
    ids=["theta_bad_rep", "invariant_bad_entry", "invariant_over_max_dim"],
)
def test_argument_count_is_checked_before_anything_is_read(tmp_path, capsys, verb, blob):
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{MAX_EVAL_ARGUMENTS}-argument guard" in captured.err
    assert captured.err.count("\n") == 1


def _assert_one_line_error(code, captured):
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("input error: ") and len(captured.err) <= MAX_LINE


@pytest.mark.parametrize("coef", ["1/0", "2/0*c", "1/x*c", "c^x", "u^-1", "u^", "2*u^*v"])
def test_malformed_poly_string_coefficient_exits_2(tmp_path, capsys, coef):
    blob = {"rep": _REP_4, "element": {"terms": [{"word": "g1", "coef": coef}]}, "law": "D"}
    code = main(["eval", "detlaw", "--input", _write(tmp_path, blob)])
    _assert_one_line_error(code, capsys.readouterr())


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        ("pfaffian", {"matrix": [[]]}),
        ("invariant", {"matrices": [[[]]], "sigma_index": 1, "word": "1"}),
        ("detlaw", {"rep": {"d": 1, "kind": "Sp", "generators": [[[]]]},
                    "element": {"terms": [{"word": "g1", "coef": 1}]}, "law": "D"}),
    ],
    ids=["pfaffian", "invariant", "detlaw"],
)
def test_empty_row_matrix_exits_2(tmp_path, capsys, verb, blob):
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "empty matrix" in captured.err


_POLY_REP = {"d": 1, "kind": "Sp", "generators": [[[1, "u"], [0, 1]]]}


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        ("detlaw", {"rep": _POLY_REP, "element": {"terms": [{"word": "g1^-1", "coef": 1}]}}),
        ("theta", {"rep": _POLY_REP, "f": {"sigma_index": 1, "word": "1"}, "gammas": ["g1^-1"]}),
    ],
    ids=["detlaw", "theta"],
)
def test_polynomial_generator_entries_exit_2(tmp_path, capsys, verb, blob):
    # M^j M = Id holds over Q[u], but a representation lives in GSp_2d(Q)
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "rational" in captured.err


_GMA_INPUT = {
    "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1],
    "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
    "blocks": {"1,2": ["u"], "2,1": ["v"]}, "tau_signs": {"1,2": -1},
}


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("blocks", {"1;2": ["u"], "2,1": ["v"]}),
        ("blocks", {"1,2,3": ["u"], "2,1": ["v"]}),
        ("tau_signs", {"1,2": "x"}),
        ("tau_signs", {"1;2": -1}),
        ("I0", 5),
        ("base_vars", 5),
        ("I0", ["a"]),
        ("blocks", []),
        ("blocks", {"1,2": ["u"], "2,1": ["v"], "1,5": ["u"]}),
        ("blocks", {"1,2": "u", "2,1": ["v"]}),
        ("tau_signs", {"1,5": 1}),
        ("nil_monomials", [True]),
        ("blocks", {"1,2": [True], "2,1": ["v"]}),
        ("tau_signs", {"1,2": -1, "2,1": -1}),
        ("tau_signs", {"1,2": -1, "01,2": 1}),
        ("blocks", {"1,2": ["u"], "01,2": ["v"], "2,1": ["v"]}),
        ("tau_signs", {"1,2": -1, "1,1": 1}),
    ],
    ids=["block_key_semicolon", "block_key_three_parts", "sign_not_integer", "sign_key",
         "I0_not_a_list", "base_vars_not_a_list", "I0_entry_not_integer", "blocks_not_an_object",
         "block_outside_the_type", "block_basis_not_a_list", "sign_outside_the_type",
         "nil_monomial_bool", "block_basis_bool", "sign_pair_given_twice",
         "sign_key_given_twice", "block_key_given_twice", "sign_on_a_diagonal_block"],
)
def test_malformed_gma_spec_exits_2(tmp_path, capsys, field, value):
    path = _write(tmp_path, {**_GMA_INPUT, field: value})
    code = main(["suite", "gma", "--trials", "2", "--input", path])
    _assert_one_line_error(code, capsys.readouterr())


def test_a_block_basis_outside_the_ring_is_named_by_its_own_variables(tmp_path, capsys):
    path = _write(tmp_path, {**_GMA_INPUT, "blocks": {"1,2": ["w"], "2,1": ["v"]}})
    code = main(["suite", "gma", "--trials", "2", "--input", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "input error: element uses variables outside the ring: ('w',)\n"


@pytest.mark.parametrize(
    ("field", "written", "value"),
    [("blocks", {"1,2": ["u*w^0"], "2,1": ["v"]}, {"1,2": ["u"], "2,1": ["v"]}),
     ("nil_monomials", ["u^2*w^0", "v^2", "u*v"], ["u^2", "v^2", "u*v"])],
    ids=["block_basis", "nil_monomial"],
)
def test_a_zero_power_of_a_foreign_variable_is_read_as_its_value(tmp_path, capsys, field,
                                                                   written, value):
    """``w^0`` uses no variable, so ``u*w^0`` fits the ring over u and v as ``u`` does, and a
    block or nil monomial written with it gives the report of the one written without it."""
    reports = []
    for blob in ({**_GMA_INPUT, field: written}, {**_GMA_INPUT, field: value}):
        code = main(["suite", "gma", "--trials", "2", "--input", _write(tmp_path, blob)])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1]
    assert reports[0][0] != 2 and reports[0][1].err == ""


# the standard fixture's type with a tau-sign fault: tau(1,3) = -1 breaks the sigma pairing,
# and over Q[u,v]/(u^2, v^2), where span(2,1) * span(1,3) holds uv != 0, tau(2,3) = -1 breaks
# multiplicativity
_STANDARD_TYPE = {"I0": [1], "I1": [2], "I2": [3], "sigma": [1, 3, 2], "dims": [2, 1, 1],
                  "base_vars": ["u", "v"]}
_SIGN_FAULTS = {
    "paired": ({**_STANDARD_TYPE, "nil_monomials": ["u^2", "v^2", "u*v"],
                "blocks": {"1,2": ["u"], "3,1": ["u"], "2,1": ["v"], "1,3": ["v"]},
                "tau_signs": {"1,2": 1, "1,3": -1, "2,3": 1}},
               ["tau sign of (1,2) differs from (1,3)", "tau sign of (1,3) differs from (1,2)",
                "tau sign of (2,1) differs from (3,1)", "tau sign of (3,1) differs from (2,1)"]),
    "multiplicative": ({**_STANDARD_TYPE, "nil_monomials": ["u^2", "v^2"],
                        "blocks": {"2,1": ["u", "v"], "1,3": ["u", "v"], "2,3": ["u*v"]},
                        "tau_signs": {"1,2": 1, "1,3": 1, "2,3": -1}},
                       ["tau signs not multiplicative on nonzero product (2,1,3)"]),
}


@pytest.mark.parametrize("fault", sorted(_SIGN_FAULTS))
def test_a_tau_sign_fault_is_found_by_the_validator_and_reported_by_suite_gma(tmp_path, capsys, fault):
    blob, violations = _SIGN_FAULTS[fault]
    assert validate_standard_gma(gma_spec_from_json(blob, 12)) == {"valid": False, "violations": violations}
    code = main(["suite", "gma", "--trials", "2", "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    (check,) = json.loads(captured.out)["checks"]
    assert check == {"name": "input_spec_valid", "pass": False, "violations": violations}


@pytest.mark.parametrize(
    ("blob", "message"),
    [
        ({"I0": [], "I1": [1], "I2": [2, 3], "sigma": [2, 3, 1], "dims": [1, 1, 1]},
         "sigma must be an involution"),
        ({"I0": [1, 2], "I1": [], "I2": [], "sigma": [2, 1], "dims": [2, 2]},
         "sigma must fix I0 pointwise"),
        ({"I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [0, 0]},
         "block dimensions must be positive"),
        ({**_STANDARD_TYPE, "nil_monomials": ["u^2", "v^2", "u*v"],
          "blocks": {"1,1": ["u"], "1,2": ["u"], "3,1": ["u"], "2,1": ["v"], "1,3": ["v"]}},
         "diagonal blocks are implicitly Q and cannot be overridden"),
    ],
    ids=["sigma_not_an_involution", "sigma_moves_I0", "zero_block_dimension", "diagonal_block"],
)
def test_a_gma_spec_that_breaks_the_type_rules_exits_2(tmp_path, capsys, blob, message):
    code = main(["suite", "gma", "--trials", "2", "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert captured.err == f"input error: {message}\n"


def test_gma_spec_whose_ideal_contains_1_exits_2(tmp_path, capsys):
    # in Q[u, v] / (1) every check would pass vacuously
    for nils in (["1"], ["u^2", "1"]):
        path = _write(tmp_path, {**_GMA_INPUT, "nil_monomials": nils})
        code = main(["suite", "gma", "--trials", "2", "--input", path])
        captured = capsys.readouterr()
        _assert_one_line_error(code, captured)
        assert "the ideal contains 1" in captured.err


@pytest.mark.parametrize(
    "coef",
    [
        {"vars": ["u"], "terms": [{"exp": [-1], "coef": 1}]},
        {"vars": ["u"], "terms": [{"exp": ["x"], "coef": 1}]},
        {"vars": ["u"], "terms": [{"coef": 1}]},
        {"vars": ["u"], "terms": [{"exp": [1.5], "coef": 1}]},
        {"vars": ["u"], "terms": [{"exp": [True], "coef": 1}]},
        {"vars": "uv", "terms": [{"exp": [1, 0], "coef": 1}]},
        {"vars": ["u"], "terms": "ab"},
        {"vars": ["u"], "terms": ["ab"]},
    ],
    ids=["negative_exp", "string_exp", "missing_exp", "float_exp", "bool_exp", "string_vars",
         "string_terms", "string_term"],
)
def test_malformed_polynomial_object_exits_2(tmp_path, capsys, coef):
    blob = {"rep": _REP_4, "element": {"terms": [{"word": "g1", "coef": coef}]}, "law": "D"}
    code = main(["eval", "detlaw", "--input", _write(tmp_path, blob)])
    _assert_one_line_error(code, capsys.readouterr())


_REP_2 = {"d": 1, "kind": "Sp", "generators": [_identity(2)]}


def _scalar_blob(coef, law):
    """The element coef * 1 at d = 1: its D is coef^2 and its P is coef."""
    return {"rep": _REP_2, "element": {"terms": [{"word": "1", "coef": coef}]}, "law": law}


@pytest.mark.parametrize(
    "blob",
    [
        _scalar_blob(f"u^{MAX_EXPONENT + 1}", "P"),
        _scalar_blob({"vars": ["u", "v"], "terms": [{"exp": [1, MAX_EXPONENT + 1], "coef": 1}]}, "P"),
        _scalar_blob(f"u^{2**30}", "D"),
        _scalar_blob(f"2*u*v^{2**30} + 1", "D"),
    ],
    ids=["string_exponent", "json_exp", "determinant_degree", "determinant_degree_in_v"],
)
def test_an_exponent_past_the_cap_exits_2(tmp_path, capsys, blob):
    code = main(["eval", "detlaw", "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert f"past the cap {MAX_EXPONENT}" in captured.err


def test_an_exponent_at_the_cap_is_read(tmp_path, capsys):
    for coef, law, value in ((f"u^{MAX_EXPONENT}", "P", f"u^{MAX_EXPONENT}"),
                             (f"u^{2**30 - 1}", "D", f"u^{MAX_EXPONENT - 1}")):
        code = main(["eval", "detlaw", "--input", _write(tmp_path, _scalar_blob(coef, law))])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {law: value}


def test_polynomial_object_with_string_exponent_is_read(tmp_path, capsys):
    coef = {"vars": ["u"], "terms": [{"exp": ["2"], "coef": 1}]}
    blob = {"rep": _REP_4, "element": {"terms": [{"word": "1", "coef": coef}]}, "law": "D"}
    code = main(["eval", "detlaw", "--input", _write(tmp_path, blob)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"D": "u^8"}


_GSP_REP = {"d": 1, "kind": "GSp", "generators": [[[2, 0], [0, 1]], [[1, 1], [0, 1]]]}


@pytest.mark.parametrize(
    ("verb", "blob"),
    [
        ("invariant", {"matrices": [[[2, 0], [0, 1]]], "similitude_power": 10**6, "var_index": 1}),
        ("invariant", {"matrices": [[[2, 0], [0, 1]]], "similitude_power": 10**30, "var_index": 1}),
        ("theta", {"rep": _GSP_REP, "gammas": ["g1 g2"],
                   "f": {"similitude_power": 10**30, "var_index": 1}}),
    ],
    ids=["invariant_power_10e6", "invariant_power_10e30", "theta_power_10e30"],
)
def test_a_similitude_power_over_the_guard_exits_2(tmp_path, capsys, verb, blob):
    # 2^(10^6) has more digits than Python prints; 2^(10^30) does not fit in memory
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "bit guard" in captured.err


def _renamed(blob, old, new):
    return {(new if key == old else key): value for key, value in blob.items()}


_GSP_ELEMENT = {"terms": [{"word": "g1", "coef": 1}]}
_SIGMA_BLOB = {"matrices": [[[2, 0], [0, 1]]], "sigma_index": 1, "word": "1"}


@pytest.mark.parametrize(
    ("argv", "blob", "key"),
    [
        (["suite", "gma", "--trials", "10", "--seed", "3"],
         _renamed(_GMA_INPUT, "tau_signs", "tau_sign"), "tau_sign"),
        (["suite", "gma", "--trials", "10", "--seed", "3"],
         _renamed(_GMA_INPUT, "blocks", "block"), "block"),
        (["eval", "detlaw"], {"rep": _GSP_REP, "element": _GSP_ELEMENT, "Law": "P"}, "Law"),
        (["eval", "invariant"], {**_SIGMA_BLOB, "similitude_power": 1}, "similitude_power"),
        (["eval", "invariant"], {"matrices": [[[2, 0], [0, 1]]], "similitude_power": 1, "word": "1"},
         "word"),
        (["eval", "invariant"], {**_SIGMA_BLOB, "var_index": 1}, "var_index"),
        (["eval", "invariant"], {**_SIGMA_BLOB, "aritty": 1}, "aritty"),
        (["eval", "detlaw"], {"rep": {**_GSP_REP, "kinds": "Sp"}, "element": _GSP_ELEMENT}, "kinds"),
        (["eval", "detlaw"],
         {"rep": _GSP_REP, "element": {"terms": [{"word": "g1", "coef": 1, "coeff": 2}]}}, "coeff"),
    ],
    ids=["counterexample_tau_sign", "counterexample_block", "Law", "both_kinds",
         "word_on_a_similitude_power", "var_index_on_a_sigma_function", "aritty", "kinds", "coeff"],
)
def test_a_misspelt_or_unknown_key_exits_2(tmp_path, capsys, argv, blob, key):
    # a reader that ignores unknown keys exits 0 on each: a dropped field reads as its default
    # (the counterexample then reports sch_condition true, and "Law" gives law D), an extra
    # field is ignored, and both kinds read as a sigma function
    code = main([*argv, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert captured.err.startswith("input error: ") and repr(key) in captured.err


def test_a_sigma_function_needs_its_word(tmp_path, capsys):
    blob = {"matrices": [[[2, 0], [0, 1]]], "sigma_index": 1}
    code = main(["eval", "invariant", "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert captured.err == "input error: sigma function missing 'word'\n"


def test_a_value_too_long_to_print_exits_2(tmp_path, capsys):
    a = "1" * 3000
    matrix = [[0, a, 0, 0], ["-" + a, 0, 0, 0], [0, 0, 0, a], [0, 0, "-" + a, 0]]  # Pf = a^2
    code = main(["eval", "pfaffian", "--input", _write(tmp_path, {"matrix": matrix})])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "too long to print" in captured.err


def test_an_integer_literal_over_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"matrix": [[0, ' + "1" * 5000 + '], [-1, 0]]}')
    code = main(["eval", "pfaffian", "--input", str(path)])
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert "cannot read JSON" in captured.err


# nested inputs near or past the depth where the decoder hits the recursion limit; where it
# reads the 980-level array, the refusal quotes the array, cut at cli._MESSAGE_CHARS
_NESTED = {
    "array_as_pfaffian_input": (["eval", "pfaffian"], "[" * 100_000 + "]" * 100_000),
    "object_as_detlaw_input": (["eval", "detlaw"], '{"a": ' * 5000 + "1" + "}" * 5000),
    **{f"{n}_level_invariant_matrices": (["eval", "invariant"], '{"sigma_index": 1, "word": "1", '
                                         '"matrices": ' + "[" * n + "]" * n + "}") for n in (980, 990)},
}


@pytest.mark.parametrize("name", sorted(_NESTED))
def test_a_deeply_nested_input_exits_2_with_one_bounded_line(tmp_path, capsys, name):
    argv, text = _NESTED[name]
    path = tmp_path / "in.json"
    path.write_text(text)
    code = main([*argv, "--input", str(path)])
    _assert_one_line_error(code, capsys.readouterr())


# every random element of a spec with no off-diagonal block is integral, so rational
_ALL_SCALAR_GMA = {
    "I0": [1], "I1": [2], "I2": [3], "sigma": [1, 3, 2], "dims": [2, 1, 1],
    "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
    "blocks": {}, "tau_signs": {"1,2": 1, "1,3": 1, "2,3": 1},
}

# stdout digests recorded while the diagonal blocks of a GMA element were Fractions
_ALL_SCALAR_GMA_DIGESTS = {
    0: "2affb489643e08cb41001171bdafa36d1c71904a57632e510fb904543e342886",
    1: "83cae67db877cf59c83b48cfd92f3c43623f86705a8779f30b4a7c1ae6b7f0ee",
}


@pytest.mark.parametrize("seed", sorted(_ALL_SCALAR_GMA_DIGESTS))
def test_suite_gma_on_a_spec_with_no_blocks(tmp_path, capsys, seed):
    path = _write(tmp_path, _ALL_SCALAR_GMA)
    code, out = run_cli(["suite", "gma", "--trials", "5", "--seed", str(seed), "--input", path],
                        capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == _ALL_SCALAR_GMA_DIGESTS[seed]



# Every integer-bearing field the CLI reads, as a builder from a numeral to (argv, JSON input or
# None, SYMPLAW_MAX_DIM); the numeral "1" gives a plain input.  One grammar, an optional "-" and
# ASCII digits (``words.integer_literal``), covers them all.
_INTEGER_FIELDS = {
    "argv_d": lambda n: (["suite", "pfaffian", "--d", n, "--trials", "2"], None, "12"),
    "argv_trials": lambda n: (["suite", "pfaffian", "--d", "1", "--trials", n], None, "12"),
    "argv_seed": lambda n: (["suite", "pfaffian", "--d", "1", "--trials", "2", "--seed", n],
                            None, "12"),
    "max_dim": lambda n: (["eval", "pfaffian"], {"matrix": [[0, 1], [-1, 0]]}, n + "2"),
    "generator_index": lambda n: (["eval", "detlaw"], {
        "rep": _GSP_REP, "element": {"terms": [{"word": f"g{n}", "coef": 1}]}}, "12"),
    "word_exponent": lambda n: (["eval", "detlaw"], {
        "rep": _GSP_REP, "element": {"terms": [{"word": f"g1^{n}", "coef": 1}]}}, "12"),
    "gamma_exponent": lambda n: (["eval", "theta"], {
        "rep": _GSP_REP, "f": {"sigma_index": 1, "word": "1"}, "gammas": [f"g2^{n}"]}, "12"),
    "trace_word_index": lambda n: (["eval", "invariant"], {
        "matrices": [[[1, 2], [3, 4]]], "sigma_index": 1, "word": f"{n} {n}*"}, "12"),
    "poly_string_exponent": lambda n: (["eval", "detlaw"], {
        "rep": _REP_4, "element": {"terms": [{"word": "1", "coef": f"2*u^{n}"}]}}, "12"),
    "poly_object_exponent": lambda n: (["eval", "detlaw"], {
        "rep": _REP_4, "element": {"terms": [{"word": "1", "coef": {
            "vars": ["u"], "terms": [{"exp": [n], "coef": 2}]}}]}}, "12"),
    "rep_d": lambda n: (["eval", "detlaw"], {
        "rep": {"d": n, "kind": "GSp", "generators": [[[2, 0], [0, 1]]]},
        "element": {"terms": [{"word": "g1", "coef": 1}]}}, "12"),
    "sigma_index": lambda n: (["eval", "invariant"], {
        "matrices": [[[1, 2], [3, 4]]], "sigma_index": n, "word": "1"}, "12"),
    "arity": lambda n: (["eval", "invariant"], {
        "matrices": [[[1, 2], [3, 4]]], "sigma_index": 2, "word": "1", "arity": n}, "12"),
    "var_index": lambda n: (["eval", "invariant"], {
        "matrices": [[[2, 0], [0, 1]]], "similitude_power": 3, "var_index": n}, "12"),
    "similitude_power": lambda n: (["eval", "theta"], {
        "rep": _GSP_REP, "gammas": ["g1"], "f": {"similitude_power": n, "var_index": 1}}, "12"),
    "gma_type_entry": lambda n: (["suite", "gma", "--trials", "2"],
                                 {**_GMA_INPUT, "dims": [n, 1]}, "12"),
    "block_key": lambda n: (["suite", "gma", "--trials", "2"],
                            {**_GMA_INPUT, "blocks": {f"{n},2": ["u"], "2,1": ["v"]}}, "12"),
    "tau_sign": lambda n: (["suite", "gma", "--trials", "2"],
                           {**_GMA_INPUT, "tau_signs": {"1,2": f"-{n}"}}, "12"),
}

# What each plain input prints: the JSON value of an eval, the sha256 of a suite report.
_PLAIN_OUTPUTS = {
    "argv_d": "cbbabe89bce67d61aa6c0cda3461d1317adf11e79853b9a690f825c059ef6558",
    "argv_trials": "4f800f686ff71fc6caab2ba6093703ae46ba9b6f4f4f4a9516f352bb43628d68",
    "argv_seed": "01f36dca659e512285721098c40004ef178df6d5410c0dd5f9ea4beed635bc3e",
    "max_dim": {"pfaffian": "1"},
    "generator_index": {"D": "2"},
    "word_exponent": {"D": "2"},
    "gamma_exponent": {"theta": "2"},
    "trace_word_index": {"value": "-4"},
    "poly_string_exponent": {"D": "16*u^4"},
    "poly_object_exponent": {"D": "16*u^4"},
    "rep_d": {"D": "2"},
    "sigma_index": {"value": "5"},
    "arity": {"value": "-2"},
    "var_index": {"value": "8"},
    "similitude_power": {"theta": "2"},
    "gma_type_entry": "7f0d2a425b1afcf5ed49516a6a1d72bb9603622951716a3e1e154a3c1b4c3b2d",
    "block_key": "7f0d2a425b1afcf5ed49516a6a1d72bb9603622951716a3e1e154a3c1b4c3b2d",
    "tau_sign": "7f0d2a425b1afcf5ed49516a6a1d72bb9603622951716a3e1e154a3c1b4c3b2d",
}

_MALFORMED_NUMERALS = {"plus": "+1", "underscore": "1_0", "arabic_indic": "\u0661",
                       "superscript": "\u00b2", "past_digit_limit": "1" * 4301}
# In a word, a trace word or a polynomial string, white space separates tokens or is
# dropped, so a numeral with a space next to it is malformed only in the other fields.
_SPACED_NUMERALS = {"space_before": " 1", "space_after": "1 "}
_TOKEN_FIELDS = {"generator_index", "word_exponent", "gamma_exponent", "trace_word_index",
                 "poly_string_exponent"}

# Rows that fail while int() and str.isdecimal read these fields, all but one by exiting 0:
# - plus, arabic_indic: every field but trace_word_index and poly_string_exponent (arabic_indic
#   there too) and tau_sign (arabic_indic only);
# - underscore, read as 10: argv_trials, argv_seed, max_dim, word_exponent, gamma_exponent,
#   poly_object_exponent and similitude_power; argv_d exits 2, but on the cap (2d = 20 > 12);
# - space_before, space_after: every field that takes them but tau_sign (space_after only)
#   and max_dim (space_before only).
_MALFORMED_ROWS = [(field, name) for field in _INTEGER_FIELDS
                   for name in [*_MALFORMED_NUMERALS,
                                *(() if field in _TOKEN_FIELDS else _SPACED_NUMERALS)]]


def _run_integer_field(tmp_path, monkeypatch, field, numeral):
    """The exit code cli.main returns on the field's input."""
    argv, blob, cap = _INTEGER_FIELDS[field](numeral)
    monkeypatch.setenv("SYMPLAW_MAX_DIM", cap)
    if blob is not None:
        argv = [*argv, "--input", _write(tmp_path, blob)]
    return main(argv)


@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_a_plain_integer_field_reads_as_before(tmp_path, capsys, monkeypatch, field):
    code = _run_integer_field(tmp_path, monkeypatch, field, "1")
    out = capsys.readouterr().out
    assert code == 0
    expected = _PLAIN_OUTPUTS[field]
    assert (json.loads(out) if isinstance(expected, dict)
            else hashlib.sha256(out.encode()).hexdigest()) == expected


@pytest.mark.parametrize(("field", "name"), _MALFORMED_ROWS,
                         ids=[f"{field}-{name}" for field, name in _MALFORMED_ROWS])
def test_a_malformed_integer_field_exits_2(tmp_path, capsys, monkeypatch, field, name):
    numeral = {**_MALFORMED_NUMERALS, **_SPACED_NUMERALS}[name]
    code = _run_integer_field(tmp_path, monkeypatch, field, numeral)
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    if field.startswith("argv_"):
        option = field.removeprefix("argv_")
        assert captured.err.startswith(f"input error: argument --{option}: invalid integer value")


@pytest.mark.parametrize("argv", [
    [], ["suite"], ["suite", "nosuch"], ["suite", "pfaffian", "--bogus"],
    ["eval", "pfaffian"], ["eval", "pfaffian", "--input"],
])
def test_a_malformed_command_line_returns_2_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    _assert_one_line_error(code, captured)
    assert captured.err.startswith("input error: ")
