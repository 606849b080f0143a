import json
import subprocess
import sys

import pytest

from symplaw.cli import main

RUN = [sys.executable, "-m", "symplaw.cli"]


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


def test_suite_reports_deterministic(capsys):
    args = ["suite", "det-law", "--d", "1", "--trials", "5", "--seed", "11"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_max_dim_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", "4")
    code, _ = run_cli(["suite", "pfaffian", "--d", "3", "--trials", "2"], capsys)
    assert code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        RUN + ["suite", "pfaffian", "--d", "1", "--trials", "3", "--seed", "1"],
        capture_output=True,
        text=True,
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
    assert "2d = 14 exceeds SYMPLAW_MAX_DIM = 12" in capsys.readouterr().err


def test_malformed_representation_dimension_exits_2(tmp_path, capsys):
    rep = {"d": "abc", "kind": "Sp", "generators": [_identity(2)]}
    element = {"terms": [{"word": "g1", "coef": "1"}]}
    path = _write(tmp_path, {"rep": rep, "element": element, "law": "D"})
    code, _ = run_cli(["eval", "detlaw", "--input", path], capsys)
    assert code == 2


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
    ],
    ids=["sigma_index", "arity", "similitude_power", "gamma", "gamma_exponent", "term_word",
         "letter_0"],
)
def test_malformed_eval_field_exits_2(tmp_path, capsys, verb, blob):
    code = main(["eval", verb, "--input", _write(tmp_path, blob)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _assert_one_line_error(code, captured):
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("coef", ["1/0", "2/0*c", "1/x*c", "c^x"])
def test_malformed_poly_string_coefficient_exits_2(tmp_path, capsys, coef):
    blob = {"rep": _REP_4, "element": {"terms": [{"word": "g1", "coef": coef}]}, "law": "D"}
    code = main(["eval", "detlaw", "--input", _write(tmp_path, blob)])
    _assert_one_line_error(code, capsys.readouterr())


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
    ],
    ids=["block_key_semicolon", "block_key_three_parts", "sign_not_integer", "sign_key"],
)
def test_malformed_gma_spec_exits_2(tmp_path, capsys, field, value):
    path = _write(tmp_path, {**_GMA_INPUT, field: value})
    code = main(["suite", "gma", "--trials", "2", "--input", path])
    _assert_one_line_error(code, capsys.readouterr())
