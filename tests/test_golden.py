"""Pinned output of the GMA suite: the same flags must print the same bytes.

The digests are SHA-256 of stdout; they were recorded before the GMA layer's
hot path was rewritten, so any change to a computed value or to the report
format shows here.
"""

import hashlib
import json

import pytest

from symplaw.cli import main

GMA_DIGESTS = {
    0: "a893ade0feedfed436930825356ee26c43dda35befdeb28286326eed01f7e890",
    1: "1ab44d9244fa9e80e7cb8ded6a9be0db6bcaf48a2ce9c17153b48963fe880deb",
    2: "7ba940fa64da82296ae06de49600e95d3e0bfec583d2e8f93314d2eb97505ce0",
    3: "daf6a220d28761e6926cee963867443eaf4a8a51b5059fc4f286b51a3893b95a",
    4: "0c4a35a1abf75b0662e97652f7293f236b75fd37439f9da589b180211986988c",
}

# gma_spec_to_json(standard_fixture())
STANDARD_SPEC = {
    "I0": [1], "I1": [2], "I2": [3], "sigma": [1, 3, 2], "dims": [2, 1, 1],
    "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
    "blocks": {
        "1,2": [{"vars": ["u", "v"], "terms": [{"exp": [1, 0], "coef": 1}]}],
        "1,3": [{"vars": ["u", "v"], "terms": [{"exp": [0, 1], "coef": 1}]}],
        "2,1": [{"vars": ["u", "v"], "terms": [{"exp": [0, 1], "coef": 1}]}],
        "3,1": [{"vars": ["u", "v"], "terms": [{"exp": [1, 0], "coef": 1}]}],
    },
    "tau_signs": {"1,2": 1, "1,3": 1, "2,3": 1},
}
INPUT_SPEC_DIGEST = "0cbfb65e6c63eed04b2e368c96f615051180f212575789b50aa5a56a1d25a058"


def _digest(args, capsys):
    code = main(args)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GMA_DIGESTS))
def test_suite_gma_output_pinned(seed, capsys):
    args = ["suite", "gma", "--trials", "25", "--seed", str(seed)]
    assert _digest(args, capsys) == (0, GMA_DIGESTS[seed])


def test_suite_gma_input_spec_output_pinned(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(STANDARD_SPEC))
    args = ["suite", "gma", "--trials", "25", "--seed", "0", "--input", str(path)]
    assert _digest(args, capsys) == (0, INPUT_SPEC_DIGEST)
