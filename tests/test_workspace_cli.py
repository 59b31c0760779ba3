import json
import sys

import pytest

from modclose.cli import main
from modclose.workspace import (
    dumps_report,
    load_workspace,
    serialize_workspace,
)


WS_MOD4 = {
    "ring": "Zmod:4",
    "modules": {
        "R": {"generators": 1, "relations": []},
        "half": {"generators": 1, "relations": [[2]]},
    },
    "submodules": {
        "twoR": {"parent": "R", "gens": [[2]]},
        "allR": {"parent": "R", "gens": [[1]]},
    },
    "subcategories": {"A": {"finite": ["R"], "divisible": []}},
}

WS_Z = {
    "ring": "Z",
    "modules": {
        "Z": {"generators": 1, "relations": []},
        "M": {"generators": 2, "relations": [[0, 2]]},
        "big": {"generators": 1, "relations": [[str(2**80)]]},
    },
    "submodules": {
        "twoZ": {"parent": "Z", "gens": [[2]]},
    },
    "subcategories": {
        "Q": {"finite": [], "divisible": ["Q"]},
        "both": {"finite": [], "divisible": ["Q", "QmodZ"]},
    },
}


def write_ws(tmp_path, doc, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- workspace round trip ---------------------------------------------------------


def test_workspace_round_trip():
    ws1 = load_workspace(WS_Z)
    doc = serialize_workspace(ws1)
    ws2 = load_workspace(doc)
    assert ws1.ring == ws2.ring
    assert ws1.modules == ws2.modules
    assert ws1.submodules == ws2.submodules
    assert ws1.subcategories == ws2.subcategories
    assert serialize_workspace(ws2) == doc


def test_workspace_big_integers_as_strings():
    ws = load_workspace(WS_Z)
    assert ws.module("big").relations.entries == ((2**80,),)
    doc = serialize_workspace(ws)
    assert doc["modules"]["big"]["relations"] == [[str(2**80)]]


def test_workspace_validation_errors():
    with pytest.raises(ValueError):
        load_workspace({"ring": "Zmod:1"})
    with pytest.raises(ValueError):
        load_workspace(
            {"ring": "Z", "modules": {"m": {"generators": 1, "relations": [[1, 2]]}}}
        )
    with pytest.raises(ValueError):
        load_workspace(
            {"ring": "Z", "submodules": {"s": {"parent": "nope", "gens": []}}}
        )
    with pytest.raises(ValueError) as exc:
        load_workspace(
            {
                "ring": "Zmod:4",
                "modules": {"bad": {"generators": 1, "relations": [[2]]}},
                "subcategories": {"A": {"finite": ["bad"], "divisible": []}},
            }
        )
    assert "injective" in str(exc.value)


def test_dumps_report_is_deterministic():
    r = {"b": 1, "a": [3, 2, {"z": True, "y": None}]}
    assert dumps_report(r) == dumps_report(json.loads(dumps_report(r)))
    assert dumps_report(r) == '{"a":[3,2,{"y":null,"z":true}],"b":1}'


# -- CLI ---------------------------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_closure_worked_example(tmp_path, capsys):
    path = write_ws(tmp_path, WS_MOD4)
    code, out, err = run_cli(
        capsys,
        ["closure", "--workspace", path, "--module", "R", "--sub", "twoR", "--cat", "A"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closure_generators"] == [[2]]
    assert doc["dense"] is False
    assert doc["closed"] is True
    assert out.count("\n") == 1  # exactly one JSON document on stdout


def test_cli_closure_dense_over_z(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z)
    code, out, _ = run_cli(
        capsys,
        ["closure", "--workspace", path, "--module", "Z", "--sub", "twoZ", "--cat", "Q"],
    )
    assert code == 0
    assert json.loads(out)["dense"] is True


def test_cli_closure_whole_submodule(tmp_path, capsys):
    path = write_ws(tmp_path, WS_MOD4)
    code, out, _ = run_cli(
        capsys,
        ["closure", "--workspace", path, "--module", "R", "--sub", "allR", "--cat", "A"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dense"] is True and doc["closed"] is True


def test_cli_closure_with_oracle(tmp_path, capsys):
    path = write_ws(tmp_path, WS_MOD4)
    code, out, _ = run_cli(
        capsys,
        [
            "closure", "--workspace", path,
            "--module", "R", "--sub", "twoR", "--cat", "A", "--oracle",
        ],
    )
    assert code == 0
    assert json.loads(out)["oracle"]["agrees"] is True


def test_cli_unknown_name_exits_2(tmp_path, capsys):
    path = write_ws(tmp_path, WS_MOD4)
    code, out, err = run_cli(
        capsys,
        ["closure", "--workspace", path, "--module", "nope", "--sub", "twoR", "--cat", "A"],
    )
    assert code == 2
    assert out == ""
    assert "nope" in err


def test_cli_non_injective_subcategory_exits_2(tmp_path, capsys):
    doc = {
        "ring": "Zmod:4",
        "modules": {"bad": {"generators": 1, "relations": [[2]]}},
        "subcategories": {"A": {"finite": ["bad"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(
        capsys, ["verify", "--workspace", path, "--cat", "A", "--max-gens", "1", "--max-order", "4"]
    )
    assert code == 2
    assert "injective" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"ring": "Z", "modules": [{"generators": 1}]},
        {"ring": "Z", "submodules": ["s"]},
        {"ring": "Z", "subcategories": "A"},
        {"ring": "Z", "modules": {"m": 3}},
        {"ring": "Z", "modules": {"m": {"generators": 1}}, "submodules": {"s": ["m"]}},
        {"ring": 4},
        {
            "ring": "Zmod:4",
            "modules": {"R": {"generators": 1}},
            "subcategories": {"A": {"finite": "RR"}},
        },
        {"ring": "Z", "subcategories": {"A": {"finite": [["m"]], "divisible": ["Q"]}}},
        {"ring": "Z", "modules": {"m": {"generators": 1, "relations": [5]}}},
    ],
    ids=[
        "modules-not-object",
        "submodules-not-object",
        "subcategories-not-object",
        "module-spec-not-object",
        "submodule-spec-not-object",
        "ring-not-string",
        "finite-is-string",
        "finite-name-not-string",
        "relation-column-not-list",
    ],
)
def test_malformed_workspace_shapes_exit_2(tmp_path, capsys, doc):
    with pytest.raises(ValueError):
        load_workspace(doc)
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(capsys, ["snf", "--workspace", path, "--module", "m"])
    assert code == 2 and out == ""
    assert err.startswith("modclose: error:")


@pytest.mark.parametrize("matrix", ["5", "[[1.5]]"])
def test_cli_snf_rejects_non_integer_matrix(capsys, matrix):
    code, out, err = run_cli(capsys, ["snf", "--matrix", matrix])
    assert code == 2 and out == ""
    assert err.startswith("modclose: error:")


def test_cli_prints_results_past_the_digit_limit(capsys):
    # d = (1, 10**5000): a 5001-digit result from inputs of 2501 digits
    big = 10**2500
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, ["snf", "--matrix", f"[[{big},1],[0,{big}]]"])
    assert code == 0 and err == ""
    assert out.count("\n") == 1
    assert json.loads(out)["d"] == [1, "1" + "0" * 5000]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "entry", ["1" + "0" * 4999, '"1' + "0" * 4999 + '"'], ids=["number", "string"]
)
def test_cli_rejects_inputs_past_the_digit_limit(tmp_path, capsys, entry):
    # a 5000-digit relation entry, as a JSON number or as a decimal string
    path = tmp_path / "ws.json"
    path.write_text(
        '{"ring": "Z", "modules": {"M": {"generators": 1, "relations": [[%s]]}}}' % entry
    )
    code, out, err = run_cli(capsys, ["free-rank", "--workspace", str(path), "--module", "M"])
    assert code == 2 and out == ""
    assert err.startswith("modclose: error:")


def test_cli_verify_z6(tmp_path, capsys):
    doc = {
        "ring": "Zmod:6",
        "modules": {"Z2": {"generators": 1, "relations": [[2]]}},
        "subcategories": {"A": {"finite": ["Z2"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "2", "--max-order", "36"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert set(rep["torsion_members"]) == {"0", "3", "3+3"}
    assert all(c["passed"] for c in rep["checks"])


def test_cli_verify_refuses_an_oversized_universe(tmp_path, capsys):
    doc = {
        "ring": "Zmod:12",
        "modules": {"Z4": {"generators": 1, "relations": [[4]]}},
        "subcategories": {"A": {"finite": ["Z4"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "10", "--max-order", "100000"],
    )
    assert code == 2 and out == ""
    assert "4096" in err


def test_cli_verify_empty_universe_vacuous(tmp_path, capsys):
    doc = {
        "ring": "Zmod:4",
        "modules": {"R": {"generators": 1, "relations": []}},
        "subcategories": {"A": {"finite": ["R"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "0", "--max-order", "1"],
    )
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_cli_snf(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["snf", "--matrix", "[[2,4],[6,8]]"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == [2, 4]


def test_cli_snf_from_workspace_module(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z)
    code, out, _ = run_cli(capsys, ["snf", "--workspace", path, "--module", "M"])
    assert code == 0
    assert json.loads(out)["d"] == [2]


def test_cli_snf_oracle(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["snf", "--matrix", "[[2,4],[6,8]]", "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] == {"unimodular": True, "determinant_divisors": True}


def test_cli_hom(tmp_path, capsys):
    doc = {
        "ring": "Z",
        "modules": {
            "Z4": {"generators": 1, "relations": [[4]]},
            "Z6": {"generators": 1, "relations": [[6]]},
        },
    }
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(
        capsys, ["hom", "--workspace", path, "--module", "Z4", "--cod", "Z6", "--oracle"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["structure"] == [2]
    assert rep["oracle"]["agrees"] is True and rep["oracle"]["hom_count"] == 2


def test_cli_bounded_and_free_rank(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z)
    code, out, _ = run_cli(capsys, ["bounded", "--workspace", path, "--module", "M", "--oracle"])
    assert code == 0
    assert json.loads(out)["bounded"] is False

    code, out, _ = run_cli(capsys, ["free-rank", "--workspace", path, "--module", "M", "--oracle"])
    assert code == 0
    assert json.loads(out)["free_rank"] == 1


def test_cli_byte_deterministic(tmp_path, capsys):
    path = write_ws(tmp_path, WS_MOD4)
    argv = ["closure", "--workspace", path, "--module", "R", "--sub", "twoR", "--cat", "A"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_cli_pretty_flag(tmp_path, capsys):
    path = write_ws(tmp_path, WS_MOD4)
    code, out, _ = run_cli(
        capsys,
        ["closure", "--workspace", path, "--module", "R", "--sub", "twoR", "--cat", "A", "--pretty"],
    )
    assert code == 0
    assert "\n  " in out
    assert json.loads(out)["closed"] is True


def test_cli_missing_workspace_exits_2(capsys):
    code, out, err = run_cli(capsys, ["closure", "--module", "R", "--sub", "x", "--cat", "A"])
    assert code == 2 and out == ""


def test_cli_bad_workspace_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, ["snf", "--workspace", str(path), "--module", "m"])
    assert code == 2


def test_cli_verify_explicit_universe(tmp_path, capsys):
    doc = {
        "ring": "Zmod:6",
        "modules": {
            "Z2": {"generators": 1, "relations": [[2]]},
            "Z3": {"generators": 1, "relations": [[3]]},
            "R": {"generators": 1, "relations": []},
        },
        "subcategories": {"A": {"finite": ["Z2"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--universe", "Z2,Z3,R"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert "3" in rep["torsion_members"]


def test_cli_verify_without_universe_spec_exits_2(tmp_path, capsys):
    doc = {
        "ring": "Zmod:6",
        "modules": {"Z2": {"generators": 1, "relations": [[2]]}},
        "subcategories": {"A": {"finite": ["Z2"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(capsys, ["verify", "--workspace", path, "--cat", "A"])
    assert code == 2
    assert "universe" in err


def test_cli_verify_exit_1_on_failing_check(tmp_path, capsys, monkeypatch):
    # the laws hold for genuinely injective subcategories, so a failing check
    # is forced here to pin down the exit-code contract
    from modclose.torsion import CheckResult
    import modclose.cli as cli_mod

    real = cli_mod.verify_torsion_theory

    def rigged(universe, cat):
        rep = real(universe, cat)
        bad = CheckResult("rigged_check", False, counterexample={"module": [2]})
        object.__setattr__(rep, "checks", rep.checks + (bad,))
        return rep

    monkeypatch.setattr(cli_mod, "verify_torsion_theory", rigged)
    doc = {
        "ring": "Zmod:6",
        "modules": {"Z2": {"generators": 1, "relations": [[2]]}},
        "subcategories": {"A": {"finite": ["Z2"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "1", "--max-order", "6"],
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["all_passed"] is False
    assert {"name": "rigged_check", "passed": False,
            "detail": "", "counterexample": {"module": [2]}} in rep["checks"]


def test_cli_hom_infinite_oracle_exits_2(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z)
    code, out, err = run_cli(
        capsys, ["hom", "--workspace", path, "--module", "Z", "--cod", "Z", "--oracle"]
    )
    assert code == 2
    assert "infeasible" in err
