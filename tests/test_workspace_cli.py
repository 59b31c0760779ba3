import json
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modclose.cli import main
from modclose.elements import serialize_workspace
from modclose.workspace import (
    MAX_GENERATORS,
    decode_int,
    dumps_report,
    encode_int,
    load_workspace,
    parse_ring,
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


def test_cli_closure_names_each_witness_by_its_object(tmp_path, capsys):
    # R and S are equal modules under two names: each witness is named by
    # the position of its object in the subcategory, not by equality
    doc = {
        "ring": "Zmod:4",
        "modules": {"R": {"generators": 1}, "S": {"generators": 1}},
        "submodules": {"z": {"parent": "R", "gens": []}},
        "subcategories": {"A": {"finite": ["R", "S"]}},
    }
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(
        capsys, ["closure", "--workspace", path, "--module", "R", "--sub", "z", "--cat", "A"]
    )
    assert code == 0
    assert [w["object"] for w in json.loads(out)["witnesses"]] == ["R", "S"]


def test_unknown_divisible_object_names_the_accepted_tags():
    doc = {"ring": "Z", "subcategories": {"A": {"divisible": ["Q", "Z(2^inf)"]}}}
    with pytest.raises(ValueError) as info:
        load_workspace(doc)
    assert str(info.value) == (
        "subcategory 'A': unknown divisible object 'Z(2^inf)'; use \"Q\" or \"QmodZ\""
    )


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


@pytest.mark.parametrize("where", ["matrix", "workspace"])
def test_cli_refuses_json_nested_past_the_decoder_depth(tmp_path, capsys, where):
    # the decoder raises RecursionError on such input; it is bad input, not a bug
    deep = "[" * 50_000
    if where == "matrix":
        argv = ["snf", "--matrix", deep]
    else:
        path = tmp_path / "ws.json"
        path.write_text(deep)
        argv = ["snf", "--workspace", str(path), "--module", "M"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("modclose: error:") and err.count("\n") == 1
    assert "nested too deeply" in err


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


@pytest.mark.parametrize(
    "text", ["1_000", " 7 ", "+5", "\u0663"], ids=["underscore", "blanks", "plus", "arabic-indic"]
)
@pytest.mark.parametrize("where", ["relation", "modulus"])
def test_cli_rejects_decimal_strings_beyond_ascii_digits(tmp_path, capsys, text, where):
    # int() accepts every one of these; the workspace format does not
    if where == "relation":
        doc = {"ring": "Z", "modules": {"M": {"generators": 1, "relations": [[text]]}}}
    else:
        doc = {"ring": f"Zmod:{text}", "modules": {"M": {"generators": 1, "relations": []}}}
    with pytest.raises(ValueError):
        load_workspace(doc)
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(capsys, ["free-rank", "--workspace", path, "--module", "M"])
    assert code == 2 and out == ""
    assert err.startswith("modclose: error:") and "Traceback" not in err


def test_decimal_strings_accept_ascii_digits_with_a_minus_sign():
    assert decode_int("-12") == -12
    assert decode_int("0072") == 72
    assert decode_int(str(2**80)) == 2**80
    assert parse_ring("Zmod:12").modulus == 12
    with pytest.raises(ValueError):
        decode_int("")
    with pytest.raises(ValueError):
        decode_int("7\n")


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


def test_cli_refuses_a_module_past_the_generator_cap(tmp_path, capsys):
    # building a module grows faster than g^3 in its generator count g, so
    # the count is refused before any relation is decoded
    doc = {"ring": "Zmod:2", "modules": {"M": {"generators": 20_000}}}
    path = write_ws(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["snf", "--workspace", path, "--module", "M"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert str(MAX_GENERATORS) in err
    with pytest.raises(ValueError, match=str(MAX_GENERATORS)):
        load_workspace({"modules": {"M": {"generators": MAX_GENERATORS + 1}}})


def test_a_module_at_the_generator_cap_loads():
    ws = load_workspace({"modules": {"M": {"generators": MAX_GENERATORS}}})
    assert ws.module("M").n_gens == MAX_GENERATORS


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


@pytest.mark.parametrize(
    "gens, relations, d", [(1, [[4]], [2]), (2, [], [6, 6])], ids=["z6-mod-4", "z6-squared"]
)
def test_cli_snf_module_reduces_the_relation_lattice(tmp_path, capsys, gens, relations, d):
    # over Z/6 the relation lattice holds 6*Z^g: Z/6 / (4) is Z/2, and
    # (Z/6)^2 is not free
    doc = {"ring": "Zmod:6", "modules": {"M": {"generators": gens, "relations": relations}}}
    path = write_ws(tmp_path, doc)
    code, out, _ = run_cli(capsys, ["snf", "--workspace", path, "--module", "M"])
    assert code == 0
    assert json.loads(out)["d"] == d


def test_cli_snf_module_diagonal_gives_the_invariant_factors(tmp_path, capsys, rng):
    for ring in ("Z", "Zmod:12", "Zmod:72"):
        modules = {}
        for i in range(30):
            g = rng.randint(0, 3)
            rels = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(rng.randint(0, g + 1))]
            modules[f"M{i}"] = {"generators": g, "relations": rels}
        doc = {"ring": ring, "modules": modules}
        ws = load_workspace(doc)
        path = write_ws(tmp_path, doc)
        for name, spec in modules.items():
            code, out, _ = run_cli(capsys, ["snf", "--workspace", path, "--module", name])
            assert code == 0
            d = json.loads(out)["d"]
            read = [x for x in d if x != 1] + [0] * (spec["generators"] - len(d))
            assert tuple(read) == ws.module(name).invariant_factors, (ring, spec)


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


@pytest.mark.parametrize("flag", ["--max-gens", "--max-order"])
@pytest.mark.parametrize(
    "text", ["\u0663", "1_0", " 2 ", "+2"], ids=["arabic-indic", "underscore", "blanks", "plus"]
)
def test_cli_integer_flags_take_only_ascii_decimals(tmp_path, capsys, flag, text):
    path = write_ws(tmp_path, WS_MOD4)
    argv = ["verify", "--workspace", path, "--cat", "A", "--max-gens", "1", "--max-order", "4"]
    argv[argv.index(flag) + 1] = text
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: invalid integer value: {text!r}" in captured.err


def test_cli_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    for name, purpose in [
        ("closure", "closure of a submodule under a subcategory of injectives"),
        ("verify", "verify the torsion theory induced by a subcategory"),
        ("snf", "Smith normal form with transforms"),
        ("hom", "hom group between two modules"),
        ("bounded", "whether a Z-module admits no nonzero map to Z"),
        ("free-rank", "rank of the largest free summand of a Z-module"),
    ]:
        assert [name, purpose] in lines


def test_cli_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope", "--matrix", "[[1]]"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


CLOSURE_ARGV = ["closure", "--workspace", "WS", "--module", "R", "--sub", "twoR", "--cat", "A"]


def _closure_argv(path, argv=CLOSURE_ARGV):
    return [a.replace("WS", path) for a in argv]


@pytest.mark.parametrize("argv", [
    ["closure", "--workspace=WS", "--module=R", "--sub=twoR", "--cat=A"],
    ["--workspace", "WS", "--module", "R", "--sub", "twoR", "--cat", "A", "closure"],
    ["--cat", "A", "--workspace=WS", "closure", "--sub", "twoR", "--module", "R"],
], ids=["equals-sign", "flags-first", "mixed"])
def test_cli_flag_spellings_and_positions(tmp_path, capsys, argv):
    path = write_ws(tmp_path, WS_MOD4)
    expected = run_cli(capsys, _closure_argv(path))
    assert run_cli(capsys, _closure_argv(path, argv)) == expected
    assert expected[0] == 0 and json.loads(expected[1])["closed"] is True


@pytest.mark.parametrize("argv, message", [
    (CLOSURE_ARGV[:-1], "argument --cat: expected one argument"),
    (["closure", "--workspace", "--module", "R"], "argument --workspace: expected one argument"),
    (CLOSURE_ARGV + ["--json", "--pretty"], "argument --pretty: not allowed with argument --json"),
    (CLOSURE_ARGV + ["--bogus"], "unrecognized arguments: --bogus"),
    (CLOSURE_ARGV + ["extra"], "unrecognized arguments: extra"),
    (CLOSURE_ARGV + ["--oracle=yes"], "argument --oracle: ignored explicit argument"),
    (["--workspace", "WS"], "the following arguments are required: command"),
    (["closure", "--work", "WS", "--module", "R", "--sub", "twoR", "--cat", "A"],
     "unrecognized arguments: --work"),
    (["closure", "--workspace", "WS", "--mod", "R", "--sub", "twoR", "--cat", "A"],
     "unrecognized arguments: --mod"),
], ids=["missing-value-at-end", "missing-value-before-flag", "json-and-pretty",
        "unknown-flag", "second-positional", "boolean-with-value", "no-command",
        "abbreviated-workspace", "abbreviated-module"])
def test_cli_usage_errors_exit_2_with_empty_stdout(tmp_path, capsys, argv, message):
    # flags are never abbreviated: --work is not --workspace
    path = write_ws(tmp_path, WS_MOD4)
    with pytest.raises(SystemExit) as exc:
        main(_closure_argv(path, argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"modclose: error: {message}" in captured.err


def test_cli_long_help_is_the_short_help(capsys):
    outputs = []
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["closure", flag])
        assert exc.value.code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == "" and "free-rank" in outputs[0].out


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


def test_cli_verify_with_an_infinite_object_exits_2(tmp_path, capsys):
    doc = {
        "ring": "Z",
        "modules": {
            "Z2": {"generators": 1, "relations": [[2]]},
            "Z": {"generators": 1, "relations": []},
        },
        "subcategories": {"Q": {"finite": [], "divisible": ["Q"]}},
    }
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(
        capsys, ["verify", "--workspace", path, "--cat", "Q", "--universe", "Z2,Z"]
    )
    assert code == 2 and out == ""
    assert err == (
        "modclose: error: verify requires finite universe objects: "
        "the object with invariant factors [0] is infinite\n"
    )


def test_cli_verify_refuses_a_module_past_the_pair_set_caps(tmp_path, capsys):
    # diag(2, 4, ..., 256) has a 2-part of 36 cells, past the cell cap, so it
    # is refused before any Littlewood-Richardson search; (27720*13)^4 has
    # six small p-types whose supports multiply past the pair-set cap
    import time

    diag = [[2 ** (i + 1) if i == j else 0 for i in range(8)] for j in range(8)]
    doc = {
        "ring": "Z",
        "modules": {
            "M": {"generators": 8, "relations": diag},
            "N": {"generators": 4, "relations": [[360360 * (i == j) for i in range(4)]
                                                  for j in range(4)]},
        },
        "subcategories": {"Q": {"finite": [], "divisible": ["Q"]}},
    }
    path = write_ws(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["verify", "--workspace", path, "--cat", "Q", "--universe", "M"]
    )
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == (
        "modclose: error: class pairs of [2, 4, 8, 16, 32, 64, 128, 256]: its "
        "2-part has 36 cells, past the cell cap of 20\n"
    )
    code, out, err = run_cli(
        capsys, ["verify", "--workspace", path, "--cat", "Q", "--universe", "N"]
    )
    assert code == 2 and out == ""
    assert err.startswith("modclose: error: class pairs of [360360, 360360, 360360, 360360]: ")
    assert err.endswith("pairs, past the pair-set cap of 100000\n")


@pytest.mark.parametrize("modulus, max_gens, message", [
    # 2^61 - 1 is prime, past the factoring bound: at the first divisor
    # search past TRIAL_DIVISION_BOUND trial divisions, not after minutes
    (2**61 - 1, "1", "cannot factor 2305843009213693951: its cofactor "
     "2305843009213693951 has no prime factor up to the trial-division bound 1048576"),
    # 2^50 and 2^60: their divisors, read from the factorization, reach the
    # cap; a search by trial division takes 2^25 and 2^30 steps
    (2**50, "2", "universe too large: the module orders found so far sum to 8191, "
     "past the cap of 4096; lower the generator or order bound"),
    (2**60, "2", "universe too large: the module orders found so far sum to 8191, "
     "past the cap of 4096; lower the generator or order bound"),
])
def test_cli_verify_bounds_its_divisor_search(tmp_path, capsys, modulus, max_gens, message):
    doc = {
        "ring": f"Zmod:{modulus}",
        "modules": {"R": {"generators": 1, "relations": []}},
        "subcategories": {"A": {"finite": ["R"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", max_gens,
         "--max-order", "100000000000000000000"],
    )
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == f"modclose: error: {message}\n"


@pytest.fixture
def builds(monkeypatch):
    """The arguments of the ``IntMatrix.__init__`` calls made while the test
    runs."""
    from modclose.intmatrix import IntMatrix

    calls = []
    init = IntMatrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counted)
    return calls


def test_cli_verify_and_a_divisible_closure_build_no_matrix(tmp_path, capsys, builds):
    # generating sets travel as column tuples, so neither request converts a
    # matrix through IntMatrix.__init__ (the Smith reductions of lattices
    # take their basis as is)
    path = write_ws(tmp_path, WS_Z12)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "2", "--max-order", "36"],
    )
    assert code == 0 and json.loads(out)["all_passed"]
    assert builds == []
    doc = dict(WS_Z, submodules={"x": {"parent": "M", "gens": [[1, 0]]}})
    path = write_ws(tmp_path, doc, "z.json")
    code, out, _ = run_cli(
        capsys, ["closure", "--workspace", path, "--module", "M", "--sub", "x", "--cat", "Q"]
    )
    assert code == 0 and json.loads(out)["closure_generators"] == [[1, 0], [0, 1]]
    assert builds == []


def test_cli_finite_closure_and_hom_build_no_matrix(tmp_path, capsys, builds):
    # a hom generator's matrix is its reduced image columns taken as is, so a
    # closure under finite objects and a hom request convert no matrix either
    path = write_ws(tmp_path, WS_MOD4)
    code, out, _ = run_cli(
        capsys,
        ["closure", "--workspace", path, "--module", "R", "--sub", "twoR", "--cat", "A"],
    )
    assert code == 0 and json.loads(out)["witnesses"]
    for module, cod in (("half", "R"), ("R", "half")):
        code, out, _ = run_cli(
            capsys, ["hom", "--workspace", path, "--module", module, "--cod", cod]
        )
        assert code == 0 and json.loads(out)["generators"]
    path = write_ws(tmp_path, WS_Z, "z.json")
    code, out, _ = run_cli(capsys, ["hom", "--workspace", path, "--module", "M", "--cod", "M"])
    assert code == 0 and json.loads(out)["generators"]
    assert builds == []


def test_cli_verify_refuses_a_universe_naming_no_module(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z12)
    for names in (",", ",,"):
        code, out, err = run_cli(
            capsys, ["verify", "--workspace", path, "--cat", "A", "--universe", names]
        )
        assert code == 2 and out == ""
        assert err == "modclose: error: --universe names no module\n"


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
    import modclose.torsion as torsion_mod
    from modclose.torsion import CheckResult

    real = torsion_mod.verify_torsion_theory

    def rigged(universe, cat):
        rep = real(universe, cat)
        bad = CheckResult("rigged_check", False, counterexample={"module": [2]})
        return rep._replace(checks=rep.checks + (bad,))

    monkeypatch.setattr(torsion_mod, "verify_torsion_theory", rigged)
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


WS_Z12 = {
    "ring": "Zmod:12",
    "modules": {"Z4": {"generators": 1, "relations": [[4]]}},
    "subcategories": {"A": {"finite": ["Z4"], "divisible": []}},
}


def test_cli_verify_oracle_checks_the_pair_sets(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z12)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "2",
         "--max-order", "36", "--oracle"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert rep["oracle"] == {"agrees": True, "mismatches": []}


def test_cli_verify_oracle_reports_a_wrong_pair_set(tmp_path, capsys, monkeypatch):
    # a support that forgets the zero submodule of every nonzero module: the
    # laws still pass on the smaller sets, the oracle names each such object
    import modclose.torsion as torsion_mod

    real = torsion_mod.class_pair_support

    def wrong(chain):
        return real(chain) - {((), chain)} if chain else real(chain)

    monkeypatch.setattr(torsion_mod, "class_pair_support", wrong)
    path = write_ws(tmp_path, WS_Z12)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "1",
         "--max-order", "12", "--oracle"],
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert rep["oracle"]["agrees"] is False
    assert rep["oracle"]["mismatches"] == [
        {"module": label, "pairs_not_listed": [], "pairs_not_in_support": [[[], chain]]}
        for label, chain in [("2", [2]), ("3", [3]), ("4", [4]), ("6", [6]), ("12", [12])]
    ]


def _verify_z12_oracle(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z12)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--workspace", path, "--cat", "A", "--max-gens", "1",
         "--max-order", "12", "--oracle"],
    )
    return code, json.loads(out)["oracle"]


def test_cli_verify_oracle_reports_a_wrong_torsion_free_test(tmp_path, capsys, monkeypatch):
    # F rigged to hold everything: the computed radicals of Z/3, Z/6 and
    # Z/12 under {Z/4} are nonzero
    import modclose.torsion as torsion_mod

    monkeypatch.setattr(torsion_mod, "_in_torsion_free_class", lambda chain, cat: True)
    code, oracle = _verify_z12_oracle(tmp_path, capsys)
    assert code == 1
    assert oracle == {"agrees": False, "mismatches": [
        {"module": label, "torsion_free_by_chain": True, "torsion_free_by_radical": False}
        for label in ("3", "6", "12")
    ]}


def test_cli_verify_oracle_reports_a_wrong_torsion_test(tmp_path, capsys, monkeypatch):
    # T rigged to hold everything: the enumerated radicals of Z/2, Z/4, Z/6
    # and Z/12 under {Z/4} are not the whole module
    import modclose.torsion as torsion_mod

    monkeypatch.setattr(torsion_mod, "_in_torsion_class", lambda chain, cat: True)
    code, oracle = _verify_z12_oracle(tmp_path, capsys)
    assert code == 1
    assert oracle == {"agrees": False, "mismatches": [
        {"module": label, "torsion_by_chain": True, "torsion_by_radical": False}
        for label in ("2", "4", "6", "12")
    ]}


def test_cli_verify_oracle_reports_a_wrong_radical(tmp_path, capsys, monkeypatch):
    # every radical rigged to zero (in a fresh radical cache): the laws still
    # pass, and the enumerated closures of zero name the objects whose
    # radical under {Z/4} is not
    from functools import lru_cache

    import modclose.torsion as torsion_mod

    fresh = lru_cache(maxsize=1024)(torsion_mod.torsion_radical.__wrapped__)
    monkeypatch.setattr(torsion_mod, "torsion_radical", fresh)
    monkeypatch.setattr(torsion_mod, "_closure_lattice", lambda lat, cat: lat)
    code, oracle = _verify_z12_oracle(tmp_path, capsys)
    assert code == 1
    assert oracle["agrees"] is False
    assert [m for m in oracle["mismatches"] if "radical_by_enumeration" in m] == [
        {"module": "3", "radical_by_enumeration": [[1]]},
        {"module": "6", "radical_by_enumeration": [[2]]},
        {"module": "12", "radical_by_enumeration": [[4]]},
    ]


def test_cli_verify_oracle_reports_a_wrong_torsion_to_torsion_free_test(
    tmp_path, capsys, monkeypatch
):
    # the chain test rigged to see a map Z/3 -> Z/2, which no hom group has;
    # the subcategory {Z/4} keeps its T and F, so only the T -> F law moves
    import modclose.torsion as torsion_mod

    real = torsion_mod._admits_nonzero_map

    def rigged(chain, target):
        if chain == (3,) and getattr(target, "invariant_factors", None) == (2,):
            return True
        return real(chain, target)

    monkeypatch.setattr(torsion_mod, "_admits_nonzero_map", rigged)
    code, oracle = _verify_z12_oracle(tmp_path, capsys)
    assert code == 1
    assert oracle == {"agrees": False, "mismatches": [
        {"from": "3", "to": "2", "nonzero_by_chain": True, "nonzero_by_hom_group": False},
    ]}


def test_cli_verify_oracle_reports_a_wrong_sum_chain(tmp_path, capsys, monkeypatch):
    # sums rigged to concatenate the chains: wrong exactly where the two
    # chains are not already an invariant-factor chain together
    import modclose.torsion as torsion_mod

    monkeypatch.setattr(torsion_mod, "_sum_chain", lambda a, b: tuple(sorted(a + b)))
    code, oracle = _verify_z12_oracle(tmp_path, capsys)
    assert code == 1
    assert oracle == {"agrees": False, "mismatches": [
        {"left": "2", "right": "3", "sum_chain": [2, 3], "direct_sum": [6]},
        {"left": "3", "right": "4", "sum_chain": [3, 4], "direct_sum": [12]},
        {"left": "4", "right": "6", "sum_chain": [4, 6], "direct_sum": [2, 12]},
    ]}


# -- the --oracle contract, the same for every command ---------------------------------

ORACLE_COMMANDS = [
    (WS_MOD4, ["closure", "--module", "R", "--sub", "twoR", "--cat", "A"]),
    (WS_MOD4, ["verify", "--cat", "A", "--max-gens", "1", "--max-order", "4"]),
    (None, ["snf", "--matrix", "[[2,4],[6,8]]"]),
    (WS_MOD4, ["hom", "--module", "half", "--cod", "R"]),
    (WS_Z, ["bounded", "--module", "M"]),
    (WS_Z, ["free-rank", "--module", "M"]),
]
ORACLE_IDS = [argv[0] for _, argv in ORACLE_COMMANDS]


def _oracle_argv(tmp_path, doc, argv):
    workspace = [] if doc is None else ["--workspace", write_ws(tmp_path, doc)]
    return [*argv, *workspace, "--oracle"]


@pytest.mark.parametrize("doc, argv", ORACLE_COMMANDS, ids=ORACLE_IDS)
def test_cli_oracle_mismatch_exits_1_with_the_oracle_entry(
    tmp_path, capsys, monkeypatch, doc, argv
):
    import modclose.oracles as oracles
    name = argv[0].replace("-", "_")
    monkeypatch.setattr(oracles, f"oracle_{name}", lambda *check: (False, {"agrees": False}))
    code, out, _ = run_cli(capsys, _oracle_argv(tmp_path, doc, argv))
    assert code == 1
    assert json.loads(out)["oracle"] == {"agrees": False}


@pytest.mark.parametrize("doc, argv", ORACLE_COMMANDS, ids=ORACLE_IDS)
def test_cli_oracle_infeasible_exits_2_with_empty_stdout(
    tmp_path, capsys, monkeypatch, doc, argv
):
    import modclose.oracles as oracles
    from modclose.errors import OracleInfeasibleError

    def infeasible(*check):
        raise OracleInfeasibleError("rigged: past the oracle's bound")

    monkeypatch.setattr(oracles, f"oracle_{argv[0].replace('-', '_')}", infeasible)
    code, out, err = run_cli(capsys, _oracle_argv(tmp_path, doc, argv))
    assert code == 2
    assert out == ""
    assert "rigged: past the oracle's bound" in err


def test_every_command_has_an_oracle():
    import modclose.oracles as oracles
    from modclose import cli
    for command in cli._COMMANDS:
        assert callable(getattr(oracles, f"oracle_{command.replace('-', '_')}", None)), command


def _diagonal(k, d):
    return [[d if i == j else 0 for i in range(k)] for j in range(k)]


WS_HOM_CAP = {
    "ring": "Z",
    "modules": {
        "F3": {"generators": 3},
        "F25": {"generators": 25},
        "T192": {"generators": 192, "relations": _diagonal(192, 2)},
        "T25": {"generators": 25, "relations": _diagonal(25, 2)},
    },
}


def test_cli_hom_refuses_a_hom_group_past_the_piece_cap(tmp_path, capsys):
    # Hom(Z^25, (Z/2)^25) has 625 pieces Z/2, past the cap of 576
    path = write_ws(tmp_path, WS_HOM_CAP)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["hom", "--workspace", path, "--module", "F25", "--cod", "T25"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "625 cyclic pieces, past the cap of 576" in err


def test_cli_hom_at_the_piece_cap_answers(tmp_path, capsys):
    # Hom(Z^3, (Z/2)^192): 576 pieces, the most the cap allows
    path = write_ws(tmp_path, WS_HOM_CAP)
    code, out, _ = run_cli(
        capsys, ["hom", "--workspace", path, "--module", "F3", "--cod", "T192"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["structure"] == [2] * 576
    assert len(report["generators"]) == 576


def test_cli_closure_refuses_witnesses_past_the_piece_cap(tmp_path, capsys):
    # the witnesses of the closure of 0 in (Z/2)^25 under {(Z/2)^25} are the
    # generators of a hom group of 625 pieces
    doc = {
        "ring": "Zmod:2",
        "modules": {"M": {"generators": 25}},
        "submodules": {"zero": {"parent": "M", "gens": []}},
        "subcategories": {"A": {"finite": ["M"], "divisible": []}},
    }
    path = write_ws(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["closure", "--workspace", path, "--module", "M", "--sub", "zero",
                 "--cat", "A"],
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "past the cap of 576" in err


@pytest.mark.parametrize("shape", [(129, 1), (1, 129)])
def test_cli_snf_refuses_a_matrix_past_the_side_cap(capsys, shape):
    rows = [[1] * shape[1] for _ in range(shape[0])]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["snf", "--matrix", json.dumps(rows)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"a {shape[0]}x{shape[1]} matrix is past the snf cap of 128" in err


def test_cli_snf_refuses_a_module_past_the_side_cap(tmp_path, capsys):
    doc = {"ring": "Z", "modules": {"F128": {"generators": 128},
                                    "F129": {"generators": 129}}}
    path = write_ws(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["snf", "--workspace", path, "--module", "F129"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "past the snf cap of 128" in err
    code, out, _ = run_cli(capsys, ["snf", "--workspace", path, "--module", "F128"])
    assert code == 0 and json.loads(out)["d"] == []


@pytest.mark.parametrize("shape", [(128, 1), (1, 128)])
def test_cli_snf_at_the_side_cap_answers(capsys, shape):
    rows = [[2] * shape[1] for _ in range(shape[0])]
    code, out, _ = run_cli(capsys, ["snf", "--matrix", json.dumps(rows)])
    assert code == 0 and json.loads(out)["d"] == [2]


def test_cli_snf_oracle_refuses_a_9x9_matrix(capsys):
    # the cofactor expansion of a 9x9 matrix may take 31 million terms
    rows = [[(3 * i + 7 * j) % 19 - 9 for j in range(9)] for i in range(9)]
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, ["snf", "--matrix", json.dumps(rows), "--oracle"]
    )
    assert time.monotonic() - start < 5
    assert code == 2
    assert out == ""
    assert "past the cofactor cap of 8 rows and columns" in err


def test_cli_hom_infinite_oracle_exits_2(tmp_path, capsys):
    path = write_ws(tmp_path, WS_Z)
    code, out, err = run_cli(
        capsys, ["hom", "--workspace", path, "--module", "Z", "--cod", "Z", "--oracle"]
    )
    assert code == 2
    assert "infeasible" in err


# -- workspace documents, generated ----------------------------------------------

NAMES = st.text(alphabet="abMNR01_", min_size=1, max_size=3)
# relation and generator entries: JSON numbers, or decimal strings of any size
ENTRIES = st.integers(min_value=-(2**70), max_value=2**70).flatmap(
    lambda x: st.sampled_from([x, str(x), encode_int(x)])
)


@st.composite
def workspace_docs(draw):
    """Valid documents: modules of up to 3 generators, submodules of them, and
    subcategories of injective objects (diagonal Z/d with gcd(d, n/d) = 1
    over Z/n; Q and Q/Z over Z)."""
    n = draw(st.sampled_from([0, 2, 4, 6, 12, 72]))
    modules = {}
    for name in draw(st.lists(NAMES, max_size=4, unique=True)):
        g = draw(st.integers(0, 3))
        cols = draw(st.lists(st.lists(ENTRIES, min_size=g, max_size=g), max_size=3))
        modules[name] = {"generators": g, "relations": cols}
    submodules = {}
    if modules:
        for name in draw(st.lists(NAMES, max_size=3, unique=True)):
            parent = draw(st.sampled_from(sorted(modules)))
            g = modules[parent]["generators"]
            cols = draw(st.lists(st.lists(ENTRIES, min_size=g, max_size=g), max_size=3))
            submodules[name] = {"parent": parent, "gens": cols}
    subcategories = {}
    if n:
        units = [d for d in range(1, n + 1) if n % d == 0 and _gcd(d, n // d) == 1]
        for d in draw(st.lists(st.sampled_from(units), max_size=2)):
            modules[f"I{d}"] = {"generators": 1, "relations": [[d]]}
        injective = sorted(k for k in modules if k.startswith("I"))
        if injective:
            subcategories["A"] = {
                "finite": draw(st.lists(st.sampled_from(injective), min_size=1, max_size=2)),
                "divisible": [],
            }
    else:
        divisible = draw(st.lists(st.sampled_from(["Q", "QmodZ"]), min_size=1, max_size=2))
        subcategories["A"] = {"finite": [], "divisible": divisible}
    return {
        "ring": "Z" if n == 0 else f"Zmod:{n}",
        "modules": modules,
        "submodules": submodules,
        "subcategories": subcategories,
    }


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@settings(max_examples=80, deadline=None)
@given(workspace_docs())
def test_generated_workspaces_round_trip(doc):
    ws = load_workspace(doc)
    text = json.dumps(serialize_workspace(ws))
    again = load_workspace(json.loads(text))
    assert again == ws
    assert serialize_workspace(again) == serialize_workspace(ws)


KEYS = st.sampled_from([
    "ring", "modules", "submodules", "subcategories", "generators",
    "relations", "gens", "parent", "finite", "divisible", "M", "N", "A",
])
# Integers stay small: loading builds a module on g generators in time about
# g**3 before any size check, an open fault (ROADMAP item 6).
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
    st.sampled_from(["Z", "Zmod:4", "Zmod:1", "Zmod:0", "Zmod:+6", "Zmod:", "M", "N",
                     "Q", "QmodZ", "1_000", " 7 ", "+5", "\u0663", str(2**80)]),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=24,
)


def _nodes(value, path=()):
    """Every position in a JSON tree, as a path of keys and indices."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


@st.composite
def damaged_docs(draw):
    """A valid document with one position (the root included) replaced by an
    arbitrary JSON value."""
    doc = draw(workspace_docs())
    path = draw(st.sampled_from(list(_nodes(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damaged_docs())
def test_adversarial_workspaces_fail_only_with_value_error(tmp_path, capsys, doc):
    try:
        ws = load_workspace(doc)
    except ValueError:
        pass
    else:
        assert load_workspace(serialize_workspace(ws)) == ws
    # without --module, a document that loads fails too: exit 2 either way
    path = write_ws(tmp_path, doc)
    code, out, err = run_cli(capsys, ["free-rank", "--workspace", path])
    assert code == 2 and out == ""
    assert err.startswith("modclose: error:")
