import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modclose.cli import main
from modclose.workspace import (
    decode_int,
    dumps_report,
    encode_int,
    load_workspace,
    parse_ring,
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
    assert err == "modclose: error: submodule enumeration requires a finite module\n"


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
