"""Start-up: each command loads only the code it runs, and the package
resolves its public names lazily.

Each import check runs in a fresh interpreter, so that ``sys.modules``
starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modclose import ZZ, Ring, Zmod

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = {"modclose.closure", "modclose.homs", "modclose.torsion", "modclose.oracles"}


def _fresh(code: str) -> tuple[set[str], str]:
    """Run ``code`` in a fresh interpreter; return the modules it loaded and
    its stdout before the module list."""
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
        "import json\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        check=True,
    )
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return set(json.loads(last)), out


def test_importing_the_cli_loads_no_command_code():
    loaded, _ = _fresh("import modclose.cli")
    assert not loaded & (HEAVY | {"dataclasses"})
    assert not any(name.startswith("modclose.commands") for name in loaded)


def test_snf_loads_no_closure_hom_or_torsion_code():
    loaded, out = _fresh(
        "from modclose import cli\n"
        "assert cli.main(['snf', '--matrix', '[[2,4],[6,8]]']) == 0"
    )
    assert json.loads(out)["d"] == [2, 4]
    assert not loaded & HEAVY


def test_snf_oracle_loads_only_matrices_and_rings():
    loaded, out = _fresh(
        "from modclose import cli\n"
        "assert cli.main(['snf', '--matrix', '[[2,4],[6,8]]', '--oracle']) == 0"
    )
    assert json.loads(out)["oracle"] == {"unimodular": True, "determinant_divisors": True}
    assert "modclose.oracles" in loaded
    assert not loaded & {"modclose.closure", "modclose.homs", "modclose.lattices",
                         "modclose.modules", "modclose.torsion"}


@pytest.mark.parametrize("command, key, value", [("bounded", "bounded", False),
                                                 ("free-rank", "free_rank", 1)])
def test_bounded_and_free_rank_load_no_torsion_code(tmp_path, command, key, value):
    doc = {"ring": "Z", "modules": {"M": {"generators": 2, "relations": [[0, 2]]}}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--workspace", str(path), "--module", "M"]
    loaded, out = _fresh(f"from modclose import cli\nassert cli.main({argv!r}) == 0")
    assert json.loads(out)[key] == value
    assert "modclose.modules" in loaded
    assert not loaded & HEAVY


def test_closure_without_oracle_loads_neither_oracles_nor_torsion(tmp_path):
    doc = {
        "ring": "Zmod:4",
        "modules": {"R": {"generators": 1, "relations": []}},
        "submodules": {"twoR": {"parent": "R", "gens": [[2]]}},
        "subcategories": {"A": {"finite": ["R"], "divisible": []}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    argv = ["closure", "--workspace", str(path), "--module", "R", "--sub", "twoR", "--cat", "A"]
    loaded, out = _fresh(f"from modclose import cli\nassert cli.main({argv!r}) == 0")
    assert json.loads(out)["closed"] is True
    assert "modclose.closure" in loaded
    assert not loaded & {"modclose.oracles", "modclose.torsion"}


WS_MOD4 = {
    "ring": "Zmod:4",
    "modules": {"R": {"generators": 1, "relations": []}},
    "submodules": {"twoR": {"parent": "R", "gens": [[2]]}},
    "subcategories": {"A": {"finite": ["R"], "divisible": []}},
}
WS_Z = {"ring": "Z", "modules": {"M": {"generators": 2, "relations": [[0, 2]]}}}


COMMANDS = [
    (WS_MOD4, ["closure", "--module", "R", "--sub", "twoR", "--cat", "A"]),
    (WS_MOD4, ["verify", "--cat", "A", "--max-gens", "1", "--max-order", "4"]),
    (None, ["snf", "--matrix", "[[2,4],[6,8]]"]),
    (WS_MOD4, ["hom", "--module", "R", "--cod", "R"]),
    (WS_Z, ["bounded", "--module", "M"]),
    (WS_Z, ["free-rank", "--module", "M"]),
]
COMMAND_IDS = [argv[0] for _, argv in COMMANDS]


def _run_fresh(tmp_path, doc, argv):
    if doc is not None:
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--workspace", str(path)]
    loaded, out = _fresh(f"from modclose import cli\nassert cli.main({argv!r}) == 0")
    return loaded, json.loads(out)


def _own_module(command: str) -> str:
    return f"modclose.commands.{command.replace('-', '_')}"


COMMAND_MODULES = {_own_module(name) for name in COMMAND_IDS}


@pytest.mark.parametrize("doc, argv", COMMANDS, ids=COMMAND_IDS)
def test_no_command_loads_argparse(tmp_path, doc, argv):
    # nor the oracles, nor the module of another command
    loaded, report = _run_fresh(tmp_path, doc, argv)
    assert report and "oracle" not in report
    assert not loaded & {"argparse", "gettext", "modclose.oracles"}
    assert loaded & COMMAND_MODULES == {_own_module(argv[0])}


@pytest.mark.parametrize("doc, argv", COMMANDS, ids=COMMAND_IDS)
def test_every_oracle_run_loads_its_own_command_and_agrees(tmp_path, doc, argv):
    loaded, report = _run_fresh(tmp_path, doc, argv + ["--oracle"])
    assert "modclose.oracles" in loaded
    assert loaded & COMMAND_MODULES == {_own_module(argv[0])}
    check = report["oracle"]
    assert all(check.values()) if argv[0] == "snf" else check["agrees"] is True


# 2^61 - 1, a prime: the closure must not factor the modulus at load
WS_BIG_PRIME = {
    "ring": "Zmod:2305843009213693951",
    "modules": {"R": {"generators": 1, "relations": []}},
    "submodules": {"zero": {"parent": "R", "gens": []}},
    "subcategories": {"A": {"finite": ["R"], "divisible": []}},
}


def _cli(tmp_path, doc, argv, timeout):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return subprocess.run(
        [sys.executable, "-m", "modclose.cli", *argv, "--workspace", str(path)],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_closure_over_a_large_prime_modulus_finishes(tmp_path):
    argv = ["closure", "--module", "R", "--sub", "zero", "--cat", "A"]
    proc = _cli(tmp_path, WS_BIG_PRIME, argv, timeout=10)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["closed"] is True and report["closure_generators"] == []


@pytest.mark.parametrize("doc, cat", [
    (WS_BIG_PRIME, "A"),
    ({"ring": "Z", "modules": {"R": {"generators": 1, "relations": [["2305843009213693951"]]}},
      "subcategories": {"Q": {"finite": [], "divisible": ["Q"]}}}, "Q"),
], ids=["modular", "integer"])
def test_verify_refuses_a_large_prime_past_the_trial_division_bound(tmp_path, doc, cat):
    proc = _cli(tmp_path, doc, ["verify", "--cat", cat, "--universe", "R"], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "trial-division bound 1048576" in proc.stderr


def test_every_public_name_resolves_lazily():
    _, out = _fresh(
        "import importlib, modclose\n"
        "print(len(modclose.__all__))\n"
        "for name in modclose.__all__:\n"
        "    exec(f'from modclose import {name} as value')\n"
        "    home = importlib.import_module(f'modclose.{modclose._SUBMODULE[name]}')\n"
        "    assert value is getattr(home, name), name\n"
        "    assert name in dir(modclose), name\n"
        "try:\n"
        "    modclose.nope\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    count, verdict = out.splitlines()
    assert int(count) == 51
    assert verdict == "AttributeError"


def test_ring_value_semantics():
    assert Ring(0) == ZZ and hash(Ring(0)) == hash(ZZ)
    assert Zmod(12) == Ring(12) and hash(Zmod(12)) == hash(Ring(12))
    assert Zmod(12) != Zmod(6)
    assert Ring() == ZZ
    assert repr(Zmod(12)) == "Ring(modulus=12)"
    for bad in (1, -3):
        with pytest.raises(ValueError):
            Ring(bad)
    with pytest.raises(AttributeError):
        ZZ.modulus = 5
    with pytest.raises(AttributeError):
        del ZZ.modulus
    assert ZZ.modulus == 0
