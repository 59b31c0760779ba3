"""Start-up: each command loads only the code it runs, and the package
resolves its public names lazily.

Each import check runs in a fresh interpreter, so that ``sys.modules``
starts clean.
"""

import json
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
    assert int(count) == 56
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
