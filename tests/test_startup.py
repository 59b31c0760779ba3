"""Start-up and exit: each command loads only the code it runs, the package
resolves its public names lazily, and a CLI process ends without a final
walk over its objects.

Each import check runs in a fresh interpreter, so that ``sys.modules``
starts clean; so does each exit check, since only a fresh process reaches
interpreter exit.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modclose import ZZ, Ring, Zmod, cli

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

# The modclose.* modules each command loads, besides ``cli``, ``errors``,
# ``workspace``, ``rings``, ``commands`` and its own handler.  The element
# code (``elements``) loads only under --oracle, and the bounded and
# free-rank oracles never list an element.  The matrix API (``intmatrix``)
# loads for snf, which builds its matrix, and with the element code.
_LOADS = {
    "closure": {"closure", "homs", "lattices", "matrices", "modules"},
    "verify": {"closure", "lattices", "matrices", "modules", "torsion"},
    "snf": {"intmatrix", "matrices"},
    "hom": {"closure", "homs", "lattices", "matrices", "modules"},
    "bounded": {"lattices", "matrices", "modules"},
    "free-rank": {"lattices", "matrices", "modules"},
}
_ORACLE_LOADS = {
    "closure": {"elements", "intmatrix", "oracles"},
    "verify": {"elements", "homs", "intmatrix", "oracles"},
    "snf": {"oracles"},
    "hom": {"elements", "intmatrix", "oracles"},
    "bounded": {"homs", "oracles"},
    "free-rank": {"homs", "oracles"},
}


def _expected_modules(command: str, oracle: bool) -> set[str]:
    names = {"cli", "errors", "workspace", "rings", "commands"} | _LOADS[command]
    if oracle:
        names |= _ORACLE_LOADS[command]
    return {f"modclose.{name}" for name in names} | {_own_module(command)}


def _modclose_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.startswith("modclose.")}


def _with_workspace(tmp_path, doc, argv):
    """``argv`` with ``--workspace`` naming a file that holds ``doc``, if any."""
    if doc is None:
        return argv
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return argv + ["--workspace", str(path)]


def _run_fresh(tmp_path, doc, argv):
    argv = _with_workspace(tmp_path, doc, argv)
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
    assert not loaded & {"argparse", "gettext", "modclose.oracles", "modclose.elements"}
    assert loaded & COMMAND_MODULES == {_own_module(argv[0])}
    assert _modclose_modules(loaded) == _expected_modules(argv[0], oracle=False)


@pytest.mark.parametrize("doc, argv", COMMANDS, ids=COMMAND_IDS)
def test_every_oracle_run_loads_its_own_command_and_agrees(tmp_path, doc, argv):
    loaded, report = _run_fresh(tmp_path, doc, argv + ["--oracle"])
    assert "modclose.oracles" in loaded
    assert loaded & COMMAND_MODULES == {_own_module(argv[0])}
    assert _modclose_modules(loaded) == _expected_modules(argv[0], oracle=True)
    check = report["oracle"]
    assert all(check.values()) if argv[0] == "snf" else check["agrees"] is True


@pytest.mark.parametrize("doc, argv", COMMANDS, ids=COMMAND_IDS)
def test_no_request_compiles_the_smith_form_into_matrices(tmp_path, doc, argv):
    # the public Smith form lives beside the snf command, which alone runs it
    argv = _with_workspace(tmp_path, doc, argv)
    _, out = _fresh(
        "from modclose import cli, matrices\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted({'SNFResult', 'smith_normal_form'} & set(vars(matrices))),"
        " hasattr(matrices.IntMatrix, 'diagonal'))"
    )
    assert out.splitlines()[-1] == "[] False"


# the names moved out of the modules every request loads: old module -> name
# -> the module that defines it now
MOVED = {
    "matrices": dict.fromkeys(
        ["IntMatrix", "_preimage", "kernel_basis", "_kernel_over_z", "solve_linear"], "intmatrix"
    ),
    "modules": {
        **dict.fromkeys(
            ["sub_meet", "sub_join", "sub_as_module", "all_submodules", "_check_same_parent"],
            "elements",
        ),
        "is_bounded": "commands.bounded",
        "free_summand_rank": "commands.free_rank",
    },
    "homs": dict.fromkeys(["kernel_of_hom", "is_injective_module"], "elements"),
}


@pytest.mark.parametrize(
    "doc, argv",
    [c for c in COMMANDS if c[1][0] != "snf"],
    ids=[name for name in COMMAND_IDS if name != "snf"],
)
def test_only_snf_compiles_the_matrix_api(tmp_path, doc, argv):
    # nor does any other request compile a name moved out of the hot modules
    argv = _with_workspace(tmp_path, doc, argv)
    loaded, out = _fresh(
        "from modclose import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print([f'{{old}}.{{name}}' for old, names in {MOVED!r}.items()"
        " for name in names if name in getattr(sys.modules.get(f'modclose.{old}'), '__dict__', {})])"
    )
    assert "modclose.intmatrix" not in loaded
    assert out.splitlines()[-1] == "[]"


def test_every_moved_name_is_one_object_at_each_of_its_paths():
    _, out = _fresh(
        "import importlib, modclose\n"
        f"for old, names in {MOVED!r}.items():\n"
        "    module = importlib.import_module(f'modclose.{old}')\n"
        "    for name, home in names.items():\n"
        "        value = getattr(importlib.import_module(f'modclose.{home}'), name)\n"
        "        exec(f'from modclose.{old} import {name} as imported')\n"
        "        assert getattr(module, name) is imported is value, name\n"
        "        assert name.startswith('_') or getattr(modclose, name) is value, name\n"
        "        assert name not in vars(module), name\n"
        "    try:\n"
        "        module.nope\n"
        "    except AttributeError:\n"
        "        print('AttributeError')\n"
    )
    assert out.splitlines() == ["AttributeError"] * 3


def test_the_smith_form_resolves_to_the_snf_command():
    _, out = _fresh(
        "import modclose\n"
        "print(modclose.smith_normal_form.__module__, modclose.SNFResult.__module__)"
    )
    assert out == "modclose.commands.snf modclose.commands.snf"


WS_Z6 = {
    "ring": "Zmod:6",
    "modules": {"Z2": {"generators": 1, "relations": [[2]]}},
    "subcategories": {"A": {"finite": ["Z2"], "divisible": []}},
}
WS_Z_DIVISIBLE = {
    "ring": "Z",
    "modules": {"M": {"generators": 2, "relations": [[0, 2]]}},
    "submodules": {"N": {"parent": "M", "gens": [[2, 0]]}},
    "subcategories": {
        "Q": {"finite": [], "divisible": ["Q"]},
        "QZ": {"finite": [], "divisible": ["QmodZ"]},
        "QQZ": {"finite": [], "divisible": ["Q", "QmodZ"]},
    },
}


@pytest.mark.parametrize("doc, argv, loads_homs", [
    (WS_Z6, ["verify", "--cat", "A", "--max-gens", "2", "--max-order", "36"], False),
    (WS_Z_DIVISIBLE, ["verify", "--cat", "Q", "--max-gens", "2", "--max-order", "12"], False),
    (WS_Z_DIVISIBLE, ["verify", "--cat", "QZ", "--max-gens", "2", "--max-order", "12"], False),
    (WS_Z_DIVISIBLE, ["closure", "--module", "M", "--sub", "N", "--cat", "QQZ"], False),
    (WS_MOD4, ["closure", "--module", "R", "--sub", "twoR", "--cat", "A"], True),
], ids=["verify-Z6", "verify-Z-Q", "verify-Z-QmodZ", "closure-divisible", "closure-finite"])
def test_only_the_witnesses_of_finite_objects_load_the_hom_engine(
    tmp_path, doc, argv, loads_homs
):
    loaded, report = _run_fresh(tmp_path, doc, argv)
    assert report.get("all_passed", True) is True
    assert ("modclose.homs" in loaded) is loads_homs


WS_Z4 = {
    "ring": "Zmod:4",
    "modules": {"R": {"generators": 1, "relations": []}},
    "subcategories": {"A": {"finite": ["R"], "divisible": []}},
}


def test_a_failing_verify_law_loads_what_a_passing_one_does(tmp_path):
    # the laws hold for genuine subcategories, so T is rigged to {Z/4}; a
    # failing pair law reads its least failing pair from the pair sets, so
    # it loads neither the element code nor the hom engine
    argv = _with_workspace(
        tmp_path, WS_Z4, ["verify", "--cat", "A", "--max-gens", "2", "--max-order", "16"]
    )
    loaded, out = _fresh(
        "import modclose.torsion as torsion\n"
        "torsion._in_torsion_class = lambda chain, cat: chain == (4,)\n"
        "from modclose import cli\n"
        f"assert cli.main({argv!r}) == 1"
    )
    failed = {c["name"]: c["counterexample"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert failed == {
        "subcategory_meets_torsion_class_trivially": {"object": [4]},
        "torsion_and_torsion_free_intersect_trivially": {"module": [4]},
        "no_nonzero_hom_torsion_to_torsion_free": {"from": [4], "to": [2]},
        "radical_lies_in_torsion_class": {"module": []},
        "torsion_class_closed_under_quotients": {"module": [4], "quotient": [2]},
        "torsion_class_closed_under_finite_sums": {"left": [4], "right": [4]},
        "torsion_class_closed_under_extensions": {"middle": [4, 4], "quotient": [4], "sub": [4]},
        "torsion_class_closed_under_submodules": {"module": [4], "submodule": []},
    }
    assert _modclose_modules(loaded) == _expected_modules("verify", oracle=False)


def test_every_traced_entry_point_resolves_at_its_module_path():
    # perfbench/traced.py wraps these paths in the traced benchmark smokes;
    # installing its wrappers without running the CLI finds a moved one first
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    _, out = _fresh(
        f"sys.path.insert(0, {bench!r})\n"
        "import importlib, traced\n"
        "tracer = traced.Tracer()\n"
        "targets = traced.targets(tracer)\n"
        "originals = traced.install(tracer)\n"
        "assert traced.unwrapped_references(originals) == []\n"
        "for modname, path, _ in targets:\n"
        "    value = importlib.import_module(modname)\n"
        "    for part in path.split('.'):\n"
        "        value = getattr(value, part)\n"
        "    assert callable(value) and hasattr(value, '__wrapped__'), (modname, path)\n"
        "print(len(targets), 'modclose.cli' in sys.modules)"
    )
    assert out == "26 False"


def test_loading_a_modular_workspace_with_a_subcategory_loads_no_hom_engine(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(WS_Z6))
    loaded, out = _fresh(
        "from modclose.workspace import load_workspace_file\n"
        f"print(load_workspace_file({str(path)!r}).subcategory('A'))"
    )
    assert out == "Subcategory(Z/6, [FPModule(Z/6, gens=1, invariants=[2])])"
    assert "modclose.closure" in loaded
    assert "modclose.homs" not in loaded


# 2^61 - 1, a prime: the closure must not factor the modulus at load
WS_BIG_PRIME = {
    "ring": "Zmod:2305843009213693951",
    "modules": {"R": {"generators": 1, "relations": []}},
    "submodules": {"zero": {"parent": "R", "gens": []}},
    "subcategories": {"A": {"finite": ["R"], "divisible": []}},
}


def _spawn(argv, timeout=60, **kwargs):
    """Run ``python -m modclose.cli`` with ``argv`` in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "modclose.cli", *argv], timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC}, **kwargs,
    )


def _cli(tmp_path, doc, argv, timeout):
    argv = _with_workspace(tmp_path, doc, argv)
    return _spawn(argv, timeout, capture_output=True, text=True)


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


@pytest.mark.parametrize(
    "doc, argv",
    COMMANDS + [(WS_MOD4, ["hom", "--module", "R", "--cod", "nope"])],
    ids=COMMAND_IDS + ["exit-2"],
)
def test_a_fresh_process_prints_what_main_prints(tmp_path, capsys, doc, argv):
    argv = _with_workspace(tmp_path, doc, argv)
    code = cli.main(argv)
    captured = capsys.readouterr()
    # the exit hook runs only at interpreter exit, never inside main
    assert gc.get_freeze_count() == 0
    proc = _spawn(argv, capture_output=True)
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


def test_the_exit_hook_freezes_before_earlier_registered_handlers_run():
    # atexit runs handlers last-registered first
    script = (
        f"import atexit, gc, sys\nsys.path.insert(0, {SRC!r})\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from modclose import cli\n"
        "assert cli.main(['snf', '--matrix', '[[2,4],[6,8]]']) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "frozen True"


@pytest.mark.parametrize("argv", [["snf", "--matrix", "[[2,4],[6,8]]", "--pretty"], ["--help"]],
                         ids=["report", "help"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _spawn(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


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


def test_every_module_reference_in_the_readme_resolves():
    # a backticked `module.name` of a modclose module names something that
    # exists: a function that is removed or moved takes its mentions with it
    import pkgutil
    import re

    import modclose

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {m.name for m in pkgutil.iter_modules(modclose.__path__)}
    refs = {
        f"{mod}.{path}"
        for mod, path in re.findall(r"`(?:modclose\.)?(\w+)\.([\w.]+)`", readme)
        if mod in modules
    }
    assert refs
    for ref in sorted(refs):
        try:
            pkgutil.resolve_name(f"modclose.{ref}")
        except (ImportError, AttributeError):
            pytest.fail(f"README.md names `{ref}`, which modclose does not define")


def test_no_module_level_import_goes_unused():
    # a name that a module-level import binds (inside module-level ``if`` and
    # ``try`` blocks too) is read somewhere in the file
    import ast

    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*root.glob("src/modclose/**/*.py"), *root.glob("tests/*.py")]):
        tree = ast.parse(path.read_text())
        bound = {}
        blocks = [tree.body]
        while blocks:
            for node in blocks.pop():
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    for alias in node.names:
                        bound[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, (ast.If, ast.Try)):
                    blocks += [node.body, node.orelse]
                    blocks += [h.body for h in getattr(node, "handlers", ())]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.relative_to(root)}:{line}: {name}"
            for name, line in bound.items() if name not in read
        ]
    assert unused == []


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
