"""Command-line front end.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 success (and, for verify, all checks passed), 1 verification failure or
oracle mismatch, 2 input or validation error.

Each command imports the code it runs when it runs, so a process loads only
what its command needs; the brute-force oracles load only with ``--oracle``.
The arguments are read by a small parser driven by the command table and two
flag tables, which costs far less start-up than ``argparse``.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import OracleInfeasibleError
from .workspace import (
    Workspace,
    decode_int,
    dumps_report,
    load_workspace_file,
    ring_name,
)

if TYPE_CHECKING:
    from .matrices import IntMatrix
    from .modules import FPModule


def _label(module: FPModule) -> str:
    if not module.invariant_factors:
        return "0"
    return "+".join(str(f) for f in module.invariant_factors)


def _matrix_rows(mat: IntMatrix) -> list[list[int]]:
    return [list(r) for r in mat.entries]


def _require(ws: Workspace | None, flag_value: str | None, what: str) -> str:
    if ws is None:
        raise ValueError("--workspace FILE is required for this command")
    if flag_value is None:
        raise ValueError(f"--{what} NAME is required for this command")
    return flag_value


def cmd_closure(ws: Workspace, args) -> tuple[int, dict]:
    mname = _require(ws, args.module, "module")
    sname = _require(ws, args.sub, "sub")
    cname = _require(ws, args.cat, "cat")
    m = ws.module(mname)
    n = ws.submodule(sname)
    cat = ws.subcategory(cname)
    if n.parent != m:
        raise ValueError(f"submodule {sname!r} does not live in module {mname!r}")
    from .closure import regular_closure
    res = regular_closure(m, n, cat)
    finite_names, _ = ws.subcategory_members[cname]
    witnesses = []
    for w in res.witnesses:
        if w.hom is None:
            witnesses.append({"object": w.source.value, "hom_matrix": None})
        else:
            idx = cat.finite_objects.index(w.source)
            witnesses.append(
                {"object": finite_names[idx], "hom_matrix": _matrix_rows(w.hom.matrix)}
            )
    report = {
        "module": mname,
        "submodule": sname,
        "subcategory": cname,
        "closure_generators": [list(c) for c in res.closure.canonical_gens.columns()],
        "dense": res.dense,
        "closed": res.closed,
        "witnesses": witnesses,
    }
    if args.oracle:
        from .oracles import closure_by_full_enumeration
        recomputed = closure_by_full_enumeration(m, n, cat)
        agree = recomputed == res.closure
        report["oracle"] = {
            "agrees": agree,
            "closure_generators": [
                list(c) for c in recomputed.canonical_gens.columns()
            ],
        }
        if not agree:
            return 1, report
    return 0, report


def cmd_verify(ws: Workspace, args) -> tuple[int, dict]:
    from .torsion import ModuleUniverse, enumerate_universe, verify_torsion_theory
    cname = _require(ws, args.cat, "cat")
    cat = ws.subcategory(cname)
    if args.universe:
        names = [s for s in args.universe.split(",") if s]
        objects = [ws.module(n) for n in names]
    elif args.max_gens is not None and args.max_order is not None:
        objects = enumerate_universe(ws.ring, args.max_gens, args.max_order)
    else:
        raise ValueError(
            "verify needs either --universe NAMES or both --max-gens and --max-order"
        )
    universe = ModuleUniverse(ws.ring, objects)
    report_obj = verify_torsion_theory(universe, cat)
    doc = {
        "ring": ring_name(ws.ring),
        "subcategory": cname,
        "universe": [_label(m) for m in report_obj.universe.objects],
        "universe_closure_flags": {
            "submodules": report_obj.universe.closed_under_submodules,
            "quotients": report_obj.universe.closed_under_quotients,
            "finite_sums": report_obj.universe.closed_under_sums,
        },
        "torsion_members": [_label(m) for m in report_obj.T_members],
        "torsion_free_members": [_label(m) for m in report_obj.F_members],
        "radical_table": {
            _label(m): [list(c) for c in t.canonical_gens.columns()]
            for m, t in report_obj.radical_table
        },
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "detail": c.detail,
                "counterexample": c.counterexample,
            }
            for c in report_obj.checks
        ],
        "all_passed": report_obj.all_passed,
    }
    if args.oracle:
        from .homs import hom_group
        from .modules import direct_sum
        from .oracles import enumerate_homs
        from .torsion import _in_torsion_free_class, _sum_chain
        universe = report_obj.universe
        mismatches = []
        for x in universe.objects:
            for i, obj in enumerate(cat.finite_objects):
                fast = hom_group(x, obj).is_zero
                slow = len(enumerate_homs(x, obj)) == 1
                if fast != slow:
                    mismatches.append({"module": _label(x), "object": _label(obj)})
        # the class-pair sets against the pairs of the listed submodules
        for x, support in zip(universe.objects, universe.pair_sets):
            listed = set(universe.ordered_pairs(x))
            if support != listed:
                mismatches.append({
                    "module": _label(x),
                    "pairs_not_listed": [list(p) for p in sorted(support - listed)],
                    "pairs_not_in_support": [list(p) for p in sorted(listed - support)],
                })
        # F membership by gcds against the computed radical
        for x, t in report_obj.radical_table:
            fast = _in_torsion_free_class(x.invariant_factors, cat)
            if fast != t.is_zero:
                mismatches.append({
                    "module": _label(x),
                    "torsion_free_by_chain": fast,
                    "torsion_free_by_radical": t.is_zero,
                })
        # direct sums by chains against the built sum modules
        objects = universe.objects
        for i, x in enumerate(objects):
            for y in objects[i:]:
                fast = _sum_chain(x.invariant_factors, y.invariant_factors)
                slow = direct_sum(x, y).invariant_factors
                if fast != slow:
                    mismatches.append({
                        "left": _label(x),
                        "right": _label(y),
                        "sum_chain": list(fast),
                        "direct_sum": list(slow),
                    })
        doc["oracle"] = {"agrees": not mismatches, "mismatches": mismatches}
        if mismatches:
            return 1, doc
    return (0 if report_obj.all_passed else 1), doc


def _matrix_from_args(ws: Workspace | None, args) -> IntMatrix:
    from .matrices import IntMatrix
    from .rings import ZZ
    if args.matrix is not None:
        rows = json.loads(args.matrix)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("--matrix must be a JSON list of equal-length rows")
        return IntMatrix([[decode_int(x) for x in r] for r in rows], ZZ)
    if ws is not None and args.module is not None:
        return ws.module(args.module).lattice.basis_matrix()
    raise ValueError("snf needs --matrix JSON or --workspace with --module NAME")


def cmd_snf(ws: Workspace | None, args) -> tuple[int, dict]:
    from .matrices import smith_normal_form
    mat = _matrix_from_args(ws, args)
    res = smith_normal_form(mat)
    report = {
        "d": list(res.diagonal),
        "u": _matrix_rows(res.u),
        "v": _matrix_rows(res.v),
    }
    if args.oracle:
        from .oracles import det_cofactor, minor_gcd
        checks = {"unimodular": True, "determinant_divisors": True}
        if abs(det_cofactor([list(r) for r in res.u.entries])) != 1:
            checks["unimodular"] = False
        if abs(det_cofactor([list(r) for r in res.v.entries])) != 1:
            checks["unimodular"] = False
        prod = 1
        for k in range(1, min(mat.rows, mat.cols) + 1):
            dk = res.diagonal[k - 1]
            prod = prod * dk if dk else 0
            if minor_gcd(mat, k) != prod:
                checks["determinant_divisors"] = False
        report["oracle"] = checks
        if not all(checks.values()):
            return 1, report
    return 0, report


def cmd_hom(ws: Workspace, args) -> tuple[int, dict]:
    from .homs import hom_group
    mname = _require(ws, args.module, "module")
    if args.cod is None:
        raise ValueError("--cod NAME is required for hom")
    m = ws.module(mname)
    n = ws.module(args.cod)
    hg = hom_group(m, n)
    report = {
        "dom": mname,
        "cod": args.cod,
        "structure": list(hg.structure),
        "generators": [_matrix_rows(g.matrix) for g in hg.generators],
    }
    if args.oracle:
        spanned = {h.matrix for h in hg.elements()} if hg.element_count() else None
        if spanned is None:
            raise OracleInfeasibleError(
                "oracle infeasible: the hom group is infinite"
            )
        from .oracles import enumerate_homs
        listed = {h.matrix for h in enumerate_homs(m, n)}
        agree = spanned == listed
        report["oracle"] = {"agrees": agree, "hom_count": len(listed)}
        if not agree:
            return 1, report
    return 0, report


def _hom_to_z(m: FPModule):
    """Hom(M, Z), the oracle of ``bounded`` and ``free-rank``."""
    from .homs import hom_group
    from .modules import FPModule
    from .rings import ZZ
    return hom_group(m, FPModule(ZZ, 1))


def cmd_bounded(ws: Workspace, args) -> tuple[int, dict]:
    from .modules import is_bounded
    mname = _require(ws, args.module, "module")
    m = ws.module(mname)
    value = is_bounded(m)
    report = {"module": mname, "bounded": value}
    if args.oracle:
        agree = _hom_to_z(m).is_zero == value
        report["oracle"] = {"agrees": agree}
        if not agree:
            return 1, report
    return 0, report


def cmd_free_rank(ws: Workspace, args) -> tuple[int, dict]:
    from .modules import free_summand_rank
    mname = _require(ws, args.module, "module")
    m = ws.module(mname)
    value = free_summand_rank(m)
    report = {"module": mname, "free_rank": value}
    if args.oracle:
        rank_by_hom = sum(1 for d in _hom_to_z(m).structure if d == 0)
        agree = rank_by_hom == value
        report["oracle"] = {"agrees": agree, "rank_by_hom": rank_by_hom}
        if not agree:
            return 1, report
    return 0, report


_COMMANDS = {
    "closure": (cmd_closure, "closure of a submodule under a subcategory of injectives"),
    "verify": (cmd_verify, "verify the torsion theory induced by a subcategory"),
    "snf": (cmd_snf, "Smith normal form with transforms"),
    "hom": (cmd_hom, "hom group between two modules"),
    "bounded": (cmd_bounded, "whether a Z-module admits no nonzero map to Z"),
    "free-rank": (cmd_free_rank, "rank of the largest free summand of a Z-module"),
}


# value flags: flag -> (metavar, help, conversion of the text or None)
_VALUE_FLAGS = {
    "--workspace": ("FILE", "workspace JSON file", None),
    "--module": ("NAME", "module name", None),
    "--sub": ("NAME", "submodule name", None),
    "--cat": ("NAME", "subcategory name", None),
    "--cod": ("NAME", "codomain module name (hom)", None),
    "--matrix": ("JSON", "inline JSON matrix rows (snf)", None),
    "--universe": ("NAMES", "comma-separated module names (verify)", None),
    "--max-gens": ("K", "universe generator bound (verify)", decode_int),
    "--max-order": ("B", "universe order bound (verify)", decode_int),
}

# boolean flags: flag -> help
_BOOL_FLAGS = {
    "--oracle": "recompute against the brute-force oracles and diff",
    "--json": "compact JSON (default)",
    "--pretty": "indented JSON",
}

_USAGE = "usage: modclose [-h] command [options]\n"


def _help() -> str:
    lines = [
        _USAGE,
        "Regular closure operators and torsion theories for finitely",
        "presented modules over Z and Z/n",
        "",
        "options:",
        f"  {'-h, --help':<20} show this help message and exit",
    ]
    for flag, (metavar, purpose, _) in _VALUE_FLAGS.items():
        lines.append(f"  {flag + ' ' + metavar:<20} {purpose}")
    for flag, purpose in _BOOL_FLAGS.items():
        lines.append(f"  {flag:<20} {purpose}")
    lines += ["", "commands:"]
    lines += [f"  {name:<10} {purpose}" for name, (_, purpose) in _COMMANDS.items()]
    return "\n".join(lines)


def _usage_error(message: str):
    """Exit 2 with the usage and ``message`` on stderr, nothing on stdout."""
    print(f"{_USAGE}modclose: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_flag(token: str) -> bool:
    """A token that names an option, as opposed to a value: it starts with
    ``-`` and is not a negative number."""
    return token.startswith("-") and token != "-" and not token[1:].isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flag values, read from the two flag tables.

    ``--flag value`` and ``--flag=value`` are both accepted; flags may come
    before or after the command, and a repeated flag keeps its last value.
    Flags must be spelled out in full.  ``-h``/``--help`` prints the help and
    exits 0; every other mistake exits 2 with the usage on stderr.
    """
    if "-h" in argv or "--help" in argv:
        print(_help())
        raise SystemExit(0)
    args = SimpleNamespace(command=None)
    for flag in _VALUE_FLAGS:
        setattr(args, flag[2:].replace("-", "_"), None)
    for flag in _BOOL_FLAGS:
        setattr(args, flag[2:], False)
    tokens = iter(argv)
    for token in tokens:
        if not _is_flag(token):
            if args.command is not None:
                _usage_error(f"unrecognized arguments: {token}")
            if token not in _COMMANDS:
                _usage_error(
                    f"argument command: invalid choice: {token!r} "
                    f"(choose from {', '.join(_COMMANDS)})"
                )
            args.command = token
            continue
        flag, eq, value = token.partition("=")
        if flag in _BOOL_FLAGS:
            if eq:
                _usage_error(f"argument {flag}: ignored explicit argument {value!r}")
            setattr(args, flag[2:], True)
            continue
        if flag not in _VALUE_FLAGS:
            _usage_error(f"unrecognized arguments: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                _usage_error(f"argument {flag}: expected one argument")
        convert = _VALUE_FLAGS[flag][2]
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid integer value: {value!r}")
        setattr(args, flag[2:].replace("-", "_"), value)
    if args.command is None:
        _usage_error("the following arguments are required: command")
    if args.json and args.pretty:
        _usage_error("argument --pretty: not allowed with argument --json")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    handler, _ = _COMMANDS[args.command]
    try:
        ws = load_workspace_file(args.workspace) if args.workspace else None
        code, report = handler(ws, args)
    except (ValueError, OracleInfeasibleError, OSError, json.JSONDecodeError) as exc:
        print(f"modclose: error: {exc}", file=sys.stderr)
        return 2
    print(dumps_report(report, pretty=args.pretty))
    return code


if __name__ == "__main__":
    sys.exit(main())
