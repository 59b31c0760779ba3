"""Command-line front end.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 success (and, for verify, all checks passed), 1 verification failure or
oracle mismatch, 2 input or validation error.

Each command imports the code it runs when it runs, so a process loads only
what its command needs; the brute-force oracles load only with ``--oracle``.
"""

from __future__ import annotations

import argparse
import json
import sys
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
        from .homs import enumerate_homs, hom_group
        mismatches = []
        for x in report_obj.universe.objects:
            for i, obj in enumerate(cat.finite_objects):
                fast = hom_group(x, obj).is_zero
                slow = len(enumerate_homs(x, obj)) == 1
                if fast != slow:
                    mismatches.append({"module": _label(x), "object": _label(obj)})
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
        return ws.module(args.module).relations.lift()
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
        from .homs import enumerate_homs
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modclose",
        description=(
            "Regular closure operators and torsion theories for finitely "
            "presented modules over Z and Z/n"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("closure", "closure of a submodule under a subcategory of injectives"),
        ("verify", "verify the torsion theory induced by a subcategory"),
        ("snf", "Smith normal form with transforms"),
        ("hom", "hom group between two modules"),
        ("bounded", "whether a Z-module admits no nonzero map to Z"),
        ("free-rank", "rank of the largest free summand of a Z-module"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--workspace", help="workspace JSON file")
        p.add_argument("--module", help="module name")
        p.add_argument("--sub", help="submodule name")
        p.add_argument("--cat", help="subcategory name")
        p.add_argument("--cod", help="codomain module name (hom)")
        p.add_argument("--matrix", help="inline JSON matrix rows (snf)")
        p.add_argument("--universe", help="comma-separated module names (verify)")
        p.add_argument("--max-gens", type=int, help="universe generator bound (verify)")
        p.add_argument("--max-order", type=int, help="universe order bound (verify)")
        p.add_argument(
            "--oracle",
            action="store_true",
            help="recompute against the brute-force oracles and diff",
        )
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="compact JSON (default)")
        fmt.add_argument("--pretty", action="store_true", help="indented JSON")
    return parser


_COMMANDS = {
    "closure": cmd_closure,
    "verify": cmd_verify,
    "hom": cmd_hom,
    "bounded": cmd_bounded,
    "free-rank": cmd_free_rank,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ws = load_workspace_file(args.workspace) if args.workspace else None
        if args.command == "snf":
            code, report = cmd_snf(ws, args)
        else:
            handler = _COMMANDS[args.command]
            if ws is None:
                raise ValueError("--workspace FILE is required for this command")
            code, report = handler(ws, args)
    except (ValueError, OracleInfeasibleError, OSError, json.JSONDecodeError) as exc:
        print(f"modclose: error: {exc}", file=sys.stderr)
        return 2
    print(dumps_report(report, pretty=args.pretty))
    return code


if __name__ == "__main__":
    sys.exit(main())
