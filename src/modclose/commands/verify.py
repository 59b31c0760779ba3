"""``modclose verify``: the torsion theory a subcategory induces on a universe."""

from __future__ import annotations

from . import label, require


def run(ws, args) -> tuple[int, dict]:
    from ..torsion import ModuleUniverse, enumerate_universe, verify_torsion_theory
    from ..workspace import ring_name
    cname = require(ws, args.cat, "cat")
    cat = ws.subcategory(cname)
    if args.universe:
        names = [s for s in args.universe.split(",") if s]
        if not names:
            raise ValueError("--universe names no module")
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
        "universe": [label(m) for m in report_obj.universe.objects],
        "universe_closure_flags": {
            "submodules": report_obj.universe.closed_under_submodules,
            "quotients": report_obj.universe.closed_under_quotients,
            "finite_sums": report_obj.universe.closed_under_sums,
        },
        "torsion_members": [label(m) for m in report_obj.T_members],
        "torsion_free_members": [label(m) for m in report_obj.F_members],
        "radical_table": {
            label(m): [list(c) for c in t.canonical_gens.columns()]
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
        from ..oracles import oracle_verify
        agree, doc["oracle"] = oracle_verify(report_obj, cat, label)
        if not agree:
            return 1, doc
    return (0 if report_obj.all_passed else 1), doc
