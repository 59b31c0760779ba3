"""``modclose closure``: the regular closure of a submodule, with witnesses."""

from __future__ import annotations

from . import require


def run(ws, args) -> tuple[int, dict, tuple]:
    mname = require(ws, args.module, "module")
    sname = require(ws, args.sub, "sub")
    cname = require(ws, args.cat, "cat")
    m = ws.module(mname)
    n = ws.submodule(sname)
    cat = ws.subcategory(cname)
    if n.parent != m:
        raise ValueError(f"submodule {sname!r} does not live in module {mname!r}")
    from ..closure import regular_closure
    res = regular_closure(m, n, cat)
    finite_names, _ = ws.subcategory_members[cname]
    witnesses = []
    for w in res.witnesses:
        if w.hom is None:
            witnesses.append({"object": w.source.value, "hom_matrix": None})
        else:
            witnesses.append(
                {"object": finite_names[w.position], "hom_matrix": list(map(list, w.hom.rows))}
            )
    report = {
        "module": mname,
        "submodule": sname,
        "subcategory": cname,
        "closure_generators": [list(c) for c in res.closure.canonical_gens],
        "dense": res.dense,
        "closed": res.closed,
        "witnesses": witnesses,
    }
    return 0, report, (m, n, cat, res.closure)
