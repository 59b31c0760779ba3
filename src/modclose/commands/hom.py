"""``modclose hom``: the hom group between two modules."""

from __future__ import annotations

from . import require


def run(ws, args) -> tuple[int, dict, tuple]:
    from ..homs import hom_group
    mname = require(ws, args.module, "module")
    if args.cod is None:
        raise ValueError("--cod NAME is required for hom")
    m = ws.module(mname)
    n = ws.module(args.cod)
    hg = hom_group(m, n)
    report = {
        "dom": mname,
        "cod": args.cod,
        "structure": list(hg.structure),
        "generators": [list(map(list, g.rows)) for g in hg.generators],
    }
    return 0, report, (hg,)
