"""``modclose snf``: Smith normal form with its transforms."""

from __future__ import annotations

import json

from . import matrix_rows


def run(ws, args) -> tuple[int, dict]:
    from ..matrices import IntMatrix, smith_normal_form
    if args.matrix is not None:
        from ..rings import ZZ
        from ..workspace import decode_int
        try:
            rows = json.loads(args.matrix)
        except RecursionError:
            raise ValueError("--matrix: JSON nested too deeply to decode") from None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("--matrix must be a JSON list of equal-length rows")
        mat = IntMatrix([[decode_int(x) for x in r] for r in rows], ZZ)
    elif ws is not None and args.module is not None:
        mat = ws.module(args.module).lattice.basis_matrix()
    else:
        raise ValueError("snf needs --matrix JSON or --workspace with --module NAME")
    res = smith_normal_form(mat)
    report = {
        "d": list(res.diagonal),
        "u": matrix_rows(res.u),
        "v": matrix_rows(res.v),
    }
    if args.oracle:
        from ..oracles import oracle_snf
        agree, report["oracle"] = oracle_snf(mat, res)
        if not agree:
            return 1, report
    return 0, report
