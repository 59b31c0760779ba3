"""``modclose snf``: Smith normal form with its transforms."""

from __future__ import annotations

import json

from . import matrix_rows

# Largest side of a matrix that ``snf`` reduces.  The reduction grows faster
# than cubically in the side: random n x n matrices with entries in [-9, 9]
# took 0.24 s at n = 64, 3.5 s at n = 96 and 14 s at n = 128 on a 2-core VM.
# The benchmark's largest is 32 x 32.
SNF_SIDE_CAP = 128


def _check_side(rows: int, cols: int) -> None:
    if max(rows, cols) > SNF_SIDE_CAP:
        raise ValueError(
            f"a {rows}x{cols} matrix is past the snf cap of {SNF_SIDE_CAP} "
            f"rows and columns"
        )


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
        _check_side(len(rows), max(map(len, rows), default=0))
        mat = IntMatrix([[decode_int(x) for x in r] for r in rows], ZZ)
    elif ws is not None and args.module is not None:
        mat = ws.module(args.module).lattice.basis_matrix()
        _check_side(mat.rows, mat.cols)
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
