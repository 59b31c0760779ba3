"""``modclose snf``: Smith normal form with its transforms.

The public Smith form (``smith_normal_form``, ``SNFResult``) lives here, beside
its only command, so the requests of the other commands do not compile it;
``from modclose import smith_normal_form`` loads this module.  The core
reduction, ``matrices._snf_with_inverses``, stays in ``matrices``, where
``Lattice.smith_coordinates`` calls it too; this module runs it on the
matrix as given and only wraps the transforms it returns.
"""

from __future__ import annotations

import json

from ..intmatrix import IntMatrix
from ..matrices import _snf_with_inverses
from ..rings import ZZ

# Largest side of a matrix that ``snf`` reduces.  The reduction grows faster
# than cubically in the side: a whole ``snf`` request on a random n x n matrix
# with entries in [-9, 9] took 0.3 s at n = 64, 1.9-2.4 s at n = 96 and
# 10-12 s at n = 128 on a 2-core VM.
# The benchmark's largest is 32 x 32.
SNF_SIDE_CAP = 128


def _check_side(rows: int, cols: int) -> None:
    if max(rows, cols) > SNF_SIDE_CAP:
        raise ValueError(
            f"a {rows}x{cols} matrix is past the snf cap of {SNF_SIDE_CAP} "
            f"rows and columns"
        )


class SNFResult:
    """Smith normal form ``D = U @ A @ V`` of an integer matrix.

    ``U`` and ``V`` are unimodular over Z; ``D`` is diagonal with nonnegative
    entries, each dividing the next.
    """

    __slots__ = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        self.u = u
        self.d = d
        self.v = v

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols)))

    def __repr__(self) -> str:
        return f"SNFResult(diagonal={list(self.diagonal)!r})"


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form of an integer matrix, with both transforms.

    Modular matrices are refused: the caller builds the integer matrix it
    means (for a module over Z/n, its relation lattice's basis, n*Z^g
    included).  The reduction's first pass is the column Hermite form of
    ``a``, whose entries are reduced below the pivots, which multiply to
    ``|det a|`` when ``a`` is nonsingular, so the transforms stay near the
    size of the answer.
    """
    if a.ring.is_modular:
        raise ValueError("Smith reduction runs over the integers; build the matrix over Z")
    rows, cols = a.rows, a.cols
    u, d, v, _ = _snf_with_inverses(a)
    return SNFResult(
        IntMatrix(u, ZZ, rows=rows, cols=rows),
        IntMatrix(d, ZZ, rows=rows, cols=cols),
        IntMatrix(v, ZZ, rows=cols, cols=cols),
    )


def matrix_rows(mat: IntMatrix) -> list[list[int]]:
    return [list(r) for r in mat.entries]


def run(ws, args) -> tuple[int, dict, tuple]:
    if args.matrix is not None:
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
        lat = ws.module(args.module).lattice
        mat = IntMatrix.from_columns(lat.basis, lat.dim)
        _check_side(mat.rows, mat.cols)
    else:
        raise ValueError("snf needs --matrix JSON or --workspace with --module NAME")
    res = smith_normal_form(mat)
    report = {
        "d": list(res.diagonal),
        "u": matrix_rows(res.u),
        "v": matrix_rows(res.v),
    }
    return 0, report, (mat, res)
