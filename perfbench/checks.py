"""Answer checks, run after the timed loop.

Canonical fields are compared with the answers recorded in
``expected.json`` (as hashes):

* closure: ``closure_generators``, ``dense``, ``closed``;
* verify: the universe, its closure flags, the T and F members, the radical
  table, the checks and ``all_passed``;
* snf: the diagonal; hom: the structure; free-rank and bounded: the value.

Non-canonical fields are checked by their properties, so that a different
but correct answer passes:

* a closure witness is a well-defined map into its object that vanishes on N;
* snf: U A V = D exactly, D in Smith form, det U and det V equal to +-1
  modulo four 61-bit primes;
* every hom generator is a homomorphism, one per structure factor.

free-rank and bounded are also recomputed here from the rank of the
relation matrix.  The module arithmetic below is independent of modclose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907, 2305843009213693669)


def canonical_fields(kind: str, report: dict):
    if kind == "closure":
        return [report["closure_generators"], report["dense"], report["closed"]]
    if kind == "verify":
        keys = ("ring", "subcategory", "universe", "universe_closure_flags",
                "torsion_members", "torsion_free_members", "radical_table",
                "checks", "all_passed")
        return [report[k] for k in keys]
    if kind == "snf":
        return report["d"]
    if kind == "hom":
        return report["structure"]
    if kind == "free-rank":
        return report["free_rank"]
    if kind == "bounded":
        return report["bounded"]
    raise ValueError(f"unknown request kind {kind!r}")


def answer_hash(kind: str, report: dict) -> str:
    doc = json.dumps(canonical_fields(kind, report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:20]


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


# -- integer lattices -------------------------------------------------------------


class Echelon:
    """A sublattice of Z^dim in column echelon form: one basis vector per
    pivot, each zero above its pivot."""

    def __init__(self, dim: int, columns=()):
        self.dim = dim
        self.rows: dict[int, list[int]] = {}  # pivot -> vector
        for c in columns:
            self.add(c)

    def add(self, col) -> None:
        v = [int(x) for x in col]
        while True:
            p = next((i for i, x in enumerate(v) if x), None)
            if p is None:
                return
            b = self.rows.get(p)
            if b is None:
                self.rows[p] = v if v[p] > 0 else [-x for x in v]
                return
            # unimodular change of {b, v}: the gcd at the pivot, and a rest
            # that vanishes there and is reduced further
            g, s, t = _xgcd(b[p], v[p])
            bp, vp = b[p] // g, v[p] // g
            self.rows[p] = [s * y + t * x for x, y in zip(v, b)]
            v = [bp * x - vp * y for x, y in zip(v, b)]

    def contains(self, col) -> bool:
        v = [int(x) for x in col]
        for p in range(self.dim):
            if not v[p]:
                continue
            b = self.rows.get(p)
            if b is None or v[p] % b[p]:
                return False
            q = v[p] // b[p]
            v = [x - q * y for x, y in zip(v, b)]
        return True


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _eliminate_mod(rows: list[list[int]], p: int) -> tuple[int, int]:
    """(rank, determinant) of an integer matrix modulo the prime ``p``, by
    Gaussian elimination; the determinant is 0 unless the matrix is square
    and of full rank."""
    m = [[x % p for x in r] for r in rows]
    rank, det = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][c] % p
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    if rank != len(m):
        det = 0
    return rank, det % p


def rank(columns: list[list[int]]) -> int:
    """Rank over Q: the largest rank modulo the four primes (a prime can
    only lower it, when it divides every maximal nonzero minor)."""
    return max(_eliminate_mod(columns, p)[0] for p in PRIMES)


class Module:
    """Z^gens / (relations + modulus Z^gens) for the checks."""

    def __init__(self, spec: dict, modulus: int):
        self.gens = spec["generators"]
        self.relations = [[int(x) for x in c] for c in spec.get("relations", [])]
        cols = list(self.relations)
        if modulus:
            cols += [[modulus * (i == j) for i in range(self.gens)] for j in range(self.gens)]
        self.lattice = Echelon(self.gens, cols)


def _apply(rows: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def _maps_into(rows, dom_cols, cod: Module) -> bool:
    return all(cod.lattice.contains(_apply(rows, c)) for c in dom_cols)


def _ints(rows) -> list[list[int]]:
    return [[int(x) for x in r] for r in rows]


# -- per-command property checks ----------------------------------------------------


def _ring_modulus(ws: dict) -> int:
    ring = ws.get("ring", "Z")
    return int(ring.split(":")[1]) if ring.startswith("Zmod:") else 0


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_closure(argv, ws, report) -> str | None:
    n = _ring_modulus(ws)
    m = Module(ws["modules"][_flag(argv, "--module")], n)
    sub = ws["submodules"][_flag(argv, "--sub")]
    cat = ws["subcategories"][_flag(argv, "--cat")]
    n_gens = [[int(x) for x in c] for c in sub["gens"]]
    for w in report["witnesses"]:
        if w["hom_matrix"] is None:
            if w["object"] not in cat["divisible"]:
                return f"divisible witness {w['object']!r} not in the subcategory"
            continue
        if w["object"] not in cat["finite"]:
            return f"witness object {w['object']!r} not in the subcategory"
        obj = Module(ws["modules"][w["object"]], n)
        rows = _ints(w["hom_matrix"])
        if len(rows) != obj.gens or any(len(r) != m.gens for r in rows):
            return "witness matrix has the wrong shape"
        if not _maps_into(rows, m.relations, obj):
            return "witness is not a well-defined map"
        if not _maps_into(rows, n_gens, obj):
            return "witness does not vanish on N"
    return None


def check_hom(argv, ws, report) -> str | None:
    n = _ring_modulus(ws)
    dom = Module(ws["modules"][_flag(argv, "--module")], n)
    cod = Module(ws["modules"][_flag(argv, "--cod")], n)
    if len(report["generators"]) != len(report["structure"]):
        return "one generator per structure factor expected"
    for g in report["generators"]:
        rows = _ints(g)
        if len(rows) != cod.gens or any(len(r) != dom.gens for r in rows):
            return "hom generator has the wrong shape"
        if not _maps_into(rows, dom.relations, cod):
            return "hom generator is not a homomorphism"
    return None


def _unimodular(rows: list[list[int]]) -> bool:
    signs = set()
    for p in PRIMES:
        d = _eliminate_mod(rows, p)[1]
        if d == 1:
            signs.add(1)
        elif d == p - 1:
            signs.add(-1)
        else:
            return False
    return len(signs) == 1


def check_snf(argv, report) -> str | None:
    a = json.loads(_flag(argv, "--matrix"))
    rows, cols = len(a), len(a[0]) if a else 0
    d = [int(x) for x in report["d"]]
    u, v = _ints(report["u"]), _ints(report["v"])
    if len(u) != rows or any(len(r) != rows for r in u):
        return "U has the wrong shape"
    if len(v) != cols or any(len(r) != cols for r in v):
        return "V has the wrong shape"
    if len(d) != min(rows, cols):
        return "diagonal has the wrong length"
    if any(x < 0 for x in d) or any(
        (y != 0) if x == 0 else (y % x != 0) for x, y in zip(d, d[1:])
    ):
        return "diagonal is not a divisibility chain"
    ua = [[sum(u[i][k] * a[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        for j in range(cols):
            uav = sum(ua[i][k] * v[k][j] for k in range(cols))
            if uav != (d[i] if i == j else 0):
                return "U A V differs from diag(d)"
    if not (_unimodular(u) and _unimodular(v)):
        return "U or V is not unimodular"
    return None


def check_rank(argv, ws, report, kind) -> str | None:
    spec = ws["modules"][_flag(argv, "--module")]
    free = spec["generators"] - rank(spec.get("relations", []))
    if kind == "free-rank" and report["free_rank"] != free:
        return f"free rank {report['free_rank']} but the relations leave {free}"
    if kind == "bounded" and report["bounded"] != (free == 0):
        return f"bounded={report['bounded']} but the free rank is {free}"
    return None


def check(request, stdout: bytes, expected: dict) -> tuple[str | None, bool]:
    """``(reason the answer is wrong or None, whether the canonical fields were
    compared with a recorded answer)``."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not one JSON document: {exc}", False
    argv = list(request.argv)
    ws = json.loads(request.workspace) if request.workspace is not None else None
    kind = request.kind
    try:
        if kind == "closure":
            reason = check_closure(argv, ws, report)
        elif kind == "hom":
            reason = check_hom(argv, ws, report)
        elif kind == "snf":
            reason = check_snf(argv, report)
        elif kind in ("free-rank", "bounded"):
            reason = check_rank(argv, ws, report, kind)
        else:
            reason = None
        got = answer_hash(kind, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed {kind} report: {exc!r}", False
    if reason is not None:
        return reason, False
    entry = expected.get(request.key)
    if entry is None:
        return "no recorded answer for this request; rerun perfbench/record.py", False
    if entry["answer"] is None:
        return None, False
    if got != entry["answer"]:
        return "canonical fields differ from the recorded answer", True
    return None, True
