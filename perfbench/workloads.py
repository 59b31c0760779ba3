"""Seeded request generator for the three benchmark workloads.

Every workload is a list of *slots*.  A slot fixes the shape of a request
(command, ring, sizes); a *variant* fills in the random entries.  Variant
``v`` of a slot is a pure function of the workload, the slot's shape and ``v``,
so its workspace file and argv are byte-identical on every machine, and the
expected answers of all ``len(slots) * VARIANTS[workload]`` requests can be
recorded once (``expected.json``, written by ``record.py``).

A run is a sequence of *rounds*.  Each round issues every slot once; the
seed picks the order and which variant of each slot goes into which round
(see :func:`rounds`).  The universe and closure variants differ in the
presentation of the subcategory objects and in the random relations and
generators; the integer variants in all random entries.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

# variants per slot; a *pass* is VARIANTS[workload] rounds and issues every
# request of the workload once
VARIANTS = {"universe": 4, "closure": 4, "integer": 2}
WORKSPACE_DIR = ".perfbench_work/ws"


@dataclass(frozen=True)
class Request:
    workload: str
    slot: int
    variant: int
    kind: str  # the CLI command: verify, closure, snf, hom, free-rank, bounded
    argv: tuple[str, ...]
    workspace: bytes | None  # JSON document passed with --workspace, if any
    key: str  # stable identity of (argv, workspace), used for expected answers

    def write_workspace(self, root: Path) -> None:
        if self.workspace is not None:
            path = root / WORKSPACE_DIR / f"{self.key}.json"
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(self.workspace)


# -- presentations -------------------------------------------------------------


def _scrambled_presentation(rng: random.Random, n: int, chain: tuple[int, ...]) -> list[list[int]]:
    """Relation columns of Z^k / (P diag(chain) Z^k) for a random unimodular P,
    reduced mod n: the same module as diag(chain), in other coordinates."""
    k = len(chain)
    p = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i != j:
            q = rng.randint(-3, 3)
            p[i] = [a + q * b for a, b in zip(p[i], p[j])]
    return [[(p[i][j] * chain[j]) % n for i in range(k)] for j in range(k)]


def _diagonal(chain: tuple[int, ...]) -> list[list[int]]:
    k = len(chain)
    return [[chain[j] * (i == j) for i in range(k)] for j in range(k)]


def _random_columns(rng: random.Random, count: int, dim: int, lo: int, hi: int) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(count)]


# -- slots -----------------------------------------------------------------------

# universe: (n, max_gens, max_order, invariant factors of each injective
# object of the subcategory); every object lies in the verified universe
UNIVERSE_SLOTS = [
    (9, 2, 27, ((9,),)),
    (10, 2, 20, ((2,), (2, 2))),
    (6, 2, 18, ((3,),)),
    (4, 2, 8, ((4,),)),
    (6, 2, 12, ((3,),)),
    (9, 2, 81, ((9,),)),
    (18, 2, 18, ((9,),)),
    (12, 2, 12, ((3,),)),
    (10, 2, 50, ((5,),)),
    (8, 2, 32, ((8,),)),
    (12, 2, 12, ((4,),)),
    (6, 2, 18, ((2,), (2, 2))),
    (4, 2, 16, ((4,), (4, 4))),
    (20, 2, 20, ((4,),)),
    (12, 2, 24, ((3,),)),
    (20, 2, 40, ((4,),)),
    (18, 2, 36, ((2, 2),)),
    (12, 2, 24, ((4, 4),)),
    (12, 2, 48, ((3,),)),
    (20, 2, 80, ((4,), (4, 4))),
    (9, 2, 81, ((9,), (9, 9))),
    (8, 3, 32, ((8,),)),
]

# closure: (n, k, relations of M, invariant factors of each injective object,
# generators of N)
CLOSURE_SLOTS = [
    (360, 6, 1, ((9,),), 3),
    (360, 6, 1, ((5,),), 3),
    (72, 6, 0, ((9,),), 1),
    (200, 6, 0, ((25,),), 2),
    (200, 8, 2, ((25,), (25,)), 1),
    (360, 8, 0, ((8, 8),), 1),
    (72, 8, 2, ((9,), (8, 8)), 2),
    (360, 12, 2, ((9,),), 2),
    (72, 6, 1, ((8, 72),), 2),
    (360, 10, 0, ((45,), (360,)), 2),
    (360, 12, 0, ((9, 9),), 1),
    (72, 12, 1, ((8, 8),), 1),
    (72, 10, 0, ((8, 8, 8),), 1),
    (200, 12, 0, ((25, 25), (200,)), 3),
    (72, 10, 0, ((9, 9, 9),), 1),
    (72, 8, 1, ((9, 9, 9), (9,)), 3),
    (200, 14, 1, ((25, 25),), 2),
    (72, 16, 0, ((8, 8, 8, 8),), 1),
]

# integer: (command, sizes...); snf: n x n with entries in [-100, 100];
# closure, free-rank, bounded: (generators, free rank[, subcategory]) with
# entries in [-100, 100]; hom: (generators, free rank) of both modules with
# entries in [-9, 9]
INTEGER_SLOTS = [
    ('snf', 8),
    ('snf', 9),
    ('snf', 10),
    ('snf', 11),
    ('snf', 12),
    ('snf', 13),
    ('snf', 14),
    ('snf', 15),
    ('snf', 16),
    ('snf', 17),
    ('snf', 18),
    ('snf', 19),
    ('snf', 20),
    ('snf', 21),
    ('snf', 22),
    ('snf', 23),
    ('snf', 24),
    ('snf', 26),
    ('snf', 32),
    ('closure', 16, 0, 'Q'),
    ('closure', 16, 1, 'QQZ'),
    ('closure', 18, 0, 'Q'),
    ('closure', 18, 1, 'QQZ'),
    ('closure', 20, 1, 'QQZ'),
    ('closure', 20, 0, 'Q'),
    ('closure', 22, 1, 'Q'),
    ('closure', 22, 0, 'QQZ'),
    ('closure', 24, 2, 'Q'),
    ('closure', 24, 0, 'QQZ'),
    ('closure', 32, 2, 'Q'),
    ('free-rank', 16, 1),
    ('free-rank', 18, 1),
    ('free-rank', 20, 0),
    ('free-rank', 20, 2),
    ('free-rank', 24, 0),
    ('bounded', 16, 0),
    ('bounded', 18, 1),
    ('bounded', 20, 1),
    ('bounded', 22, 2),
    ('bounded', 24, 0),
    ('hom', 4, 1, 4, 1),
    ('hom', 4, 1, 5, 2),
    ('hom', 4, 2, 4, 1),
    ('hom', 4, 2, 5, 1),
    ('hom', 5, 1, 5, 1),
    ('hom', 5, 1, 6, 2),
    ('hom', 5, 2, 4, 1),
    ('hom', 5, 2, 5, 2),
    ('hom', 6, 1, 5, 1),
    ('hom', 6, 2, 4, 1),
    ('hom', 7, 2, 6, 2),
]

SLOTS = {"universe": UNIVERSE_SLOTS, "closure": CLOSURE_SLOTS, "integer": INTEGER_SLOTS}

def _universe_request(rng, slot):
    n, max_gens, max_order, chains = slot
    modules = {
        f"I{i}": {"generators": len(c), "relations": _scrambled_presentation(rng, n, c)}
        for i, c in enumerate(chains)
    }
    doc = {
        "ring": f"Zmod:{n}",
        "modules": modules,
        "subcategories": {"A": {"finite": sorted(modules), "divisible": []}},
    }
    argv = ["verify", "--cat", "A", "--max-gens", str(max_gens), "--max-order", str(max_order)]
    return "verify", argv, doc


def _closure_request(rng, slot):
    n, k, rels, chains, ngens = slot
    modules = {
        "M": {"generators": k, "relations": _random_columns(rng, rels, k, 0, n - 1)}
    }
    for i, c in enumerate(chains):
        modules[f"I{i}"] = {"generators": len(c), "relations": _diagonal(c)}
    doc = {
        "ring": f"Zmod:{n}",
        "modules": modules,
        "submodules": {
            "N": {"parent": "M", "gens": _random_columns(rng, ngens, k, 0, n - 1)}
        },
        "subcategories": {
            "A": {"finite": [f"I{i}" for i in range(len(chains))], "divisible": []}
        },
    }
    argv = ["closure", "--module", "M", "--sub", "N", "--cat", "A"]
    return "closure", argv, doc


def _z_module(rng, gens, free, bound):
    """A Z-module on ``gens`` generators with ``gens - free`` random relations:
    free rank ``free`` (almost surely) plus a finite part."""
    return {
        "generators": gens,
        "relations": _random_columns(rng, gens - free, gens, -bound, bound),
    }


def _integer_request(rng, slot):
    kind = slot[0]
    if kind == "snf":
        n = slot[1]
        rows = _random_columns(rng, n, n, -100, 100)
        return "snf", ["snf", "--matrix", json.dumps(rows, separators=(",", ":"))], None
    if kind == "closure":
        _, k, free, cat = slot
        doc = {
            "ring": "Z",
            "modules": {"M": _z_module(rng, k, free, 100)},
            "submodules": {
                "N": {
                    "parent": "M",
                    "gens": _random_columns(rng, rng.randint(1, 3), k, -100, 100),
                }
            },
            "subcategories": {
                "Q": {"finite": [], "divisible": ["Q"]},
                "QQZ": {"finite": [], "divisible": ["Q", "QmodZ"]},
            },
        }
        return "closure", ["closure", "--module", "M", "--sub", "N", "--cat", cat], doc
    if kind in ("free-rank", "bounded"):
        _, k, free = slot
        doc = {"ring": "Z", "modules": {"M": _z_module(rng, k, free, 100)}}
        return kind, [kind, "--module", "M"], doc
    if kind == "hom":
        _, ga, fa, gb, fb = slot
        doc = {
            "ring": "Z",
            "modules": {"M": _z_module(rng, ga, fa, 9), "N": _z_module(rng, gb, fb, 9)},
        }
        return "hom", ["hom", "--module", "M", "--cod", "N"], doc
    raise ValueError(f"unknown integer slot {slot!r}")


_BUILDERS = {
    "universe": _universe_request,
    "closure": _closure_request,
    "integer": _integer_request,
}


def make_request(workload: str, slot: int, variant: int) -> Request:
    """Variant ``variant`` of slot ``slot``: a pure function of its arguments."""
    shape = SLOTS[workload][slot]
    rng = random.Random(f"{workload}/{shape}/{variant}")
    kind, argv, doc = _BUILDERS[workload](rng, shape)
    ws = None
    if doc is not None:
        ws = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256("\0".join(argv).encode() + b"\0" + (ws or b""))
    key = digest.hexdigest()[:20]
    if ws is not None:
        argv = argv[:1] + ["--workspace", f"{WORKSPACE_DIR}/{key}.json"] + argv[1:]
    return Request(workload, slot, variant, kind, tuple(argv), ws, key)


def all_requests(workload: str) -> Iterator[Request]:
    for slot in range(len(SLOTS[workload])):
        for variant in range(VARIANTS[workload]):
            yield make_request(workload, slot, variant)


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """Endless rounds; each issues every slot once, in a seeded order.

    Slot ``s`` runs variant ``(offset[s] + r) % VARIANTS[workload]`` in round
    ``r``, with seeded offsets, so every pass (``VARIANTS[workload]``
    consecutive rounds) issues every request of the workload exactly once:
    whole passes measure the same requests whatever the seed, and the seed
    decides their order and which ones share a round.
    """
    rng = random.Random(f"{workload}/{seed}")
    n, v = len(SLOTS[workload]), VARIANTS[workload]
    offsets = [rng.randrange(v) for _ in range(n)]
    for r in itertools.count():
        order = list(range(n))
        rng.shuffle(order)
        yield [make_request(workload, s, (offsets[s] + r) % v) for s in order]
