"""Workspace files: named rings, modules, submodules, and subcategories.

The on-disk format is JSON with explicit integer lists; integers beyond the
64-bit range are written as decimal strings and accepted back in either
form.  Loading validates every name and every dimension, so a loaded
workspace is always internally consistent.
"""

from __future__ import annotations

import json
import re
import sys
from typing import TYPE_CHECKING

from .rings import Ring, ZZ, Zmod

if TYPE_CHECKING:
    from .closure import Subcategory
    from .modules import FPModule, Submodule

_I64_MAX = 2**63 - 1
_I64_MIN = -(2**63)

# Cap on the generators of one module in a document, checked before its
# relations are decoded.  Building a module grows faster than g^3 in the
# generator count g: loading a square random Z-module (entries in [-9, 9])
# took 0.13 s at 64 generators, 2.9 s at 128, 29 s at 192 and 159 s at 256
# on a 2-core VM.  The benchmark's largest module has 32.
MAX_GENERATORS = 256


def encode_int(x: int):
    """Plain number when it fits in 64 bits, decimal string otherwise."""
    return x if _I64_MIN <= x <= _I64_MAX else str(x)


# int() also takes "+5", " 7 ", "1_000" and non-ASCII digits; the format does not
_DECIMAL = re.compile(r"-?[0-9]+")


def decode_int(x) -> int:
    if isinstance(x, bool):
        raise ValueError(f"expected an integer, got {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x, 10)
    raise ValueError(f"expected an integer or ASCII decimal string, got {x!r}")


def encode_json_value(value):
    """Recursively apply :func:`encode_int` so the document stays valid JSON."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return encode_int(value)
    if isinstance(value, float):
        raise ValueError("reports are exact; floats are not serializable")
    if isinstance(value, dict):
        return {k: encode_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_json_value(v) for v in value]
    raise ValueError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict, pretty: bool = False) -> str:
    """Byte-deterministic JSON: canonical key order, fixed separators.

    Results may carry integers of any size, so Python's int-to-decimal
    digit limit is lifted while the report is written and restored after;
    inputs (workspace files, ``--matrix``) are still decoded under it.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = encode_json_value(report)
        if pretty:
            return json.dumps(doc, sort_keys=True, indent=2)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(limit)


def parse_ring(text: str) -> Ring:
    if not isinstance(text, str):
        raise ValueError(f"ring must be a string, got {text!r}")
    if text == "Z":
        return ZZ
    if text.startswith("Zmod:") and _DECIMAL.fullmatch(text[5:]):
        return Zmod(int(text[5:]))
    raise ValueError(f"unknown ring {text!r}; use \"Z\" or \"Zmod:<n>\"")


def ring_name(ring: Ring) -> str:
    return f"Zmod:{ring.modulus}" if ring.is_modular else "Z"


class Workspace:
    """Named definitions resolved into live objects.

    Name structure (parent names, subcategory member names) is tracked so
    that serialization (``elements.serialize_workspace``) reproduces the
    document it was loaded from: load -> serialize -> load is the identity.  Workspaces compare equal
    when all their fields do.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.modules: dict[str, FPModule] = {}
        self.submodules: dict[str, Submodule] = {}
        self.subcategories: dict[str, Subcategory] = {}
        self.submodule_parents: dict[str, str] = {}
        self.subcategory_members: dict[str, tuple[list[str], list[str]]] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Workspace) and vars(self) == vars(other)

    def module(self, name: str) -> FPModule:
        if name not in self.modules:
            raise ValueError(f"unknown module {name!r}")
        return self.modules[name]

    def submodule(self, name: str) -> Submodule:
        if name not in self.submodules:
            raise ValueError(f"unknown submodule {name!r}")
        return self.submodules[name]

    def subcategory(self, name: str) -> Subcategory:
        if name not in self.subcategories:
            raise ValueError(f"unknown subcategory {name!r}")
        return self.subcategories[name]


def _decode_columns(value, what: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or not all(isinstance(c, list) for c in value):
        raise ValueError(f"{what} must be a list of integer columns")
    return [tuple(decode_int(x) for x in col) for col in value]


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict) or not all(isinstance(s, dict) for s in value.values()):
        raise ValueError(f"{key} must be an object mapping each name to an object")
    return value


def load_workspace(doc: dict) -> Workspace:
    from .modules import FPModule, Submodule
    if not isinstance(doc, dict):
        raise ValueError("workspace document must be a JSON object")
    ring = parse_ring(doc.get("ring", "Z"))
    ws = Workspace(ring=ring)

    for name, spec in _section(doc, "modules").items():
        gens = spec.get("generators")
        if not isinstance(gens, int) or isinstance(gens, bool) or gens < 0:
            raise ValueError(
                f"module {name!r}: generators must be a nonnegative integer"
            )
        if gens > MAX_GENERATORS:
            raise ValueError(
                f"module {name!r}: {gens} generators, past the cap of {MAX_GENERATORS}"
            )
        cols = _decode_columns(spec.get("relations", []), f"module {name!r} relations")
        for c in cols:
            if len(c) != gens:
                raise ValueError(
                    f"module {name!r}: relation column of length {len(c)}, "
                    f"expected {gens}"
                )
        ws.modules[name] = FPModule(ring, gens, cols)

    for name, spec in _section(doc, "submodules").items():
        parent_name = spec.get("parent")
        if not isinstance(parent_name, str) or parent_name not in ws.modules:
            raise ValueError(
                f"submodule {name!r}: unknown parent module {parent_name!r}"
            )
        parent = ws.modules[parent_name]
        cols = _decode_columns(spec.get("gens", []), f"submodule {name!r} gens")
        for c in cols:
            if len(c) != parent.n_gens:
                raise ValueError(
                    f"submodule {name!r}: generator column of length {len(c)}, "
                    f"expected {parent.n_gens}"
                )
        ws.submodules[name] = Submodule(parent, cols)
        ws.submodule_parents[name] = parent_name

    for name, spec in _section(doc, "subcategories").items():
        finite_names = spec.get("finite", [])
        divisible = spec.get("divisible", [])
        if not isinstance(finite_names, list) or not isinstance(divisible, list):
            raise ValueError(f"subcategory {name!r}: finite and divisible must be lists")
        for mname in finite_names:
            if not isinstance(mname, str) or mname not in ws.modules:
                raise ValueError(f"subcategory {name!r}: unknown module {mname!r}")
        from .closure import DivisibleModule, Subcategory
        tags = [d.value for d in DivisibleModule]
        for tag in divisible:
            if tag not in tags:
                raise ValueError(
                    f"subcategory {name!r}: unknown divisible object {tag!r}; "
                    f"use {' or '.join(map(json.dumps, tags))}"
                )
        finite = [ws.modules[m] for m in finite_names]
        try:
            cat = Subcategory(ring, finite, [DivisibleModule(d) for d in divisible])
        except ValueError as exc:
            raise ValueError(f"subcategory {name!r}: {exc}") from None
        ws.subcategories[name] = cat
        ws.subcategory_members[name] = (list(finite_names), list(divisible))

    return ws


def load_workspace_file(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    return load_workspace(doc)
