"""Torsion theories induced by a subcategory of injectives, and verification.

The torsion radical of M is the closure of its zero submodule: the joint
kernel of every map from M into the subcategory.  Modules with radical equal
to themselves form the torsion class T, modules with vanishing radical the
torsion-free class F; ``verify_torsion_theory`` checks the defining laws and
the closure properties of both classes over a finite universe of modules,
with finite stand-ins for the infinitary closure conditions.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import NamedTuple

from .closure import Subcategory, _admits_nonzero_map, regular_closure
from .homs import _divisors, hom_group
from .modules import (
    FPModule,
    Submodule,
    all_submodules,
    direct_sum,
    quotient_module,
    sub_as_module,
    sub_image,
)
from .rings import Ring


_RADICAL_CACHE: dict = {}


def torsion_radical(m: FPModule, cat: Subcategory) -> Submodule:
    """The largest submodule invisible to the subcategory: closure of zero."""
    key = (m, cat)
    cached = _RADICAL_CACHE.get(key)
    if cached is None:
        cached = regular_closure(m, m.zero_submodule(), cat).closure
        _RADICAL_CACHE[key] = cached
    return cached


class Classification(Enum):
    TORSION = "torsion"
    TORSION_FREE = "torsion_free"
    MIXED = "mixed"


def classify(x: FPModule, cat: Subcategory) -> Classification:
    """Torsion when the radical is everything, torsion-free when it is zero.

    The zero module satisfies both and is reported as torsion.
    """
    t = torsion_radical(x, cat)
    if t.is_whole:
        return Classification.TORSION
    if t.is_zero:
        return Classification.TORSION_FREE
    return Classification.MIXED


def _in_torsion_class(x, cat: Subcategory) -> bool:
    """Membership in T of a module, or of the class of an invariant-factor
    chain: no object of the subcategory receives a nonzero map."""
    chain = x.invariant_factors if isinstance(x, FPModule) else x
    return not any(
        _admits_nonzero_map(chain, a) for a in cat.finite_objects + cat.divisible_objects
    )


def _in_torsion_free_class(x: FPModule, cat: Subcategory) -> bool:
    """Membership in F: the radical vanishes (maps into the subcategory
    separate elements)."""
    return torsion_radical(x, cat).is_zero


def _first_bad_sum(members, member_of):
    """The first pair, x at or before y in ``members``, whose direct sum's
    chain fails ``member_of``, as a counterexample, or ``None``.  x + y and
    y + x are isomorphic, so the unordered pairs decide every ordered one."""
    for i, x in enumerate(members):
        for y in members[i:]:
            if not member_of(direct_sum(x, y).invariant_factors):
                return {"left": _label(x), "right": _label(y)}
    return None


class ModuleUniverse:
    """A finite list of modules over one ring, deduplicated up to isomorphism.

    ``class_pairs[i]`` lists the distinct (class of S, class of M/S) over the
    submodules S of M = ``objects[i]``, as invariant-factor chains in
    first-seen order, both read from S's preimage lattice.  The scan stops at
    the first infinite object, which cannot be enumerated.

    Closure under submodules and quotients (projections of the pairs) and
    under finite direct sums is computed, never assumed.  A flag is ``None``
    when an infinite object comes before any missing class.
    """

    __slots__ = (
        "ring",
        "objects",
        "class_pairs",
        "closed_under_submodules",
        "closed_under_quotients",
        "closed_under_sums",
    )

    def __init__(self, ring: Ring, objects):
        self._fill(ring, objects, {})

    def adjoin(self, extra) -> "ModuleUniverse":
        """This universe with the modules ``extra`` adjoined, reusing the
        class pairs already computed, so each object is enumerated once."""
        known = {m.invariant_factors: p for m, p in zip(self.objects, self.class_pairs)}
        grown = object.__new__(ModuleUniverse)
        grown._fill(self.ring, self.objects + tuple(extra), known)
        return grown

    def _fill(self, ring: Ring, objects, known: dict) -> None:
        objs = sorted(
            objects,
            key=lambda m: (len(m.invariant_factors), m.invariant_factors, m.n_gens),
        )
        seen = set()
        kept = []
        for m in objs:
            if m.ring != ring:
                raise ValueError(f"universe object over {m.ring} in a {ring} universe")
            if m.invariant_factors not in seen:
                seen.add(m.invariant_factors)
                kept.append(m)
        self.ring = ring
        self.objects = tuple(kept)
        class_pairs = []
        for m in self.objects:
            if not m.is_finite:
                break
            class_pairs.append(known.get(m.invariant_factors) or tuple(dict.fromkeys(
                (s.lattice.invariants_over(m.lattice), s.lattice.quotient_invariants())
                for s in all_submodules(m)
            )))
        self.class_pairs = tuple(class_pairs)
        self.closed_under_submodules = self._closure_flag(seen, 0)
        self.closed_under_quotients = self._closure_flag(seen, 1)
        self.closed_under_sums = _first_bad_sum(self.objects, seen.__contains__) is None

    def _closure_flag(self, iso_classes, side: int):
        for pairs in self.class_pairs:
            if any(pair[side] not in iso_classes for pair in pairs):
                return False
        return None if len(self.class_pairs) < len(self.objects) else True

    def __repr__(self) -> str:
        return f"ModuleUniverse({self.ring}, {len(self.objects)} objects)"


# Cap on the summed orders of the modules one enumeration may return.  verify
# enumerates every submodule of every object, so its work grows at least with
# this total; Z/12 with at most 3 generators and order at most 300 sums to
# 2,168.
UNIVERSE_ORDER_CAP = 4096


def enumerate_universe(ring: Ring, max_gens: int, max_order: int) -> list[FPModule]:
    """One module per isomorphism class: all invariant-factor chains with at
    most ``max_gens`` factors and order at most ``max_order`` (the zero module
    included).  Over a modular ring the factors divide the modulus.

    Raises ``ValueError`` once the summed orders of the modules found pass
    ``UNIVERSE_ORDER_CAP``, instead of enumerating an unbounded universe.
    """
    if max_gens < 0 or max_order < 1:
        raise ValueError("bounds must be nonnegative (and order at least 1)")
    divisors = _divisors(ring.modulus, max_order) if ring.is_modular else None
    chains: list[tuple[int, ...]] = []
    total = 0

    def extend(chain, product):
        nonlocal total
        total += product
        if total > UNIVERSE_ORDER_CAP:
            raise ValueError(
                f"universe too large: the module orders found so far sum to "
                f"{total}, past the cap of {UNIVERSE_ORDER_CAP}; lower the "
                f"generator or order bound"
            )
        chains.append(tuple(chain))
        if len(chain) >= max_gens:
            return
        last = chain[-1] if chain else 1
        if divisors is None:
            steps = range(max(last, 2), max_order + 1, last)
        else:
            steps = (d for d in divisors if d % last == 0)
        for d in steps:
            if product * d > max_order:
                break
            extend(chain + [d], product * d)

    extend([], 1)
    return [_chain_module(ring, chain) for chain in chains]


def _chain_module(ring: Ring, chain: tuple[int, ...]) -> FPModule:
    """Z^k / diag(chain): the module whose invariant factors are ``chain``."""
    k = len(chain)
    cols = [tuple(chain[j] if i == j else 0 for i in range(k)) for j in range(k)]
    return FPModule(ring, k, cols)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    counterexample: dict | None = None


class TorsionTheoryReport(NamedTuple):
    """Verification record of the pair (T, F) over a finite module universe."""

    cat: Subcategory
    universe: ModuleUniverse
    T_members: tuple[FPModule, ...]
    F_members: tuple[FPModule, ...]
    radical_table: tuple[tuple[FPModule, Submodule], ...]
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _label(m: FPModule) -> list[int]:
    return list(m.invariant_factors)


def verify_torsion_theory(
    universe: ModuleUniverse, cat: Subcategory
) -> TorsionTheoryReport:
    """Run every torsion-theory law over the universe and report per check.

    Objects of the subcategory are adjoined to the universe if missing,
    reusing the class pairs already computed; when none is missing, the
    given universe is reused as it is.  The closure conditions on T and F
    are checked in their finite variants: quotients, submodules, pairwise
    direct sums, and extensions realizable inside universe objects.

    The laws on submodules and quotients read the universe's class pairs.
    Membership in T (no nonzero map into the subcategory) is decided on the
    invariant-factor chain, membership in F (zero radical) once per chain:
    on the universe object of that class, whose radical the radical table
    reports, or else on the chain's diagonal module.
    """
    if universe.ring != cat.ring:
        raise ValueError("universe and subcategory must share a ring")
    objects = list(universe.objects)
    known = {m.invariant_factors for m in objects}
    for obj in cat.finite_objects:
        if obj.invariant_factors not in known:
            known.add(obj.invariant_factors)
            objects.append(obj)
    if len(objects) > len(universe.objects):
        universe = universe.adjoin(objects[len(universe.objects):])
    objects = list(universe.objects)
    if len(universe.class_pairs) < len(objects):
        raise ValueError("submodule enumeration requires a finite module")

    radical_table = tuple((m, torsion_radical(m, cat)) for m in objects)
    presented = {m.invariant_factors: m for m in objects}

    def in_t(chain: tuple[int, ...]) -> bool:
        return _in_torsion_class(chain, cat)

    @cache
    def in_f(chain: tuple[int, ...]) -> bool:
        m = presented.get(chain) or _chain_module(universe.ring, chain)
        return _in_torsion_free_class(m, cat)

    t_members = tuple(m for m in objects if in_t(m.invariant_factors))
    f_members = tuple(m for m in objects if in_f(m.invariant_factors))

    checks: list[CheckResult] = []

    def add(name, passed, detail="", counterexample=None):
        checks.append(CheckResult(name, passed, detail, counterexample))

    # the subcategory must meet T only in zero, and must consist of
    # torsion-free objects
    bad = next(
        (a for a in cat.finite_objects if not a.is_zero and in_t(a.invariant_factors)),
        None,
    )
    add(
        "subcategory_meets_torsion_class_trivially",
        bad is None,
        counterexample=None if bad is None else {"object": _label(bad)},
    )
    bad = next((a for a in cat.finite_objects if not in_f(a.invariant_factors)), None)
    add(
        "subcategory_inside_torsion_free_class",
        bad is None,
        counterexample=None if bad is None else {"object": _label(bad)},
    )

    # T and F intersect trivially
    bad = next((m for m in t_members if m in f_members and not m.is_zero), None)
    add(
        "torsion_and_torsion_free_intersect_trivially",
        bad is None,
        counterexample=None if bad is None else {"module": _label(bad)},
    )

    # no nonzero homomorphism from T to F
    witness = None
    for x in t_members:
        for y in f_members:
            if not hom_group(x, y).is_zero:
                witness = {"from": _label(x), "to": _label(y)}
                break
        if witness:
            break
    add("no_nonzero_hom_torsion_to_torsion_free", witness is None, counterexample=witness)

    # radical laws
    idem_bad = None
    rad_in_t_bad = None
    quot_rad_bad = None
    quot_in_f_bad = None
    for m, t in radical_table:
        smod, incl = sub_as_module(t)
        if sub_image(incl, torsion_radical(smod, cat)) != t:
            idem_bad = idem_bad or {"module": _label(m)}
        if not in_t(smod.invariant_factors):
            rad_in_t_bad = rad_in_t_bad or {"module": _label(m)}
        # F membership of M/t(M) is the vanishing of its radical, so one
        # radical decides both laws
        if not torsion_radical(quotient_module(m, t), cat).is_zero:
            quot_rad_bad = quot_rad_bad or {"module": _label(m)}
            quot_in_f_bad = quot_in_f_bad or {"module": _label(m)}
    add("radical_is_idempotent", idem_bad is None, counterexample=idem_bad)
    add("radical_lies_in_torsion_class", rad_in_t_bad is None, counterexample=rad_in_t_bad)
    add(
        "radical_of_quotient_by_radical_vanishes",
        quot_rad_bad is None,
        counterexample=quot_rad_bad,
    )
    add(
        "quotient_by_radical_is_torsion_free",
        quot_in_f_bad is None,
        counterexample=quot_in_f_bad,
    )

    # closure properties, finite variants, over the (submodule class,
    # quotient class) pairs of each universe object
    t_quot_bad = t_sub_bad = f_sub_bad = None
    t_ext_bad = f_ext_bad = None
    for m, pairs in zip(objects, universe.class_pairs):
        mc = m.invariant_factors
        for sc, qc in pairs:  # the chains of S and of M/S
            ext = {"middle": list(mc), "sub": list(sc), "quotient": list(qc)}
            if in_t(mc):
                if not in_t(qc):
                    t_quot_bad = t_quot_bad or {"module": list(mc), "quotient": list(qc)}
                if not in_t(sc):
                    t_sub_bad = t_sub_bad or {"module": list(mc), "submodule": list(sc)}
            if in_f(mc) and not in_f(sc):
                f_sub_bad = f_sub_bad or {"module": list(mc), "submodule": list(sc)}
            if in_t(sc) and in_t(qc) and not in_t(mc):
                t_ext_bad = t_ext_bad or ext
            if in_f(sc) and in_f(qc) and not in_f(mc):
                f_ext_bad = f_ext_bad or ext

    t_sum_bad = _first_bad_sum(t_members, in_t)
    f_sum_bad = _first_bad_sum(f_members, in_f)

    add(
        "torsion_class_closed_under_quotients",
        t_quot_bad is None,
        counterexample=t_quot_bad,
    )
    add(
        "torsion_class_closed_under_finite_sums",
        t_sum_bad is None,
        detail="finite variant",
        counterexample=t_sum_bad,
    )
    add(
        "torsion_class_closed_under_extensions",
        t_ext_bad is None,
        detail="finite variant: extensions realizable inside universe objects",
        counterexample=t_ext_bad,
    )
    add(
        "torsion_class_closed_under_submodules",
        t_sub_bad is None,
        detail="hereditary property",
        counterexample=t_sub_bad,
    )
    add(
        "torsion_free_class_closed_under_submodules",
        f_sub_bad is None,
        counterexample=f_sub_bad,
    )
    add(
        "torsion_free_class_closed_under_finite_products",
        f_sum_bad is None,
        detail="finite variant",
        counterexample=f_sum_bad,
    )
    add(
        "torsion_free_class_closed_under_extensions",
        f_ext_bad is None,
        detail="finite variant: extensions realizable inside universe objects",
        counterexample=f_ext_bad,
    )

    return TorsionTheoryReport(
        cat=cat,
        universe=universe,
        T_members=t_members,
        F_members=f_members,
        radical_table=radical_table,
        checks=tuple(checks),
    )
