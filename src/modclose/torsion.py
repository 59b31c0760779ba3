"""Torsion theories induced by a subcategory of injectives, and verification.

The torsion radical of M is the closure of its zero submodule: the joint
kernel of every map from M into the subcategory.  Modules with radical equal
to themselves form the torsion class T, modules with vanishing radical the
torsion-free class F; ``verify_torsion_theory`` checks the defining laws and
the closure properties of both classes over a finite universe of modules,
with finite stand-ins for the infinitary closure conditions.

Boundedness and free-summand detection over the integers live here too: a
finitely generated Z-module admits no nonzero map to Z exactly when its free
rank is zero, and the rationals serve as the injective stand-in for density
statements (a map to Z is nonzero exactly when a map to Q is).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def _in_torsion_class(x: FPModule, cat: Subcategory) -> bool:
    """Membership in T: no object of the subcategory receives a nonzero map."""
    return not any(
        _admits_nonzero_map(x, a) for a in cat.finite_objects + cat.divisible_objects
    )


def _in_torsion_free_class(x: FPModule, cat: Subcategory) -> bool:
    """Membership in F: the radical vanishes (maps into the subcategory
    separate elements)."""
    return torsion_radical(x, cat).is_zero


class ModuleUniverse:
    """A finite list of modules over one ring, deduplicated up to isomorphism.

    Closure of the list under submodules, quotients and finite direct sums is
    computed and recorded, never assumed.  The quotient class of M by a
    submodule S is read from S's preimage lattice, which is the relation
    lattice of M/S, so no quotient module is built for the flags.  A flag is
    ``None`` when an object is infinite (not decidable by enumeration).
    """

    __slots__ = (
        "ring",
        "objects",
        "closed_under_submodules",
        "closed_under_quotients",
        "closed_under_sums",
    )

    def __init__(self, ring: Ring, objects):
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
        iso_classes = seen
        self.closed_under_submodules = self._closure_flag(
            iso_classes, self._submodule_classes
        )
        self.closed_under_quotients = self._closure_flag(
            iso_classes, self._quotient_classes
        )
        self.closed_under_sums = self._sum_flag(iso_classes)

    def _closure_flag(self, iso_classes, class_fn):
        for m in self.objects:
            if not m.is_finite:
                return None
            for cls in class_fn(m):
                if cls not in iso_classes:
                    return False
        return True

    @staticmethod
    def _submodule_classes(m: FPModule):
        for s in all_submodules(m):
            yield sub_as_module(s)[0].invariant_factors

    @staticmethod
    def _quotient_classes(m: FPModule):
        for s in all_submodules(m):
            yield s.lattice.quotient_invariants()

    def _sum_flag(self, iso_classes):
        for a in self.objects:
            for b in self.objects:
                if direct_sum(a, b).invariant_factors not in iso_classes:
                    return False
        return True

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
    out = []
    for chain in chains:
        cols = [
            tuple(chain[j] if i == j else 0 for i in range(len(chain)))
            for j in range(len(chain))
        ]
        out.append(FPModule(ring, len(chain), cols))
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    counterexample: dict | None = None


@dataclass(frozen=True)
class TorsionTheoryReport:
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

    Objects of the subcategory are adjoined to the universe if missing; when
    none is missing, the given universe is reused rather than rebuilt.  The
    closure conditions on T and F are checked in their finite variants:
    quotients, submodules, pairwise direct sums, and extensions realizable
    inside universe objects.

    Membership in T (no nonzero map into the subcategory) and in F (zero
    radical) depends only on the isomorphism class, so each is decided once
    per invariant-factor chain, first for the universe objects, and looked up
    for every other presentation of that class.  The radical table and the
    radical laws still use each object's own presentation, whose coordinates
    the radical generators are reported in.
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
        universe = ModuleUniverse(universe.ring, objects)
    objects = list(universe.objects)

    def per_class(test):
        decided: dict[tuple[int, ...], bool] = {}

        def member(x: FPModule) -> bool:
            key = x.invariant_factors
            if key not in decided:
                decided[key] = test(x, cat)
            return decided[key]

        return member

    in_t = per_class(_in_torsion_class)
    in_f = per_class(_in_torsion_free_class)
    radical_table = tuple((m, torsion_radical(m, cat)) for m in objects)
    t_members = tuple(m for m in objects if in_t(m))
    f_members = tuple(m for m in objects if in_f(m))

    checks: list[CheckResult] = []

    def add(name, passed, detail="", counterexample=None):
        checks.append(CheckResult(name, passed, detail, counterexample))

    # the subcategory must meet T only in zero, and must consist of
    # torsion-free objects
    bad = next(
        (a for a in cat.finite_objects if not a.is_zero and in_t(a)),
        None,
    )
    add(
        "subcategory_meets_torsion_class_trivially",
        bad is None,
        counterexample=None if bad is None else {"object": _label(bad)},
    )
    bad = next((a for a in cat.finite_objects if not in_f(a)), None)
    add(
        "subcategory_inside_torsion_free_class",
        bad is None,
        counterexample=None if bad is None else {"object": _label(bad)},
    )

    # T and F intersect trivially
    bad = next((m for m in objects if in_t(m) and in_f(m) and not m.is_zero), None)
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
        if not in_t(smod):
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

    # closure properties, finite variants; each universe object is scanned
    # once for (submodule class, quotient class) pairs
    profiles = {}
    for m in objects:
        pairs = []
        for s in all_submodules(m):
            smod, _ = sub_as_module(s)
            qmod = quotient_module(m, s)
            pairs.append((smod, qmod))
        profiles[m] = pairs

    t_quot_bad = t_sub_bad = f_sub_bad = None
    t_ext_bad = f_ext_bad = None
    for m in objects:
        for smod, qmod in profiles[m]:
            if in_t(m):
                if not in_t(qmod):
                    t_quot_bad = t_quot_bad or {
                        "module": _label(m),
                        "quotient": _label(qmod),
                    }
                if not in_t(smod):
                    t_sub_bad = t_sub_bad or {
                        "module": _label(m),
                        "submodule": _label(smod),
                    }
            if in_f(m) and not in_f(smod):
                f_sub_bad = f_sub_bad or {
                    "module": _label(m),
                    "submodule": _label(smod),
                }
            if in_t(smod) and in_t(qmod) and not in_t(m):
                t_ext_bad = t_ext_bad or {
                    "middle": _label(m),
                    "sub": _label(smod),
                    "quotient": _label(qmod),
                }
            if in_f(smod) and in_f(qmod) and not in_f(m):
                f_ext_bad = f_ext_bad or {
                    "middle": _label(m),
                    "sub": _label(smod),
                    "quotient": _label(qmod),
                }

    t_sum_bad = f_sum_bad = None
    for x in t_members:
        for y in t_members:
            if not in_t(direct_sum(x, y)):
                t_sum_bad = t_sum_bad or {"left": _label(x), "right": _label(y)}
    for x in f_members:
        for y in f_members:
            if not in_f(direct_sum(x, y)):
                f_sum_bad = f_sum_bad or {"left": _label(x), "right": _label(y)}

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


def is_bounded(m: FPModule) -> bool:
    """Whether the module admits no nonzero map to the base ring (over Z).

    For finitely generated Z-modules this is exactly "no free summand", i.e.
    no zero among the invariant factors.
    """
    if m.ring.is_modular:
        raise ValueError("boundedness is defined over the integers; use ring Z")
    return m.free_rank() == 0


def free_summand_rank(m: FPModule) -> int:
    """Rank of the largest free direct summand of a Z-module."""
    if m.ring.is_modular:
        raise ValueError("free-summand rank is defined over the integers; use ring Z")
    return m.free_rank()
