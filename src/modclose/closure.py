"""The regular closure operator induced by a subcategory of injective modules.

The closure of a submodule N of M is the intersection of the kernels of all
homomorphisms from M into objects of the subcategory that vanish on N.  Over
Z and Z/n it depends only on which primes the subcategory sees, recorded by
one number E (``_exponent``): over Z/n the lcm of the objects' invariant
factors, each a product of full prime powers of n; over Z 0 when Q/Z, which
sees every prime, is present, and 1 under {Q} alone, which sees none.  The
closure of N is then the one rule ``_closure_lattice``: the x of M with
k*x in N for some k >= 1 coprime to E, read from the Smith coordinates of
N's preimage lattice L in Z^g (``Lattice.saturation(E)``).  Maps into the
subcategory separate exactly the parts of M/N on the primes of E, and the
free part, which no k kills.  Hom groups serve only as witnesses, so the
hom engine (``modclose.homs``) loads only when ``regular_closure`` lists
the witnesses of finite objects.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .lattices import Lattice
from .modules import FPModule, Submodule, quotient_module
from .rings import Ring

if TYPE_CHECKING:
    from .homs import Homomorphism


def __getattr__(name: str):
    # ``closure.hom_group`` and ``closure.Homomorphism`` are the hom engine's
    # own objects, read when asked for, so importing this module loads no
    # hom engine
    if name in ("Homomorphism", "hom_group"):
        from . import homs

        return getattr(homs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DivisibleModule(Enum):
    """The divisible injective Z-modules available as closure targets."""

    Q = "Q"
    Q_MOD_Z = "QmodZ"


def is_injective_by_structure(a: FPModule) -> bool:
    """Structure-criterion injectivity test over Z/n.

    A module is injective over Z/n iff for each prime power p^e exactly
    dividing n, its p-primary part is free over Z/p^e, i.e. every invariant
    factor has p-valuation 0 or e.  Each invariant factor f divides n, so
    that holds iff f and n/f are coprime: no factoring is needed.
    """
    if not a.ring.is_modular:
        raise ValueError(
            "injectivity testing needs a modular ring; over the integers the "
            "divisible modules Q and Q/Z play this role"
        )
    n = a.ring.modulus
    return all(gcd(f, n // f) == 1 for f in a.invariant_factors)


class Subcategory:
    """A subcategory of injective modules, given by an explicit object list.

    Over Z/n the objects are finitely presented modules, each certified
    injective at construction by the invariant-factor criterion; Baer's
    criterion (``is_injective_module``) is kept as its oracle.  Over Z no
    nonzero finitely generated module is injective, so the objects are
    divisible: a nonempty subset of {Q, Q/Z}.
    """

    __slots__ = ("ring", "finite_objects", "divisible_objects", "_hash")

    def __init__(
        self,
        ring: Ring,
        finite_objects: Iterable[FPModule] = (),
        divisible_objects: Iterable[DivisibleModule] = (),
    ):
        finite = tuple(finite_objects)
        divisible = tuple(
            d if isinstance(d, DivisibleModule) else DivisibleModule(d)
            for d in divisible_objects
        )
        if not finite and not divisible:
            raise ValueError("a subcategory needs at least one object")
        if ring.is_modular:
            if divisible:
                raise ValueError(
                    "divisible objects are only available over the integers"
                )
            for i, obj in enumerate(finite):
                if obj.ring != ring:
                    raise ValueError(f"object {i} lives over {obj.ring}, not {ring}")
                if not is_injective_by_structure(obj):
                    raise ValueError(
                        f"object {i} (invariants {list(obj.invariant_factors)}) "
                        f"is not injective over {ring}"
                    )
        else:
            if finite:
                raise ValueError(
                    "no nonzero finitely generated module over the integers is "
                    "injective; use the divisible objects Q and Q/Z"
                )
        self.ring = ring
        self.finite_objects = finite
        self.divisible_objects = divisible
        self._hash = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subcategory)
            and self.ring == other.ring
            and self.finite_objects == other.finite_objects
            and self.divisible_objects == other.divisible_objects
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.finite_objects, self.divisible_objects))
        return self._hash

    def __repr__(self) -> str:
        parts = [repr(o) for o in self.finite_objects]
        parts += [d.value for d in self.divisible_objects]
        return f"Subcategory({self.ring}, [{', '.join(parts)}])"


class ClosureWitness(NamedTuple):
    """A map out of M vanishing on N, or a divisible object receiving one
    (``hom`` None); the kernels of all witnesses meet in the closure."""

    source: object  # an FPModule of the subcategory, or a DivisibleModule
    hom: Homomorphism | None  # None for divisible objects


class ClosureResult(NamedTuple):
    closure: Submodule
    dense: bool
    closed: bool
    witnesses: tuple[ClosureWitness, ...]


def _check_compat(m: FPModule, n: Submodule, cat: Subcategory) -> None:
    if n.parent != m:
        raise ValueError("submodule does not live in the given module")
    if cat.ring != m.ring:
        raise ValueError(f"subcategory over {cat.ring} cannot close over {m.ring}")


def _exponent(cat: Subcategory) -> int:
    """E, whose primes are the primes the subcategory sees: 0 (every prime)
    when Q/Z is present, else the lcm of the invariant factors of the finite
    objects, which is 1 (no prime) under {Q} alone."""
    if DivisibleModule.Q_MOD_Z in cat.divisible_objects:
        return 0
    return lcm(*(e for a in cat.finite_objects for e in a.invariant_factors))


def _closure_lattice(lat: Lattice, cat: Subcategory) -> Lattice:
    """The preimage lattice of the closure of the submodule whose preimage
    lattice is ``lat``, by the rule of the module docstring."""
    return lat.saturation(_exponent(cat))


def regular_closure(m: FPModule, n: Submodule, cat: Subcategory) -> ClosureResult:
    """The closure of ``n`` in ``m``, read from ``_closure_lattice``.

    The witnesses are, for each finite object A in order, the generators of
    Hom(M/N, A) composed with the projection M -> M/N (no certificate needed,
    canonical coordinates already), then each divisible object that receives
    a nonzero map from M/N.  Generators suffice: the joint kernel of f1 and
    f2 lies in the kernel of every combination r1*f1 + r2*f2.
    """
    _check_compat(m, n, cat)
    closure = Submodule(m, _closure_lattice(n.lattice, cat))
    q = quotient_module(m, n)
    witnesses = []
    if cat.finite_objects:
        from .homs import Homomorphism, hom_group

        witnesses += [
            ClosureWitness(source=obj, hom=Homomorphism._trusted(m, obj, gen.matrix))
            for obj in cat.finite_objects
            for gen in hom_group(q, obj).generators
        ]
    witnesses += [
        ClosureWitness(source=div, hom=None)
        for div in cat.divisible_objects
        if _admits_nonzero_map(q.invariant_factors, div)
    ]
    return ClosureResult(
        closure=closure,
        dense=closure.is_whole,
        closed=closure == n,
        witnesses=tuple(witnesses),
    )


def _admits_nonzero_map(chain: tuple[int, ...], target) -> bool:
    """Whether some nonzero homomorphism runs from a module with invariant
    factors ``chain`` into one object.

    A finitely presented object is decided by invariant factors, as in the
    gcd formula of ``hom_group``: Hom(Z/d, Z/e) = Z/gcd(d, e) is nonzero iff
    the gcd is not 1, except that Hom(Z/d, Z) = 0 for d != 0.  Maps into Q
    see exactly the free part (the factors 0), and Q/Z separates every
    nonzero element.
    """
    if isinstance(target, FPModule):
        return any(
            gcd(d, e) != 1 and not (d and not e)
            for d in chain
            for e in target.invariant_factors
        )
    if target is DivisibleModule.Q:
        return 0 in chain
    return bool(chain)


def is_dense(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether the closure of ``n`` is all of ``m``."""
    _check_compat(m, n, cat)
    return _closure_lattice(n.lattice, cat).covolume() == 1


def is_closed(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether ``n`` equals its own closure."""
    _check_compat(m, n, cat)
    return _closure_lattice(n.lattice, cat) == n.lattice
