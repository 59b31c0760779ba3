"""The regular closure operator induced by a subcategory of injective modules.

The closure of a submodule N of M is the intersection of the kernels of all
homomorphisms from M into objects of the subcategory that vanish on N.  For
finitely presented targets this is computed through hom groups; over the
integers the two divisible injectives (the rationals, and the rationals mod
the integers) are handled by closed-form rules instead of matrices.

Intersecting over a generating set of each hom group suffices: the kernels of
f1 and f2 both contain the kernel of any combination r1*f1 + r2*f2.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import OracleInfeasibleError
from .homs import Homomorphism, hom_group, is_injective_by_structure
from .lattices import Lattice
from .modules import (
    FPModule,
    Submodule,
    all_submodules,
    quotient_module,
    sub_image,
    sub_join,
    sub_meet,
)
from .rings import Ring


class DivisibleModule(Enum):
    """The divisible injective Z-modules available as closure targets."""

    Q = "Q"
    Q_MOD_Z = "QmodZ"


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
    """One contribution that strictly shrank the running intersection."""

    source: object  # an FPModule of the subcategory, or a DivisibleModule
    hom: Homomorphism | None  # None for divisible rules


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


def divisible_closure(m: FPModule, n: Submodule, which: DivisibleModule) -> Submodule:
    """Closure of ``n`` against a single divisible injective over Z.

    For Q: homomorphisms into the rationals see exactly the free part of the
    quotient, so the closure is the preimage of the torsion part of M/N.
    For Q/Z: homomorphisms into the rationals mod 1 separate every nonzero
    element, so every submodule is already closed.
    """
    if m.ring.is_modular:
        raise ValueError("divisible closure rules apply over the integers only")
    if n.parent != m:
        raise ValueError("submodule does not live in the given module")
    which = which if isinstance(which, DivisibleModule) else DivisibleModule(which)
    if which is DivisibleModule.Q_MOD_Z:
        return n
    return Submodule(m, n.lattice.saturation())


def regular_closure(m: FPModule, n: Submodule, cat: Subcategory) -> ClosureResult:
    """The closure of ``n`` in ``m`` induced by the subcategory.

    Every homomorphism from M that vanishes on N factors through M/N, so the
    kernels are collected from hom-group generators g of M/N into each object
    (lifted along the coordinate-preserving projection) and intersected in
    object order, then generator order; divisible contributions follow.

    A generator is applied to the basis B of the running intersection first:
    when every image lies in the object's relation lattice R, g vanishes on
    the running intersection and is skipped.  Otherwise the intersection
    becomes {x in running : g(x) in R}, read from the stacked columns (g(b), b)
    and (r, 0), r in R, and g is recorded as a witness.  Over Z/n the images
    are reduced mod n, which changes nothing, since R contains n*Z^k.  The
    lift needs no certificate (M -> M/N -> A is a homomorphism by
    construction), and the generator's matrix is already in canonical
    coordinates.
    """
    _check_compat(m, n, cat)
    running = m.whole_submodule()
    witnesses: list[ClosureWitness] = []
    if cat.finite_objects:
        q = quotient_module(m, n)
    for obj in cat.finite_objects:
        rel = obj.lattice
        for gen in hom_group(q, obj).generators:
            basis = running.lattice.basis
            images = [gen.matrix.apply(b) for b in basis]
            if all(rel.contains(v) for v in images):
                continue
            stacked = [v + b for v, b in zip(images, basis)]
            stacked += [r + (0,) * m.n_gens for r in rel.basis]
            running = Submodule(m, Lattice.from_stacked(obj.n_gens, m.n_gens, stacked))
            lifted = Homomorphism._trusted(m, obj, gen.matrix)
            witnesses.append(ClosureWitness(source=obj, hom=lifted))
    for div in cat.divisible_objects:
        contrib = divisible_closure(m, n, div)
        new = sub_meet(running, contrib)
        if new != running:
            witnesses.append(ClosureWitness(source=div, hom=None))
            running = new
    return ClosureResult(
        closure=running,
        dense=running.is_whole,
        closed=running == n,
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
    return regular_closure(m, n, cat).dense


def is_hom_vanishing(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether Hom(M/N, A) = 0 for every object A, checked object by object.

    This is the independent density test: density of N must agree with it.
    Disagreement is surfaced by the verification suites, never reconciled
    silently here.
    """
    _check_compat(m, n, cat)
    q = quotient_module(m, n)
    return not any(
        _admits_nonzero_map(q.invariant_factors, a)
        for a in cat.finite_objects + cat.divisible_objects
    )


def is_closed(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether ``n`` equals its own closure."""
    return regular_closure(m, n, cat).closed


class ScanEntry(NamedTuple):
    """One nonzero submodule T/N of M/N and its hom-existence profile."""

    generators: tuple[tuple[int, ...], ...]  # coordinates in M/N
    invariants: tuple[int, ...]
    nonzero_hom_per_object: tuple[bool, ...]  # finite objects then divisible
    exists_nonzero_hom: bool
    all_objects_admit_hom: bool


class ClosednessScan(NamedTuple):
    """Exhaustive closedness check over all nonzero submodules of M/N.

    ``exists_reading_closed`` is the verdict under "some object receives a
    nonzero map from each T/N" and must match the closure computation;
    ``forall_reading_closed`` is the stricter "every object receives one"
    verdict, kept for comparison (it can genuinely differ over Z with both
    divisible objects present).
    """

    entries: tuple[ScanEntry, ...]
    exists_reading_closed: bool
    forall_reading_closed: bool
    closure_closed: bool
    agrees_with_closure: bool


def closedness_witness_scan(
    m: FPModule, n: Submodule, cat: Subcategory
) -> ClosednessScan:
    _check_compat(m, n, cat)
    q = quotient_module(m, n)
    if not q.is_finite:
        raise OracleInfeasibleError(
            "scan infeasible: the quotient module is infinite"
        )
    entries = []
    for s in all_submodules(q):
        if s.is_zero:
            continue
        invariants = s.lattice.invariants_over(q.lattice)
        flags = [
            _admits_nonzero_map(invariants, a)
            for a in cat.finite_objects + cat.divisible_objects
        ]
        entries.append(
            ScanEntry(
                generators=tuple(s.canonical_gens.columns()),
                invariants=invariants,
                nonzero_hom_per_object=tuple(flags),
                exists_nonzero_hom=any(flags),
                all_objects_admit_hom=all(flags),
            )
        )
    exists_closed = all(e.exists_nonzero_hom for e in entries)
    forall_closed = all(e.all_objects_admit_hom for e in entries)
    closed = is_closed(m, n, cat)
    return ClosednessScan(
        entries=tuple(entries),
        exists_reading_closed=exists_closed,
        forall_reading_closed=forall_closed,
        closure_closed=closed,
        agrees_with_closure=exists_closed == closed,
    )


class AxiomSampleResult(NamedTuple):
    extension: bool
    monotonicity_applicable: bool
    monotonicity: bool
    idempotency: bool
    continuity_applicable: bool
    continuity: bool
    additivity_held: bool


class AxiomReport(NamedTuple):
    """Outcome of the closure-operator axiom checks on a list of samples.

    Extension, monotonicity, continuity and idempotency are requirements;
    additivity is only measured, never required.
    """

    samples: tuple[AxiomSampleResult, ...]

    @property
    def extension_ok(self) -> bool:
        return all(s.extension for s in self.samples)

    @property
    def monotonicity_ok(self) -> bool:
        return all(s.monotonicity for s in self.samples if s.monotonicity_applicable)

    @property
    def idempotency_ok(self) -> bool:
        return all(s.idempotency for s in self.samples)

    @property
    def continuity_ok(self) -> bool:
        return all(s.continuity for s in self.samples if s.continuity_applicable)

    @property
    def all_axioms_ok(self) -> bool:
        return (
            self.extension_ok
            and self.monotonicity_ok
            and self.idempotency_ok
            and self.continuity_ok
        )

    @property
    def additivity_held_count(self) -> int:
        return sum(1 for s in self.samples if s.additivity_held)


def axiom_suite(
    m: FPModule,
    cat: Subcategory,
    samples: Sequence[tuple[Submodule, Submodule, Homomorphism | None]],
) -> AxiomReport:
    """Check the closure axioms on sampled (N, N', f) triples.

    Per sample: N and its closure witness extension and idempotency; the pair
    (N, N') witnesses monotonicity when comparable and additivity always; a
    homomorphism f out of M (when given) witnesses continuity:
    f(closure(N)) must land inside closure(f(N)).
    """
    results = []
    for n1, n2, f in samples:
        c1 = regular_closure(m, n1, cat).closure
        c2 = regular_closure(m, n2, cat).closure
        extension = n1.is_subset_of(c1) and n2.is_subset_of(c2)

        if n1.is_subset_of(n2):
            mono_applicable, mono = True, c1.is_subset_of(c2)
        elif n2.is_subset_of(n1):
            mono_applicable, mono = True, c2.is_subset_of(c1)
        else:
            mono_applicable, mono = False, True

        idem = regular_closure(m, c1, cat).closure == c1

        if f is not None:
            if f.dom != m:
                raise ValueError("sample homomorphism must start at the module")
            img_of_closure = sub_image(f, c1)
            closure_of_img = regular_closure(f.cod, sub_image(f, n1), cat).closure
            cont_applicable = True
            cont = img_of_closure.is_subset_of(closure_of_img)
        else:
            cont_applicable, cont = False, True

        join_closure = regular_closure(m, sub_join(n1, n2), cat).closure
        additivity = join_closure == sub_join(c1, c2)

        results.append(
            AxiomSampleResult(
                extension=extension,
                monotonicity_applicable=mono_applicable,
                monotonicity=mono,
                idempotency=idem,
                continuity_applicable=cont_applicable,
                continuity=cont,
                additivity_held=additivity,
            )
        )
    return AxiomReport(samples=tuple(results))
