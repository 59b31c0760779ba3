"""Brute-force oracles: slow, independent recomputations used for checking.

Nothing here shares an algorithm with the code path it checks: determinants
come from cofactor expansion, closures from full homomorphism enumeration,
hom sets from every assignment of generator images, closedness from a scan
of all submodules of the quotient.  The closure-operator axiom suite and the
``--oracle`` check of each command live here too.  Desk scale only.

This module loads only when an oracle runs, and imports the closure, hom,
module and element code only in the functions that use it.  The homs of each
pair (M, N) that ``enumerate_homs`` lists are memoized in a
``functools.lru_cache`` of 1024 entries (``_all_homs``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import OracleInfeasibleError
from .rings import ZZ

if TYPE_CHECKING:
    from .closure import Subcategory
    from .homs import Homomorphism
    from .intmatrix import IntMatrix
    from .modules import FPModule, Submodule


def det_cofactor(rows) -> int:
    """Determinant by Laplace expansion on the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return rows[0][0]
    total = 0
    rest = rows[1:]
    for j, x in enumerate(rows[0]):
        if not x:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rest]
        total += (-1) ** j * x * det_cofactor(minor)
    return total


def minor_gcd(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    if k < 1 or k > min(a.rows, a.cols):
        raise ValueError(f"no {k}x{k} minors in a {a.rows}x{a.cols} matrix")
    g = 0
    for rs in combinations(range(a.rows), k):
        for cs in combinations(range(a.cols), k):
            sub = [[a.entries[i][j] for j in cs] for i in rs]
            g = gcd(g, det_cofactor(sub))
            if g == 1:
                return 1
    return g


def closure_by_full_enumeration(
    m: FPModule, n: Submodule, cat: Subcategory, cap: int = 200_000
) -> Submodule:
    """Recompute the regular closure by intersecting the kernels of *all*
    homomorphisms (not just hom-group generators) from M/N into each object.

    Finite objects require a finite quotient; divisible objects use
    independent formulas: annihilator-by-exponent for Q, N itself for Q/Z.
    """
    from .closure import DivisibleModule
    from .elements import kernel_of_hom, sub_meet, whole_submodule
    from .homs import Homomorphism
    from .modules import quotient_module

    q = quotient_module(m, n)
    running = whole_submodule(m)
    for obj in cat.finite_objects:
        for h in enumerate_homs(q, obj, cap):
            lifted = Homomorphism(m, obj, h.matrix)
            running = sub_meet(running, kernel_of_hom(lifted))
    for div in cat.divisible_objects:
        if div is DivisibleModule.Q:
            running = sub_meet(running, torsion_preimage_by_exponent(m, n))
        else:
            running = sub_meet(running, n)
    return running


def torsion_preimage_by_exponent(m: FPModule, n: Submodule) -> Submodule:
    """Preimage of the torsion part of M/N, via the torsion exponent.

    An element maps to torsion exactly when the product of the nonzero
    invariant factors of M/N multiplies it into the relation lattice of the
    quotient; this avoids the saturation computation entirely.
    """
    from .modules import Submodule, quotient_module

    if m.ring.is_modular:
        raise ValueError("the torsion preimage rule is for modules over the integers")
    q = quotient_module(m, n)
    e = 1
    for f in q.invariant_factors:
        if f:
            e *= f
    scaled = [tuple(e * (i == j) for i in range(m.n_gens)) for j in range(m.n_gens)]
    return Submodule(m, n.lattice.preimage(scaled))


def separates_every_nonzero_element(m: FPModule, n: Submodule, cap: int = 200_000) -> bool:
    """Check that maps into cyclic pieces of Q/Z separate M/N.

    For each nonzero element of the (finite) quotient there must be a
    homomorphism into Z/e, e the exponent of the quotient, not killing it.
    This is the enumeration oracle behind "every submodule is closed under
    the rationals-mod-1 rule".
    """
    from .elements import hom_apply, module_elements
    from .modules import FPModule, quotient_module

    if m.ring.is_modular:
        raise ValueError("the separation scan is for modules over the integers")
    q = quotient_module(m, n)
    if not q.is_finite:
        raise OracleInfeasibleError(
            "oracle infeasible: the quotient module is infinite"
        )
    if q.is_zero:
        return True
    e = 1
    for f in q.invariant_factors:
        e *= f
    cyclic = FPModule(ZZ, 1, [(e,)])
    homs = enumerate_homs(q, cyclic, cap)
    for x in module_elements(q):
        if x.is_zero:
            continue
        if not any(not hom_apply(h, x).is_zero for h in homs):
            return False
    return True


def enumerate_homs(m: FPModule, n: FPModule, cap: int = 200_000) -> list[Homomorphism]:
    """The complete list of homomorphisms M -> N, by brute force.

    Enumerates every assignment of generator images (elements of N in
    lexicographic coordinate order) and keeps the ones passing the
    well-definedness certificate.  Raises :class:`OracleInfeasibleError` when
    the assignment count exceeds ``cap``; it never truncates silently.
    """
    if m.ring != n.ring:
        raise ValueError("hom enumeration needs a common ring")
    if not (m.is_finite and n.is_finite):
        raise OracleInfeasibleError("oracle infeasible: both modules must be finite")
    total = (n.order() or 0) ** m.n_gens
    if total > cap:
        raise OracleInfeasibleError(
            f"oracle infeasible: {total} generator assignments exceed cap {cap}"
        )
    return list(_all_homs(m, n))


# Memo size 1024: one ``verify --oracle`` fills an entry per (universe
# object, subcategory object) pair, at most a few hundred at desk scale.
@lru_cache(maxsize=1024)
def _all_homs(m: FPModule, n: FPModule) -> tuple:
    """Every homomorphism M -> N of finite modules, by ``enumerate_homs``'s
    brute force, without its checks."""
    from .elements import _is_compatible, module_elements
    from .homs import Homomorphism, _canonical_matrix

    targets = [x.coords for x in module_elements(n)]
    return tuple(
        Homomorphism._trusted(m, n, _canonical_matrix(n, assignment))
        for assignment in product(targets, repeat=m.n_gens)
        if _is_compatible(m, n, assignment)
    )


def is_hom_vanishing(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether Hom(M/N, A) = 0 for every object A, checked object by object.

    This is the independent density test: density of N must agree with it.
    Disagreement is surfaced by the verification suites, never reconciled
    silently here.
    """
    from .closure import _admits_nonzero_map, _check_compat
    from .modules import quotient_module

    _check_compat(m, n, cat)
    q = quotient_module(m, n)
    return not any(
        _admits_nonzero_map(q.invariant_factors, a)
        for a in cat.finite_objects + cat.divisible_objects
    )


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
    from .closure import _admits_nonzero_map, _check_compat
    from .elements import all_submodules, invariants_over, is_closed
    from .modules import quotient_module

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
        invariants = invariants_over(s.lattice, q.lattice)
        flags = [
            _admits_nonzero_map(invariants, a)
            for a in cat.finite_objects + cat.divisible_objects
        ]
        entries.append(
            ScanEntry(
                generators=s.canonical_gens,
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


class AxiomReport(NamedTuple):
    """Outcome of the closure-operator axiom checks on a list of samples.

    Extension, monotonicity, continuity and idempotency are requirements.
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


def axiom_suite(
    m: FPModule,
    cat: Subcategory,
    samples: Sequence[tuple[Submodule, Submodule, Homomorphism | None]],
) -> AxiomReport:
    """Check the closure axioms on sampled (N, N', f) triples.

    Per sample: N and its closure witness extension and idempotency; the pair
    (N, N') witnesses monotonicity when comparable; a homomorphism f out of
    M (when given) witnesses continuity:
    f(closure(N)) must land inside closure(f(N)).
    """
    from .closure import regular_closure
    from .elements import is_subset_of, sub_image

    results = []
    for n1, n2, f in samples:
        c1 = regular_closure(m, n1, cat).closure
        c2 = regular_closure(m, n2, cat).closure
        extension = is_subset_of(n1, c1) and is_subset_of(n2, c2)

        if is_subset_of(n1, n2):
            mono_applicable, mono = True, is_subset_of(c1, c2)
        elif is_subset_of(n2, n1):
            mono_applicable, mono = True, is_subset_of(c2, c1)
        else:
            mono_applicable, mono = False, True

        idem = regular_closure(m, c1, cat).closure == c1

        if f is not None:
            if f.dom != m:
                raise ValueError("sample homomorphism must start at the module")
            img_of_closure = sub_image(f, c1)
            closure_of_img = regular_closure(f.cod, sub_image(f, n1), cat).closure
            cont_applicable = True
            cont = is_subset_of(img_of_closure, closure_of_img)
        else:
            cont_applicable, cont = False, True

        results.append(
            AxiomSampleResult(
                extension=extension,
                monotonicity_applicable=mono_applicable,
                monotonicity=mono,
                idempotency=idem,
                continuity_applicable=cont_applicable,
                continuity=cont,
            )
        )
    return AxiomReport(samples=tuple(results))


# -- the ``--oracle`` checks of the commands ------------------------------------
#
# Each returns (agrees, the report's ``oracle`` entry); the command exits 1
# when the first is false.


def oracle_closure(m: FPModule, n: Submodule, cat: Subcategory, closure: Submodule):
    """``closure --oracle``: the closure recomputed by full enumeration."""
    recomputed = closure_by_full_enumeration(m, n, cat)
    agree = recomputed == closure
    return agree, {
        "agrees": agree,
        "closure_generators": [list(c) for c in recomputed.canonical_gens],
    }


def listed_class_pairs(m: FPModule) -> tuple:
    """The distinct (class of S, class of M/S), as invariant-factor chains,
    over the listed submodules S of the finite module ``m``, in first-seen
    order over ``all_submodules(m)``; both chains are read from S's preimage
    lattice.  The oracle of ``torsion.class_pair_support``."""
    from .elements import all_submodules, invariants_over

    return tuple(dict.fromkeys(
        (invariants_over(s.lattice, m.lattice), s.lattice.quotient_invariants())
        for s in all_submodules(m)
    ))


def oracle_verify(report, cat: Subcategory, label):
    """``verify --oracle``: every fast path of ``verify_torsion_theory``
    against its enumeration, with modules named by ``label``.

    Hom vanishing against :func:`enumerate_homs`, the chain test of the
    T -> F law against ``hom_group`` on every (T member, F member) pair,
    each object's class-pair set against the pairs of its listed
    submodules, each radical against the closure of zero by the same
    enumerated homs, T and F membership by chains against that enumerated
    radical (whole, zero), and direct sums by chains against the built sum
    modules.
    """
    from .elements import direct_sum, zero_submodule
    from .homs import hom_group
    from .torsion import _admits_nonzero_map, _in_torsion_class, _in_torsion_free_class
    from .torsion import _sum_chain

    universe = report.universe
    mismatches = []
    for x in universe.objects:
        for obj in cat.finite_objects:
            fast = not hom_group(x, obj).generators
            slow = len(enumerate_homs(x, obj)) == 1
            if fast != slow:
                mismatches.append({"module": label(x), "object": label(obj)})
    for x in report.T_members:
        for y in report.F_members:
            fast = _admits_nonzero_map(x.invariant_factors, y)
            slow = bool(hom_group(x, y).generators)
            if fast != slow:
                mismatches.append({
                    "from": label(x),
                    "to": label(y),
                    "nonzero_by_chain": fast,
                    "nonzero_by_hom_group": slow,
                })
    for x, support in zip(universe.objects, universe.pair_sets):
        listed = set(listed_class_pairs(x))
        if support != listed:
            mismatches.append({
                "module": label(x),
                "pairs_not_listed": [list(p) for p in sorted(support - listed)],
                "pairs_not_in_support": [list(p) for p in sorted(listed - support)],
            })
    for x, t in report.radical_table:
        slow = closure_by_full_enumeration(x, zero_submodule(x), cat)
        if slow != t:
            mismatches.append({
                "module": label(x),
                "radical_by_enumeration": [list(c) for c in slow.canonical_gens],
            })
        fast = _in_torsion_class(x.invariant_factors, cat)
        if fast != slow.is_whole:
            mismatches.append({
                "module": label(x),
                "torsion_by_chain": fast,
                "torsion_by_radical": slow.is_whole,
            })
        fast = _in_torsion_free_class(x.invariant_factors, cat)
        if fast != slow.is_zero:
            mismatches.append({
                "module": label(x),
                "torsion_free_by_chain": fast,
                "torsion_free_by_radical": slow.is_zero,
            })
    objects = universe.objects
    for i, x in enumerate(objects):
        for y in objects[i:]:
            fast = _sum_chain(x.invariant_factors, y.invariant_factors)
            slow = direct_sum(x, y).invariant_factors
            if fast != slow:
                mismatches.append({
                    "left": label(x),
                    "right": label(y),
                    "sum_chain": list(fast),
                    "direct_sum": list(slow),
                })
    return not mismatches, {"agrees": not mismatches, "mismatches": mismatches}


# Largest matrix side ``snf --oracle`` expands by cofactors.  Its work grows
# with each side: at most 2,612,583 ``det_cofactor`` calls for an 8x8 matrix,
# up to 31 million for a 9x9 one (7.7 s for a random one on a 2-core VM).
COFACTOR_SIDE_CAP = 8


def oracle_snf(a: IntMatrix, res):
    """``snf --oracle``: unimodular transforms by cofactor determinants, and
    the diagonal's prefix products against the gcds of the minors."""
    if max(a.rows, a.cols) > COFACTOR_SIDE_CAP:
        raise OracleInfeasibleError(
            f"oracle infeasible: a {a.rows}x{a.cols} matrix is past the cofactor "
            f"cap of {COFACTOR_SIDE_CAP} rows and columns"
        )
    checks = {"unimodular": True, "determinant_divisors": True}
    if abs(det_cofactor([list(r) for r in res.u.entries])) != 1:
        checks["unimodular"] = False
    if abs(det_cofactor([list(r) for r in res.v.entries])) != 1:
        checks["unimodular"] = False
    prod = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        dk = res.diagonal[k - 1]
        prod = prod * dk if dk else 0
        if minor_gcd(a, k) != prod:
            checks["determinant_divisors"] = False
    return all(checks.values()), checks


def oracle_hom(hg):
    """``hom --oracle``: the span of the generators against the enumerated
    hom set; infeasible for an infinite hom group."""
    from .elements import hom_group_elements, hom_group_order

    if not hom_group_order(hg):
        raise OracleInfeasibleError("oracle infeasible: the hom group is infinite")
    spanned = {h.rows for h in hom_group_elements(hg)}
    listed = {h.rows for h in enumerate_homs(hg.dom, hg.cod)}
    agree = spanned == listed
    return agree, {"agrees": agree, "hom_count": len(listed)}


def _hom_to_z(m: FPModule):
    """Hom(M, Z), the oracle of ``bounded`` and ``free-rank``."""
    from .homs import hom_group
    from .modules import FPModule

    return hom_group(m, FPModule(ZZ, 1))


def oracle_bounded(m: FPModule, bounded: bool):
    """``bounded --oracle``: M is bounded iff Hom(M, Z) = 0."""
    agree = (not _hom_to_z(m).generators) == bounded
    return agree, {"agrees": agree}


def oracle_free_rank(m: FPModule, rank: int):
    """``free-rank --oracle``: the free rank of Hom(M, Z)."""
    rank_by_hom = sum(1 for d in _hom_to_z(m).structure if d == 0)
    agree = rank_by_hom == rank
    return agree, {"agrees": agree, "rank_by_hom": rank_by_hom}
