"""Brute-force oracles: slow, independent recomputations used for checking.

Nothing here shares an algorithm with the code path it checks: determinants
come from cofactor expansion, closures from full homomorphism enumeration.
Desk scale only.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING

from .errors import OracleInfeasibleError
from .matrices import IntMatrix
from .rings import ZZ

if TYPE_CHECKING:
    from .closure import Subcategory
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
    independent formulas: annihilator-by-exponent for Q, and for Q/Z the
    identity rule is cross-checked by a separation scan when feasible.
    """
    from .closure import DivisibleModule
    from .homs import Homomorphism, enumerate_homs, kernel_of_hom
    from .modules import quotient_module, sub_meet

    q = quotient_module(m, n)
    running = m.whole_submodule()
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
    scaled = IntMatrix(
        [[e if i == j else 0 for j in range(m.n_gens)] for i in range(m.n_gens)], ZZ
    )
    pre = n.lattice.preimage(scaled)
    return Submodule(m, pre.basis_matrix(m.ring))


def separates_every_nonzero_element(m: FPModule, n: Submodule, cap: int = 200_000) -> bool:
    """Check that maps into cyclic pieces of Q/Z separate M/N.

    For each nonzero element of the (finite) quotient there must be a
    homomorphism into Z/e, e the exponent of the quotient, not killing it.
    This is the enumeration oracle behind "every submodule is closed under
    the rationals-mod-1 rule".
    """
    from .homs import enumerate_homs
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
    for x in q.elements():
        if x.is_zero:
            continue
        if not any(not h(x).is_zero for h in homs):
            return False
    return True
