"""Base rings of scalars: the integers, or the integers modulo n, the part
of a number on the primes of another, and the regrouping of a sum of cyclic
groups into invariant factors.  The divisors of a modulus (the ideals of
Z/n) are read from its factorization in :mod:`modclose.torsion`."""

from __future__ import annotations

from math import gcd
from operator import index


class Ring:
    """The coefficient ring.

    ``modulus == 0`` means the ring of integers; ``modulus == n >= 2`` means
    the integers modulo n.  Modular values are kept reduced into ``[0, n)``.
    Rings are immutable and compare and hash by modulus.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = 0) -> None:
        modulus = index(modulus)
        if modulus < 0 or modulus == 1:
            raise ValueError(
                f"ring modulus must be 0 (integers) or >= 2, got {modulus}"
            )
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: rings are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Ring, (self.modulus,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Ring:
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus,))

    def __repr__(self) -> str:
        return f"Ring(modulus={self.modulus!r})"

    @property
    def is_modular(self) -> bool:
        return self.modulus != 0

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def __str__(self) -> str:
        return f"Z/{self.modulus}" if self.modulus else "Z"


#: The ring of integers.
ZZ = Ring(0)


def Zmod(n: int) -> Ring:
    """The ring of integers modulo ``n`` (requires ``n >= 2``)."""
    if n < 2:
        raise ValueError(f"integers mod n need n >= 2, got {n}")
    return Ring(n)


def _seen_part(d: int, e: int) -> int:
    """The largest divisor of ``d >= 1`` whose primes all divide ``e``: all
    of ``d`` when ``e`` is 0 (every prime divides 0), 1 when ``e`` is 1.

    Each pass moves ``g`` from the cofactor into the part, and the next
    ``g`` is the gcd of the cofactor with the last one (the first is
    ``gcd(d, e)``), so nothing is factored and the loop runs at most log2(d)
    times.
    """
    part, rest, g = 1, d, gcd(d, e)
    while g != 1:
        part *= g
        rest //= g
        g = gcd(rest, g)
    return part


def _regroup(orders: list[int] | tuple[int, ...]) -> tuple[tuple, tuple]:
    """The invariant factors of the sum of the cyclic pieces Z/orders[k] (an
    order 0 is Z), in divisibility order with 0 last and units dropped, and
    for each a generator ``{k: coefficient}`` over the pieces, each
    coefficient reduced modulo its piece's order.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so replacing each pair of
    factors at positions i < j by their gcd and lcm in turn leaves every
    factor dividing the later ones (Fuchs, *Infinite Abelian Groups* I,
    section 15).  When a does not divide b, gcds alone give coprime x | a
    and y | b with x*y = lcm(a, b): start from x = a, y = b / gcd(a, b) and
    move h = gcd(x, y) from x into y until h = 1.  Then (a/x)*g_a + (b/y)*g_b
    has order x*y, the lcm, and x*g_a + y*g_b has order (a/x)*(b/y), the
    gcd; on each prime one of them is the whole p-part of g_a and the other
    that of g_b, so together they generate the pair's sum.  A free piece
    (0) is swapped towards the end.
    """
    chain = list(orders)
    gens = [{k: 1} for k in range(len(chain))]

    def combine(ga, s, gb, t):
        out = {}
        for g, c in ((ga, s), (gb, t)):
            for k, v in g.items():
                v = out.get(k, 0) + c * v
                out[k] = v % orders[k] if orders[k] else v
        return {k: v for k, v in out.items() if v}

    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            if (b % a == 0) if a else b == 0:
                continue
            if not a:
                chain[i], chain[j] = b, 0
                gens[i], gens[j] = gens[j], gens[i]
                continue
            g = gcd(a, b)
            x, y = a, b // g
            h = gcd(x, y)
            while h != 1:
                x, y = x // h, y * h
                h = gcd(x, y)
            ga, gb = gens[i], gens[j]
            chain[i], chain[j] = g, x * y
            gens[i], gens[j] = combine(ga, x, gb, y), combine(ga, a // x, gb, b // y)
    kept = [t for t, f in enumerate(chain) if f != 1]
    return tuple(chain[t] for t in kept), tuple(gens[t] for t in kept)
