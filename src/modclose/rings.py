"""Base rings of scalars: the integers, or the integers modulo n, the
divisors of a modulus (the ideals of Z/n), and the part of a number on the
primes of another."""

from __future__ import annotations

from math import gcd, isqrt
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


def _divisors(n: int, limit: int) -> list[int]:
    """The divisors ``d`` of ``n`` with ``2 <= d <= limit``, ascending, found
    in at most ``min(limit, sqrt(n))`` trial divisions."""
    root = isqrt(n)
    small = [d for d in range(2, min(root, limit) + 1) if n % d == 0]
    large = [
        n // d for d in reversed([1] + small) if d * d != n and n // d <= limit
    ]
    return small + large


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
