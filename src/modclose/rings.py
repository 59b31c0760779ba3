"""Base rings of scalars: the integers, or the integers modulo n."""

from __future__ import annotations


class Ring:
    """The coefficient ring.

    ``modulus == 0`` means the ring of integers; ``modulus == n >= 2`` means
    the integers modulo n.  Modular values are kept reduced into ``[0, n)``.
    Rings are immutable and compare and hash by modulus.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = 0) -> None:
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
