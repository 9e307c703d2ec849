"""Size constants derived from a transducer, and the symbolic master bound.

The master bound grows like 2^(3 * effect_count) and is astronomically large
for machines with two or more states, so it is kept in factored form and only
materialized when the exponent fits under a configurable bit cap.  All
comparisons against word lengths go through :meth:`BoundFactored.admits`,
which never materializes more than it has to.
"""
from __future__ import annotations

from typing import NamedTuple, Union

DEFAULT_BIT_CAP = 1 << 20


class BoundOverflowError(Exception):
    """Materializing a bound whose exponent exceeds the bit cap."""


class BoundFactored(NamedTuple):
    """The bound c_max * h_max * (2**exponent + 4), kept factored."""

    c_max: int
    h_max: int
    exponent: int

    def materialize(self, bit_cap: int = DEFAULT_BIT_CAP) -> int:
        if self.c_max == 0 or self.h_max == 0:
            return 0
        if self.exponent > bit_cap:
            raise BoundOverflowError(
                f"bound exponent {self.exponent} exceeds bit cap {bit_cap}")
        return self.c_max * self.h_max * ((1 << self.exponent) + 4)

    def admits(self, n: int) -> bool:
        """Exact test for n <= bound, without materializing huge powers."""
        if n <= 0:
            return True
        if self.c_max == 0 or self.h_max == 0:
            return False
        # c, h >= 1, so bound >= 2^exponent; n <= 2^exponent iff it fits.
        if n.bit_length() <= self.exponent:
            return True
        # Here exponent < bit_length(n), so the value is small enough to build.
        return n <= self.materialize(bit_cap=max(self.exponent, 64))

    def bit_length(self) -> int:
        if self.c_max == 0 or self.h_max == 0:
            return 0
        # (c*h) * 2^exponent dominates; the +4*c*h term never carries past it
        # unless exponent is tiny, in which case we can afford to materialize.
        if self.exponent <= 64:
            return self.materialize().bit_length()
        return (self.c_max * self.h_max).bit_length() + self.exponent

    def __str__(self) -> str:
        return f"{self.c_max}*{self.h_max}*(2^{self.exponent}+4)"


def compare_on(*names: str):
    """Class decorator: `==` and `hash` of a named tuple look at the fields
    `names` only, in that order, and never equal another class."""
    def decorate(cls):
        idx = [cls._fields.index(n) for n in names]

        def key(record):
            return tuple([record[i] for i in idx])

        def eq(a, b):
            return b.__class__ is a.__class__ and key(a) == key(b)

        cls.__eq__, cls.__ne__ = eq, lambda a, b: not eq(a, b)
        cls.__hash__ = lambda record: hash(key(record))
        return cls
    return decorate


# A period bound is either a concrete integer or the symbolic master bound.
PeriodBound = Union[int, BoundFactored]


def bound_admits(bound: PeriodBound, n: int) -> bool:
    if isinstance(bound, BoundFactored):
        return bound.admits(n)
    return n <= bound
