"""Size constants derived from a transducer, and the symbolic master bound.

The master bound grows like 2^(3 * effect_count) and is astronomically large
for machines with two or more states, so it is kept in factored form.  All
comparisons against word lengths go through :meth:`BoundFactored.admits`,
which builds the bound only when 2^exponent is at most the compared length.
"""
from __future__ import annotations

from typing import NamedTuple, Union


class BoundFactored(NamedTuple):
    """The bound c_max * h_max * (2**exponent + 4), kept factored."""

    c_max: int
    h_max: int
    exponent: int

    def admits(self, n: int) -> bool:
        """Exact test for n <= bound.  A nonzero bound is at least
        2^exponent, so it admits any n of at most `exponent` bits, and it is
        built only when 2^exponent <= n."""
        ch = self.c_max * self.h_max
        return n <= 0 or (ch > 0 and (n.bit_length() <= self.exponent
                                      or n <= ch * ((1 << self.exponent) + 4)))

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
