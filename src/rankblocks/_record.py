"""The immutable value record behind the enumeration side's objects, the rule
their integer fields share, and the packed-polynomial format of its three DPs
(the census, the poset-partition histogram and the marked-path table).

Hand-written instead of ``dataclasses``: that module's import pulls in
``inspect``, ``ast`` and ``dis``, and its class building runs again in every
cold process, which the CLI is.
"""

from math import inf
from operator import attrgetter

# What a record's ``__init__`` stores its fields with, past the refusing
# ``__setattr__``.
setfield = object.__setattr__


class Record:
    """A record whose public fields are the names in its class's ``__slots__``
    tuple that do not start with ``_``, in constructor order.

    A subclass's ``__init__`` converts and validates its arguments and stores
    them with :data:`setfield`.  Records are equal when they are of the same
    class with equal fields, hash as the tuple of their fields, repr as
    ``Name(field=value, ...)``, refuse assignment and deletion, and pickle and
    copy by calling the constructor again, which validates.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if not cls.__slots__:
            return  # a subclass that adds no slot keeps its base's fields
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


def check_ints(row, what, low=-inf, gap=None, order=None):
    """Refuse a row of integer fields at its first fault in scan order.

    Every entry must be an int or an int subclass (never a bool, a float or a
    string) of at least ``low``, or ValueError ``"<what>, got <entry>"`` names
    it.  Given a ``gap``, each entry must also lie at least ``gap`` below the
    one before it (1: strictly decreasing, 0: weakly), or ValueError
    ``"<order>, got <row>"`` names the row.
    """
    prev = None
    for x in row:
        if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))
                or x < low):
            raise ValueError(f"{what}, got {x!r}")
        if gap is not None:
            if prev is not None and prev - x < gap:
                raise ValueError(f"{order}, got {row}")
            prev = x


# The packed format.  A DP holds each polynomial with nonnegative integer
# coefficients as one int, the coefficient of q^e in bit field e, ``width``
# bits wide (Kronecker substitution).  Adding two ints then adds their
# polynomials, and a shift by e * width multiplies by q^e, as long as no
# coefficient carries into the field above it.  Each DP proves a bound on every
# coefficient it forms and takes its width from field_width: the bound's bits
# and one guard bit above them, which a coefficient within the bound leaves
# zero.  A check from guard turns a set guard bit into an OverflowError.  Each
# DP checks values that dominate what it formed since its last check, so a
# coefficient that has reached its guard bit raises there, unless it has grown
# past the whole field in between and carried on: only the proved bound rules
# that out, and the guard catches a bound the code no longer meets.


def field_width(bound: int) -> int:
    """Bits per field for coefficients of at most ``bound``: the bound's bits
    and one guard bit."""
    return bound.bit_length() + 1


def low_fields(count: int, width: int) -> int:
    """The mask of the lowest ``count`` fields."""
    return (1 << width * count) - 1


def guard(count: int, width: int, dp: str):
    """A check ``(packed, point)`` that raises OverflowError, naming ``dp`` and
    the point, when ``packed`` sets the guard bit of one of its lowest
    ``count`` fields."""
    bits = low_fields(count, width) // low_fields(1, width) << width - 1

    def check(packed, point):
        if packed & bits:
            raise OverflowError(f"{dp}: a coefficient overflows its {width}-bit field "
                                f"at {point}")
    return check


def unpack(packed: int, width: int) -> list:
    """The fields of ``packed``, lowest first, up to its highest set bit."""
    field = low_fields(1, width)
    return [packed >> k & field for k in range(0, packed.bit_length(), width)]
