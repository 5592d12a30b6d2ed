"""The immutable value record behind the enumeration side's objects, and the
rule their integer fields share.

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
