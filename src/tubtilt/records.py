"""Immutable value records, written out by hand.

The library's value types (slopes, classes, chart coordinates, tilting
objects, mutation events, budgets, expression nodes) are small
immutable records.  Each is a plain class that declares `__slots__` and
an `__init__` which stores its fields with `setfield`
(`object.__setattr__`, since assignment through the instance is
refused).  `Record` supplies the rest from the field names:

- equality: same class and equal fields, otherwise NotImplemented, so
  a record never equals a tuple or another record type;
- the hash of the field tuple, the value a frozen dataclass gives, so
  set and dict orders do not depend on how the records are written;
- the repr `Name(field=value, ...)`;
- pickling and copying, by calling the class on the field values;
- AttributeError on assigning or deleting a field.

The fields are the class's `__slots__`, unless it names them in
`_fields`; a slot left out of `_fields` is derived from the fields and
takes no part in equality, hash or repr.  Nothing here generates code,
so a record class costs what any class statement costs.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        # the field tuple; attrgetter returns a bare value for one name
        cls._values = get if len(fields) > 1 else staticmethod(lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
