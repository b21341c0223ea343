"""Immutable value records, defined without generated code.

`Record` gives a `__slots__` class the behaviour of a frozen dataclass:
equality and hashing by the fields `_fields` names, between instances of
one class only; a `Name(field=value, ...)` repr; fields that cannot be
assigned once `__init__` has set them with `set_field`; and pickling and
copying through the constructor, which takes the fields in order.  A
record whose tuple behaviour cannot leak (no validation, and no record of
another class it could equal) is a `typing.NamedTuple` instead.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
