"""Records whose fields are their ``__slots__``, set by their own ``__init__``.

jarscan declares no data classes (PEP 557). Importing their module costs
about 4 ms, since it imports ``inspect``, ``ast`` and ``dis``, and their
decorator runs about 0.45 ms of generated code as each class is created:
8-9 ms for the 18 classes on the import path of every ``jarscan``
command, 23 ms for all 51 once the IR modules load (Python 3.11). An
immutable record that never holds an IR operand is a
``typing.NamedTuple``; the others subclass ``Record``, or ``Frozen``
when they must refuse assignment.
"""

from __future__ import annotations


class Record:
    """A record equal to a record of its own class with equal fields, and
    unhashable, as a mutable record should be. Its repr names each field."""

    __slots__ = ()
    __hash__ = None

    def _key(self) -> tuple:
        """The fields equality and hashing compare."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A Record that refuses assignment and hashes its compared fields.
    Its ``__init__`` sets each field with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
