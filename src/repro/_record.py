"""Plain slotted value classes.

A ``@dataclass`` generates its methods with ``exec`` when its module is
imported, and importing :mod:`dataclasses` loads ``inspect`` and its
own imports with it, all paid by every fresh ``repro`` process before
its request starts. The classes a request builds derive from
:class:`Record` or :class:`FrozenRecord` instead and write their own
``__init__``. Each lists its fields in ``_fields``, in constructor
order; equality and ``repr`` compare and print those, as a dataclass
does.
"""

from __future__ import annotations

from typing import Tuple


class Record:
    """Value equality and a dataclass-style ``repr`` over ``_fields``.
    Like a non-frozen dataclass, a record is unhashable."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._fields
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"


#: Sets a field of a :class:`FrozenRecord` in its ``__init__``.
setfield = object.__setattr__


class FrozenRecord(Record):
    """A :class:`Record` that hashes by value and whose fields cannot be
    rebound, like a frozen dataclass. Its ``__init__`` sets each field
    with :data:`setfield`; it pickles as a constructor call over
    ``_fields``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
