"""The two bases of the immutable records, plain classes with
``__slots__`` so that a CLI start never imports ``dataclasses``.

A :class:`Frozen` record sets its fields once, in ``__init__``, through
:meth:`Frozen._set`, and refuses every later assignment; it compares by
identity.  A :class:`Value` record also compares and hashes by its
fields, and only against a record of its own type.
"""
from __future__ import annotations


class Frozen:
    """A record whose fields are set once and never reassigned."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class Value(Frozen):
    """A frozen record compared and hashed by its ``__slots__`` fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())
