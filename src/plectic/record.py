"""Immutable records: the value classes of the package derive from ``Record``.

A record's fields are its class's own annotations, in order, after those it
inherits; a class attribute is the field's default.  Defaults are shared
class attributes, given as they are to every record that omits the field,
so they must be immutable.  Records are frozen, compare and hash by type
and field values, and ``replace`` builds a new record, so ``__post_init__``
validates it again; it may normalise a field with ``object.__setattr__``.

The methods are written once here, not generated per class at import time:
for a one-shot command the standard library's class generator and its
imports cost more start-up time than the verification work takes.
"""

from __future__ import annotations


class FrozenError(AttributeError):
    """An attempt to set or delete a field of a record."""


class Record:
    """Base of an immutable value class; see the module docstring."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        # attribute by attribute: reading ``__dict__`` would turn the instance's
        # compact attribute storage into a plain dict and slow every field read
        for f, value in zip(self._fields, args):
            object.__setattr__(self, f, value)
        self.__post_init__()

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, for a call that did not give them all by position."""
        name, fields, defaults = type(self).__name__, self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
        rest = fields[len(args) :]
        missing = [f for f in rest if f not in kwargs and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing fields: {', '.join(missing)}")
        return [*args, *[kwargs[f] if f in kwargs else defaults[f] for f in rest]]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def replace(self, **changes):
        """A new record with ``changes`` applied, validated again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, key, value):
        raise FrozenError(f"cannot assign to {key!r} of a frozen {type(self).__name__}")

    def __delattr__(self, key):
        raise FrozenError(f"cannot delete {key!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"
