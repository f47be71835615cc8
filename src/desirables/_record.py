"""Frozen records: what ``dataclass(frozen=True)`` generates, without generating code.

A subclass's annotated class attributes are its fields, in order, and their
class values are defaults.  The decorator compiles methods for each class it
decorates; a record's methods are shared and read the field names instead.
"""

from dataclasses import FrozenInstanceError


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(self._fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {self._fields!r}; "
                f"got {len(args)} positional and the keywords {sorted(kwargs)!r}"
            )
        for field in self._fields:
            object.__setattr__(self, field, values[field])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
