"""Frozen records: what ``dataclass(frozen=True)`` generates, with ``__init__`` compiled on first use.

A subclass's annotated class attributes are its fields, in order; their class
values are defaults.  The methods are shared and read the field names, except
``__init__``: a class's first construction compiles and installs the one the
decorator generates.  ``eq=False`` keeps identity equality, as in a dataclass.
"""


def _compiling_init(cls):
    def __init__(self, *args, **kwargs):
        params = [f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._fields]
        body = [f"_setattr(self, {f!r}, {f})" for f in cls._fields]
        body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else ["pass"]
        source = f"def __init__({', '.join(['self', *params])}):\n    " + "\n    ".join(body)
        namespace = {"_defaults": cls._defaults, "_setattr": object.__setattr__}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__(self, *args, **kwargs)

    return __init__


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        for name, following in zip(cls._fields, cls._fields[1:]):
            if name in cls._defaults and following not in cls._defaults:
                raise TypeError(f"non-default argument {following!r} follows default argument")
        if "__init__" not in vars(cls):
            cls.__init__ = _compiling_init(cls)
        if not eq and "__eq__" not in vars(cls):
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

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

    # dataclasses is imported only to raise: it imports inspect, ast, dis and tokenize.
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
