"""Record against ``dataclass(frozen=True)``, with the standard library only.

Runs on any supported Python, without numpy, pytest or hypothesis::

    PYTHONPATH=src python tests/record_parity.py

and ``tests/test_records.py`` runs :func:`check` in the suite.  Each shape
(required and defaulted fields, ``__post_init__``, ``eq=False``, an own
``__eq__``, an own ``__init__``, a subclass, no fields) is declared once as a
Record and once as a frozen dataclass with the same name, and both are driven
through the same calls: the first construction (the one that compiles the
Record's ``__init__``) and later ones, valid and invalid.  Results, exception
types and messages, repr, ``==``, hash, frozen-attribute errors,
``__match_args__``, copies and deep copies must agree.
"""

import copy
import dataclasses
import sys

from desirables._record import Record


def _post_init(self):
    if self.v < 0:
        raise ValueError(f"v must be nonnegative, got {self.v!r}")
    object.__setattr__(self, "v", float(self.v))


def _own_eq(self, other):
    return self.a == other.a if isinstance(other, type(self)) else NotImplemented


def _own_init(self, rates):
    object.__setattr__(self, "rates", tuple(sorted(rates)))


# name: (annotations, defaults, methods, eq, parent shape)
SHAPES = {
    "Point": ({"x": "float", "y": "float"}, {"y": 0.0}, {}, True, None),
    "Scaled": ({"v": "float", "tag": "str"}, {"tag": ""}, {"__post_init__": _post_init}, True, None),
    "Ident": ({"a": "object", "b": "object"}, {"b": None}, {}, False, None),
    "OwnEq": ({"a": "object"}, {}, {"__eq__": _own_eq}, False, None),
    "OwnInit": ({"rates": "tuple"}, {}, {"__init__": _own_init}, True, None),
    "Child": ({"z": "float"}, {"z": 1.0}, {}, True, "Point"),
    "Empty": ({}, {}, {}, True, None),
}

CALLS = [
    ((), {"no_such_field": 1}),
    ((1, 2, 3, 4, 5), {}),
    ((), {}),
    ((1,), {}),
    ((2,), {}),
    ((1, 2), {}),
    ((), {"x": 1, "y": 2}),
    ((1,), {"x": 1}),
    ((-1,), {}),
    ((3,), {"v": 3}),
    (([2, 1],), {}),
    ((), {"a": [1]}),
    ((), {"rates": (2, 1)}),
    ((1, 2), {"z": 3}),
]


def declare():
    """The Record class and the dataclass twin of each shape, by name."""
    records, twins = {}, {}
    for name, (annotations, defaults, methods, eq, parent) in SHAPES.items():
        body = {"__annotations__": annotations, **defaults, **methods}
        record_base = records[parent] if parent else Record
        records[name] = type(name, (record_base,), dict(body), eq=eq)
        twin_bases = (twins[parent],) if parent else ()
        twins[name] = dataclasses.dataclass(frozen=True, eq=eq)(type(name, twin_bases, dict(body)))
    return records, twins


def outcome(cls, args, kwargs):
    try:
        return cls(*args, **kwargs), None
    except Exception as exc:  # compared with the twin's, type and message
        return None, (type(exc), str(exc))


def hashed(obj):
    try:
        return hash(obj) if type(obj).__hash__ is not object.__hash__ else "identity"
    except TypeError as exc:
        return str(exc)


def frozen_errors(obj, names):
    messages = []
    for name in names:
        for action in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
            try:
                action()
            except dataclasses.FrozenInstanceError as exc:
                messages.append(str(exc))
    return messages


def observe(obj, other, names):
    """Everything a caller can see of ``obj``, with ``other`` a second valid instance."""
    clone, deep = copy.copy(obj), copy.deepcopy(obj)
    return (
        repr(obj),
        obj == other,
        obj != other,
        obj == clone,
        obj == 1,
        hashed(obj),
        frozen_errors(obj, (*names, "extra")),
        (repr(clone), repr(deep), type(deep).__name__, deep == obj, hashed(deep) == hashed(obj)),
    )


def check():
    """Raise AssertionError naming the first shape and call where Record and dataclass differ."""
    records, twins = declare()
    for name in SHAPES:
        record, twin = records[name], twins[name]
        assert record.__match_args__ == twin.__match_args__, name
        made = []
        for args, kwargs in CALLS:
            mine, theirs = outcome(record, args, kwargs), outcome(twin, args, kwargs)
            assert mine[1] == theirs[1], (name, args, kwargs, mine[1], theirs[1])
            if mine[0] is not None:
                made.append((mine[0], theirs[0]))
        assert made, name
        for (obj, t), (other, t_other) in zip(made, made[1:] + made[:1]):
            names = record.__match_args__
            assert observe(obj, other, names) == observe(t, t_other, names), (name, obj)
    body = {"__annotations__": {"a": "int", "b": "int"}, "a": 0}
    for declare_bad in (
        lambda: type("Bad", (Record,), dict(body)),
        lambda: dataclasses.dataclass(frozen=True)(type("Bad", (), dict(body))),
    ):
        try:  # a field without a default after one with a default
            declare_bad()
        except TypeError as exc:
            assert str(exc).startswith("non-default argument 'b' follows default argument"), exc
        else:
            raise AssertionError("Bad was declared")


if __name__ == "__main__":
    check()
    print(f"record parity ok on Python {sys.version.split()[0]}: {len(SHAPES)} shapes, {len(CALLS)} calls")
