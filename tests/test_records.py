"""The utility, phi, discount and eta kinds and their reports behave as frozen dataclasses.

Each record is compared with a ``dataclasses.dataclass(frozen=True)`` twin
built from the same field names, defaults and values: repr, equality,
hashing, immutability, argument errors, ``__match_args__`` and deep copies.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from desirables import (
    AdmissibilityReport,
    Composed,
    ConstraintReport,
    Exponential,
    GeneralizedHyperbolic,
    Hybrid,
    Hyperbolic,
    InverseLog,
    Linear,
    LogShift,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    PowerDiscounted,
    QuasiHyperbolic,
    ScaleDependent,
    Sqrt,
    StateDependent,
    TabulatedEta,
)
from desirables import discount, utility

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
unit_open = st.floats(min_value=1e-6, max_value=1 - 1e-6)
simple_utilities = st.sampled_from([Linear(), LogShift(), Sqrt()])
increasing = st.lists(finite, min_size=1, max_size=4, unique=True).map(sorted).map(tuple)

phis = st.one_of(
    positive.map(PhiScale),
    positive.map(PhiPower),
    st.lists(st.floats(min_value=-10, max_value=10), max_size=3).map(
        lambda cs: PhiPoly((0.0, *cs))
    ),
    st.tuples(positive, positive, positive, positive).map(
        lambda v: PhiTable((-v[0], 0.0, v[1]), (-v[2], 0.0, v[3]))
    ),
)
utilities = st.one_of(
    simple_utilities,
    st.floats(min_value=0.0, max_value=0.99).map(PowerDiscounted),
    st.builds(Composed, simple_utilities, phis),
)
etas = st.one_of(
    st.floats(min_value=1.001, max_value=1e6).map(InverseLog),
    increasing.flatmap(
        lambda xs: st.lists(positive, min_size=len(xs), max_size=len(xs)).map(
            lambda ys: TabulatedEta(xs, tuple(ys))
        )
    ),
)
primitive_discounts = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(Exponential),
    positive.map(Hyperbolic),
    st.builds(QuasiHyperbolic, st.floats(min_value=1e-6, max_value=1.0), unit_open),
    st.builds(GeneralizedHyperbolic, positive, positive),
    st.dictionaries(st.text(max_size=3), positive, min_size=1, max_size=3).map(StateDependent),
)
discounts = st.one_of(
    primitive_discounts,
    st.builds(ScaleDependent, primitive_discounts, etas),
    st.builds(Hybrid, st.floats(0.0, 1.0), primitive_discounts, primitive_discounts),
)
reports = st.one_of(
    st.builds(
        AdmissibilityReport,
        st.booleans(),
        st.none() | st.booleans(),
        st.booleans(),
        finite,
        finite,
        st.integers(min_value=3, max_value=1000),
        st.lists(finite, max_size=3).map(tuple),
    ),
    st.builds(
        ConstraintReport,
        st.booleans(),
        st.lists(st.tuples(finite, finite, finite), max_size=2).map(tuple),
        st.lists(finite, max_size=3).map(tuple),
        st.lists(finite, max_size=3).map(tuple),
    ),
)
records = st.one_of(utilities, phis, etas, discounts, reports)

RECORD_TYPES = (
    Linear, LogShift, Sqrt, PowerDiscounted, Composed, PhiScale, PhiPower, PhiPoly,
    PhiTable, AdmissibilityReport, Exponential, Hyperbolic, QuasiHyperbolic,
    GeneralizedHyperbolic, ScaleDependent, StateDependent, Hybrid, InverseLog,
    TabulatedEta, ConstraintReport,
)  # fmt: skip

_TWINS = {}


def twin_type(cls):
    """A plain frozen dataclass with ``cls``'s name, field names and defaults."""
    if cls not in _TWINS:
        fields = []
        for name in cls.__match_args__:
            if name in vars(cls):
                fields.append((name, object, dataclasses.field(default=vars(cls)[name])))
            else:
                fields.append((name, object))
        _TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)
    return _TWINS[cls]


def twin(record):
    """The dataclass twin of ``record`` with the same field values, twins nested."""
    cls = type(record)
    if cls not in RECORD_TYPES:
        return record
    return twin_type(cls)(*(twin(getattr(record, name)) for name in cls.__match_args__))


def test_every_record_type_is_covered():
    kinds = {
        obj
        for module in (utility, discount)
        for obj in vars(module).values()
        if isinstance(obj, type) and "__match_args__" in vars(obj)
    }
    assert kinds == set(RECORD_TYPES) and len(RECORD_TYPES) == 20


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records, records)
def test_repr_equality_and_hash_match_a_frozen_dataclass(a, b):
    ta, tb = twin(a), twin(b)
    assert repr(a) == repr(ta)
    assert hash(a) == hash(ta)
    same = copy.copy(a)
    assert same is not a
    assert (a == same, a != same) == (True, False)
    assert (a == b, a != b) == (ta == tb, ta != tb)
    for other in (1, "x", None):
        assert (a == other, a != other) == (ta == other, ta != other)
        assert a.__eq__(other) is NotImplemented
    assert (a == ta, a != ta) == (False, True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records)
def test_records_are_frozen(record):
    t = twin(record)
    for name in (*type(record).__match_args__, "extra"):
        for target in (record, t):
            with pytest.raises(dataclasses.FrozenInstanceError) as set_error:
                setattr(target, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError) as del_error:
                delattr(target, name)
            if target is record:
                messages = str(set_error.value), str(del_error.value)
            else:
                assert messages == (str(set_error.value), str(del_error.value))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records)
def test_deepcopy_round_trips(record):
    clone = copy.deepcopy(record)
    assert type(clone) is type(record)
    assert clone == record and hash(clone) == hash(record)
    assert repr(clone) == repr(record)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_match_args_and_argument_errors_match_a_frozen_dataclass(cls):
    t = twin_type(cls)
    assert cls.__match_args__ == t.__match_args__
    n = len(cls.__match_args__)
    calls = [((None,) * (n + 1), {}), ((), {"no_such_field": 1})]
    if n:
        calls.append(((None,) * n, {cls.__match_args__[0]: None}))
    required = [name for name in cls.__match_args__ if name not in vars(cls)]
    if required:
        calls.append(((), {}))
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            t(*args, **kwargs)


def test_keyword_construction_and_defaults():
    assert PowerDiscounted().alpha == 0.0
    assert InverseLog().log_base == 10.0
    report = AdmissibilityReport(True, None, True, -1.0, 1.0, 3)
    assert report.violations == ()
    assert report == AdmissibilityReport(
        strictly_increasing=True,
        zero_normalized=None,
        image_interval=True,
        grid_lo=-1.0,
        grid_hi=1.0,
        grid_n=3,
        violations=(),
    )
    assert Hybrid(d2=Hyperbolic(k=1.0), lam=0.5, d1=Exponential(0.1)) == Hybrid(
        0.5, Exponential(r=0.1), Hyperbolic(1.0)
    )
    # __post_init__ still validates and normalises.
    with pytest.raises(ValueError):
        PowerDiscounted(alpha=1.0)
    assert PhiPoly([0, 1]).coeffs == (0.0, 1.0)
    assert StateDependent({"b": 2, "a": 1}).rates == (("a", 1.0), ("b", 2.0))


def test_match_statement_destructures_records():
    match Hybrid(0.25, Exponential(0.1), Hyperbolic(2.0)):
        case Hybrid(lam, Exponential(r), Hyperbolic(k)):
            assert (lam, r, k) == (0.25, 0.1, 2.0)
        case _:
            pytest.fail("no match")
