"""Every frozen value type in the package behaves as a frozen dataclass.

Each record is compared with a ``dataclasses.dataclass(frozen=True)`` twin
built from the same field names, defaults and values (``eq=False`` where the
record compares by identity or by its own ``__eq__``): repr, equality,
hashing, immutability, argument errors, ``__match_args__`` and deep copies.
The utility, phi, discount and eta kinds and their reports are drawn by
hypothesis; the gamble, LP, coherence, intertemporal and config records take
two hand-built values each.  ``tests/record_parity.py`` checks the mechanism
itself on shapes the package does not use.
"""

import copy
import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import desirables
from desirables import (
    AcceptanceDecision,
    AdmissibilityReport,
    AssessmentSet,
    Composed,
    ConstraintReport,
    DatedPayment,
    Exponential,
    Finding,
    Functional,
    Gamble,
    GeneralizedHyperbolic,
    Hybrid,
    Hyperbolic,
    Infeasible,
    InverseLog,
    Linear,
    LogShift,
    PartialLossReport,
    PaymentSchedule,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    PowerDiscounted,
    Preference,
    QuasiHyperbolic,
    ScaleDependent,
    ScanResult,
    Sqrt,
    StateDependent,
    StateSpace,
    TabulatedEta,
)
from desirables._record import Record
from desirables.config import ConfigTree, Scenario
from desirables.lp import LpProblem, LpSolution, LpStatus

from record_parity import check, hashed

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

DRAWN_TYPES = (
    Linear, LogShift, Sqrt, PowerDiscounted, Composed, PhiScale, PhiPower, PhiPoly,
    PhiTable, AdmissibilityReport, Exponential, Hyperbolic, QuasiHyperbolic,
    GeneralizedHyperbolic, ScaleDependent, StateDependent, Hybrid, InverseLog,
    TabulatedEta, ConstraintReport,
)  # fmt: skip

_S = StateSpace(("a", "b"))
_A0, _B1 = DatedPayment(100, 0), DatedPayment(110, 1, "a")
#: Two distinct values of each record type that hypothesis does not draw.
EXAMPLES = {
    LpProblem: (LpProblem([1.0], [[1.0]], [1.0]), LpProblem([1.0, 2.0], [[1.0, 1.0]], [2.0])),
    LpSolution: (
        LpSolution(LpStatus.OPTIMAL, x=np.array([1.0]), value=1.0, y=np.array([1.0])),
        LpSolution(LpStatus.INFEASIBLE, certificate=np.array([-1.0])),
    ),
    AssessmentSet: (
        AssessmentSet(_S, Linear(), (Gamble(_S, [1, 0]),)),
        AssessmentSet(_S, Sqrt(), (Gamble(_S, [1, 1]),), (Gamble(_S, [-1, -1]),)),
    ),
    Functional: (Functional([1, 1]), Functional([1, 3])),
    AcceptanceDecision: (
        AcceptanceDecision(True, 0.5, witness=np.array([1.0])),
        AcceptanceDecision(False, -0.5, certificate=np.array([0.5, 0.5])),
    ),
    PartialLossReport: (
        PartialLossReport(True, 0.0),
        PartialLossReport(False, 0.5, witness=np.array([1.0]), combination=np.array([-1.0])),
    ),
    Infeasible: (Infeasible((("accepted", 0),)), Infeasible((("rejected", 1), ("accepted", 0)))),
    Finding: (Finding("F1", "witness"), Finding("F2", "rejected[0] dominates accepted[0]")),
    StateSpace: (_S, StateSpace(("up",))),
    Gamble: (Gamble(_S, [1, 0]), Gamble(_S, [1, 0], wealth_floor=2.0)),
    DatedPayment: (_A0, _B1),
    PaymentSchedule: (PaymentSchedule((_A0,), "A"), PaymentSchedule((_A0, _B1))),
    ScanResult: (
        ScanResult(((0.0, Preference.A),), Preference.A, None, (1.0,), (0.5,)),
        ScanResult(((0.0, Preference.A), (5.0, Preference.B)), Preference.A, 5.0, (2, 1), (1, 2)),
    ),
    ConfigTree: (
        ConfigTree({"wealth": 1}),
        ConfigTree({"schedule": {"A": {}}}, labeled={"schedule"}, positions={("schedule",): (1, 1)}),
    ),
    Scenario: (
        Scenario(Linear(), None, None, {}, None, None, [], [], False, None),
        Scenario(
            Sqrt(), Exponential(0.1), _S, {"A": PaymentSchedule((_A0,), "A")}, [0.0, 1.0],
            ("A", "A"), [Gamble(_S, [1, 0])], [], True, 2.0,
        ),
    ),
}  # fmt: skip
RECORD_TYPES = DRAWN_TYPES + tuple(EXAMPLES)

_TWINS = {}


def twin_type(cls):
    """A plain frozen dataclass with ``cls``'s name, field names, defaults and eq."""
    if cls not in _TWINS:
        fields = []
        for name in cls.__match_args__:
            if name in vars(cls):
                default = vars(cls)[name]  # dataclass refuses an unhashable default: a factory
                fields.append((name, object, dataclasses.field(default_factory=lambda d=default: d)))
            else:
                fields.append((name, object))
        eq = cls.__eq__ is Record.__eq__
        _TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True, eq=eq)
    return _TWINS[cls]


def twin(record):
    """The dataclass twin of ``record`` with the same field values.

    Field values that are records comparing by fields are twinned too; the
    others (gambles, functionals) keep their own equality.
    """
    cls = type(record)
    return twin_type(cls)(*(_twin_field(getattr(record, name)) for name in cls.__match_args__))


def _twin_field(value):
    cls = type(value)
    return twin(value) if cls in RECORD_TYPES and cls.__eq__ is Record.__eq__ else value


def test_every_record_type_is_covered():
    kinds = set()
    for info in pkgutil.iter_modules(desirables.__path__):
        module = importlib.import_module(f"desirables.{info.name}")
        kinds |= {
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, Record)
            and obj is not Record
            and obj.__module__ == module.__name__
        }
    assert kinds == set(RECORD_TYPES) and len(RECORD_TYPES) == 35


def test_the_record_mechanism_matches_dataclass_on_every_shape():
    check()


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


EXAMPLE_VALUES = [value for pair in EXAMPLES.values() for value in pair]


def _ids(value):
    return type(value).__name__


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_repr_equality_and_hash_of_the_other_records_match_a_dataclass_twin(cls):
    a, b = EXAMPLES[cls]
    ta, tb = twin(a), twin(b)
    same, t_same = copy.copy(a), copy.copy(ta)
    if cls.__eq__ in (Record.__eq__, object.__eq__):
        assert (repr(a), repr(b)) == (repr(ta), repr(tb))
        assert hashed(a) == hashed(ta)
        assert (a == same, a != same) == (ta == t_same, ta != t_same)
        assert (a == b, a != b) == (ta == tb, ta != tb)
    else:  # Gamble and Functional compare their values and are unhashable
        assert (a == same, a != same, a == b, a != b) == (True, False, False, True)
        assert hashed(a) == f"unhashable type: {cls.__name__!r}"
    for other in (1, "x", None, ta):
        assert (a == other, a != other) == (False, True)


def check_frozen(record):
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


def check_deepcopy(record):
    clone = copy.deepcopy(record)
    assert type(clone) is type(record)
    assert repr(clone) == repr(record)
    if type(record).__eq__ is object.__eq__:  # eq=False: identity, as the twin's
        assert clone != record and hashed(clone) == hashed(record) == "identity"
    else:
        assert clone == record and hashed(clone) == hashed(record)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records)
def test_records_are_frozen(record):
    check_frozen(record)


@pytest.mark.parametrize("record", EXAMPLE_VALUES, ids=_ids)
def test_the_other_records_are_frozen(record):
    check_frozen(record)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records)
def test_deepcopy_round_trips(record):
    check_deepcopy(record)


@pytest.mark.parametrize("record", EXAMPLE_VALUES, ids=_ids)
def test_deepcopy_of_the_other_records_round_trips(record):
    check_deepcopy(record)


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
        with pytest.raises(TypeError) as error:
            cls(*args, **kwargs)
        with pytest.raises(TypeError) as twin_error:
            t(*args, **kwargs)
        assert str(error.value) == str(twin_error.value)


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
