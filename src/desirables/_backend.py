"""Elementwise backends for the valuation formulas.

Every utility, reparameterization and discount regime writes its formula
once, against a backend ``xp`` that supplies the elementwise functions.
There are three backends:

- :data:`SCALAR` evaluates a formula on one float with :mod:`math` (the
  cost of the scalar entry points is that of plain ``math`` code).
- :data:`GRID` evaluates it on a numpy array, e.g. a shifts x payments grid.
  numpy's ``exp``/``log1p``/``pow`` may differ from libm's in the last bits,
  so a grid cell can differ from the scalar value of the same cell by a few
  ulps.
- :data:`TRACE` runs it once on symbolic operands (:class:`Tape`) and records
  each operation, in order, as a line of Python source that computes what
  :data:`SCALAR` computes, so the line runs :mod:`math` on floats.

``each(fn, v)`` runs a per-payment scalar function on ``v`` (on each entry,
under :data:`GRID`); ``segment(xs, w)`` finds the table interval serving ``w``
in a table whose knots :func:`checked_table` has checked.
A formula branches only on constants, never on its operands: under
:data:`TRACE` an operand that decides a branch raises ``TypeError``.
:data:`SCALAR` and :data:`TRACE` need only the standard library; :data:`GRID`,
and numpy with it, is built on first use.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from types import ModuleType


def _segment(xs, w):
    # Index i of the table interval [xs[i], xs[i + 1]] that serves w, the
    # first and last intervals extending to -inf and +inf; NaN, which compares
    # false, goes to the last, as in _segment_grid.
    return bisect.bisect_right(xs, w, 1, len(xs) - 1) - 1


def checked_table(xs, ys, min_len: int, sizes: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """An interpolation table's knots as float tuples.

    Raises ValueError unless they match in length, at least ``min_len`` (the
    message names ``sizes``), all are finite and ``xs`` strictly increases.
    """
    xs = tuple(float(v) for v in xs)
    ys = tuple(float(v) for v in ys)
    if len(xs) != len(ys) or len(xs) < min_len:
        raise ValueError(f"table needs matching {sizes}")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("table values must be finite")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("table x values must be strictly increasing")
    return xs, ys


def is_array(x) -> bool:
    """True when ``x`` is a numpy array; no array exists before numpy is imported."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(x, numpy.ndarray)


def _segment_grid(xs, w):
    return np.clip(np.searchsorted(xs, w, side="right") - 1, 0, len(xs) - 2)


def _each_grid(fn, v):
    # A per-payment quantity: ``fn`` on a scalar, or on each entry of a sequence.
    if np.ndim(v) == 0:
        return fn(v)
    return np.array([fn(e) for e in v])


def _round2_grid(v):
    """``round(v, 2)`` elementwise, with Python's exact decimal semantics.

    ``np.round`` rounds the float product ``v * 100``, which can land on the
    wrong side of a halfway point (0.015 -> 0.02, where Python gives 0.01).
    The product is off by at most half an ulp, so its nearest integer is the
    right one unless it lies within 1e-9 (relative) of a halfway point; those
    entries, non-finite ones and those beyond 5e6, are rounded by ``round``.
    """
    scaled = v * 100.0
    q = np.rint(scaled)
    out = q / 100.0
    exact = np.abs(np.abs(scaled - q) - 0.5) > 1e-9 * np.maximum(1.0, np.abs(scaled))
    redo = np.flatnonzero(~exact)
    if redo.size:
        out.flat[redo] = [round(e, 2) for e in v.flat[redo].tolist()]
    return out


def _backend(name: str, **functions) -> ModuleType:
    # A module, not a namespace object: attribute loads on modules are as
    # cheap as ``math.exp`` itself.
    module = ModuleType(f"{__name__}.{name}")
    vars(module).update(functions)
    return module


#: One float at a time, with :mod:`math`.
SCALAR = _backend(
    "scalar",
    asfloat=float,
    exp=math.exp,
    log1p=math.log1p,
    sqrt=math.sqrt,
    abs=abs,
    copysign=math.copysign,
    where=lambda cond, a, b: a if cond else b,
    round2=lambda v: round(v, 2),
    each=lambda fn, v: fn(v),
    segment=_segment,
    take=lambda seq, i: seq[i],
)


class Tape:
    """The Python source of a formula run on symbolic operands.

    ``lines`` holds one assignment ``vN = ...`` per operation, in the order
    the formula ran them.  A constant, function or table an operation reads
    is appended to ``values`` and named ``_kI`` after its index there, so the
    source holds only operators and generated names and formulas of one
    shape give one source.  ``read`` is the set of operand names used.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.values: list = []
        self.read: set[str] = set()

    def operand(self, name: str) -> _Sym:
        """A symbolic operand that the source reads as ``name``."""
        return _Sym(self, name)

    def name(self, value) -> str:
        """The source text of ``value``: its name if symbolic, else a new bound name."""
        if isinstance(value, _Sym):
            self.read.add(value.name)
            return value.name
        self.values.append(value)
        return f"_k{len(self.values) - 1}"

    def record(self, template: str, *operands) -> _Sym:
        result = _Sym(self, f"v{len(self.lines)}")
        self.lines.append(f"{result.name} = " + template.format(*map(self.name, operands)))
        return result


class _Sym:
    """A symbolic operand: each operator records one line on its tape."""

    __slots__ = ("tape", "name")

    def __init__(self, tape: Tape, name: str):
        self.tape, self.name = tape, name

    def __bool__(self):
        frame = sys._getframe(1)
        owner = frame.f_locals.get("self")
        who = type(owner).__qualname__ if owner is not None else frame.f_code.co_name
        raise TypeError(f"{who}: a traced operand decides a branch; formulas branch only on constants")


def _traced(template: str, scalar):
    """A TRACE function: ``scalar`` on constants, on a symbolic operand one ``template`` line."""

    def fn(*args):
        for a in args:
            if isinstance(a, _Sym):
                return a.tape.record(template, *args)
        return scalar(*args)

    return fn


# An operator method's first operand is symbolic, so it never calls its scalar.
for _name, _symbol in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/"), ("pow", "**")):
    setattr(_Sym, f"__{_name}__", _traced("{0} %s {1}" % _symbol, None))
    setattr(_Sym, f"__r{_name}__", _traced("{1} %s {0}" % _symbol, None))
for _name, _symbol in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">=")):
    setattr(_Sym, f"__{_name}__", _traced("{0} %s {1}" % _symbol, None))
_Sym.__neg__ = _traced("-{}", None)
_call1 = _traced("{}({})", SCALAR.each)
_call2 = _traced("{}({}, {})", lambda fn, a, b: fn(a, b))

#: One symbolic run, recorded as the source of what :data:`SCALAR` computes.
TRACE = _backend(
    "trace",
    asfloat=lambda v: v,  # the traced operand, a product of floats, is a float
    exp=functools.partial(_call1, math.exp),
    log1p=functools.partial(_call1, math.log1p),
    sqrt=functools.partial(_call1, math.sqrt),
    abs=functools.partial(_call1, abs),
    copysign=functools.partial(_call2, math.copysign),
    where=_traced("{1} if {0} else {2}", SCALAR.where),
    round2=lambda v: _call2(round, v, 2),
    each=_call1,
    segment=functools.partial(_call2, _segment),
    take=_traced("{}[{}]", SCALAR.take),
)


def __getattr__(name):
    # GRID (elementwise, numpy) and the ``np`` its _*_grid helpers read, bound on first read.
    global GRID, np
    if name != "GRID":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np
    GRID = _backend(
        "grid",
        asfloat=lambda v: np.asarray(v, dtype=float),
        exp=np.exp,
        log1p=np.log1p,
        sqrt=np.sqrt,
        abs=np.abs,
        copysign=np.copysign,
        where=np.where,
        round2=_round2_grid,
        each=_each_grid,
        segment=_segment_grid,
        take=np.take,
        isfinite=np.isfinite,
        errstate=np.errstate,
    )
    return GRID


def memo_grid() -> ModuleType:
    """:data:`GRID` whose ``each`` runs once per function and operand.

    Operands are told apart by identity, so the memo serves one scan, whose
    per-payment rewards and states stay the same objects in every block.
    """
    memo = {}

    def each(fn, v):
        key = fn, id(v)  # fn: a partial the regime stores, or a bound method of its eta spec
        if key not in memo:
            memo[key] = _each_grid(fn, v)
        return memo[key]

    return _backend("grid", **{**vars(sys.modules[__name__].GRID), "each": each})


def check_each(check, values, ok) -> None:
    """Run the scalar ``check`` on the first entry (row-major) of ``values`` failing ``ok``."""
    if not ok.all():
        check(float(values.flat[ok.argmin()]))
