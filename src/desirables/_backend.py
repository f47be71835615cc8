"""Elementwise backends for the valuation formulas.

Every utility, reparameterization and discount regime writes its formula
once, against a backend ``xp`` that supplies the elementwise functions:
:data:`SCALAR` evaluates a formula on one float with :mod:`math` (the cost
of the scalar entry points is that of plain ``math`` code), and :data:`GRID`
evaluates it on a numpy array, e.g. a shifts x payments grid.  numpy's
``exp``/``log1p``/``pow`` may differ from libm's in the last bits, so a grid
cell can differ from the scalar value of the same cell by a few ulps.
``each(fn, v)`` runs a per-payment scalar function on ``v`` (on each entry,
under :data:`GRID`); ``segment(xs, w)`` finds the table interval serving ``w``.
:data:`SCALAR` needs only the standard library; :data:`GRID`, and numpy with
it, is built on first use.
"""

from __future__ import annotations

import bisect
import math
import sys
from types import ModuleType


def _segment(xs, w):
    # Index i of the table interval [xs[i], xs[i + 1]] that serves w, the
    # first and last intervals extending to -inf and +inf; NaN, which compares
    # false, goes to the last, as in _segment_grid.
    return bisect.bisect_right(xs, w, 1, len(xs) - 1) - 1


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


def check_each(check, values, ok) -> None:
    """Run the scalar ``check`` on the first entry (row-major) of ``values`` failing ``ok``."""
    if not ok.all():
        check(float(values.flat[ok.argmin()]))
