"""Strictly increasing utility functions with exact inverses where closed forms exist.

Every utility maps rewards from an open interval ``(domain_lo, inf)`` to the
reals and is strictly increasing there.  ``inverse`` undoes ``eval`` exactly
for the closed-form kinds and by bracketed bisection for composed kinds.
Each kind (and each phi) writes its formula once against a backend ``xp``
(:mod:`desirables._backend`), so ``eval`` takes a float or a numpy array.
"""

from __future__ import annotations

import math

from . import _backend
from ._backend import SCALAR, check_each, is_array
from ._record import Record
from .errors import DomainError, ImageError

__all__ = [
    "Utility",
    "Linear",
    "LogShift",
    "Sqrt",
    "PowerDiscounted",
    "Composed",
    "PhiScale",
    "PhiPower",
    "PhiPoly",
    "PhiTable",
    "AdmissibilityReport",
    "audit_admissibility",
]

# Iteration cap of the bisection fallback.
_BISECT_MAX_ITER = 200


class Utility:
    """Base class for utility functions u with domain (domain_lo, inf)."""

    kind: str = "abstract"
    #: Exclusive lower bound of the valid reward domain.
    domain_lo: float = -math.inf
    #: True when the kind needs strictly positive arguments and gambles must
    #: be evaluated on wealth-shifted rewards w + f.
    needs_wealth_shift: bool = False
    #: Exclusive lower bound of the image u((domain_lo, inf)); -inf if unbounded.
    image_lo: float = -math.inf

    def eval(self, x):
        """Utility of reward ``x``, elementwise when ``x`` is a numpy array.

        Raises DomainError when x <= domain_lo or when u(x) overflows or is
        not finite, naming the first such reward (row-major) of an array.
        """
        if type(x) is not float and is_array(x):
            xp = _backend.GRID
            x = x.astype(float, copy=False)
            check_each(self._check_domain, x, x > self.domain_lo)
            with xp.errstate(over="ignore", invalid="ignore"):
                v = self._eval(x, xp)
            check_each(self._not_finite, x, xp.isfinite(v))
            return v
        if not x > self.domain_lo:
            self._check_domain(x)
        try:
            v = self._eval(x)
        except OverflowError:
            self._not_finite(x)
        if not math.isfinite(v):
            self._not_finite(x)
        return v

    def inverse(self, v: float) -> float:
        """Reward whose utility equals ``v``.  Raises ImageError when v is not attained."""
        self._check_image(v)
        return self._inverse(v)

    def _check_domain(self, x: float) -> None:
        if not x > self.domain_lo:
            raise DomainError(
                f"{self.kind}: reward {x!r} outside domain x > {self.domain_lo!r}"
            )

    def _not_finite(self, x: float) -> None:
        raise DomainError(f"{self.kind}: utility of reward {x!r} is not finite")

    def _check_image(self, v: float) -> None:
        if not v > self.image_lo:
            raise ImageError(
                f"{self.kind}: value {v!r} outside image v > {self.image_lo!r}"
            )

    def _eval(self, x, xp=SCALAR):
        raise NotImplementedError

    def _inverse(self, v: float) -> float:
        raise NotImplementedError


class Linear(Utility, Record):
    """Identity utility u(x) = x."""

    kind = "linear"
    domain_lo = -math.inf
    image_lo = -math.inf

    def _eval(self, x, xp=SCALAR):
        return xp.asfloat(x)

    def _inverse(self, v: float) -> float:
        return float(v)


class LogShift(Utility, Record):
    """Shifted logarithm u(x) = log(1 + x) on x > -1."""

    kind = "log_shift"
    domain_lo = -1.0
    image_lo = -math.inf

    def _eval(self, x, xp=SCALAR):
        return xp.log1p(x)

    def _inverse(self, v: float) -> float:
        return math.expm1(v)


class Sqrt(Utility, Record):
    """Square-root utility u(x) = sqrt(x) on x > 0."""

    kind = "sqrt"
    domain_lo = 0.0
    image_lo = 0.0

    def _eval(self, x, xp=SCALAR):
        return xp.sqrt(x)

    def _inverse(self, v: float) -> float:
        return v * v


class PowerDiscounted(Utility, Record):
    """Power-family utility u(x) = (x^(1-alpha) - alpha) / (1 - alpha) on x > 0.

    ``alpha`` in [0, 1) sets the curvature: alpha = 0 is the identity, and as
    alpha -> 1 the values approach log(x) + 1.  u(1) = 1 for every alpha.
    Because positive arguments are required, gambles are evaluated on
    wealth-shifted rewards (see :func:`desirables.gamble.transform`).
    """

    alpha: float = 0.0

    kind = "power_discounted"
    domain_lo = 0.0
    needs_wealth_shift = True

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")

    @property
    def image_lo(self) -> float:  # type: ignore[override]
        # x -> 0+ limit of (x^(1-alpha) - alpha)/(1 - alpha).
        return -self.alpha / (1.0 - self.alpha)

    def _eval(self, x, xp=SCALAR):
        b = 1.0 - self.alpha
        return (x**b - self.alpha) / b

    def _inverse(self, v: float) -> float:
        b = 1.0 - self.alpha
        return (v * b + self.alpha) ** (1.0 / b)


class _PhiBase:
    """Strictly increasing reparameterization with phi(0) = 0, applied on top of a utility."""

    form: str = "abstract"

    def __call__(self, w, xp=SCALAR):
        """phi(w); elementwise with ``xp=GRID`` (see :mod:`desirables._backend`)."""
        raise NotImplementedError


class PhiScale(_PhiBase, Record):
    """phi(w) = c * w with c > 0."""

    c: float

    form = "scale"

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {self.c!r}")

    def __call__(self, w, xp=SCALAR):
        return self.c * w


class PhiPower(_PhiBase, Record):
    """Sign-preserving power phi(w) = sign(w) * |w|^p with p > 0."""

    p: float

    form = "power"

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError(f"power exponent must be positive and finite, got {self.p!r}")

    def __call__(self, w, xp=SCALAR):
        return xp.copysign(xp.abs(w) ** self.p, w)


class PhiPoly(_PhiBase, Record):
    """Polynomial phi(w) = sum_i coeffs[i] * w^i with coeffs[0] = 0.

    Monotonicity is not validated here; audits report non-monotone choices.
    """

    coeffs: tuple[float, ...]

    form = "poly"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 0.0:
            raise ValueError("polynomial needs a zero constant term so that phi(0) = 0")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {coeffs!r}")

    def __call__(self, w, xp=SCALAR):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc


class PhiTable(_PhiBase, Record):
    """Tabulated monotone map, linear inside the table and linearly extrapolated outside.

    The table must bracket 0 and interpolate phi(0) = 0.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    form = "table"

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("table needs matching x/y sequences of length >= 2")
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("table values must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("table x values must be strictly increasing")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("table y values must be strictly increasing")
        if not xs[0] <= 0.0 <= xs[-1] or abs(self(0.0)) > 1e-12:
            raise ValueError("table must bracket 0 with phi(0) = 0")

    def __call__(self, w, xp=SCALAR):
        xs, ys = self.xs, self.ys
        i = xp.segment(xs, w)
        x0, x1 = xp.take(xs, i), xp.take(xs, i + 1)
        y0, y1 = xp.take(ys, i), xp.take(ys, i + 1)
        slope = (y1 - y0) / (x1 - x0)
        return y0 + slope * (w - x0)


class Composed(Utility, Record):
    """Composition phi(base(x)) of an increasing phi with phi(0) = 0 over a base utility.

    ``inverse`` solves phi(w) = v for w by bracketed bisection (bracket
    expansion, then halving until the bracket is at most 1e-14 * max(1, |w|)
    wide, at most 200 halvings) and then applies the base's closed-form
    inverse.
    """

    base: Utility
    phi: _PhiBase

    kind = "composed"

    def __post_init__(self):
        # Read by every eval: set once, not a property.
        object.__setattr__(self, "domain_lo", self.base.domain_lo)

    @property
    def needs_wealth_shift(self) -> bool:  # type: ignore[override]
        return self.base.needs_wealth_shift

    @property
    def image_lo(self) -> float:  # type: ignore[override]
        lo = self.base.image_lo
        return self.phi(lo) if math.isfinite(lo) else -math.inf

    def _eval(self, x, xp=SCALAR):
        return self.phi(self.base._eval(x, xp), xp)

    def _inverse(self, v: float) -> float:
        w = self._bisect_phi(v)
        return self.base.inverse(w)

    def _bisect_phi(self, v: float) -> float:
        base_lo = self.base.image_lo
        lo = base_lo + 1e-9 if math.isfinite(base_lo) else -1.0
        hi = max(lo + 1.0, 1.0)
        # Expand the bracket until phi(lo) <= v <= phi(hi).
        for _ in range(200):
            if self.phi(hi) >= v:
                break
            hi = hi * 2 if hi > 0 else hi / 2 + 1.0
        else:
            raise ImageError(f"composed: value {v!r} not bracketed from above")
        for _ in range(200):
            if self.phi(lo) <= v:
                break
            if math.isfinite(base_lo):
                lo = base_lo + (lo - base_lo) / 2
            else:
                lo = lo * 2 if lo < 0 else lo / 2 - 1.0
        else:
            raise ImageError(f"composed: value {v!r} not bracketed from below")
        # A width-based stop reaches 1e-12 on v comfortably within the
        # iteration cap and keeps the round-trip tight even where phi is flat.
        for _ in range(_BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if (hi - lo) <= 1e-14 * max(1.0, abs(mid)):
                return mid
            if self.phi(mid) - v < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


class AdmissibilityReport(Record):
    """Numerical audit of a utility on an evaluation grid.

    ``zero_normalized`` is None when 0 lies outside the domain, in which case
    the normalization requirement does not apply.  ``image_interval`` is
    derived from strict monotonicity: a continuous strictly increasing map
    sends an interval to an interval.
    """

    strictly_increasing: bool
    zero_normalized: bool | None
    image_interval: bool
    grid_lo: float
    grid_hi: float
    grid_n: int
    violations: tuple[float, ...] = ()


def audit_admissibility(
    u: Utility, grid_n: int, lo: float | None = None, hi: float | None = None
) -> AdmissibilityReport:
    """Audit strict monotonicity, zero normalization, and image convexity on a grid.

    The default window is (domain_lo + 0.01, 100), or [-100, 100] when the
    domain is unbounded below.  Failures are reported, never raised; a
    utility that is not finite on the grid raises DomainError, as ``eval`` does.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    if lo is None:
        lo = u.domain_lo + 0.01 if math.isfinite(u.domain_lo) else -100.0
    if hi is None:
        hi = max(100.0, lo + 1.0)
    if not lo < hi:  # a backwards grid would read every increase as a drop
        raise ValueError(f"need lo < hi, got lo={lo!r}, hi={hi!r}")
    import numpy as np
    grid = np.linspace(lo, hi, grid_n)
    steps = np.diff(u.eval(grid))
    increasing = bool(np.all(steps > 0))
    bad = tuple(grid[1:][steps <= 0].tolist())
    zero_norm = abs(u.eval(0.0)) <= 1e-12 if u.domain_lo < 0 else None
    return AdmissibilityReport(
        strictly_increasing=increasing,
        zero_normalized=zero_norm,
        image_interval=increasing,
        grid_lo=float(lo),
        grid_hi=float(hi),
        grid_n=grid_n,
        violations=bad,
    )
