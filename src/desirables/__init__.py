"""Desirability of gambles under non-linear utility and flexible time discounting.

The package evaluates strictly increasing utilities composed with
time/state/scale-dependent discount curves, audits acceptance sets against
the coherence axioms on finite sets of gambles, and runs acceptance
inference and representation fitting in the utility-transformed cone via a
small deterministic LP kernel.
"""

import importlib

__version__ = "0.1.0"

# Each module's __all__, in order (tests/test_package.py checks that they agree).  A name
# is imported from its module on first use, so valuation alone never loads coherence or lp.
_EXPORTS = {
    "coherence": """AssessmentSet Functional AcceptanceDecision accept_decision accepts
        PartialLossReport check_partial_loss avoids_partial_loss Infeasible fit_constraints
        fit_functional rho check_ordering_invariance check_transform_invariance Finding audit
        cross_check_functional""",
    "discount": """DiscountSpec Exponential Hyperbolic QuasiHyperbolic GeneralizedHyperbolic
        ScaleDependent StateDependent Hybrid EtaSpec InverseLog TabulatedEta factor uses_states
        ConstraintReport check_scale_monotonicity""",
    "errors": """DesirablesError DomainError ImageError SpaceMismatch MissingArgument UnknownState
        DimensionError NumericalInstability ConfigError""",
    "gamble": "StateSpace Gamble dominates transform u_convex_combine",
    "intertemporal": """DatedPayment PaymentSchedule Preference effective_utility schedule_value
        compare shift_schedule ScanResult reversal_scan""",
    "utility": """Utility Linear LogShift Sqrt PowerDiscounted Composed PhiScale PhiPower PhiPoly
        PhiTable AdmissibilityReport audit_admissibility""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    # Any other name raises at once, importing nothing: ``from . import config``
    # looks "config" up here before it imports the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
