"""Desirability of gambles under non-linear utility and flexible time discounting.

The package evaluates strictly increasing utilities composed with
time/state/scale-dependent discount curves, audits acceptance sets against
the coherence axioms on finite sets of gambles, and runs acceptance
inference and representation fitting in the utility-transformed cone via a
small deterministic LP kernel.
"""

from . import coherence, discount, errors, gamble, intertemporal, utility
from .coherence import *
from .discount import *
from .errors import *
from .gamble import *
from .intertemporal import *
from .utility import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (coherence, discount, errors, gamble, intertemporal, utility)
    for name in module.__all__
]
