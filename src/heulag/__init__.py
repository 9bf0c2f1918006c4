"""Arbitrary-precision one-loop effective-Lagrangian toolkit.

Closed-form evaluation of the spin-0, spin-1/2, and self-dual background
functions, their divergent weak-field expansions, and resummation of those
expansions by finite-part integration of the underlying generalized
Stieltjes representation, with Pade and delta-transformation baselines.
"""
from . import comparators, errors, extrapolant, finitepart, models, momentrec, specfun
from .comparators import *
from .errors import *
from .extrapolant import *
from .finitepart import *
from .models import *
from .momentrec import *
from .specfun import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (comparators, errors, extrapolant, finitepart, models,
                                     momentrec, specfun) for name in module.__all__)
