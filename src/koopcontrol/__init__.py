"""Operator encodings of input-driven discrete-time dynamics.

The package turns a control system ``x_next = T(x, u)`` into composition
operators on three function spaces (state observables, state-input
observables, state plus whole input sequence), makes the failure modes of
the naive encodings executable, verifies the web of identities tying the
encodings together, and identifies the per-input matrices of the lifted
dynamics from data.
"""

from . import catalog, checks, edmd, errors, observables, operators, systems
from .errors import *
from .systems import *
from .observables import *
from .operators import *
from .checks import *
from .edmd import *
from .catalog import *

__version__ = "0.1.0"

_MODULES = (errors, systems, observables, operators, checks, edmd, catalog)

__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
