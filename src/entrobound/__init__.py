"""Continuity bounds for quantum-classical conditional entropies in angular
distance, and saturation diagnostics for the Fuchs-van de Graaf inequalities.

Each module's ``__all__`` is the list of names re-exported here from it."""

from .errors import *
from .linalg import *
from .states import *
from .metrics import *
from .entropy import *
from .fvdg import *
from .sampling import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *linalg.__all__, *states.__all__,
           *metrics.__all__, *entropy.__all__, *fvdg.__all__, *sampling.__all__]
