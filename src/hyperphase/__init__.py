"""hyperphase: hypergraph matrix algebra, spectral Wigner dynamics, hypergraph states."""

from . import hypergraph, hyperstate, phasemap, wigner
from .hypergraph import *
from .hyperstate import *
from .phasemap import *
from .wigner import *

__version__ = "0.1.0"

__all__ = hypergraph.__all__ + wigner.__all__ + phasemap.__all__ + hyperstate.__all__
