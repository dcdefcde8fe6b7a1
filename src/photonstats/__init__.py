"""Photon-counting statistics for plasmonic beam-splitter experiments.

The package models photon-number distributions of thermal, coherent and Fock
sources through lossy scattering networks: detected-count laws behind a
plasmon-assisted splitter, two-fold coherence maps in the far field of a
double slit, heralded plasmon-subtracted states for phase sensing, and a
single-pixel imaging pipeline with total-variation reconstruction. A Monte
Carlo sampler mirrors every closed-form law so each can be checked against
the other.
"""

from .errors import *
from .states import *
from .montecarlo import *
from .scatter import *
from .coherence import *
from .sensing import *
from .imaging import *
from .pgm import *
from . import coherence, errors, imaging, montecarlo, pgm, scatter, sensing, states

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *states.__all__,
    *montecarlo.__all__,
    *scatter.__all__,
    *coherence.__all__,
    *sensing.__all__,
    *imaging.__all__,
    *pgm.__all__,
]
