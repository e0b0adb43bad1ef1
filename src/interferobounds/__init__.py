"""Causality, timing, and separation bounds for mass and charge
interferometry, with an independent Gaussian wavepacket oracle.

All physics modules compute in Planck units (c = hbar = G = 1); the units
module and the CLI handle SI conversion at the boundary.
"""

from .errors import ConvergenceError, GeometryError, InvalidInputError
from .scenario import CouplingKind, ScenarioParams
from .units import from_planck, to_planck

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "GeometryError",
    "InvalidInputError",
    "CouplingKind",
    "ScenarioParams",
    "to_planck",
    "from_planck",
]
