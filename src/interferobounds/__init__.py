"""Causality, timing, and separation bounds for mass and charge
interferometry, with an independent Gaussian wavepacket oracle.

All physics modules compute in Planck units (c = hbar = G = 1); the units
module and the CLI handle SI conversion at the boundary.
"""

from .errors import ConvergenceError, GeometryError, InvalidInputError
from .scenario import CouplingKind, ScenarioParams
from .units import from_planck, to_planck

__version__ = "0.1.0"


def __getattr__(name: str):
    # dynamics is imported on first use, so a CLI process that does not
    # simulate never loads it.  A relative `from . import dynamics` here
    # would call this function again; importlib.import_module would hide
    # the import from `python -X importtime`.
    if name == "dynamics":
        import interferobounds.dynamics

        return interferobounds.dynamics
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
