"""Conical Fermi-point detection and closed-form conductivity for 2D
tight-binding models, cross-validated against direct linear-response
integrals.

Natural units (e = hbar = 1) throughout: each conical crossing that is
"quantizing" (isotropic quadratic form) contributes exactly 1/16 to the
longitudinal conductivity.
"""

from . import bloch, cones, kubo, lattice, spectra
from .lattice import *  # noqa: F401,F403
from .bloch import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .cones import *  # noqa: F401,F403
from .kubo import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *dict.fromkeys(
    name for module in (lattice, bloch, spectra, cones, kubo) for name in module.__all__)]
