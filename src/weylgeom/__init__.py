"""Numerical conformal curvature analysis.

The package splits into a small dependency chain: exact multilinear
algebra (tensor_core, curvature_algebra), direction spectra (spectral),
finite geometry on coordinate patches (chart_geometry, models), the
structural classifier (classifier), and a command line front end (cli).
The root re-exports each library module's __all__, the one list of its
public names, so library users can work from the package root.
"""

from . import chart_geometry, classifier, curvature_algebra, models, spectral, tensor_core
from .tensor_core import *
from .curvature_algebra import *
from .spectral import *
from .chart_geometry import *
from .classifier import *
from .models import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *tensor_core.__all__,
    *curvature_algebra.__all__,
    *spectral.__all__,
    *chart_geometry.__all__,
    *classifier.__all__,
    *models.__all__,
]
