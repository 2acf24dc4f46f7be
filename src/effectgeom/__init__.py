"""Geometry of binary-association effect measures.

Risk-table parameterizations, homogeneity-feasibility checks, Monte Carlo
compatibility probabilities under coordinate box priors, and a power
simulator for Wald interaction tests.

Each module declares its public names in its own ``__all__``; the package
re-exports exactly those.
"""

from .coords import *
from .errors import *
from .homogeneity import *
from .power import *
from .table import *
from .volume import *

__version__ = "0.1.0"

# each `from .<module> import *` above also bound the submodule itself here
__all__: list[str] = []
__all__ += coords.__all__
__all__ += errors.__all__
__all__ += homogeneity.__all__
__all__ += power.__all__
__all__ += table.__all__
__all__ += volume.__all__
