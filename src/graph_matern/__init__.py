"""Matern-family Gaussian processes on weighted undirected graphs.

The package republishes the ``__all__`` of each of its six library modules.
"""

from .graphs import *
from .spectral import *
from .kernels import *
from .regression import *
from .classification import *
from .optim import *

__version__ = "0.1.0"
