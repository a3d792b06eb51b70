"""Linear dynamic law discovery in time series.

A law is a unit weight vector w with sum_i w_i y(t - i*stride) ~ 0; it
is found as the smallest-eigenvalue eigenvector of the delay-window
correlation matrix, converts losslessly between weight / root /
recursion / continuous-exponential form, and doubles as a block codec
whose accuracy-versus-rate behavior can be swept and compared against
a seeded-noise baseline.

Each module's ``__all__`` is the one declaration of its public names:
the package re-exports every one of them, plus ``errors`` and
``__version__``.
"""

from . import codec, embedding, errors, fitting, lawforms, signal_io, spectral
from .embedding import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .lawforms import *  # noqa: F401,F403
from .fitting import *  # noqa: F401,F403
from .codec import *  # noqa: F401,F403
from .signal_io import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (embedding, spectral, lawforms, fitting, codec, signal_io)
           for name in module.__all__] + ["errors", "__version__"]
