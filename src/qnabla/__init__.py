"""Fractional-order q-difference operators and their sequence-space machinery.

The package splits into five layers: q-arithmetic primitives (qcore),
operator coefficient streams and window transforms (fracdiff), domain-space
norms and basis expansions (spaces), dual-set condition evaluators (duals),
and matrix-transformation classification (matclass), with a CLI front-end
on top.  Each layer declares its public names once, in its ``__all__``; the
package re-exports them in layer order.
"""

from . import qcore, fracdiff, spaces, duals, matclass
from .qcore import *
from .fracdiff import *
from .spaces import *
from .duals import *
from .matclass import *

__version__ = "0.1.0"

__all__ = ["__version__", *qcore.__all__, *fracdiff.__all__, *spaces.__all__,
           *duals.__all__, *matclass.__all__]
