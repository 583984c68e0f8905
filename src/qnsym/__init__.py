"""Exact arithmetic in the dual Hopf algebras QSym and NSym, with the four
Schur-like basis pairs: shin from tableau counts, the rest by involutions.

Importing the package registers all bases; see ``core.bases()`` for the list.
"""

from . import compositions, core, tableaux, schurlike  # noqa: F401  (registration)
from .core import (  # noqa: F401
    NSYM,
    QSYM,
    Element,
    TensorElement,
    antipode,
    coproduct,
    counit,
    involution,
    multiply,
    pair,
    perp,
    rperp,
    term,
    transition_matrix,
    zero,
)

__version__ = "0.1.0"
