"""Exact-arithmetic toolkit for elliptic divisibility sequences and the
prime-power product obstructions they satisfy."""

# Defined before the submodule imports: eds writes it into table headers.
__version__ = "0.1.0"

from .curve import WeierstrassCurve
from .eds import EdsTable, EdsTerm, eds_range, eds_term
from .factor import Effort, Factorization, factorize
from .valuation import ExceptionalSet, build_exceptional_set

__all__ = [
    "WeierstrassCurve",
    "EdsTable",
    "EdsTerm",
    "eds_range",
    "eds_term",
    "Effort",
    "Factorization",
    "factorize",
    "ExceptionalSet",
    "build_exceptional_set",
    "__version__",
]
