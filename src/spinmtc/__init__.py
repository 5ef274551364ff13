"""Exact computations for fermionic modular tensor category data.

Cyclotomic s-matrices, NS/R label classification with block-structure
verification, spin surface dimensions, N=1 minimal-model label tables, and
singular vectors in Neveu-Schwarz Verma modules.  All checks run in exact
arithmetic; floats appear only in explicitly non-authoritative annotations.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .exactnum import Cyclotomic, CycMatrix, root_of_unity, zeta

__all__ = [
    "__version__",
    "Cyclotomic",
    "CycMatrix",
    "root_of_unity",
    "zeta",
]
