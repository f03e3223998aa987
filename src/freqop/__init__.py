"""Frequency operators on N-fold tensor-product Hilbert spaces.

Dense brute-force oracles, closed-form ensemble statistics, spectral-weight
decompositions, and seeded Born-rule sampling, cross-validated against each
other at small scale.
"""

__version__ = "0.1.0"

from .hilbert import (
    EnsembleSpec,
    ScaleError,
    StateVector,
    product_state_vector,
    string_to_index,
)

__all__ = [
    "EnsembleSpec",
    "ScaleError",
    "StateVector",
    "product_state_vector",
    "string_to_index",
    "__version__",
]
