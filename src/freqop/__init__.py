"""Frequency operators on N-fold tensor-product Hilbert spaces.

Dense brute-force oracles, closed-form ensemble statistics, spectral-weight
decompositions, and seeded Born-rule sampling, cross-validated against each
other at small scale.
"""

__version__ = "0.1.0"
