"""Build frequency operators explicitly at small scale and verify their
eigenstructure by brute force.

The frequency operator for outcome j on an N-system ensemble is diagonal in
the product basis: each basis string is an eigenvector whose eigenvalue is
the fraction of its entries equal to j.
"""

import itertools

import numpy as np

from freqop.hilbert import EnsembleSpec, StateVector
from freqop.dense import (
    build_frequency_operator,
    build_frequency_operator_projector_sum,
    eigenrelation_check,
    verify_operator_algebra,
)

d, n, j = 2, 3, 1
state = StateVector.uniform(d)
op = build_frequency_operator(EnsembleSpec(state, n, j))

print(f"F for d={d}, N={n}, j={j}: diagonal =")
print(np.real(op))

print("\nEvery basis string is an eigenvector:")
for string in itertools.product(range(d), repeat=n):
    eig, res = eigenrelation_check(op, string, d=d, j=j)
    print(f"  |{''.join(map(str, string))}>  eigenvalue {eig:.4f}  residual {res:.1e}")

alt = build_frequency_operator_projector_sum(EnsembleSpec(state, n, j))
print(
    "\nProjector-sum construction agrees entrywise to",
    f"{np.max(np.abs(op - alt)):.1e}",
)

print("\nOperator algebra report (sum to identity, commutation, spectrum):")
for key, val in verify_operator_algebra(d, n).items():
    print(f"  {key}: {val}")
