"""Brute-force oracle for the frequency operator at small ensemble sizes.

Everything here works with explicit vectors (coefficients, Born weights) on
the d**N product space. The frequency operator is diagonal in the product basis, so an
operator is its complex128 diagonal, a vector of length d**N; no d**N x d**N
matrix is ever built. The closed forms in :mod:`freqop.analytic` are
validated against these routines.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from . import guards
from .hilbert import (
    EnsembleSpec,
    StateVector,
    born_weights,
    product_state_vector,
    string_to_index,
)


def frequency_counts(d: int, n: int, j: int) -> np.ndarray:
    """Integer count of occurrences of j in each basis string, indexed by the
    flat basis index. Eigenvalues of the frequency operator are counts / N.

    Built one site at a time by outer sums: appending a site to every string
    adds 1 to the count where the new digit is j."""
    guards.check_vector_scale(d, n)
    hit = (np.arange(d) == j).astype(np.int64)
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = (counts[:, None] + hit).ravel()
    return counts


def frequency_diagonal(d: int, n: int, j: int) -> np.ndarray:
    """Diagonal of the frequency operator in the product basis: f_j per
    basis string."""
    return frequency_counts(d, n, j) / n


def build_frequency_operator(spec: EnsembleSpec) -> np.ndarray:
    """Literal construction: sum over all basis strings of f_j times the
    rank-one projector onto that string, returned as its diagonal."""
    d, n, j = spec.state.dim, spec.n, spec.j
    total = guards.check_literal_scale(d, n)
    diag = np.zeros(total, dtype=np.complex128)
    for string in itertools.product(range(d), repeat=n):
        diag[string_to_index(string, d)] = string.count(j) / n
    return diag


def _site_sum(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Sum over the n sites of the tensor product with a at that site and b
    at every other site, all factors 1-D.

    Built one site at a time: ``total`` holds the sum over the sites seen so
    far and ``plain`` the product of b alone, so the cost is O(len(b)**n)."""
    total = np.zeros(1, dtype=np.complex128)
    plain = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        total = np.kron(total, b)
        total += np.kron(plain, a)
        plain = np.kron(plain, b)
    return total


def build_frequency_operator_projector_sum(spec: EnsembleSpec) -> np.ndarray:
    """Equivalent construction as (1/N) times the sum over sites of the
    single-site projector |j><j| tensored with identities elsewhere, each
    factor given by its diagonal (the projector e_j, the identity all
    ones); returns the diagonal of the sum. It never reads the counts, so
    it stays an independent check on them."""
    d, n, j = spec.state.dim, spec.n, spec.j
    guards.check_literal_scale(d, n)
    proj = np.zeros(d, dtype=np.complex128)
    proj[j] = 1.0
    return _site_sum(proj, np.ones(d, dtype=np.complex128), n) / n


def eigenrelation_check(
    op: np.ndarray, string, d: int, j: int
) -> tuple[float, float]:
    """Apply the operator with diagonal op to the coordinate vector of a
    basis string.

    Returns (eigenvalue, residual): the expected eigenvalue f_j of the
    string and the norm of (op e_s - f_j e_s), which is |op[s] - f_j|.
    """
    eig = sum(1 for i in string if i == j) / len(string)
    return eig, float(abs(op[string_to_index(string, d)] - eig))


def apply_to_product(spec: EnsembleSpec) -> np.ndarray:
    """F^j_N applied to the N-fold product state, by two routes.

    Route one multiplies the diagonal onto the product coefficient vector;
    route two evaluates the structural sum of N terms in which one tensor
    factor is replaced by c_j |j>, built site by site in O(d^N). The two
    must agree to 1e-12 per component; a mismatch raises, since it would
    mean the oracle itself is broken.
    """
    d, n, j = spec.state.dim, spec.n, spec.j
    vec = product_state_vector(spec)
    diag_route = frequency_diagonal(d, n, j) * vec

    e_j = np.zeros(d, dtype=np.complex128)
    e_j[j] = 1.0
    c_j = spec.state.amplitude(j)
    structural = c_j / n * _site_sum(e_j, spec.state.amplitudes, n)

    if np.max(np.abs(diag_route - structural)) > 1e-12:
        raise AssertionError("diagonal and structural routes disagree")
    return diag_route


def statistics_dense(spec: EnsembleSpec) -> dict:
    """<psi^N| F |psi^N>, |F psi^N - p psi^N|^2 (p = |c_j|^2) and
    <F psi^N | F psi^N>, in ``stats`` order. F is diagonal, so each is a sum
    over basis strings of the Born weight w times f, (f - p)^2 or f^2, taken
    by numpy's pairwise sums: no BLAS call, so no CPU-count dependence."""
    w = born_weights(spec)
    f = frequency_diagonal(spec.state.dim, spec.n, spec.j)
    return {
        "expectation": float(np.sum(w * f)),
        "distance_sq": float(np.sum(w * (f - spec.born_probability) ** 2)),
        "gram": float(np.sum(w * f * f)),
    }


def expectation_dense(spec: EnsembleSpec) -> float:
    """The ``expectation`` of :func:`statistics_dense`."""
    return statistics_dense(spec)["expectation"]


def spectral_weights_dense(spec: EnsembleSpec) -> np.ndarray:
    """Probability mass of the product state on each frequency eigenspace.

    Entry k is the squared norm of the projection of |psi>^N onto the span
    of basis strings containing exactly k occurrences of j: the sum of their
    Born weights. Oracle for the binomial closed form.
    """
    counts = frequency_counts(spec.state.dim, spec.n, spec.j)
    return np.bincount(counts, weights=born_weights(spec), minlength=spec.n + 1)


def verify_operator_algebra(d: int, n: int) -> dict:
    """Check the algebraic identities shared by all frequency operators.

    Verifies resolution of identity (sum over j of F^j = 1), pairwise
    commutation, Hermiticity, spectrum membership in {k/N}, and eigenspace
    multiplicities from the exact integer counts, up to the vector guard and
    d count vectors within the work guard. Up to the literal-route guard,
    with d**2 commutator pairs within the work guard, it also builds each
    literal diagonal once per j, checks the identities on it and compares
    it with the projector sum. No explicit matrix is ever built, and only
    one count vector is held at a time, so memory does not grow with d.

    Returns the whole ``verify`` entry for this N: the maximum deviation of
    each identity, ``max_deviation`` over them, and, where the literal
    routes ran (``dense_matrices``), ``construction_route_deviation``, the
    largest entrywise gap between the two constructions over j. The caller
    decides the tolerance.
    """
    guards.check_verify_work(d, n)
    literal = guards.fits(d, n, guards.LITERAL_ROUTE_GUARD) and guards.fits(
        d, n + 2, guards.VERIFY_WORK_GUARD)

    # Counts are exact integers, so spectrum membership is checked exactly:
    # every diagonal entry must be k/N for an integer k in [0, N].
    expected = np.array(
        [comb(n, k) * (d - 1) ** (n - k) for k in range(n + 1)], dtype=np.int64
    )
    in_range, multiplicity_ok, diag_sum = True, True, 0
    for j in range(d):
        counts = frequency_counts(d, n, j)
        in_range &= bool(counts.min() >= 0 and counts.max() <= n)
        multiplicity_ok &= in_range and np.array_equal(
            np.bincount(counts, minlength=n + 1), expected)
        diag_sum += counts / n
    del counts

    report = {
        "n": n,
        "d": d,
        "dense_matrices": literal,
        "sum_to_identity": float(np.max(np.abs(diag_sum - 1.0))),
        "max_commutator": 0.0,
        "hermiticity": 0.0,
        "spectrum_membership": 0.0 if in_range else float("inf"),
        "multiplicity_ok": multiplicity_ok,
        "max_deviation": 0.0,  # set last; its place keeps the verify key order
    }

    if literal:
        state = StateVector.uniform(d)
        specs = [EnsembleSpec(state, n, j) for j in range(d)]
        ops = [build_frequency_operator(spec) for spec in specs]
        report["hermiticity"] = max(
            float(np.max(np.abs(op - op.conj()))) for op in ops
        )
        report["max_commutator"] = max(
            float(np.max(np.abs(ops[a] * ops[b] - ops[b] * ops[a])))
            for a in range(d)
            for b in range(a + 1, d)
        ) if d > 1 else 0.0
        report["sum_to_identity"] = max(
            report["sum_to_identity"], float(np.max(np.abs(sum(ops) - 1.0)))
        )
        report["construction_route_deviation"] = max(
            float(np.max(np.abs(op - build_frequency_operator_projector_sum(spec))))
            for op, spec in zip(ops, specs)
        )

    report["max_deviation"] = max(report[key] for key in (
        "sum_to_identity", "max_commutator", "hermiticity", "spectrum_membership"))
    return report
