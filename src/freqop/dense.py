"""Brute-force oracle for the frequency operator at small ensemble sizes.

Everything here works with explicit coefficient vectors on the d**N product
space. The frequency operator is diagonal in the product basis, so an
operator is its complex128 diagonal, a vector of length d**N; no d**N x d**N
matrix is ever built. The closed forms in :mod:`freqop.analytic` are
validated against these routines.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .hilbert import (
    EnsembleSpec,
    ScaleError,
    StateVector,
    check_vector_scale,
    product_state_vector,
    string_to_index,
)

# The literal constructions loop over every basis string in Python, so they
# run only up to this size; between here and the vector guard the operator
# is checked through the vectorized counts alone.
LITERAL_ROUTE_GUARD = 2**12


def check_literal_scale(d: int, n: int) -> int:
    """Return d**n, or raise ScaleError if it exceeds the literal-route
    guard; N above log2 of the guard is refused before d**n is computed,
    as in :func:`check_vector_scale`."""
    max_n = LITERAL_ROUTE_GUARD.bit_length() - 1
    if n > max_n or d**n > LITERAL_ROUTE_GUARD:
        raise ScaleError(
            f"literal construction over {d}**{n} basis strings exceeds the guard "
            f"of {LITERAL_ROUTE_GUARD} and N <= {max_n}; use the implicit diagonal"
        )
    return d**n


def frequency_counts(d: int, n: int, j: int) -> np.ndarray:
    """Integer count of occurrences of j in each basis string, indexed by the
    flat basis index. Eigenvalues of the frequency operator are counts / N.

    Built one site at a time by outer sums: appending a site to every string
    adds 1 to the count where the new digit is j."""
    check_vector_scale(d, n)
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
    total = check_literal_scale(d, n)
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
    check_literal_scale(d, n)
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
    """The scalar statistics of the closed forms, computed directly from
    coefficient vectors, in the order ``stats`` prints them:
    ``expectation`` <psi^N| F |psi^N>, ``distance_sq`` the squared norm of
    F|psi^N> - |c_j|^2 |psi^N>, and ``gram`` <F psi^N | F psi^N>.
    |psi^N> and F|psi^N> are built once for all three."""
    vec = product_state_vector(spec)
    fvec = frequency_diagonal(spec.state.dim, spec.n, spec.j) * vec
    return {
        "expectation": float(np.vdot(vec, fvec).real),
        "distance_sq": float(
            np.linalg.norm(fvec - spec.born_probability * vec) ** 2
        ),
        "gram": float(np.vdot(fvec, fvec).real),
    }


def expectation_dense(spec: EnsembleSpec) -> float:
    """<psi^N| F |psi^N> computed directly from coefficient vectors."""
    return statistics_dense(spec)["expectation"]


def gram_dense(spec: EnsembleSpec) -> float:
    """<F psi^N | F psi^N> computed directly from coefficient vectors."""
    return statistics_dense(spec)["gram"]


def distance_sq_dense(spec: EnsembleSpec) -> float:
    """Squared norm of F|psi^N> - |c_j|^2 |psi^N>, directly from vectors."""
    return statistics_dense(spec)["distance_sq"]


def spectral_weights_dense(spec: EnsembleSpec) -> np.ndarray:
    """Probability mass of the product state on each frequency eigenspace.

    Entry k is the squared norm of the projection of |psi>^N onto the span
    of basis strings containing exactly k occurrences of j. Oracle for the
    binomial closed form.
    """
    d, n, j = spec.state.dim, spec.n, spec.j
    counts = frequency_counts(d, n, j)
    probs = np.abs(product_state_vector(spec)) ** 2
    return np.bincount(counts, weights=probs, minlength=n + 1)


def eigenspace_dimensions(d: int, n: int, j: int) -> np.ndarray:
    """Multiplicity of each eigenvalue k/N, counted by enumerating basis
    strings. Closed form: C(N, k) * (d-1)**(N-k)."""
    return np.bincount(frequency_counts(d, n, j), minlength=n + 1)


def verify_operator_algebra(d: int, n: int) -> dict:
    """Check the algebraic identities shared by all frequency operators.

    Verifies resolution of identity (sum over j of F^j = 1), pairwise
    commutation, Hermiticity, spectrum membership in {k/N}, and eigenspace
    multiplicities from the exact integer counts up to the vector guard.
    Up to the literal-route guard it also builds each literal diagonal once
    per j, checks the identities on it and compares it with the projector
    sum; no explicit matrix is ever built.

    Returns the whole ``verify`` entry for this N: the maximum deviation of
    each identity, ``max_deviation`` over them, and, where the literal
    routes ran (``dense_matrices``), ``construction_route_deviation``, the
    largest entrywise gap between the two constructions over j. The caller
    decides the tolerance.
    """
    total = check_vector_scale(d, n)
    # Where check_literal_scale admits the literal routes.
    literal = n < LITERAL_ROUTE_GUARD.bit_length() and total <= LITERAL_ROUTE_GUARD

    all_counts = [frequency_counts(d, n, j) for j in range(d)]
    diag_sum = sum(c / n for c in all_counts)

    report = {
        "n": n,
        "d": d,
        "dense_matrices": literal,
        "sum_to_identity": float(np.max(np.abs(diag_sum - 1.0))),
        "max_commutator": 0.0,
        "hermiticity": 0.0,
        "spectrum_membership": 0.0,
        "multiplicity_ok": True,
        "max_deviation": 0.0,  # set last; its place keeps the verify key order
    }

    # Counts are exact integers, so spectrum membership is checked exactly:
    # every diagonal entry must be k/N for an integer k in [0, N].
    expected = np.array(
        [comb(n, k) * (d - 1) ** (n - k) for k in range(n + 1)], dtype=np.int64
    )
    for counts in all_counts:
        if counts.min() < 0 or counts.max() > n:
            report["spectrum_membership"] = float("inf")
        if not np.array_equal(np.bincount(counts, minlength=n + 1), expected):
            report["multiplicity_ok"] = False

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

    report["max_deviation"] = max(
        report["sum_to_identity"],
        report["max_commutator"],
        report["hermiticity"],
        report["spectrum_membership"],
    )
    return report
