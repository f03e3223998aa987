"""Brute-force oracle for the frequency operator at small ensemble sizes.

Everything here works with explicit vectors (coefficients, Born weights) on
the d**N product space. The frequency operator is diagonal in the product basis, so an
operator is its complex128 diagonal, a vector of length d**N; no d**N x d**N
matrix is ever built. The CLI's routes, ``verify_operator_algebra`` and
``statistics_dense``, hold no vector of d**N entries either: both walk the
basis strings in the same blocks (``_walk``). The closed forms in
:mod:`freqop.analytic` are validated against these routines.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from . import guards
from .hilbert import (
    EnsembleSpec,
    StateVector,
    kron_fold,
    pairwise_sum,
    product_state_vector,
    string_to_index,
)


def frequency_counts(d: int, n: int, j: int) -> np.ndarray:
    """Integer count of occurrences of j in each basis string, indexed by the
    flat basis index, as int8 (the vector guard caps N at 20): the
    Kronecker fold under ``np.add`` of j's indicator. Eigenvalues of the
    frequency operator are counts / N."""
    guards.check_vector_scale(d, n)
    guards.check_target(j, d)
    return kron_fold(np.eye(1, d, j, np.int8)[0], n, np.add)


def build_frequency_operator(spec: EnsembleSpec) -> np.ndarray:
    """Literal construction: sum over all basis strings of f_j times the
    rank-one projector onto that string, returned as its diagonal; the
    strings are enumerated in index order (``itertools.product``)."""
    d, n, j = spec.state.dim, spec.n, spec.j
    total = guards.check_literal_scale(d, n)
    strings = itertools.product(range(d), repeat=n)
    return np.fromiter((s.count(j) / n for s in strings), np.complex128, total)


def _site_sum(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Sum over the n sites of the tensor product with a at that site and b
    at every other site, all factors 1-D.

    Built one site at a time: ``total`` holds the sum over the sites seen so
    far and ``plain`` the product of b alone, so the cost is O(len(b)**n).
    Each Kronecker product of 1-D factors is their flattened outer product,
    the multiply of ``np.kron`` without its N-d shape handling."""
    total = np.zeros(1, dtype=np.complex128)
    plain = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        total = np.multiply.outer(total, b).ravel()
        total += np.multiply.outer(plain, a).ravel()
        plain = np.multiply.outer(plain, b).ravel()
    return total


def build_frequency_operator_projector_sum(spec: EnsembleSpec) -> np.ndarray:
    """Equivalent construction as (1/N) times the sum over sites of the
    single-site projector |j><j| tensored with identities elsewhere, each
    factor given by its diagonal (the projector e_j, the identity all
    ones); returns the diagonal of the sum. It never reads the counts, so
    it stays an independent check on them."""
    d, n, j = spec.state.dim, spec.n, spec.j
    guards.check_literal_scale(d, n)
    proj = np.eye(1, d, j, np.complex128)[0]
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
    diag_route = frequency_counts(d, n, j) / n * vec

    e_j = np.eye(1, d, j, np.complex128)[0]
    c_j = complex(spec.state.amplitudes[j])
    structural = c_j / n * _site_sum(e_j, spec.state.amplitudes, n)

    if np.max(np.abs(diag_route - structural)) > 1e-12:
        raise AssertionError("diagonal and structural routes disagree")
    return diag_route


# Most strings in a block of the walk, and in a pairwise run or a prefix table.
_BLOCK = 2**15
_NODE = 2**13


def _walk(d: int, n: int, tables):
    """Walk the d**n basis strings in index order, in blocks: the runs of
    numpy's pairwise tree (``pairwise_sum``) of at most ``_BLOCK`` strings.
    ``tables`` is a sequence of 1-D arrays, a list or the rows of a 2-D
    array. Per block, yield a generator of each table's Kronecker fold on it,
    built as read, under the ufunc the table's dtype picks: ``np.add`` on
    an integer table (j's indicator) into exact counts, ``np.multiply`` on a
    float one (Born weights). At N = 1 a block slices the table. Else a
    block folds on from its prefixes' folds, the first k < n digits with
    d**k < ``_NODE``, at once: a float fold digit by digit, for the full
    fold's bits, and an integer fold with its last n - k digits as one."""
    # pairwise_sum adds the lists that its node returns, so this lists runs.
    runs = pairwise_sum(lambda lo, size: [(lo, size)], 0, d**n, _BLOCK)
    if n == 1:
        for lo, size in runs:
            yield (table[lo : lo + size] for table in tables)
        return
    k = next((k for k in range(n - 1, 1, -1) if d**k < _NODE), 1)
    width = d ** (n - k)
    folds = []
    for factor in tables:
        ufunc = np.add if factor.dtype.kind == "i" else np.multiply
        prefixes, sites = kron_fold(factor, k, ufunc), n - k
        if ufunc is np.add:
            factor, sites = kron_fold(factor, sites, ufunc), 1
        folds.append((prefixes, factor, sites, ufunc))
    for lo, size in runs:
        (first, skip), last = divmod(lo, width), -(-(lo + size) // width)
        yield (kron_fold(factor, sites, ufunc, start=prefixes[first:last])[skip : skip + size]
               for prefixes, factor, sites, ufunc in folds)


def _run_sums(w: np.ndarray, counts: np.ndarray, n: int, p: float) -> np.ndarray:
    """``np.sum`` of w * f, w * (f - p)**2 and w * f * f on one run, f = counts / n."""
    f = counts / n
    e = w * f
    g = e * f
    np.square(f - p, out=f)
    f *= w
    return np.array((e.sum(), f.sum(), g.sum()))


def statistics_dense(spec: EnsembleSpec) -> dict:
    """<psi^N| F |psi^N>, |F psi^N - p psi^N|^2 (p = |c_j|^2) and
    <F psi^N | F psi^N>, in ``stats`` order. F is diagonal, so each is a sum
    over basis strings of the Born weight w times f, (f - p)^2 or f^2. Each
    has the bits of ``np.sum`` over the d**N products w * f, w * (f - p)**2
    and w * f * f: no BLAS call, so no CPU-count dependence.

    No vector of d**N entries is held: each block of ``_walk``'s weights and
    counts splits into runs of numpy's pairwise tree of at most ``_NODE``
    strings, whose sums are then added up the tree. The loop holds a block
    while the next is built, so the heap reuses its pages."""
    d, n, j, p = spec.state.dim, spec.n, spec.j, spec.born_probability
    total = guards.check_vector_scale(d, n)
    probs, hit = spec.state.probabilities(), np.eye(1, d, j, np.int8)[0]
    runs = []
    for w, counts in _walk(d, n, (probs, hit)):
        for lo, size in pairwise_sum(lambda lo, size: [(lo, size)], 0, w.size, _NODE):
            runs.append(_run_sums(w[lo : lo + size], counts[lo : lo + size], n, p))
    runs = iter(runs)
    sums = pairwise_sum(lambda lo, size: next(runs), 0, total, _NODE)
    return dict(zip(("expectation", "distance_sq", "gram"), map(float, sums)))


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
    weights = kron_fold(spec.state.probabilities(), spec.n)
    return np.bincount(counts, weights=weights, minlength=spec.n + 1)


def verify_operator_algebra(d: int, n: int) -> dict:
    """Check the algebraic identities shared by all frequency operators.

    Verifies resolution of identity (sum over j of F^j = 1), pairwise
    commutation, Hermiticity, spectrum membership in {k/N}, and eigenspace
    multiplicities from the exact integer counts, up to the vector guard and
    d count vectors within the work guard. Up to the literal-route guard,
    with d**2 commutator pairs within the work guard, it also builds each
    literal diagonal once per j, checks the identities on it and compares
    it with the projector sum. No explicit matrix is ever built, nor, as
    the counts are walked in blocks (``_walk``), any vector of d**N entries.

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
    # each entry is k/N, k in [0, N], if F^j's eigenspaces hold all strings.
    expected = [comb(n, k) * (d - 1) ** (n - k) for k in range(n + 1)]
    multiplicities, deviation = np.zeros((d, n + 1), dtype=np.int64), 0.0
    # j's indicator is row j, unit[d - 1 - j : 2d - 1 - j], of one read-only
    # strided view of a unit vector whose 1 sits at d - 1; _walk makes each
    # row's view only as it reads it.
    unit = np.eye(1, 2 * d - 1, d - 1, np.int8)[0]
    for block in _walk(d, n, np.lib.stride_tricks.sliding_window_view(unit, d)[::-1]):
        diag_sum = 0.0  # per string from 0.0 in order over j: the same bits in any block
        for row, counts in zip(multiplicities, block):
            # Below N = 8 count_nonzero beats bincount; as uint8 a negative count is above N.
            row += ([np.count_nonzero(counts == k) for k in range(n + 1)] if n < 8
                    else np.bincount(counts.view(np.uint8), minlength=n + 1)[: n + 1])
            diag_sum += counts / n
        deviation = max(deviation, float(diag_sum.max()) - 1, 1 - float(diag_sum.min()))

    report = {
        "n": n,
        "d": d,
        "dense_matrices": literal,
        "sum_to_identity": deviation,
        "max_commutator": 0.0,
        "hermiticity": 0.0,
        "spectrum_membership": 0.0 if (multiplicities.sum(1) == d**n).all() else float("inf"),
        "multiplicity_ok": bool((multiplicities == expected).all()),
        "max_deviation": 0.0,  # set last; its place keeps the verify key order
    }

    if literal:
        state = StateVector.uniform(d)
        specs = [EnsembleSpec(state, n, j) for j in range(d)]
        ops = [build_frequency_operator(spec) for spec in specs]
        report["hermiticity"] = max(
            float(np.max(np.abs(op - op.conj()))) for op in ops
        )
        pairs = itertools.combinations(ops, 2)
        report["max_commutator"] = max(
            (float(np.max(np.abs(a * b - b * a))) for a, b in pairs), default=0.0)
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
