import itertools
import tracemalloc

import numpy as np
import pytest

from freqop import dense
from freqop.cli import main
from freqop.dense import (
    apply_to_product,
    build_frequency_operator,
    build_frequency_operator_projector_sum,
    eigenrelation_check,
    frequency_counts,
    frequency_diagonal,
    spectral_weights_dense,
    statistics_dense,
    verify_operator_algebra,
)
from freqop.guards import LITERAL_ROUTE_GUARD, ScaleError, check_literal_scale
from freqop.hilbert import EnsembleSpec, StateVector

from conftest import random_state


class TestBuild:
    def test_single_system_projector(self):
        op = build_frequency_operator(EnsembleSpec(StateVector.uniform(2), 1, 0))
        np.testing.assert_allclose(op, [1.0, 0.0])

    def test_two_qubits_j0(self):
        # Enumerated by hand over strings 00, 01, 10, 11.
        op = build_frequency_operator(EnsembleSpec(StateVector.uniform(2), 2, 0))
        np.testing.assert_allclose(op, [1.0, 0.5, 0.5, 0.0])

    def test_qutrit_pair_selected_entries(self):
        diag = frequency_diagonal(3, 2, 1)
        assert diag[3 * 1 + 1] == 1.0
        assert diag[3 * 1 + 2] == 0.5
        assert diag[3 * 0 + 2] == 0.0

    def test_matrix_scale_guard(self):
        with pytest.raises(ScaleError):
            build_frequency_operator(EnsembleSpec(StateVector.uniform(2), 13, 0))

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_dense_matrices_exactly_where_literal_guard_admits(self, d):
        edge = max(n for n in range(1, 13) if d**n <= LITERAL_ROUTE_GUARD)
        admitted = []
        for n in (edge, edge + 1):
            try:
                check_literal_scale(d, n)
                admitted.append(True)
            except ScaleError:
                admitted.append(False)
            assert verify_operator_algebra(d, n)["dense_matrices"] is admitted[-1]
        assert admitted == [True, False]

    def test_literal_guard_refuses_n_above_12_at_d1(self):
        # 1**13 = 1 basis string, yet N = 13 is above log2 of the guard;
        # verify takes the implicit diagonal there instead of failing.
        with pytest.raises(ScaleError, match="guard of 4096 and N <= 12"):
            build_frequency_operator(EnsembleSpec(StateVector.uniform(1), 13, 0))
        assert verify_operator_algebra(1, 12)["dense_matrices"] is True
        assert verify_operator_algebra(1, 13)["dense_matrices"] is False

    @pytest.mark.parametrize("d, literal", [(256, True), (512, False)])
    def test_literal_routes_need_commutator_pairs_within_work_guard(self, d, literal):
        # 256**2 pairs of 256 entries is the work guard exactly; 512 fits
        # the literal guard but not its 512**2 commutator pairs.
        assert verify_operator_algebra(d, 1)["dense_matrices"] is literal

    @pytest.mark.parametrize("d", [2, 3])
    def test_route_equivalence(self, d):
        for n in range(1, 7):
            dev = verify_operator_algebra(d, n)["construction_route_deviation"]
            assert dev < 1e-14

    def test_projector_sum_matches_counts(self):
        for d, n in [(2, 6), (3, 4), (2, 12), (3, 7)]:
            for j in range(d):
                op = build_frequency_operator_projector_sum(
                    EnsembleSpec(StateVector.uniform(d), n, j)
                )
                assert op.shape == (d**n,)
                np.testing.assert_allclose(
                    op, frequency_diagonal(d, n, j), rtol=0, atol=1e-15
                )


@pytest.mark.parametrize("d,n", [(2, 1), (2, 7), (3, 5), (5, 3)])
def test_frequency_counts_match_strings(d, n):
    for j in range(d):
        counts = frequency_counts(d, n, j)
        assert counts.dtype == np.int64
        assert counts.shape == (d**n,)
        assert counts.tolist() == [
            s.count(j) for s in itertools.product(range(d), repeat=n)
        ]


def test_frequency_counts_scale_guard():
    with pytest.raises(ScaleError):
        frequency_counts(2, 21, 0)


class TestEigenrelation:
    def test_two_of_three(self):
        op = build_frequency_operator(EnsembleSpec(StateVector.uniform(2), 3, 1))
        eig, res = eigenrelation_check(op, (1, 1, 0), d=2, j=1)
        assert eig == pytest.approx(2 / 3)
        assert res < 1e-14

    def test_extremes(self):
        op = build_frequency_operator(EnsembleSpec(StateVector.uniform(2), 3, 1))
        assert eigenrelation_check(op, (0, 0, 0), d=2, j=1)[0] == 0.0
        assert eigenrelation_check(op, (1, 1, 1), d=2, j=1)[0] == 1.0

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_every_string_is_eigenvector(self, d, n):
        for j in range(d):
            op = build_frequency_operator(EnsembleSpec(StateVector.uniform(d), n, j))
            for string in itertools.product(range(d), repeat=n):
                eig, res = eigenrelation_check(op, string, d=d, j=j)
                assert eig == sum(1 for i in string if i == j) / n
                assert res < 1e-13


class TestApplyToProduct:
    def test_eigenstate_case(self):
        spec = EnsembleSpec(StateVector([1, 0]), 3, 0)
        vec = apply_to_product(spec)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_zero_amplitude_gives_zero(self):
        spec = EnsembleSpec(StateVector([1, 0]), 3, 1)
        np.testing.assert_allclose(apply_to_product(spec), np.zeros(8), atol=1e-15)

    def test_uniform_qubit_pair(self):
        # Structural sum evaluated by hand: (c_0/2)(|0>|psi> + |psi>|0>)
        # with c_0 = 1/sqrt(2) gives (0.5, 0.25, 0.25, 0).
        vec = apply_to_product(EnsembleSpec(StateVector.uniform(2), 2, 0))
        np.testing.assert_allclose(vec, [0.5, 0.25, 0.25, 0.0], atol=1e-14)

    def test_routes_agree_random(self, rng):
        # apply_to_product internally asserts matrix-diagonal route equals
        # the structural sum at 1e-12 per component.
        for _ in range(50):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 6))
            j = int(rng.integers(0, d))
            apply_to_product(EnsembleSpec(random_state(rng, d), n, j))


class TestScalars:
    def test_distance_known_value(self):
        spec = EnsembleSpec(StateVector.two_level(0.5), 10, 0)
        assert statistics_dense(spec)["distance_sq"] == pytest.approx(0.025, abs=1e-14)

    def test_gram_known_value(self):
        spec = EnsembleSpec(StateVector.two_level(0.5), 2, 0)
        assert statistics_dense(spec)["gram"] == pytest.approx(0.375, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_exact_eigenstate_distance_zero(self, p):
        spec = EnsembleSpec(StateVector.two_level(p), 8, 0)
        assert statistics_dense(spec)["distance_sq"] == pytest.approx(0.0, abs=1e-28)

    def test_expansion_identity(self, rng):
        # distance_sq == gram - 2 p <F> + p^2, the polarization expansion
        # of the squared norm.
        for _ in range(30):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            j = int(rng.integers(0, d))
            spec = EnsembleSpec(random_state(rng, d), n, j)
            p = spec.born_probability
            s = statistics_dense(spec)
            rhs = s["gram"] - 2 * p * s["expectation"] + p**2
            assert s["distance_sq"] == pytest.approx(rhs, abs=1e-12)


class TestAlgebra:
    @pytest.mark.parametrize("d,n", [(2, 3), (2, 6), (3, 4)])
    def test_report_clean(self, d, n):
        report = verify_operator_algebra(d, n)
        assert report["sum_to_identity"] <= 1e-14
        assert report["max_commutator"] <= 1e-14
        assert report["hermiticity"] <= 1e-14
        assert report["spectrum_membership"] == 0.0
        assert report["multiplicity_ok"]

    def test_no_matrix_allocated(self):
        # One 4096 x 4096 complex matrix alone would take 256 MB.
        tracemalloc.start()
        try:
            verify_operator_algebra(2, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_does_not_grow_with_d(self):
        # 16**5 = 2**20 entries, 8 MiB per vector: holding the 16 count
        # vectors at once would peak above 128 MiB.
        tracemalloc.start()
        try:
            verify_operator_algebra(16, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_implicit_diagonal_path(self):
        report = verify_operator_algebra(2, 15)
        assert not report["dense_matrices"]
        assert report["sum_to_identity"] <= 1e-14
        assert report["multiplicity_ok"]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_eigenspace_multiplicities(self, d, n, monkeypatch, capsys):
        # Multiplicities C(N, k) * (d-1)**(N-k), checked inside verify.
        assert verify_operator_algebra(d, n)["multiplicity_ok"] is True
        # One string's count moved down by one: still a valid eigenvalue,
        # but eigenspaces k and k-1 change size. A count of -1 is no
        # eigenvalue at all. Either is a tolerance FAIL (exit 1), not a
        # usage error.
        def moved(counts):
            counts[int(np.argmax(counts))] -= 1

        def negative(counts):
            counts[0] = -1

        for mutate, membership in ((moved, 0.0), (negative, float("inf"))):
            def broken(d, n, j, mutate=mutate):
                counts = frequency_counts(d, n, j)
                mutate(counts)
                return counts

            monkeypatch.setattr(dense, "frequency_counts", broken)
            report = verify_operator_algebra(d, n)
            assert report["spectrum_membership"] == membership
            assert report["multiplicity_ok"] is False
            assert main(["verify", "--dim", str(d), "--n-max", str(n)]) == 1
            capsys.readouterr()

    def test_spectrum_of_f0_n4(self):
        vals = sorted(set(frequency_diagonal(2, 4, 0)))
        assert vals == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestSpectralWeightsDense:
    def test_uniform_qubit_pair(self):
        w = spectral_weights_dense(EnsembleSpec(StateVector.uniform(2), 2, 0))
        np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-14)

    def test_weights_sum_to_one(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            w = spectral_weights_dense(EnsembleSpec(random_state(rng, d), n, 0))
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_determinism():
    spec = EnsembleSpec(StateVector.two_level(0.3), 5, 0)
    a = statistics_dense(spec)
    b = statistics_dense(spec)
    assert a == b
