import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqop.guards import DENSE_VECTOR_GUARD, ScaleError, check_vector_scale
from freqop.hilbert import (
    EnsembleSpec,
    StateVector,
    product_state_vector,
    string_to_index,
)

from conftest import random_state


class TestStateVector:
    def test_norm_invariant_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector([np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            StateVector([np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StateVector([])

    def test_amplitudes_immutable(self):
        s = StateVector.uniform(2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_two_level_preset(self):
        s = StateVector.two_level(0.36)
        assert s.amplitude(0) == pytest.approx(0.6)
        assert s.amplitude(1) == pytest.approx(0.8)

    def test_json_round_trip(self):
        s = StateVector.from_json(
            '{"dim": 2, "amplitudes": '
            '[{"re": 0.6, "im": 0}, {"re": 0, "im": 0.8}]}'
        )
        assert np.array_equal(s.amplitudes, [0.6, 0.8j])

    @pytest.mark.parametrize("dim", [659465, 1048531])
    def test_large_uniform_is_normalized(self, dim):
        assert StateVector.uniform(dim).dim == dim

    def test_dimension_guard_before_allocation(self):
        dim = DENSE_VECTOR_GUARD + 1
        with pytest.raises(ScaleError, match="guard"):
            StateVector.uniform(dim)
        with pytest.raises(ScaleError, match="guard"):
            StateVector.from_json_dict({"dim": dim, "amplitudes": []})

    def test_json_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match dim"):
            StateVector.from_json_dict(
                {"dim": 3, "amplitudes": [{"re": 1.0, "im": 0.0}]}
            )


class TestIndexing:
    @pytest.mark.parametrize(
        "string,d,expected",
        [((0, 1), 2, 1), ((1, 0), 2, 2), ((2, 1), 3, 7)],
    )
    def test_known_encodings(self, string, d, expected):
        assert string_to_index(string, d) == expected

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_round_trip_all_strings(self, d, n):
        strings = itertools.product(range(d), repeat=n)
        assert [string_to_index(s, d) for s in strings] == list(range(d**n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            string_to_index((0, 2), 2)


class TestProductState:
    def test_basis_state_power(self):
        vec = product_state_vector(EnsembleSpec(StateVector([1, 0]), 3, 0))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected)

    def test_uniform_qubit_squared(self):
        vec = product_state_vector(EnsembleSpec(StateVector.uniform(2), 2, 0))
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_single_copy(self):
        vec = product_state_vector(EnsembleSpec(StateVector.two_level(0.36), 1, 0))
        np.testing.assert_allclose(vec, [0.6, 0.8], atol=1e-15)

    def test_norm_preserved_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            vec = product_state_vector(EnsembleSpec(random_state(rng, d), n, 0))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            product_state_vector(EnsembleSpec(StateVector.uniform(2), 21, 0))

    @pytest.mark.parametrize("d, n", [(1, 21), (10, 3 * 10**6)])
    def test_scale_guard_refuses_n_above_log2_of_guard(self, d, n):
        # Decided from N alone: 10**(3*10**6) is never computed, and a
        # single-outcome state cannot slip through with 1**N = 1.
        with pytest.raises(ScaleError, match="guard of 1048576 entries and N <= 20"):
            check_vector_scale(d, n)
        assert check_vector_scale(1, 20) == 1


class TestEnsembleSpec:
    def test_validation(self):
        s = StateVector.uniform(2)
        with pytest.raises(ValueError):
            EnsembleSpec(s, 0, 0)
        with pytest.raises(ValueError):
            EnsembleSpec(s, 1, 2)

    def test_born_probability(self):
        assert EnsembleSpec(StateVector.two_level(0.36), 5, 0).born_probability == (
            pytest.approx(0.36)
        )


@given(
    st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
        ),
        min_size=1,
        max_size=8,
    ).filter(lambda xs: sum(re * re + im * im for re, im in xs) > 1e-6)
)
@settings(max_examples=100, deadline=None)
def test_renormalized_states_always_valid(pairs):
    v = np.array([complex(re, im) for re, im in pairs])
    s = StateVector(v / np.linalg.norm(v))
    assert np.vdot(s.amplitudes, s.amplitudes) == pytest.approx(1.0, abs=1e-12)
