import functools
import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqop.guards import DENSE_VECTOR_GUARD, ScaleError, check_vector_scale
from freqop.hilbert import (
    NORM_TOL,
    EnsembleSpec,
    StateVector,
    kron_fold,
    pairwise_sum,
    product_state_vector,
    string_to_index,
    _leaf_sum,
)

from conftest import random_state


class TestStateVector:
    def test_norm_invariant_enforced(self):
        with pytest.raises(ValueError, match=r"^state vector not normalized: "
                                             r"\|norm - 1\| = 4\.142e-01$"):
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

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_two_level_refuses_p_outside_0_1(self, p):
        with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {p}$"):
            StateVector.two_level(p)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_uniform_dim_below_one_refused(self, dim):
        with pytest.raises(ValueError, match=rf"^uniform state needs dimension >= 1, got {dim}$"):
            StateVector.uniform(dim)

    def test_two_level_preset(self):
        s = StateVector.two_level(0.36)
        assert s.amplitudes[0] == pytest.approx(0.6)
        assert s.amplitudes[1] == pytest.approx(0.8)

    def test_json_round_trip(self):
        s = StateVector.from_json(
            '{"dim": 2, "amplitudes": '
            '[{"re": 0.6, "im": 0}, {"re": 0, "im": 0.8}]}'
        )
        assert np.array_equal(s.amplitudes, [0.6, 0.8j])

    # uniform checks no norm (see test_uniform_passes_the_norm_check).
    @pytest.mark.parametrize("dim", [4097, 10**5 + 3, 659465, 999983, 1048531, 2**20 - 1, 2**20])
    def test_large_uniform_is_normalized(self, dim):
        assert numpy_accepts(StateVector.uniform(dim).amplitudes)

    def test_dimension_guard_before_allocation(self):
        dim = DENSE_VECTOR_GUARD + 1
        with pytest.raises(ScaleError, match="guard"):
            StateVector.uniform(dim)
        with pytest.raises(ScaleError, match="guard"):
            StateVector.from_json_dict({"dim": dim, "amplitudes": []})

    @pytest.mark.parametrize("dim", [0, -1])
    def test_json_dim_below_one_refused_first(self, dim):
        # Before the amplitudes are read: the list's length is not the fault.
        with pytest.raises(ValueError, match=r'^"dim" needs dimension >= 1, got -?\d$'):
            StateVector.from_json_dict({"dim": dim, "amplitudes": [{"re": 1.0, "im": 0.0}]})

    def test_json_dim_above_the_guards_square_root_is_read(self):
        # A single system is N = 1: the guard bounds d, not d**2.
        dim = math.isqrt(DENSE_VECTOR_GUARD) + 1
        amps = [{"re": 1.0 / math.sqrt(dim), "im": 0.0}] * dim
        assert StateVector.from_json_dict({"dim": dim, "amplitudes": amps}).dim == dim

    def test_json_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match dim"):
            StateVector.from_json_dict(
                {"dim": 3, "amplitudes": [{"re": 1.0, "im": 0.0}]}
            )


def numpy_accepts(amps: np.ndarray) -> bool:
    """The norm check as numpy made it: |sqrt(np.sum(|c|^2)) - 1| <= NORM_TOL."""
    norm = float(np.sqrt(np.sum(amps.real**2 + amps.imag**2)))
    return abs(norm - 1.0) <= NORM_TOL


class TestStateVectorWithoutNumpy:
    """Validation and ``probability`` run in Python floats, with numpy's
    bits and its accept/refuse set."""

    def test_pairwise_sum_matches_np_sum(self, rng):
        # 1.0, then 2**-53s: a running sum stays at 1.0, a tree's partial
        # sums do not. 8 terms: the fewest that numpy sums eightfold; 129:
        # the fewest that it splits.
        for n in (8, 129):
            a = array("d", [1.0] + [2.0**-53] * (n - 1))
            assert pairwise_sum(functools.partial(_leaf_sum, a), 0, n) == np.sum(a)
        for _ in range(300):
            a = rng.random(int(rng.integers(1, 5000))) * 10.0 ** rng.integers(-3, 4)
            leaf = functools.partial(_leaf_sum, array("d", a.tolist()))
            assert pairwise_sum(leaf, 0, a.size) == np.sum(a)

    @pytest.mark.parametrize("dim", [1, 3, 1000, 4099])
    def test_norm_check_matches_numpy_one_ulp_either_side(self, rng, dim):
        base = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        base /= np.linalg.norm(base)
        decisions = set()
        for edge in (1.0 - NORM_TOL, 1.0 + NORM_TOL):
            scale = edge
            for _ in range(3):
                scale = math.nextafter(scale, 0.0)
            for _ in range(7):
                amps = base * scale
                accepted = numpy_accepts(amps)
                decisions.add(accepted)
                if accepted:
                    assert StateVector(amps).dim == dim
                else:
                    with pytest.raises(ValueError, match="not normalized"):
                        StateVector(amps)
                scale = math.nextafter(scale, 2.0)
        assert decisions == {True, False}

    def test_uniform_passes_the_norm_check(self):
        # uniform checks no norm: its parts must pass the check, whose bits
        # numpy_accepts has (the test above), here and at the large d of
        # test_large_uniform_is_normalized.
        for dim in range(1, 4097):
            assert numpy_accepts(StateVector.uniform(dim).amplitudes), dim

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 4096])
    def test_uniform_parts_pass_the_checked_path_unchanged(self, dim):
        amps = StateVector.uniform(dim).amplitudes
        assert StateVector(list(amps)).amplitudes.tobytes() == amps.tobytes()

    def test_probability_matches_the_numpy_scalar_path(self, rng):
        for _ in range(20):
            s = random_state(rng, int(rng.integers(1, 200)))
            assert [s.probability(i) for i in range(s.dim)] == [
                min(float(abs(c) ** 2), 1.0) for c in s.amplitudes]

    @pytest.mark.parametrize("preset", [StateVector.two_level(0.36), StateVector.uniform(5)],
                             ids=["two-level", "uniform5"])
    def test_probability_refuses_an_index_out_of_range(self, preset):
        d = preset.dim
        for i in (-1, -d, d):
            with pytest.raises(ValueError) as exc:
                preset.probability(i)
            assert str(exc.value) == f"target index {i} out of range [0, {d})"

    def test_probability_is_at_most_1(self):
        # Within NORM_TOL above unit norm, |c|^2 = 1 + 2**-44.
        assert StateVector([1.0 + 2.0**-45]).probability(0) == 1.0

    def test_probabilities_take_numpy_array_abs(self, rng):
        s = random_state(rng, 1000)
        assert s.probabilities().tobytes() == (np.abs(s.amplitudes) ** 2).tobytes()

    def test_amplitudes_view_the_parts_and_stay_read_only(self):
        s = StateVector([0.6, 0.8j])
        assert not s.amplitudes.flags.owndata and s.amplitudes.tolist() == [0.6, 0.8j]
        with pytest.raises(ValueError):
            s.amplitudes.flags.writeable = True

    def test_json_amplitudes_overflowing_a_float_are_refused(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_json_dict({"dim": 1, "amplitudes": [{"re": 10**400, "im": 0}]})


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
        for string, i in (((0, 2), 2), ((-1, 0), -1)):
            with pytest.raises(ValueError, match=rf"^basis index {i} out of range \[0, 2\)$"):
                string_to_index(string, 2)


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


class TestKronFold:
    class Counting:
        """A binary ufunc stand-in that counts its calls."""

        def __init__(self, ufunc):
            self.ufunc, self.identity, self.calls = ufunc, ufunc.identity, 0

        def __call__(self, *args, **kwargs):
            self.calls += 1
            return self.ufunc(*args, **kwargs)

    @pytest.mark.parametrize("ufunc", [np.multiply, np.add])
    @pytest.mark.parametrize("d, n", [(1, 5), (2, 1), (2, 7), (3, 4), (16, 3), (4096, 1)])
    def test_first_site_in_one_call_then_one_call_per_digit(self, ufunc, d, n):
        factor = np.arange(1, d + 1, dtype=np.float64)
        counting = self.Counting(ufunc)
        out = kron_fold(factor, n, counting)
        assert counting.calls == 1 + (n - 1) * d
        assert out.size == d**n
        if d <= 3:  # entry s folds the digits of s left to right
            assert out.tolist() == [
                functools.reduce(ufunc, s, ufunc.identity)
                for s in itertools.product(factor.tolist(), repeat=n)
            ]

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 7), (7, 4)])
    def test_folds_started_from_each_prefix_give_the_full_folds_bytes(self, rng, d, n):
        factor = random_state(rng, d).probabilities()
        full = kron_fold(factor, n).tobytes()
        for k in range(1, n):
            prefixes = kron_fold(factor, k)
            blocks = [kron_fold(factor, n - k, start=s) for s in prefixes]
            assert np.concatenate(blocks).tobytes() == full, k
            # All but the first prefix at once: the strings from d**(n-k) on.
            rest = kron_fold(factor, n - k, start=prefixes[1:]).tobytes()
            assert rest == full[8 * d ** (n - k):], k

    def test_refuses_an_empty_fold_and_the_guard(self):
        with pytest.raises(ValueError, match="n >= 1"):
            kron_fold(np.ones(2), 0)
        with pytest.raises(ScaleError):
            kron_fold(np.ones(2), 21)


class TestEnsembleSpec:
    def test_validation(self):
        s = StateVector.uniform(2)
        with pytest.raises(ValueError):
            EnsembleSpec(s, 0, 0)
        with pytest.raises(ValueError):
            EnsembleSpec(s, 1, 2)

    @pytest.mark.parametrize("n,j,message", [
        (0, 0, "ensemble size must be >= 1, got 0"),
        (-3, 0, "ensemble size must be >= 1, got -3"),
        (1, 2, "target index 2 out of range [0, 2)"),
        (1, -1, "target index -1 out of range [0, 2)"),
    ])
    def test_refusal_messages(self, n, j, message):
        with pytest.raises(ValueError) as exc:
            EnsembleSpec(StateVector.uniform(2), n, j)
        assert str(exc.value) == message

    def test_immutable(self):
        spec = EnsembleSpec(StateVector.uniform(2), 3, 1)
        for name in ("state", "n", "j", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 2)
        assert (spec.n, spec.j) == (3, 1)

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
