"""State vectors and product-basis index arithmetic.

A single system lives in a d-dimensional Hilbert space with the measurement
eigenbasis as coordinate basis; an ensemble of N identically prepared copies
lives in the d**N-dimensional tensor power. Basis strings (i_1, ..., i_N)
label the product basis and map to flat indices by row-major mixed radix
(leftmost digit most significant).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .guards import check_vector_scale

NORM_TOL = 1e-12


def _is_json_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class StateVector:
    """Normalized complex amplitude vector for a single system.

    Amplitudes are stored as a read-only complex128 array. Construction
    rejects non-finite entries and any vector whose norm deviates from 1 by
    more than ``NORM_TOL``; a caller holding an unnormalized vector divides
    it by its norm before constructing. States are read from JSON, never
    written; two states compare by their ``amplitudes``. A single system is
    the N = 1 product space, so ``uniform`` and the JSON reader refuse a
    dimension above ``guards.DENSE_VECTOR_GUARD`` before building any array.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=np.complex128).ravel()
        if amps.size < 1:
            raise ValueError("state vector needs at least one amplitude")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("state amplitudes must be finite")
        # A pairwise sum: np.linalg.norm's accumulation error passes
        # NORM_TOL from about a million entries.
        norm = float(np.sqrt(np.sum(amps.real**2 + amps.imag**2)))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state vector not normalized: |norm - 1| = {abs(norm - 1.0):.3e}"
            )
        amps.flags.writeable = False
        self._amps = amps

    @property
    def dim(self) -> int:
        return self._amps.size

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    def probability(self, i: int) -> float:
        """Born weight |c_i|^2 of outcome index i, at most 1.0: a state
        within ``NORM_TOL`` of unit norm can have |c_i|^2 just above 1."""
        return min(float(abs(self._amps[i]) ** 2), 1.0)

    def probabilities(self) -> np.ndarray:
        return np.abs(self._amps) ** 2

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"

    # -- presets ---------------------------------------------------------

    @classmethod
    def uniform(cls, dim: int) -> "StateVector":
        if dim < 1:
            raise ValueError(f"uniform state needs dimension >= 1, got {dim}")
        check_vector_scale(dim, 1)
        return cls(np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))

    @classmethod
    def two_level(cls, p: float) -> "StateVector":
        """Real qubit (sqrt(p), sqrt(1-p)); outcome 0 has Born weight p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        return cls(np.array([np.sqrt(p), np.sqrt(1.0 - p)], dtype=np.complex128))

    # -- JSON wire format ------------------------------------------------

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StateVector":
        """Parse ``{"dim": d, "amplitudes": [{"re": x, "im": y}, ...]}``;
        any other shape raises ValueError."""
        if not isinstance(obj, dict) or not {"dim", "amplitudes"} <= obj.keys():
            raise ValueError(
                'state JSON must be an object with keys "dim" and "amplitudes"'
            )
        dim, amps = obj["dim"], obj["amplitudes"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f'"dim" must be an integer, got {dim!r}')
        check_vector_scale(dim, 1)
        if not isinstance(amps, list) or not all(
            isinstance(a, dict) and _is_json_number(a.get("re"))
            and _is_json_number(a.get("im"))
            for a in amps
        ):
            raise ValueError(
                '"amplitudes" must be a list of {"re": number, "im": number}'
            )
        if len(amps) != dim:
            raise ValueError(
                f"amplitude list length {len(amps)} does not match dim {dim}"
            )
        try:
            return cls([complex(a["re"], a["im"]) for a in amps])
        except OverflowError:  # a JSON integer too large for a float
            raise ValueError("state amplitudes must be finite") from None

    @classmethod
    def from_json(cls, text: str) -> "StateVector":
        try:
            obj = json.loads(text)
        except RecursionError:  # the parser recurses once per nesting level
            raise ValueError("state JSON nests too deeply") from None
        return cls.from_json_dict(obj)


@dataclass(frozen=True)
class EnsembleSpec:
    """A single-system state, an ensemble size N, and a target outcome j.

    Every ensemble-level quantity in this package is a function of these
    three things.
    """

    state: StateVector
    n: int
    j: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ensemble size must be >= 1, got {self.n}")
        if not 0 <= self.j < self.state.dim:
            raise ValueError(
                f"target index {self.j} out of range [0, {self.state.dim})"
            )

    @property
    def born_probability(self) -> float:
        """|c_j|^2, computed from the stored amplitude."""
        return self.state.probability(self.j)


def string_to_index(indices, d: int) -> int:
    """Flatten a basis string to its row-major index (leftmost digit most
    significant)."""
    idx = 0
    for i in indices:
        if not 0 <= i < d:
            raise ValueError(f"basis index {i} out of range [0, {d})")
        idx = idx * d + i
    return idx


def kron_fold(factor: np.ndarray, n: int, ufunc=np.multiply) -> np.ndarray:
    """The n-fold Kronecker fold of a 1-D factor under a binary ufunc: at
    basis string (i_1, ..., i_n), factor[i_1] op ... op factor[i_n], folded
    left to right from ``ufunc.identity``. ``np.multiply`` gives the
    Kronecker power with ``np.kron``'s bytes; ``np.add`` on j's indicator
    gives the count of j. The first site is one ufunc call; each later one
    writes column i of an (M, d) buffer, ``out[x] op factor[i]``, with one
    call per digit: 1 + (n-1)*d calls in all."""
    check_vector_scale(factor.size, n)
    if n < 1:
        raise ValueError(f"Kronecker fold needs n >= 1, got {n}")
    out = ufunc(factor.dtype.type(ufunc.identity), factor)
    for _ in range(n - 1):
        new = np.empty((out.size, factor.size), dtype=out.dtype)
        for i in range(factor.size):
            ufunc(out, factor[i], out=new[:, i])
        out = new.ravel()
    return out


def product_state_vector(spec: EnsembleSpec) -> np.ndarray:
    """Coefficient vector of the N-fold tensor power of spec.state: at basis
    string (i_1, ..., i_N), the product of the amplitudes c_{i_alpha}."""
    return kron_fold(spec.state.amplitudes, spec.n)


def born_weights(spec: EnsembleSpec) -> np.ndarray:
    """Born weight |c_s|^2 of each basis string s, indexed as in
    :func:`product_state_vector`: the product of the |c_{i_alpha}|^2."""
    return kron_fold(spec.state.probabilities(), spec.n)
