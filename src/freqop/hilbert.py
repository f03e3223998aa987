"""State vectors and product-basis index arithmetic.

A single system lives in a d-dimensional Hilbert space with the measurement
eigenbasis as coordinate basis; an ensemble of N identically prepared copies
lives in the d**N-dimensional tensor power. Basis strings (i_1, ..., i_N)
label the product basis and map to flat indices by row-major mixed radix
(leftmost digit most significant).
"""

from __future__ import annotations

import json
import math
from array import array
from collections import namedtuple
from functools import partial, reduce
from itertools import chain
from operator import add, mul

from .guards import check_target, check_vector_scale

NORM_TOL = 1e-12


def _is_json_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def pairwise_sum(node, lo: int, n: int, size: int = 128):
    """The n terms from index lo added in numpy's pairwise float64 order: a
    run of more than 128 terms splits at the multiple of 8 below its middle
    into halves whose sums are added. node(lo, k) sums a run of k <= size
    terms; runs are visited left to right. numpy sums each run of its tree
    as ``np.sum`` sums that run alone, so with size >= 128 and nodes that
    have ``np.sum``'s bits the total has them too."""
    if n <= size:
        return node(lo, n)
    half = n // 2 - n // 2 % 8
    return (pairwise_sum(node, lo, half, size)
            + pairwise_sum(node, lo + half, n - half, size))


def _leaf_sum(a, lo: int, n: int) -> float:
    """``np.sum``'s bits for a[lo : lo + n], n <= 128, term for term: below
    8 terms one running sum from 0.0, else eight interleaved sums."""
    if n < 8:
        return reduce(add, a[lo : lo + n], 0.0)
    m = lo + n - n % 8
    r = [reduce(add, a[i:m:8]) for i in range(lo, lo + 8)]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, a[m : lo + n], res)


class StateVector:
    """Normalized complex amplitude vector for a single system.

    Amplitudes are stored as one ``array('d')`` of interleaved real and
    imaginary parts, 16 bytes each and no Python object per amplitude, and
    read as a read-only complex128 array. Construction from amplitudes
    rejects non-finite entries and any vector whose norm deviates from 1 by
    more than ``NORM_TOL``; a caller holding an unnormalized vector divides
    it by its norm before constructing. States are read from JSON, never
    written; two states compare by their ``amplitudes``. A single system is
    the N = 1 product space, so ``uniform`` and the JSON reader refuse a
    dimension above ``guards.DENSE_VECTOR_GUARD`` before building any array.
    """

    __slots__ = ("_parts",)

    def __init__(self, amplitudes):
        parts = array("d", chain.from_iterable(
            (c.real, c.imag) for c in map(complex, amplitudes)))
        if not parts:
            raise ValueError("state vector needs at least one amplitude")
        re, im = parts[0::2], parts[1::2]
        # Pairwise, as np.sum: a running sum's error passes NORM_TOL near 10**6.
        squares = array("d", map(add, map(mul, re, re), map(mul, im, im)))
        total = pairwise_sum(partial(_leaf_sum, squares), 0, len(re))
        if not math.isfinite(total) and not all(map(math.isfinite, parts)):
            raise ValueError("state amplitudes must be finite")
        norm = math.sqrt(total)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state vector not normalized: |norm - 1| = {abs(norm - 1.0):.3e}"
            )
        self._parts = parts

    @property
    def dim(self) -> int:
        return len(self._parts) // 2

    @property
    def amplitudes(self):
        """A read-only complex128 numpy array viewing the stored parts."""
        import numpy as np

        return np.frombuffer(memoryview(self._parts).toreadonly(), dtype=np.complex128)

    def probability(self, i: int) -> float:
        """Born weight |c_i|^2 of outcome index i, at most 1.0: a state
        within ``NORM_TOL`` of unit norm can have |c_i|^2 just above 1."""
        check_target(i, self.dim)
        return min(abs(complex(self._parts[2 * i], self._parts[2 * i + 1])) ** 2, 1.0)

    def probabilities(self):
        """Every Born weight, as numpy's array ``np.abs`` gives them; its
        last bit may differ from :meth:`probability`'s."""
        import numpy as np

        return np.abs(self.amplitudes) ** 2

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"

    # -- presets ---------------------------------------------------------

    @classmethod
    def uniform(cls, dim: int) -> "StateVector":
        if dim < 1:
            raise ValueError(f"uniform state needs dimension >= 1, got {dim}")
        check_vector_scale(dim, 1)
        state = cls.__new__(cls)  # the parts at once, not per amplitude
        # Unchecked: d squares of fl(1/sqrt(d)) sum to 1 within a few ulps.
        state._parts = array("d", (1.0 / math.sqrt(dim), 0.0)) * dim
        return state

    @classmethod
    def two_level(cls, p: float) -> "StateVector":
        """Real qubit (sqrt(p), sqrt(1-p)); outcome 0 has Born weight p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        return cls([math.sqrt(p), math.sqrt(1.0 - p)])

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
        if dim < 1:
            raise ValueError(f'"dim" needs dimension >= 1, got {dim}')
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
            return cls(complex(a["re"], a["im"]) for a in amps)
        except OverflowError:  # a JSON integer too large for a float
            raise ValueError("state amplitudes must be finite") from None

    @classmethod
    def from_json(cls, text: str) -> "StateVector":
        try:
            obj = json.loads(text)
        except RecursionError:  # the parser recurses once per nesting level
            raise ValueError("state JSON nests too deeply") from None
        return cls.from_json_dict(obj)


class EnsembleSpec(namedtuple("EnsembleSpec", ("state", "n", "j"))):
    """A single-system state, an ensemble size N, and a target outcome j.

    Every ensemble-level quantity in this package is a function of these
    three things. Immutable: a tuple, so setting an attribute raises
    AttributeError.
    """

    __slots__ = ()

    def __new__(cls, state: StateVector, n: int, j: int):
        if n < 1:
            raise ValueError(f"ensemble size must be >= 1, got {n}")
        check_target(j, state.dim)
        return super().__new__(cls, state, n, j)

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


def kron_fold(factor, n: int, ufunc=None, start=None):
    """The n-fold Kronecker fold of a 1-D numpy factor under a binary ufunc
    (``np.multiply`` if None): at basis string (i_1, ..., i_n), start op
    factor[i_1] op ... op factor[i_n], folded left to right from ``start``
    (``ufunc.identity`` if None). Started from the fold of a prefix, or an
    array of them, it gives the strings with each prefix in turn the full
    fold's bits. ``np.multiply`` gives the Kronecker power with
    ``np.kron``'s bytes; ``np.add`` on j's indicator gives the count of j.
    The first site is one ufunc call; each later one writes column i of an
    (M, d) buffer, ``out[x] op factor[i]``, with one call per digit:
    1 + (n-1)*d calls in all."""
    import numpy as np

    check_vector_scale(factor.size, n)
    if n < 1:
        raise ValueError(f"Kronecker fold needs n >= 1, got {n}")
    ufunc = np.multiply if ufunc is None else ufunc
    start = np.asarray(ufunc.identity if start is None else start, factor.dtype)
    out = ufunc(start[..., None], factor).ravel()
    for _ in range(n - 1):
        new = np.empty((out.size, factor.size), dtype=out.dtype)
        for i in range(factor.size):
            ufunc(out, factor[i], out=new[:, i])
        out = new.ravel()
    return out


def product_state_vector(spec: EnsembleSpec):
    """Coefficient vector of the N-fold tensor power of spec.state: at basis
    string (i_1, ..., i_N), the product of the amplitudes c_{i_alpha}."""
    return kron_fold(spec.state.amplitudes, spec.n)
