"""Request limits: each route (dense oracle, closed forms, sampling) checks
its request here before any work. Every limit raises :class:`ScaleError`.
Pure Python with no imports, so a refusal never depends on numpy."""

# Largest product space materialized as an explicit vector.
DENSE_VECTOR_GUARD = 2**20

# The literal constructions loop over every basis string in Python, so they
# run only up to this size; between here and the vector guard the operator
# is checked through the vectorized counts alone.
LITERAL_ROUTE_GUARD = 2**12

# Most count entries verify may touch at one N: d count vectors of d**N
# entries, and on the literal routes d**2 commutator pairs of d**N entries.
VERIFY_WORK_GUARD = 2**24

# Spectral weights are computed over N+1 eigenvalues; cap the table size.
MAX_SPECTRAL_N = 10**6

# Most draws (N x trials) one request may ask for; a sampling job above it
# would run for hours, so it is refused before any draw.
MAX_DRAWS = 10**9

# Most trial runs (trials x ensemble sizes) one request may ask for. A run
# costs ~3 us however small N is (3.2-3.3 us at N = 1 on a 2-vCPU Xeon), so
# 10^6 runs take ~3.5 s; the draw budget alone admits ~1 h of them.
MAX_TRIAL_RUNS = 10**6

# Seeds and stream seeds are 64-bit.
SEED_MASK = (1 << 64) - 1


class ScaleError(ValueError):
    """A request exceeds one of the limits of this module."""


def fits(d: int, n: int, limit: int) -> bool:
    """Whether d**n <= limit. N above log2 of the limit never fits, and
    d**n is then not computed: for d = 1 the N-site loops would still run."""
    return n <= limit.bit_length() - 1 and d**n <= limit


def check_vector_scale(d: int, n: int) -> int:
    """Return d**n, or raise ScaleError if it exceeds the vector guard."""
    if not fits(d, n, DENSE_VECTOR_GUARD):
        raise ScaleError(
            f"product space {d}**{n} exceeds the dense vector guard of "
            f"{DENSE_VECTOR_GUARD} entries and N <= "
            f"{DENSE_VECTOR_GUARD.bit_length() - 1}; use the analytic engine"
        )
    return d**n


def check_literal_scale(d: int, n: int) -> int:
    """Return d**n, or raise ScaleError if it exceeds the literal guard."""
    if not fits(d, n, LITERAL_ROUTE_GUARD):
        raise ScaleError(
            f"literal construction over {d}**{n} basis strings exceeds the guard "
            f"of {LITERAL_ROUTE_GUARD} and N <= "
            f"{LITERAL_ROUTE_GUARD.bit_length() - 1}; use the implicit diagonal"
        )
    return d**n


def check_verify_work(d: int, n: int) -> None:
    """check_vector_scale, then the work guard on d vectors of d**n entries."""
    check_vector_scale(d, n)
    if not fits(d, n + 1, VERIFY_WORK_GUARD):
        raise ScaleError(
            f"verify over {d} count vectors of {d}**{n} entries exceeds the work "
            f"guard of {VERIFY_WORK_GUARD} entries; use a smaller dimension or N"
        )


def check_verify(d: int, n_max: int) -> None:
    """Refuse verify for N = 1..n_max: d < 2 or n_max < 1, then
    :func:`check_verify_work` at the largest N."""
    if d < 2 or n_max < 1:
        raise ValueError(f"verify needs --dim >= 2 and --n-max >= 1, got {d} and {n_max}")
    check_verify_work(d, n_max)


def check_spectral_n(n: int) -> None:
    if n > MAX_SPECTRAL_N:
        raise ScaleError(f"spectral weights limited to N <= {MAX_SPECTRAL_N}, got {n}")


def check_n_list(n_list) -> list[int]:
    """A sweep's ensemble sizes as ints: nonempty, each >= 1, increasing."""
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_list must be nonempty with every entry >= 1")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    check_spectral_n(ns[-1])
    return ns


def check_seed(seed: int) -> None:
    # Philox accepts 128-bit keys, so a seed outside [0, 2**64) would
    # otherwise name a stream other than the one the metadata records.
    if not 0 <= seed <= SEED_MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def check_sampling(trials: int, seed: int, ns: list[int]) -> None:
    """Refuse a request to run ``trials`` trials at each ensemble size in
    ``ns`` before any draw: fewer than two trials, a seed outside
    [0, 2**64), more than ``MAX_DRAWS`` draws in all, or more than
    ``MAX_TRIAL_RUNS`` trial runs in all, checked in that order."""
    if trials < 2:
        raise ValueError(f"need at least two trials, got {trials}")
    check_seed(seed)
    draws = trials * sum(ns)
    if draws > MAX_DRAWS:
        raise ScaleError(f"sampling limited to N x trials <= {MAX_DRAWS} draws, got {draws}")
    runs = trials * len(ns)
    if runs > MAX_TRIAL_RUNS:
        raise ScaleError(f"sampling limited to trials x ensemble sizes <= {MAX_TRIAL_RUNS} "
                         f"trial runs, got {runs}")
