"""Command-line front end.

Every command emits machine-readable output (JSON by default, CSV where a
row schema exists) with an embedded metadata block: tool version, the
parsed configuration, and, where that echoes a seed (only a command that
drew samples keeps one), the RNG. Output contains no timestamps, so
identical invocations produce byte-identical files. Each command's table
is held once, in its result: a sweep (``converge``, ``noncollapse``) as a
list of row dicts, one per N, whose CSV is written at once; a column as
its size and the span of cells that may be nonzero (the spectrum's window
or the sampled frequencies), never held whole as text: it is cut on a
grid of ``CSV_CHUNK_ROWS`` cells and at the span's edges, the span's
slices written from their values and the zeros outside it from their
indices, a whole grid cell of them from 100-row blocks. Exit codes:
0 all checks pass, 1 tolerance breach, 2 usage or scale errors.

Each command runs its request in one order: the guards that need its
arguments alone, then the layers it calls, then the state, then the
answer. So ``--version``, ``--help``, a usage error and a refused request
import no numpy. Nor do ``stats``, ``noncollapse``, ``converge`` and
``spectrum``, which answer from Python floats: only the dense oracle
(``verify``, ``stats --cross-check``) and sampling load numpy. Each
command binds only the layers it calls: ``verify`` binds ``hilbert`` and
``dense``; ``sample`` ``hilbert`` and ``sampler``; ``stats`` and
``spectrum`` ``hilbert`` and ``analytic``, plus ``dense`` under
``--cross-check``; ``converge`` and ``noncollapse`` ``hilbert`` and
``analysis``, plus ``sampler`` under ``--sample``.

``freqop`` and ``python -m freqop.cli`` enter through :func:`run`. It
blocks ``_hashlib`` first, so that numpy's random module maps no OpenSSL;
once ``main`` returns, or argparse exits for ``--help``, ``--version`` or a
usage error, it flushes stdout and stderr and ends the process with
``os._exit``, sparing the interpreter's teardown. Only an uncaught
exception takes the normal exit, which prints its traceback.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import sys

from . import __version__
from .guards import (
    check_float_n,
    check_n_list,
    check_sampling,
    check_spectral_n,
    check_vector_n,
    check_vector_scale,
    check_verify,
)

# On import numpy's OpenBLAS starts a pool of one spinning thread per CPU.
# freqop makes no BLAS call, so one thread only spares that pool. Set
# before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports for a C filter

CROSS_CHECK_TOL = 1e-11

# The grid a column is cut on, in rows per write call. A multiple of
# ``_zero_rows``' 100-row block, so a whole grid cell of zeros is whole
# blocks. A slice holds about 140 B a row of Python objects (its ints,
# floats and text), so 1000 rows keep it near a sampled array's size.
CSV_CHUNK_ROWS = 1000

# Row schemas, the only list of each sweep's output columns: its JSON and
# CSV rows take their columns, in order, from these. The closed forms come
# from ``analysis.convergence_sweep``; ``converge --sample`` fills the two
# sampled cells, which are None otherwise.
CONVERGE_COLUMNS = (
    "n",
    "distance_sq",
    "uncertainty",
    "max_weight",
    "sampled_mean",
    "sampled_variance",
)
NONCOLLAPSE_COLUMNS = ("n", "distance_sq", "max_weight", "off_peak_mass")

# A 100-row block of zero rows, without the rows' prefix: "" and then
# ``00,0`` .. ``99,0``. ``str(q).join`` puts q before each of the 100,
# giving the rows ``k,0`` for k = 100q .. 100q + 99.
_ZERO_BLOCK = ("",) + tuple("%02d,0\n" % i for i in range(100))


def _load_layers(*names: str) -> None:
    """Bind the named layers as globals of this module, in order, each the
    first time only: a tracer may since have replaced a binding with its
    wrapper. Each command names every layer it calls, and no other, with
    ``dense`` or ``sampler`` last: a module compiled from source once numpy
    has loaded raises the process's peak RSS (0.5 MB for ``analytic``)."""
    for name in names:
        if name not in globals():
            globals()[name] = importlib.import_module(f"{__package__}.{name}")


def _preset_value(text: str, convert, what: str):
    """``convert`` of the value after a preset's colon. ``what`` names the
    value in the refusal and ends in its letter: "an integer D" for
    ``uniform:D``."""
    preset, value = text.split(":", 1)
    try:
        return convert(value)
    except ValueError:
        raise ValueError(f"--state {preset}:{what[-1]} needs {what}, got {value!r}") from None


def parse_state(text: str) -> hilbert.StateVector:
    """Parse a state argument: 'two-level:p', 'uniform:d', or a JSON path."""
    _load_layers("hilbert")
    if text.startswith("two-level:"):
        return hilbert.StateVector.two_level(_preset_value(text, float, "a number P"))
    if text.startswith("uniform:"):
        return hilbert.StateVector.uniform(_preset_value(text, int, "an integer D"))
    try:
        with open(text, encoding="utf-8") as f:
            return hilbert.StateVector.from_json(f.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"--state file {text} is not JSON: {exc}") from None


def _meta(args) -> dict:
    """The tool, its version and the parsed configuration; a config that
    echoes a seed, as only a command that drew samples does, adds its RNG."""
    config = {
        k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None
    }
    meta = {"tool": "freqop", "version": __version__, "config": config}
    if "seed" in config:
        meta.update(seed=config["seed"], rng=sampler.RNG_ALGORITHM,
                    stream_rule=sampler.STREAM_RULE)
    return meta


def _slices(column):
    """(c, d, cells) of each slice [c, d) of a column ``(size, start,
    values)``, in order: ``size`` cells, zero but for ``values`` (a list of
    floats or a 1-D float array) from cell ``start`` on. The column is cut
    on one grid, the multiples of ``CSV_CHUNK_ROWS``, and at the span's
    edges ``start`` and ``stop``, so each slice lies inside the span or
    outside it. ``cells`` is None outside, else the slice's values as
    Python floats, zeros included; an array is read a slice at a time."""
    size, start, values = column
    stop = start + len(values)
    cuts = sorted({*range(0, size, CSV_CHUNK_ROWS), start, stop, size})
    for c, d in itertools.pairwise(cuts):
        if start <= c < stop:
            cells = values[c - start : d - start]
            yield c, d, cells if isinstance(cells, list) else cells.tolist()
        else:
            yield c, d, None


def _zero_rows(c: int, d: int) -> str:
    """The rows ``k,0`` for k in [c, d). A whole grid cell other than the
    first is whole 100-row blocks: rows 100q .. 100q + 99 are ``str(q)``
    joined over ``_ZERO_BLOCK``. Any other slice (the first cell, where q
    would be 0, and a cell cut at the span's edges or the column's end)
    repeats the ``%d,0`` template."""
    if 0 < c and c % CSV_CHUNK_ROWS == 0 and d - c == CSV_CHUNK_ROWS:
        return "".join([str(q).join(_ZERO_BLOCK) for q in range(c // 100, d // 100)])
    return ("%d,0\n" * (d - c)) % tuple(range(c, d))


def _column_rows(column):
    """The CSV rows ``k,w[k]`` of a column w, one string per slice. A slice
    of a zero span needs only its indices (:func:`_zero_rows`); a slice of
    the values repeats the ``%d,%.17g`` row template over its cells
    (``"%.17g" % 0.0`` is ``0``, as in a zero row)."""
    for c, d, cells in _slices(column):
        if cells is None:
            yield _zero_rows(c, d)
        else:
            yield ("%d,%.17g\n" * (d - c)) % tuple(
                itertools.chain.from_iterable(zip(range(c, d), cells)))


def _column_json(column):
    """The cells of a column as ``json.dumps(indent=2)`` lays out a list of
    floats in the result (two levels deep), one string per slice: a float's
    JSON text is its ``repr``, and a zero's is ``0.0``."""
    sep = ",\n      "
    for c, d, cells in _slices(column):
        items = ("0.0",) * (d - c) if cells is None else map(repr, cells)
        yield (sep if c else sep[1:]) + sep.join(items)


def _template_rows(rows) -> str:
    """A sweep's list of row dicts formatted by one template from the first
    row's cell types (see :func:`_emit`)."""
    template = ",".join("%.0s" if v is None else "%d" if isinstance(v, int) else "%.17g"
                        for v in rows[0].values()) + "\n"
    return "".join([template % tuple(row.values()) for row in rows])


def _csv_head(meta, header) -> str:
    """The ``# key=value`` meta lines and the header line of a CSV table."""
    return "".join(
        f"# {k}={json.dumps(v, sort_keys=True)}\n" for k, v in meta.items()
    ) + ",".join(header) + "\n"


def _json_text(doc, key):
    """``json.dumps(doc, indent=2)``, in pieces. The result's column at
    ``key``, if one is given, is rendered by :func:`_column_json` and
    spliced in, sparing the encoder's pure-Python walk over its items."""
    if key is None:
        return (json.dumps(doc, indent=2),)
    result = doc["result"]
    text = json.dumps({**doc, "result": {**result, key: []}}, indent=2)
    # The result comes last, so its own key: [] is the last one in the text.
    head, empty, tail = text.rpartition(json.dumps(key) + ": []")
    return itertools.chain((head + empty[:-1],), _column_json(result[key]),
                           ("\n    ]" + tail,))


def _emit(args, result: dict, table=None, csv_meta=()) -> None:
    """Write one command's output to --out or stdout.

    The only place values turn into text: ``result`` holds what the layers
    return, as Python values, lists or 1-D float arrays, and is the only
    copy of the command's table. JSON (the default) is the meta block plus
    ``result``. CSV is the meta block, then the ``result`` fields named in
    ``csv_meta``, one per ``# key=value`` line, then the table: ``table`` is
    its ``(key, header)``, and ``result[key]`` holds at least one row.

    A sweep's table is its ``rows``, a list of dicts keyed by the header,
    one per N, written in one piece. Each row is formatted at write time by
    one ``%``-template, from the first row's cell types: ``int`` as ``%d``
    (its ``str``), ``float`` as ``%.17g`` and ``None`` as ``%.0s``, an empty
    cell. One template fits because the columns are homogeneous by
    construction: ``n`` is always ``int``, the closed forms ``float``, and a
    sweep samples every N or none.

    Any other key names a column w, ``(size, start, values)``, whose row k
    is ``(k, w[k])``: the spectrum's weights, from its window's first count
    on, or the sampled frequencies, by trial, from trial 0. In either
    format its text is never held whole, but rendered slice by slice
    (:func:`_slices`), cut on a grid of ``CSV_CHUNK_ROWS`` cells and at
    its span's edges, with the same bytes as its rows would give, the rows
    outside its span from their indices alone: in CSV a zero row is
    ``k,0``, whole grid cells 100 rows at a time from one block
    (:func:`_zero_rows`), and in JSON the column is spliced into the
    document at its key.
    """
    meta = _meta(args)
    key, header = table or (None, ())
    column = None if key in (None, "rows") else key
    if getattr(args, "format", "json") == "csv":
        meta.update((k, result[k]) for k in csv_meta)
        rows = result[key]
        body = (_template_rows(rows),) if column is None else _column_rows(rows)
        pieces = itertools.chain((_csv_head(meta, header),), body)
    else:
        pieces = itertools.chain(_json_text({"meta": meta, "result": result}, column), ["\n"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# -- commands ------------------------------------------------------------


def cmd_verify(args) -> int:
    d, n_max = args.dim, args.n_max
    check_verify(d, n_max)
    _load_layers("hilbert", "dense")
    tol_algebra = 1e-13
    tol_routes = 1e-14
    checks = [dense.verify_operator_algebra(d, n) for n in range(1, n_max + 1)]
    ok = not any(
        c["max_deviation"] > tol_algebra
        or not c["multiplicity_ok"]
        or c.get("construction_route_deviation", 0.0) > tol_routes
        for c in checks
    )
    worst = max(c["max_deviation"] for c in checks)
    result = {
        "status": "PASS" if ok else "FAIL",
        "max_deviation": worst,
        "checks": checks,
    }
    _emit(args, result)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_stats(args) -> int:
    check_float_n(args.n)
    if args.cross_check:
        check_vector_n(args.n)
    _load_layers("hilbert", "analytic", *(("dense",) if args.cross_check else ()))
    state = parse_state(args.state)
    spec = hilbert.EnsembleSpec(state, args.n, args.j)
    if args.cross_check:
        check_vector_scale(state.dim, args.n)
    result = {
        "expectation": analytic.expectation(spec),
        "uncertainty": analytic.uncertainty(spec),
        "distance_sq": analytic.distance_sq(spec),
        "gram": analytic.gram(spec),
    }
    ok = True
    if args.cross_check:
        result["dense"] = dense.statistics_dense(spec)
        deviation = max(abs(v - result[k]) for k, v in result["dense"].items())
        result["cross_check_deviation"] = deviation
        ok = deviation <= CROSS_CHECK_TOL
        result["cross_check"] = "PASS" if ok else "FAIL"
    _emit(args, result)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _parse_n_list(text: str) -> list[int]:
    """The comma-separated integers of ``--n-list``; a blank entry, a
    trailing comma's included, is refused like any other non-integer."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--n-list entries must be integers, got {text!r}") from None


def cmd_converge(args) -> int:
    ns = check_n_list(_parse_n_list(args.n_list))
    if args.sample:
        check_sampling(args.trials, args.seed, ns)
    else:
        # Nothing is drawn, so the meta echoes no trial count, seed or RNG.
        args.trials = args.seed = None
    _load_layers("hilbert", "analysis", *(("sampler",) if args.sample else ()))
    state = parse_state(args.state)
    rows = [{c: row.get(c) for c in CONVERGE_COLUMNS}
            for row in analysis.convergence_sweep(state, args.j, ns)]
    if args.sample:
        # Every N runs the same trials from the same master seed.
        for row in rows:
            summary = sampler.run_trials(state, row["n"], args.trials, args.seed, args.j)
            row["sampled_mean"] = summary.mean_frequency
            row["sampled_variance"] = summary.sample_variance
    slope = analysis.loglog_slope(rows)
    result = {"slope": "undefined" if slope is None else slope, "rows": rows}
    _emit(args, result, ("rows", CONVERGE_COLUMNS), ("slope",))
    return EXIT_OK


def cmd_noncollapse(args) -> int:
    ns = check_n_list(_parse_n_list(args.n_list))
    _load_layers("hilbert", "analysis")
    state = parse_state(args.state)
    rows = analysis.convergence_sweep(state, args.j, ns)
    verdict = analysis.noncollapse_verdict(state, args.j, rows)
    result = {"rows": [{c: row[c] for c in NONCOLLAPSE_COLUMNS} for row in rows],
              "verdict": verdict}
    _emit(args, result, ("rows", NONCOLLAPSE_COLUMNS), ("verdict",))
    return EXIT_OK


def cmd_sample(args) -> int:
    check_sampling(args.trials, args.seed, [args.n])
    _load_layers("hilbert", "sampler")
    state = parse_state(args.state)
    summary = sampler.run_trials(state, args.n, args.trials, args.seed, args.j)
    result = {
        "trials": args.trials,
        "mean_frequency": summary.mean_frequency,
        "sample_variance": summary.sample_variance,
        "frequencies": (args.trials, 0, summary.frequencies),
    }
    _emit(args, result, ("frequencies", ("trial", "frequency")),
          ("mean_frequency", "sample_variance"))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    check_spectral_n(args.n)
    _load_layers("hilbert", "analytic")
    state = parse_state(args.state)
    a, window = analytic.spectral_window(hilbert.EnsembleSpec(state, args.n, args.j))
    max_weight = max(window)
    result = {
        "n": args.n,
        "weights": (args.n + 1, a, window),
        "max_weight": max_weight,
        "argmax": a + window.index(max_weight),
    }
    _emit(args, result, ("weights", ("k", "weight")))
    return EXIT_OK


# -- argument parsing ----------------------------------------------------


def _add_common(p, *, fmt=True):
    p.add_argument(
        "--state",
        required=True,
        help="state preset 'two-level:p' or 'uniform:d', or a JSON file path",
    )
    p.add_argument("--j", type=int, default=0, help="target outcome index")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help, version or
    usage text raises: argparse drops the write's ``OSError``, so a closed
    pipe would exit 0 under ``PYTHONUNBUFFERED=1``. Subparsers share it."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freqop",
        description="Frequency operators on N-fold product spaces: "
        "verification, statistics, and sampling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="dense operator-algebra verification")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="closed-form ensemble statistics")
    _add_common(p, fmt=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also compute the dense-oracle values (small N only)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("converge", help="distance-law sweep over ensemble sizes")
    _add_common(p)
    p.add_argument("--n-list", required=True, help="comma-separated increasing N values")
    p.add_argument("--sample", action="store_true")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("noncollapse", help="distance vs spectral spread report")
    _add_common(p)
    p.add_argument("--n-list", required=True)
    p.set_defaults(func=cmd_noncollapse)

    p = sub.add_parser("sample", help="Monte Carlo ensemble measurements")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("spectrum", help="spectral weights of the product state")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (`| head -1`): no error line.
        return EXIT_BROKEN_PIPE
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The entry point of ``freqop`` and ``python -m freqop.cli``: ``main``,
    then a flush of stdout and stderr and ``os._exit`` with its exit code.

    Before ``main``, it blocks ``_hashlib`` for the process, unless it is
    already loaded. ``numpy.random`` imports ``secrets``, hence ``hmac``
    and ``_hashlib``, which maps OpenSSL's ``libcrypto`` (about 3.4 MB of
    a sampling child's RSS). freqop keys each Philox itself and never
    hashes; without ``_hashlib``, ``hashlib`` and ``hmac`` fall back to
    CPython's built-in hashes. A caller of ``main(argv)`` in process
    blocks nothing.

    The ``os._exit`` skips the interpreter's teardown, which frees every
    object and module one at a time; the OS reclaims the memory anyway. By
    then an ``--out`` file is closed (``_emit``) and the sampler's threads
    are joined. argparse's ``SystemExit`` (``--help``, ``--version``, a
    usage error) ends the same way, with its code: it leaves
    ``parse_args`` before any layer, file or thread exists; a write of its
    text to a closed pipe makes ``main`` return 141. Only an uncaught
    exception, whose traceback must print, leaves by the normal exit."""
    # A None entry makes ``import _hashlib`` raise ModuleNotFoundError, as
    # on a CPython built without OpenSSL; a loaded module is left alone.
    sys.modules.setdefault("_hashlib", None)
    try:
        rc = main()
    except SystemExit as exc:
        rc = exc.code  # argparse's int: 0, or 2 for a usage error
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout before the buffered output reached it.
        rc = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
