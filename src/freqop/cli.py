"""Command-line front end.

Every command emits machine-readable output (JSON by default, CSV where a
row schema exists) with an embedded metadata block: tool version, the
parsed configuration, and RNG details where sampling is involved. Output
contains no timestamps, so identical invocations produce byte-identical
files. A JSON document is written at once; a CSV table's text is written
in chunks of at most ``CSV_CHUNK_ROWS`` rows. Only a column table
(``spectrum``, ``sample``) is never held whole: it is formatted from its
array. A sweep (``converge``, ``noncollapse``, one row per N) is held as
records, tuples and dicts. Exit codes:
0 all checks pass, 1 tolerance breach, 2 usage or scale errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import __version__, analysis, analytic, dense, sampler
from .guards import check_verify
from .hilbert import EnsembleSpec, StateVector

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2

CROSS_CHECK_TOL = 1e-11

# Rows of a CSV table formatted and written per write call: large enough
# that the per-chunk overhead vanishes, small enough that a chunk's text
# stays far below the table's own arrays (at N = 10^5 a 16384-row chunk
# already raises the spectrum's tracemalloc peak above a 4096-row one).
CSV_CHUNK_ROWS = 4096

# Row schemas: JSON rows and CSV rows both take their columns from these.
CONVERGE_COLUMNS = (
    "n",
    "distance_sq",
    "uncertainty",
    "max_weight",
    "sampled_mean",
    "sampled_variance",
)
NONCOLLAPSE_COLUMNS = ("n", "distance_sq", "max_weight", "off_peak_mass")


def parse_state(text: str) -> StateVector:
    """Parse a state argument: 'two-level:p', 'uniform:d', or a JSON path."""
    if text.startswith("two-level:"):
        return StateVector.two_level(float(text.split(":", 1)[1]))
    if text.startswith("uniform:"):
        return StateVector.uniform(int(text.split(":", 1)[1]))
    with open(text, encoding="utf-8") as f:
        return StateVector.from_json(f.read())


def _meta(args, extra=None) -> dict:
    config = {
        k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None
    }
    meta = {"tool": "freqop", "version": __version__, "config": config}
    if extra:
        meta.update(extra)
    return meta


def _json_default(value):
    return value.tolist()  # a numpy array or integer; np.float64 is a float


def _slices(w):
    """(start, stop, nonzero) of each ``CSV_CHUNK_ROWS``-cell slice of the
    1-D array ``w``, in order; ``nonzero`` is False for a slice of exact
    zeros. Fixed slices, not runs of zeros and nonzeros: a sampled
    frequency column may switch between the two at every cell."""
    return [
        (c, min(c + CSV_CHUNK_ROWS, len(w)), bool(w[c : c + CSV_CHUNK_ROWS].any()))
        for c in range(0, len(w), CSV_CHUNK_ROWS)
    ]


def _column_rows(w):
    """The CSV rows ``k,w[k]`` of a column, one string per slice. A slice of
    zeros needs only its indices; any other repeats the ``%d,%.17g`` row
    template over its cells (``"%.17g" % 0.0`` is ``0``)."""
    for c, d, nonzero in _slices(w):
        if nonzero:
            cells = itertools.chain.from_iterable(zip(range(c, d), w[c:d].tolist()))
            yield ("%d,%.17g\n" * (d - c)) % tuple(cells)
        else:
            yield ("%d,0\n" * (d - c)) % tuple(range(c, d))


def _column_json(w):
    """``w.tolist()`` as ``json.dumps(indent=2)`` lays out a value of the
    result (two levels deep): a float's JSON text is its ``repr``, and a
    zero's is ``0.0``."""
    sep = ",\n      "
    items = "".join(
        sep + sep.join(map(repr, w[c:d].tolist())) if nonzero else (sep + "0.0") * (d - c)
        for c, d, nonzero in _slices(w)
    )
    return "[" + items[1:] + "\n    ]"


def _template_rows(rows):
    """Rows formatted by one template from the first row's cell types,
    ``CSV_CHUNK_ROWS`` rows per string (see :func:`_emit`)."""
    rows = iter(rows)
    first = next(rows)
    rows = itertools.chain((first,), rows)
    template = ",".join(
        "%.0s" if v is None else "%d" if isinstance(v, int) else "%.17g" for v in first
    ) + "\n"
    lines = map(template.__mod__, rows)
    while chunk := "".join(itertools.islice(lines, CSV_CHUNK_ROWS)):
        yield chunk


def _csv_head(meta, header) -> str:
    """The ``# key=value`` meta lines and the header line of a CSV table."""
    return "".join(
        f"# {k}={json.dumps(v, sort_keys=True)}\n" for k, v in meta.items()
    ) + ",".join(header) + "\n"


def _json_text(doc, column):
    """``json.dumps(doc, indent=2)``. A ``column`` must also be a value of
    the result: it is rendered by :func:`_column_json` and spliced in,
    sparing the encoder's pure-Python walk over its items."""
    if column is None:
        return json.dumps(doc, indent=2, default=_json_default)
    result = doc["result"]
    key = next(k for k, v in result.items() if v is column)
    text = json.dumps({**doc, "result": {**result, key: []}}, indent=2, default=_json_default)
    # The result comes last, so its own key: [] is the last one in the text.
    head, empty, tail = text.rpartition(json.dumps(key) + ": []")
    return head + empty[:-2] + _column_json(column) + tail


def _emit(args, result: dict, table=None, csv_meta=(), extra_meta=None) -> None:
    """Write one command's output to --out or stdout.

    The only place values turn into text: ``result`` and ``table`` hold what
    the layers return. JSON (the default) is the meta block plus ``result``,
    written at once, numpy values converted as they are encoded. CSV is the
    meta block, then the ``result`` fields named in ``csv_meta``, one per
    ``# key=value`` line, then ``table``, a ``(header, rows)`` pair with at
    least one row, written at most ``CSV_CHUNK_ROWS`` rows at a time. A
    column's text is never held whole; a sweep's tuple rows are a list the
    caller already holds, with its records and ``result`` dicts.

    Rows are tuples, or a 1-D float array ``w``, a column whose row k is
    ``(k, w[k])``: the spectrum's weights or the sampled frequencies, by
    trial. Tuple rows are formatted by one ``%``-template, from the first
    row's cell types: ``int`` as ``%d`` (its ``str``), ``float`` as
    ``%.17g`` and ``None`` as ``%.0s``, an empty cell. One template fits
    because the columns are homogeneous by construction: ``n`` and ``k``
    are always ``int``, the closed forms ``float``, and a sweep samples
    every N or none. A column is rendered slice by slice (:func:`_slices`)
    in both formats, with the same bytes as its rows would give, a slice of
    exact zeros from its indices alone: in CSV a zero row is ``k,0``, and
    in JSON the column, also a value of ``result``, is spliced into the
    document.
    """
    meta = _meta(args, extra_meta)
    header, rows = table or ((), None)
    column = rows if isinstance(rows, np.ndarray) else None
    if getattr(args, "format", "json") == "csv":
        meta.update((k, result[k]) for k in csv_meta)
        body = _template_rows(rows) if column is None else _column_rows(column)
        pieces = itertools.chain((_csv_head(meta, header),), body)
    else:
        pieces = [_json_text({"meta": meta, "result": result}, column) + "\n"]
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _table(columns, records):
    """(header, rows) with each row read off a record's attributes."""
    return columns, [tuple(getattr(r, c) for c in columns) for r in records]


def _row_dicts(table) -> list[dict]:
    header, rows = table
    return [dict(zip(header, row)) for row in rows]


def _sampling_meta(seed: int) -> dict:
    """The meta fields of a sampling command: its master seed and RNG."""
    return {"seed": seed, "rng": sampler.RNG_ALGORITHM, "stream_rule": sampler.STREAM_RULE}


# -- commands ------------------------------------------------------------


def cmd_verify(args) -> int:
    d, n_max = args.dim, args.n_max
    tol_algebra = 1e-13
    tol_routes = 1e-14
    check_verify(d, n_max)
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
    state = parse_state(args.state)
    spec = EnsembleSpec(state, args.n, args.j)
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
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_converge(args) -> int:
    state = parse_state(args.state)
    extra = _sampling_meta(args.seed) if args.sample else None
    # Without --sample the sweep ignores --trials and --seed.
    trials = args.trials if args.sample else None
    n_list = _parse_n_list(args.n_list)
    rows = analysis.convergence_sweep(state, args.j, n_list, trials, args.seed)
    slope = analysis.loglog_slope(rows)
    table = _table(CONVERGE_COLUMNS, rows)
    result = {
        "slope": "undefined" if slope is None else slope,
        "rows": _row_dicts(table),
    }
    _emit(args, result, table, ("slope",), extra)
    return EXIT_OK


def cmd_noncollapse(args) -> int:
    state = parse_state(args.state)
    rows = analysis.convergence_sweep(state, args.j, _parse_n_list(args.n_list))
    table = _table(NONCOLLAPSE_COLUMNS, rows)
    verdict = analysis.noncollapse_verdict(state, args.j, rows)
    result = {"rows": _row_dicts(table), "verdict": verdict}
    _emit(args, result, table, ("verdict",))
    return EXIT_OK


def cmd_sample(args) -> int:
    state = parse_state(args.state)
    summary = sampler.run_trials(state, args.n, args.trials, args.seed, args.j)
    result = {
        "trials": args.trials,
        "mean_frequency": summary.mean_frequency,
        "sample_variance": summary.sample_variance,
        "frequencies": summary.frequencies,
    }
    table = (("trial", "frequency"), summary.frequencies)
    _emit(args, result, table, ("mean_frequency", "sample_variance"),
          _sampling_meta(args.seed))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    state = parse_state(args.state)
    w = analytic.spectral_weights(EnsembleSpec(state, args.n, args.j))
    result = {
        "n": args.n,
        "weights": w,
        "max_weight": w.max(),
        "argmax": w.argmax(),
    }
    _emit(args, result, (("k", "weight"), w))
    return EXIT_OK


# -- argument parsing ----------------------------------------------------


def _add_common(p, *, state=True, j=True, fmt=True):
    if state:
        p.add_argument(
            "--state",
            required=True,
            help="state preset 'two-level:p' or 'uniform:d', or a JSON file path",
        )
    if j:
        p.add_argument("--j", type=int, default=0, help="target outcome index")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqop",
        description="Frequency operators on N-fold product spaces: "
        "verification, statistics, and sampling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="dense operator-algebra verification")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_common(p, state=False, j=False, fmt=False)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
