"""Output checks: each job's stdout against the benchmark's own oracle.

The oracle does not import ``freqop``. Closed forms are evaluated in exact
rationals (``fractions``) or in ``mpmath`` at 40 digits from the exact
decimal Born weights the job was given; sampled frequencies are re-derived
from the Philox stream rule that the output prints in its own metadata.

``check(job, rc, stdout, stderr)`` returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np

# The program reads p back from float amplitudes, so its closed forms may
# differ from the exact values in the last few ulps; sample statistics are
# recomputed from the same floats.
REL_EXACT = 1e-12
# scipy's binomial pmf against the 40-digit mpmath value.
REL_PMF = 1e-9

_STREAM_RULE = re.compile(r"master \^ \(trial_index \* (0x[0-9a-fA-F]+)\)")
_MASK64 = (1 << 64) - 1


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(got, want, rel: float, what: str) -> None:
    want = float(want)
    _expect(isinstance(got, (int, float)) and abs(got - want) <= rel * abs(want),
            f"{what}: got {got!r}, want {want!r}")


def _csv_columns(text: str) -> tuple[dict, dict]:
    """(meta, {column: values}) of a CSV output; empty cells are None."""
    meta, lines = {}, text.split("\n")
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = json.loads(value)
    _expect(len(lines) >= 2 and lines[-1] == "", "csv has no header or final newline")
    header, body = lines[0].split(","), lines[1:-1]
    cells = ",".join(body).split(",") if body else []
    _expect(len(cells) == len(body) * len(header), "csv rows do not match the header")
    return meta, {name: [float(v) if v else None for v in cells[i:: len(header)]]
                  for i, name in enumerate(header)}


def _rows(columns: dict) -> list[dict]:
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _load(job, stdout: str) -> tuple[dict, object]:
    """(meta, result) from either output format; a CSV result is a dict of
    columns."""
    if job.params.get("format") == "csv":
        return _csv_columns(stdout)
    doc = json.loads(stdout)
    return doc["meta"], doc["result"]


# -- exact closed forms --------------------------------------------------


def _distance_sq(p: Fraction, n: int) -> Fraction:
    return p * (1 - p) / n


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _uncertainty(p: Fraction, n: int):
    with mpmath.workdps(40):
        return mpmath.sqrt(_mp(_distance_sq(p, n)))


def _pmf(p: Fraction, n: int, k: int):
    with mpmath.workdps(40):
        return mpmath.binomial(n, k) * _mp(p) ** k * _mp(1 - p) ** (n - k)


def binomial_mode(p: Fraction, n: int) -> tuple[float, set[int]]:
    """Largest binomial weight and every k at which it is attained (to
    REL_PMF). The mode is floor((n+1)p) or the integer just below it."""
    top = math.floor((n + 1) * p)
    weights = {k: _pmf(p, n, k) for k in (top - 1, top) if 0 <= k <= n}
    peak = max(weights.values())
    return float(peak), {k for k, w in weights.items() if w >= peak * (1 - REL_PMF)}


# -- sampling ------------------------------------------------------------


def stream_seeds(meta: dict, trial_indices) -> list[int]:
    """Per-trial Philox keys, re-derived from the output's own metadata."""
    _expect(meta.get("rng") == "philox4x64", f"unexpected rng {meta.get('rng')!r}")
    match = _STREAM_RULE.search(str(meta.get("stream_rule", "")))
    _expect(match is not None, f"no stream rule in {meta.get('stream_rule')!r}")
    const, seed = int(match.group(1), 16), int(meta["seed"])
    return [(seed ^ (t * const)) & _MASK64 for t in trial_indices]


def frequency(probs, j: int, n: int, key: int) -> float:
    """Fraction of n Born-rule draws equal to j, for one stream key.

    A draw u selects outcome j when cum[j-1] < u <= cum[j]."""
    cum = [float(sum(Fraction(x) for x in probs[: i + 1])) for i in range(len(probs))]
    u = np.random.Generator(np.random.Philox(key=key)).random(n)
    hit = u <= cum[j]
    if j > 0:
        hit &= u > cum[j - 1]
    return int(np.count_nonzero(hit)) / n


# -- per-command checks --------------------------------------------------


def _check_verify(job, meta, result):
    _expect(result["status"] == "PASS", f"status {result['status']!r}")
    ns = [c["n"] for c in result["checks"]]
    _expect(ns == list(range(1, job.params["n_max"] + 1)), f"checks cover N={ns}")
    _expect(all(c["d"] == job.params["dim"] for c in result["checks"]), "wrong d")


def _check_stats(job, meta, result):
    p, n = job.p, job.params["n"]
    _close(result["expectation"], p, REL_EXACT, "expectation")
    _close(result["distance_sq"], _distance_sq(p, n), REL_EXACT, "distance_sq")
    _close(result["uncertainty"], _uncertainty(p, n), REL_EXACT, "uncertainty")
    _close(result["gram"], p / n**2 * (n + n * (n - 1) * p), REL_EXACT, "gram")
    _expect(result.get("cross_check") == "PASS", "dense cross-check did not pass")


def _check_rows(job, rows):
    p = job.p
    _expect([int(r["n"]) for r in rows] == list(job.params["ns"]), "wrong N list")
    for r in rows:
        n = int(r["n"])
        _close(r["distance_sq"], _distance_sq(p, n), REL_EXACT, f"distance_sq N={n}")
        _close(r["max_weight"], binomial_mode(p, n)[0], REL_PMF, f"max_weight N={n}")
        if "uncertainty" in r:
            _close(r["uncertainty"], _uncertainty(p, n), REL_EXACT, f"uncertainty N={n}")
        if "off_peak_mass" in r:
            _close(r["off_peak_mass"], 1 - r["max_weight"], 1e-15, "off_peak_mass")


def _check_noncollapse(job, meta, result):
    if "rows" in result:
        rows, verdict = result["rows"], result["verdict"]
    else:
        rows, verdict = _rows(result), meta.get("verdict", "")
    _check_rows(job, rows)
    _expect("never becomes a frequency eigenstate" in verdict, "verdict")


def _check_converge(job, meta, result):
    if "rows" in result:
        rows, slope = result["rows"], result["slope"]
    else:
        rows, slope = _rows(result), meta.get("slope")
    _check_rows(job, rows)
    _close(slope, -1.0, 1e-9, "slope")
    if "trials" not in job.params:
        _expect(all(r["sampled_mean"] is None for r in rows), "unexpected samples")
        return
    trials = job.params["trials"]
    _expect(int(meta["seed"]) == job.params["seed"], "seed not echoed")
    keys = stream_seeds(meta, range(trials))
    for r in rows[:2]:
        n = int(r["n"])
        freqs = np.array([frequency(job.probs, job.params["j"], n, k) for k in keys])
        _close(r["sampled_mean"], freqs.mean(), REL_EXACT, f"sampled_mean N={n}")
        _close(r["sampled_variance"], freqs.var(ddof=1), REL_EXACT,
               f"sampled_variance N={n}")


def _check_spectrum(job, meta, result):
    n = job.params["n"]
    if "k" in result:
        _expect(result["k"] == list(map(float, range(n + 1))), "k column")
        weights = result["weight"]
    else:
        _expect(result["n"] == n, "n")
        weights = result["weights"]
    _expect(len(weights) == n + 1, f"{len(weights)} weights for N={n}")
    _close(math.fsum(weights), 1.0, 1e-9, "sum of weights")
    peak, modes = binomial_mode(job.p, n)
    argmax = max(range(n + 1), key=weights.__getitem__)
    _expect(argmax in modes, f"argmax {argmax} is not a mode {sorted(modes)}")
    _close(weights[argmax], peak, REL_PMF, "peak weight")
    if "argmax" in result:
        _expect(result["argmax"] == argmax, "argmax field")
        _close(result["max_weight"], peak, REL_PMF, "max_weight field")


def _check_sample(job, meta, result):
    trials, n, j = job.params["trials"], job.params["n"], job.params["j"]
    _expect(int(meta["seed"]) == job.params["seed"], "seed not echoed")
    if "trial" in result:
        _expect(result["trial"] == list(map(float, range(trials))), "trial column")
        freqs = result["frequency"]
        mean, var = meta["mean_frequency"], meta["sample_variance"]
    else:
        _expect(result["trials"] == trials, "trials field")
        freqs = result["frequencies"]
        mean, var = result["mean_frequency"], result["sample_variance"]
    _expect(len(freqs) == trials, f"{len(freqs)} frequencies for {trials} trials")
    arr = np.array(freqs)
    _close(mean, arr.mean(), REL_EXACT, "mean_frequency")
    _close(var, arr.var(ddof=1), REL_EXACT, "sample_variance")
    picks = sorted({0, trials // 2 + job.params["seed"] % (trials // 2), trials - 1})
    for t, key in zip(picks, stream_seeds(meta, picks)):
        want = frequency(job.probs, j, n, key)
        _expect(freqs[t] == want, f"trial {t}: frequency {freqs[t]!r}, re-derived {want!r}")


_CHECKS = {
    "verify": _check_verify,
    "stats": _check_stats,
    "noncollapse": _check_noncollapse,
    "converge": _check_converge,
    "spectrum": _check_spectrum,
    "sample": _check_sample,
}


def check(job, rc: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Problems with one job's exit code and output; empty when correct."""
    if job.refused:
        lines = stderr.decode(errors="replace").splitlines()
        problems = []
        if rc != 2:
            problems.append(f"refused job exited {rc}, want 2")
        if stdout:
            problems.append(f"refused job wrote {len(stdout)} bytes to stdout")
        if len(lines) != 1 or not lines[0].startswith("error: "):
            problems.append(f"refused job stderr is not one 'error:' line: {lines[:3]!r}")
        return problems
    if rc != 0:
        return [f"exit code {rc}: {stderr.decode(errors='replace')[-300:]!r}"]
    try:
        meta, result = _load(job, stdout.decode())
        _CHECKS[job.kind](job, meta, result)
    except Mismatch as exc:
        return [str(exc)]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []


class Assessor:
    """Checks each job run and counts failures: a wrong exit code, an
    output that fails its check, or stdout that differs from the first
    run of the same job."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def assess(self, index: int, rc: int, stdout: bytes, stderr: bytes) -> None:
        job = self.jobs[index]
        problems = check(job, rc, stdout, stderr)
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            problems.append("stdout differs from an earlier run of the same job")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{' '.join(job.argv)}: {p}" for p in problems)
