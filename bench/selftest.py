"""Self-test of the benchmark's output checks.

    python3 bench/run.py --self-test

Runs small jobs of every kind in process through ``freqop.cli.main`` and
requires each real output to pass its check. Then alters each output the
way a wrong program would and requires the job to count as failed. Last,
requires two workload seeds to give the same job shapes, so every seed
does the same work. Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import tracing
import workloads
from workloads import make_job

STATE_FLAGS = ("--state", "two-level:{p}", "--j", "{j}")
TWO_LEVEL = {"p": "0.3172", "j": 1}
PROBS = ("0.3172", "0.6828")


def _edit_json(edit):
    def tamper(out: bytes) -> bytes:
        doc = json.loads(out)
        edit(doc["result"])
        return json.dumps(doc, indent=2).encode()
    return tamper


def _replace(old: str, new: str, count: int = 1):
    def tamper(out: bytes) -> bytes:
        text = out.decode()
        if old not in text:
            raise ValueError(f"self-test bug: {old!r} is not in the output")
        return text.replace(old, new, count).encode()
    return tamper


def _drop_last_line(out: bytes) -> bytes:
    return b"\n".join(out.split(b"\n")[:-2]) + b"\n"


def _scale(key, factor, row=None):
    def edit(result):
        target = result if row is None else result["rows"][row]
        target[key] *= factor
    return edit


def _shift_frequency(result):
    result["frequencies"][0] += 0.01


def cases():
    """(job, tamperings) pairs; each tampering maps good stdout to bad."""
    sample = dict(n=100, trials=50, seed=12345)
    sample_flags = ("--n", "100", "--trials", "50", "--seed", "12345")
    n_list = ("--n-list", "10,100,1000")
    ns = (10, 100, 1000)
    return [
        (make_job("verify", ("verify", "--dim", "2", "--n-max", "4"), dim=2, n_max=4),
         [_replace('"status": "PASS"', '"status": "FAIL"'),
          _replace('"n": 4,', '"n": 5,')]),
        (make_job("stats", ("stats", *STATE_FLAGS, "--n", "8", "--cross-check"),
                  TWO_LEVEL, PROBS, j=1, n=8),
         [_edit_json(_scale("distance_sq", 1 + 1e-9)),
          _edit_json(_scale("uncertainty", 1 + 1e-9)),
          _replace('"cross_check": "PASS"', '"cross_check": "FAIL"')]),
        (make_job("noncollapse", ("noncollapse", *STATE_FLAGS, *n_list),
                  TWO_LEVEL, PROBS, j=1, ns=ns, format="json"),
         [_edit_json(_scale("max_weight", 1 + 1e-6, row=2)),
          _edit_json(_scale("distance_sq", 2, row=0))]),
        (make_job("noncollapse", ("noncollapse", *STATE_FLAGS, *n_list, "--format", "csv"),
                  TWO_LEVEL, PROBS, j=1, ns=ns, format="csv"),
         [_drop_last_line, _replace("\n100,", "\n101,")]),
        (make_job("converge", ("converge", *STATE_FLAGS, *n_list, "--sample",
                               "--trials", "50", "--seed", "7"),
                  TWO_LEVEL, PROBS, j=1, ns=ns, format="json", trials=50, seed=7),
         [_edit_json(lambda r: r["rows"][0].update(sampled_mean=r["rows"][0]["sampled_mean"] + 1e-3)),
          _edit_json(lambda r: r.update(slope=-0.9))]),
        (make_job("converge", ("converge", *STATE_FLAGS, *n_list, "--format", "csv"),
                  TWO_LEVEL, PROBS, j=1, ns=ns, format="csv"),
         [_replace("# slope=-1", "# slope=-2"), _drop_last_line]),
        (make_job("spectrum", ("spectrum", *STATE_FLAGS, "--n", "1000"),
                  TWO_LEVEL, PROBS, j=1, n=1000, format="json"),
         [_edit_json(lambda r: r.update(argmax=r["argmax"] + 1)),
          _edit_json(lambda r: r["weights"].append(0.0))]),
        (make_job("spectrum", ("spectrum", *STATE_FLAGS, "--n", "1000", "--format", "csv"),
                  TWO_LEVEL, PROBS, j=1, n=1000, format="csv"),
         [_drop_last_line, _replace("\n0,", "\n0,0.5")]),
        (make_job("sample", ("sample", *STATE_FLAGS, *sample_flags),
                  TWO_LEVEL, PROBS, j=1, format="json", **sample),
         [_edit_json(_shift_frequency),
          _edit_json(lambda r: r.update(trials=49)),
          _replace('"seed": 12345', '"seed": 12346', count=-1)]),
        (make_job("sample", ("sample", *STATE_FLAGS, *sample_flags, "--format", "csv"),
                  TWO_LEVEL, PROBS, j=1, format="csv", **sample),
         [_drop_last_line, _replace("philox4x64", "mt19937")]),
    ]


def _failed(job, rc, out, err) -> bool:
    assessor = checks.Assessor([job])
    assessor.assess(0, rc, out, err)
    return assessor.failed == 1


def main() -> int:
    sys.path.insert(0, "src")
    import freqop.cli as cli

    errors = []
    for job, tamperings in cases():
        rc, out, err = tracing.run_cli(cli.main, job.argv)
        problems = checks.check(job, rc, out, err)
        if problems:
            errors.append(f"real output failed: {' '.join(job.argv)}: {problems}")
            continue
        for k, tamper in enumerate(tamperings):
            if not _failed(job, rc, tamper(out), err):
                errors.append(f"tampering {k} passed: {' '.join(job.argv)}")
        # A second run whose bytes differ, even harmlessly, counts as failed.
        assessor = checks.Assessor([job])
        assessor.assess(0, rc, out, err)
        assessor.assess(0, rc, out + b" ", err)
        if assessor.failed != 1:
            errors.append(f"changed bytes passed: {' '.join(job.argv)}")

    refused = make_job("refused", ("sample", *STATE_FLAGS, "--n", "10", "--trials", "1",
                                   "--seed", "0"), TWO_LEVEL)
    rc, out, err = tracing.run_cli(cli.main, refused.argv)
    if checks.check(refused, rc, out, err):
        errors.append("real refused job failed its check")
    for bad in ((0, out, err), (rc, b"partial\n", err), (rc, out, err + err)):
        if not _failed(refused, *bad):
            errors.append(f"tampered refused job passed: {bad!r}")

    state = Path("bench/_work/state_d3.json")
    for name in workloads.WORKLOADS:
        a, b = (workloads.make_jobs(name, seed, state) for seed in (1, 2))
        if [j.shape for j in a] != [j.shape for j in b] or \
                workloads.work_signature(a) != workloads.work_signature(b):
            errors.append(f"{name}: seeds 1 and 2 give different job shapes")
        if [j.argv for j in a] == [j.argv for j in b]:
            errors.append(f"{name}: the seed does not change the inputs")

    for e in errors:
        print(f"SELF-TEST FAILED: {e}", file=sys.stderr)
    print("self-test passed" if not errors else f"self-test: {len(errors)} failures")
    return 1 if errors else 0
