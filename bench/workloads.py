"""The three workloads as fixed job lists, made from the workload seed.

A job is one ``freqop`` CLI invocation plus what its output check needs.
The seed picks p values, target indices j, sampling seeds and the phases of
the complex JSON state. Sizes are fixed per job slot, so every seed does
the same work: a job's ``shape`` (its argv with the seeded values left as
placeholders) is the same for every seed.

Each workload has one refused job, an out-of-scale request that must
exit 2.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Born weights of the d=3 JSON state; the seed sets only the phases.
D3_PROBS = ("0.5", "0.3", "0.2")

CLOSED_FORM_NS = (10, 100, 1000, 10**4, 10**5, 10**6)
CONVERGE_SAMPLE_NS = (10, 100, 1000, 10**4)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``kind`` names the output check (see ``checks.py``). ``probs`` are the
    exact Born weights of the state, as decimal strings, so the checks can
    work with ``fractions``; ``params`` holds the rest of what they need.
    """

    kind: str
    shape: str
    argv: tuple[str, ...]
    probs: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    @property
    def refused(self) -> bool:
        return self.kind == "refused"

    @property
    def p(self) -> Fraction:
        """Exact Born weight of the target outcome j."""
        return Fraction(self.probs[self.params["j"]])


def make_job(kind, template, values=None, probs=(), **params) -> Job:
    """A Job whose argv is ``template`` with the seeded ``values`` filled in."""
    values = values or {}
    argv = tuple(tok.format(**values) for tok in template)
    return Job(kind, " ".join(template), argv, tuple(probs), params)


def _two_level(rng: random.Random) -> tuple[dict, tuple[str, str]]:
    # Four decimals keep (N+1)p off the integers for N >= 10^4, so the
    # binomial mode is unique where the spectrum tables are checked.
    k = rng.randint(1000, 9000)
    p, q = f"0.{k:04d}", f"0.{10000 - k:04d}"
    return {"p": p, "j": rng.randrange(2)}, (p, q)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def write_d3_state(path: Path, rng: random.Random) -> None:
    """Write the complex d=3 state with Born weights D3_PROBS and seeded
    phases, in the ``freqop`` JSON state format."""
    amps = []
    for prob in D3_PROBS:
        c = math.sqrt(float(prob)) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        amps.append({"re": c.real, "im": c.imag})
    path.write_text(json.dumps({"dim": 3, "amplitudes": amps}), encoding="utf-8")


def oracle(rng: random.Random, state_path: Path) -> list[Job]:
    jobs = [make_job("verify", ("verify", "--dim", "2", "--n-max", "11"),
                 dim=2, n_max=11)]
    for n in (16, 17, 18, 19, 20):
        values, probs = _two_level(rng)
        jobs.append(make_job(
            "stats",
            ("stats", "--state", "two-level:{p}", "--j", "{j}", "--n", str(n),
             "--cross-check"),
            values, probs, j=values["j"], n=n))
    j = rng.randrange(3)
    write_d3_state(state_path, rng)
    jobs.append(make_job(
        "stats",
        ("stats", "--state", str(state_path), "--j", "{j}", "--n", "12",
         "--cross-check"),
        {"j": j}, D3_PROBS, j=j, n=12))
    jobs.append(make_job("refused", ("verify", "--dim", "3", "--n-max", "13")))
    return jobs


def closed_form(rng: random.Random, state_path: Path) -> list[Job]:
    n_list = ",".join(str(n) for n in CLOSED_FORM_NS)
    jobs = []
    for kind in ("noncollapse", "converge"):
        for fmt in ("json", "csv"):
            values, probs = _two_level(rng)
            jobs.append(make_job(
                kind,
                (kind, "--state", "two-level:{p}", "--j", "{j}",
                 "--n-list", n_list, "--format", fmt),
                values, probs, j=values["j"], ns=CLOSED_FORM_NS, format=fmt))
    for n, fmt in ((10**5, "json"), (10**6, "csv")):
        values, probs = _two_level(rng)
        jobs.append(make_job(
            "spectrum",
            ("spectrum", "--state", "two-level:{p}", "--j", "{j}",
             "--n", str(n), "--format", fmt),
            values, probs, j=values["j"], n=n, format=fmt))
    values, _ = _two_level(rng)
    jobs.append(make_job(
        "refused",
        ("spectrum", "--state", "two-level:{p}", "--j", "{j}", "--n", "2000000"),
        values))
    return jobs


def sampling(rng: random.Random, state_path: Path) -> list[Job]:
    jobs = []
    for n, trials, fmt in ((100, 10**4, "json"), (1000, 2 * 10**4, "csv"),
                           (10**6, 100, "json")):
        values, probs = _two_level(rng)
        values["seed"] = _seed(rng)
        jobs.append(make_job(
            "sample",
            ("sample", "--state", "two-level:{p}", "--j", "{j}", "--n", str(n),
             "--trials", str(trials), "--seed", "{seed}", "--format", fmt),
            values, probs, j=values["j"], n=n, trials=trials,
            seed=values["seed"], format=fmt))
    values = {"j": rng.randrange(8), "seed": _seed(rng)}
    jobs.append(make_job(
        "sample",
        ("sample", "--state", "uniform:8", "--j", "{j}", "--n", "100000",
         "--trials", "200", "--seed", "{seed}"),
        values, ("0.125",) * 8, j=values["j"], n=10**5, trials=200,
        seed=values["seed"], format="json"))
    values, probs = _two_level(rng)
    values["seed"] = _seed(rng)
    jobs.append(make_job(
        "converge",
        ("converge", "--state", "two-level:{p}", "--j", "{j}", "--n-list",
         ",".join(str(n) for n in CONVERGE_SAMPLE_NS), "--sample",
         "--trials", "1000", "--seed", "{seed}"),
        values, probs, j=values["j"], ns=CONVERGE_SAMPLE_NS, format="json",
        trials=1000, seed=values["seed"]))
    values, _ = _two_level(rng)
    values["seed"] = _seed(rng)
    jobs.append(make_job(
        "refused",
        ("sample", "--state", "two-level:{p}", "--j", "{j}", "--n", "100",
         "--trials", "1", "--seed", "{seed}"),
        values))
    return jobs


WORKLOADS = {"oracle": oracle, "closed_form": closed_form, "sampling": sampling}


def make_jobs(workload: str, seed: int, state_path: Path) -> list[Job]:
    return WORKLOADS[workload](random.Random(seed), state_path)


def work_signature(jobs: list[Job]) -> str:
    """Digest of the job shapes: equal for every seed of a workload."""
    return hashlib.sha256("\n".join(j.shape for j in jobs).encode()).hexdigest()[:16]
