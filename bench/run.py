"""freqop benchmark: three CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload {oracle,closed_form,sampling} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Run from the repository root; the program is taken from ``./src`` (it
need not be installed). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (end to end): one client process runs the workload's jobs
one at a time, each a ``python -m freqop.cli`` child, round robin until
``--seconds`` have passed and each answered job ran at least twice (so
output bytes can be compared across runs). The refused job and the
import-only ``freqop --version`` are interleaved with the other jobs. Every
child runs right after a host-speed reference, ``python -c "import
numpy"``, which runs nothing of freqop. Each child is timed from spawn to
reap and measured with ``os.wait4`` on its own pid. Every output is checked
(``checks.py``). A shared host's speed drifts by a fifth or more within
minutes, and the jobs drift with it, so times are scaled by
REFERENCE_WALL_S (CPU: REFERENCE_CPU_S) over the reference's time (see
``end_to_end``); each figure is a median over a job's runs:

    wall_s       wall time of the job list: the sum of its jobs' wall times
    cpu_s        user + system CPU of the job processes, summed
    peak_rss_mb  largest peak RSS of any single job (not scaled)
    refused_s    spawn-to-exit time of the workload's refused job
    setup_s      wall time of ``freqop --version`` (import only)

``--trace 1`` (layer by layer): the same job list runs in process through
``freqop.cli.main``: untraced, traced (``tracing.py``), untraced again;
then each kernel is timed alone (``kernels.py``). It reports each module's
self time and call count, the kernel times, work counts, and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
SRC = Path("src")
# Every answered job runs at least MIN_RUNS times, so output bytes can be
# compared across runs; --version runs at least MIN_SETUP times. The refused
# job, whose stdout must be empty, runs first and then by its share.
MIN_RUNS = 2
MIN_SETUP = 3
# Shares of the elapsed time given to the refused job and to --version.
REFUSED_SHARE = 0.1
SETUP_SHARE = 0.1
# The host-speed reference, run just before every child: it imports numpy
# and runs none of freqop's code, so no change to the program moves it. On a
# shared host a child's time drifts by a fifth or more within minutes, and
# children run back to back drift together; times are scaled by the
# reference's, so they read as on a host where the reference takes
# REFERENCE_WALL_S of wall and REFERENCE_CPU_S of CPU time: about its
# medians on the host the benchmark was tuned on (2-vCPU Intel Xeon, Python
# 3.11.7, numpy 2.4.6). They are constants, so runs at different commits
# compare.
REFERENCE = ("-c", "import numpy")
REFERENCE_WALL_S = 0.15
REFERENCE_CPU_S = 0.25
IMPORT_REPEATS = 3
# Every run must end within 180 s; a job still running at this point is killed.
RUN_DEADLINE_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "refused_s": "s", "setup_s": "s"}


@dataclass
class Child:
    """Outcome of one child process, measured by ``os.wait4`` on its pid."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    err: Path


def child_env() -> dict:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, env, deadline: float, out: Path, err: Path) -> Child:
    """Run ``python *args`` with stdout and stderr sent to the given files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                             os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out, err)


# -- end to end ----------------------------------------------------------


def end_to_end(jobs, seconds: float, start: float) -> tuple[dict, object, dict]:
    """Interleaved runs of the answered jobs, the refused job and the
    import-only invocation until ``seconds`` have passed and each has run
    often enough; outputs are checked after the last run.

    The answered jobs run round robin. Before each of them the refused job
    or ``--version`` runs if its runs so far took less than its share of
    the elapsed time, so all are sampled evenly over the run. Every child
    runs just after the reference. ``wall_s`` and ``cpu_s`` sum each job's
    median over its runs, which are spread over the whole run, and are
    scaled by the reference's median over the run. ``refused_s`` and
    ``setup_s`` come from a few runs each, so each of their runs is scaled
    by the references nearest it: the median of the one just before it and
    that one's two neighbours.

    A child's ru_maxrss counts its parent's resident memory at spawn (the
    child starts in the parent's address space), so this client stays small
    while children run: outputs wait in files, and ``checks`` (numpy,
    mpmath) is imported only after the last run.
    """
    env = child_env()
    deadline = start + RUN_DEADLINE_S
    log_out, log_err = WORK_DIR / "sample.out", WORK_DIR / "sample.err"

    def checked(args) -> Child:
        child = spawn(args, env, deadline, log_out, log_err)
        if child.rc != 0:
            raise SystemExit(f"error: {' '.join(args)} failed: {log_err.read_bytes()[-300:]!r}")
        return child

    def paired(args, out=log_out, err=log_err) -> tuple[int, Child]:
        """The reference, then ``python *args``; the reference's index in
        ``references`` and the child."""
        references.append(checked(REFERENCE))
        return len(references) - 1, spawn(args, env, deadline, out, err)

    def run(i: int) -> None:
        tag = f"job{i}_{len(runs[i])}"
        runs[i].append(paired(["-m", "freqop.cli", *jobs[i].argv],
                              WORK_DIR / f"{tag}.out", WORK_DIR / f"{tag}.err"))

    version = ("-m", "freqop.cli", "--version")
    checked(version)  # warm-up: byte-compiles the sources and fills the file cache
    refused = next(i for i, job in enumerate(jobs) if job.refused)
    answered = [i for i in range(len(jobs)) if i != refused]
    references: list[Child] = []  # in the order run
    # (index of the reference run just before, child) pairs
    runs: dict[int, list[tuple[int, Child]]] = {i: [] for i in range(len(jobs))}
    setup: list[tuple[int, Child]] = []
    t0 = time.monotonic()
    turn = 0  # answered runs so far; round robin, so each job has turn // len(answered)

    def busy(pairs) -> float:
        return sum(references[k].wall_s + child.wall_s for k, child in pairs)

    def lacking(pairs, least) -> bool:
        """Short of its minimum once the answered jobs have theirs and the
        time is up: it then runs before any more answered jobs."""
        return (len(pairs) < least and turn >= MIN_RUNS * len(answered)
                and time.monotonic() - t0 >= seconds)

    while (lacking(setup, MIN_SETUP) or turn < MIN_RUNS * len(answered)
           or time.monotonic() - t0 < seconds):
        elapsed = time.monotonic() - t0
        if busy(runs[refused]) <= REFUSED_SHARE * elapsed:
            run(refused)
        elif busy(setup) <= SETUP_SHARE * elapsed or lacking(setup, MIN_SETUP):
            k, child = paired(version)
            if child.rc != 0:
                raise SystemExit(f"error: freqop --version failed: {log_err.read_bytes()[-300:]!r}")
            setup.append((k, child))
        else:
            run(answered[turn % len(answered)])
            turn += 1

    import checks

    assessor = checks.Assessor(jobs)
    for i, pairs in runs.items():
        for _, child in pairs:
            assessor.assess(i, child.rc, child.out.read_bytes(), child.err.read_bytes())
            child.out.unlink()
            child.err.unlink()

    ref_wall = statistics.median(c.wall_s for c in references)
    ref_cpu = statistics.median(c.cpu_s for c in references)

    def figures(scaled: bool) -> dict:
        def per_job(attr):
            """Each job's median over its runs, so one slow run moves no job."""
            return [statistics.median(getattr(c, attr) for _, c in runs[i])
                    for i in range(len(jobs))]

        def local(pairs) -> float:
            """Median over runs of wall time, scaled by the nearest references."""
            def factor(k):
                near = references[max(k - 1, 0):k + 2]
                return REFERENCE_WALL_S / statistics.median(c.wall_s for c in near)
            return statistics.median(c.wall_s * (factor(k) if scaled else 1.0)
                                     for k, c in pairs)

        return {
            "wall_s": sum(per_job("wall_s")) * (REFERENCE_WALL_S / ref_wall if scaled else 1.0),
            "cpu_s": sum(per_job("cpu_s")) * (REFERENCE_CPU_S / ref_cpu if scaled else 1.0),
            "peak_rss_mb": max(per_job("rss_mb")),
            "refused_s": local(runs[refused]),
            "setup_s": local(setup),
        }

    info = {
        "unscaled": figures(scaled=False),
        "reference_wall_s": ref_wall,
        "reference_cpu_s": ref_cpu,
        "runs_per_job": [len(runs[i]) for i in range(len(jobs))],
        "setup_runs": len(setup),
        "measured_s": time.monotonic() - t0,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in figures(scaled=True).items()}, \
        assessor, info


# -- traced run ----------------------------------------------------------


def _median_spawn_s(args, env, deadline) -> float:
    out, err = WORK_DIR / "import.out", WORK_DIR / "import.err"
    return statistics.median(spawn(args, env, deadline, out, err).wall_s
                             for _ in range(IMPORT_REPEATS))


def traced(jobs, seed: int, workload: str, start: float) -> tuple[dict, object, dict]:
    import checks
    import kernels
    import tracing

    sys.path.insert(0, str(SRC.resolve()))
    import freqop.cli as cli

    env = child_env()
    deadline = start + RUN_DEADLINE_S
    import_s = (_median_spawn_s(["-c", "import freqop.cli"], env, deadline)
                - _median_spawn_s(["-c", "pass"], env, deadline))

    def untraced_run():
        t0 = time.perf_counter()
        outputs = [tracing.run_cli(cli.main, job.argv) for job in jobs]
        return outputs, time.perf_counter() - t0

    # The first untraced run warms lazy set-up; the overhead is measured
    # against the second, which runs after the traced one.
    plain, _ = untraced_run()

    tracer = tracing.Tracer()
    bindings = tracer.install()
    try:
        main = tracer.wrap("cli", "cli.main", cli.main)
        outputs = []
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            tracer.job = i
            outputs.append(tracing.run_cli(main, job.argv))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    plain_again, untraced_s = untraced_run()

    assessor = checks.Assessor(jobs)
    for i, (rc, out, err) in enumerate(plain):
        assessor.assess(i, rc, out, err)
    for run in (outputs, plain_again):
        for i, (rc, out, err) in enumerate(run):
            assessor.assess(i, rc, out, err)

    rng = random.Random(seed)
    kernel_metrics, missing, errors, kernel_calls = kernels.run_kernels(
        p=rng.randint(1000, 9000) / 10000, seed=rng.getrandbits(63), j8=rng.randrange(8))
    assessor.attempted += kernel_calls
    assessor.failed += len(errors)
    assessor.problems.extend(errors)

    per_layer = {"cli.import_s": (import_s, "s")}
    for layer, (self_s, calls) in tracer.layer_stats().items():
        per_layer[f"{layer}.self_s"] = (self_s, "s")
        per_layer[f"{layer}.calls"] = (calls, "count")
    refused = next(i for i, job in enumerate(jobs) if job.refused)
    per_layer["cli.refused_work_s"] = (tracer.job_time(refused), "s")
    emitted = sum(job.params["n"] + 1 if job.kind == "spectrum" else len(job.params["ns"])
                  for job in jobs if job.kind in ("spectrum", "noncollapse", "converge"))
    per_layer["analytic.table_entries"] = (tracer.table_entries, "count")
    per_layer["analytic.table_use_ratio"] = (
        emitted / tracer.table_entries if tracer.table_entries else 1.0, "ratio")
    per_layer["dense.matrix_bytes"] = (tracer.matrix_bytes, "bytes")
    sampler_s = per_layer["sampler.self_s"][0]
    per_layer["sampler.draws"] = (tracer.draws, "count")
    per_layer["sampler.draws_per_s"] = (tracer.draws / sampler_s if sampler_s else 0.0, "1/s")
    per_layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name, value in kernel_metrics.items():
        per_layer[name] = (value, "MB" if name.endswith("_mb") else "s")

    trace_file = WORK_DIR / f"spans_{workload}_{seed}.json"
    trace_file.write_text(json.dumps({
        "bindings": bindings,
        "jobs": [" ".join(job.argv) for job in jobs],
        "spans": tracer.spans,
    }))
    info = {"untraced_inprocess_s": untraced_s, "traced_inprocess_s": traced_s,
            "spans": len(tracer.spans), "missing": missing, "trace_file": str(trace_file)}
    return {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}, assessor, info


# -- environment record --------------------------------------------------


def _git_commit() -> str:
    """HEAD of a git checkout in the current directory, read from its files."""
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = Path(".git") / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, jobs) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.read_bytes())
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "work_signature": workloads.work_signature(jobs),
        "jobs": len(jobs),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# -- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that tampered outputs count as failed, then exit")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "freqop" / "cli.py").is_file():
        print(f"error: no freqop sources under {SRC}/; run from the repository root",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    jobs = workloads.make_jobs(args.workload, args.seed,
                               Path(os.path.relpath(WORK_DIR)) / "state_d3.json")
    if args.trace:
        metrics, assessor, extra = traced(jobs, args.seed, args.workload, start)
    else:
        metrics, assessor, extra = end_to_end(jobs, args.seconds, start)

    for problem in assessor.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:55s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:12s} {'failed_ratio':55s} "
          f"{assessor.failed / assessor.attempted:>16.6g} ratio")
    print(json.dumps({"environment": environment(args.workload, args.seed, jobs), **extra}))
    print(json.dumps({
        "correct": assessor.failed == 0,
        "attempted": assessor.attempted,
        "failed": assessor.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
