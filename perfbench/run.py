"""Closed-loop benchmark of the blockcase command line.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One client in this single-threaded process
calls ``blockcase.cli.main(argv)`` in-process, one job at a time, on inputs
generated from ``--seed`` that no earlier job of the process has seen. The
first job is a warm-up: it is checked but not timed. The loop stops
starting jobs after ``--seconds`` of wall time, warm-up and set-up probes
included. Only the ``main`` calls are timed; input generation and output
checks are not.
Every job's outputs are checked, pinned jobs against values from the seed
commit (``perfbench/pins``), later ones by the seed-independent checks.

With ``--trace 0`` the end-to-end metrics are reported; the set-up probes
run one after each job until all are taken, so they sample the same
stretch of machine time as the jobs. With ``--trace 1``
the first half of the time runs untraced and the second half with span
wrappers installed around each layer's public functions; the per-layer
metrics come from the traced half and the spans are written to
``.perfbench_work/trace-<workload>-seed<seed>.npz``.

A human-readable table comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every job passed its checks.
"""

from __future__ import annotations

import os

# one thread: cap BLAS/OpenMP pools before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = Path(__file__).resolve().parent / "pins"
SETUP_SAMPLES = 7
UNITS = {"throughput": "items/s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ITEMS = {"campaign": "campaign runs", "ledger": "proposals", "gate": "tree nodes", "tolerance": "policies"}

_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import blockcase, blockcase.cli; "
    "print(time.perf_counter() - t); print(blockcase.__file__)"
)


def import_program():
    """Import ``blockcase`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "blockcase" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'blockcase'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import blockcase
    import blockcase.cli

    if SRC.resolve() not in Path(blockcase.__file__).resolve().parents:
        raise SystemExit(f"blockcase was imported from {blockcase.__file__}, not from {SRC}")
    return blockcase.cli


def setup_probe() -> float:
    """Time to import the package and its CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    seconds, origin = done.stdout.split("\n")[:2]
    if SRC.resolve() not in Path(origin).resolve().parents:
        raise SystemExit(f"set-up probe imported blockcase from {origin}")
    return float(seconds)


def load_pins(workload: str) -> tuple[int, dict]:
    doc = json.loads((PINS / f"{workload}.json").read_text(encoding="utf-8"))
    return doc["pool"], doc["pins"]


def job_seeds(workload: str, seed: int, pool: int):
    """Yield (job seed, pinned) pairs: a seeded walk over the pinned pool, then fresh seeds.

    The pool size is a power of two and the stride is odd, so the walk
    visits every pinned job seed once before any repeats.
    """
    rng = random.Random(f"blockcase-bench/order/{workload}/{seed}")
    offset = rng.randrange(pool) if pool else 0
    stride = 2 * rng.randrange(max(pool // 2, 1)) + 1
    for j in itertools.count():
        if j < pool:
            yield (offset + j * stride) % pool, True
        else:
            yield pool + (seed << 20) + j, False


def execute(cli, job):
    """Run a job's commands in order; returns (seconds inside ``main``, outputs)."""
    from perfbench.checks import Output

    outputs = []
    elapsed = 0.0
    gc.collect()
    for index, argv in enumerate(job.commands):
        if index in job.before:
            job.before[index]()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a malformed command line this way
                code = exc.code
            except Exception:  # a crash is a failed job, not a benchmark error
                code = None
                traceback.print_exc()
            elapsed += time.perf_counter() - start
        outputs.append(Output(code, out.getvalue(), err.getvalue()))
    return elapsed, outputs


class Runner:
    """Runs jobs of one workload and keeps their timings and failures."""

    def __init__(self, cli, workload: str, seed: int, *, small: bool = False):
        from perfbench import checks, gen

        self.cli, self.workload, self.small = cli, workload, small
        self.checks, self.gen = checks, gen
        pool, self.pins = load_pins(workload) if not small else (0, {})
        self.seeds = job_seeds(workload, seed, pool)
        self.dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        self.times: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_jobs = 0
        self.unpinned_jobs = 0
        self.tracer = None

    def _generate(self, job_seed: int, job_dir: Path):
        make = self.gen.GENERATORS[self.workload]
        if not self.small:
            return make(job_seed, job_dir)
        return make(job_seed, job_dir, **self.gen.SMALL[self.workload])

    def run_job(self, job_id: int, *, timed: bool = True) -> None:
        """Run, check and delete one fresh job; an untimed job adds no time or work."""
        job_seed, pinned = next(self.seeds)
        job_dir = self.dir / f"job{job_id}"
        job_dir.mkdir(parents=True)
        job = self._generate(job_seed, job_dir)
        if self.tracer is None:
            elapsed, outputs = execute(self.cli, job)
        else:
            with self.tracer.active(job_id):
                elapsed, outputs = execute(self.cli, job)
        pin = self.pins.get(str(job_seed)) if pinned else None
        self.unpinned_jobs += pin is None
        problems = self.checks.check(self.workload, job, outputs, pin)
        self.attempted += 1
        if problems:
            self.failed_jobs += 1
            self.failures += [f"job {job_id} (job seed {job_seed}): {p}" for p in problems]
        if timed:
            self.times.append(elapsed)
            self.work += job.work
        shutil.rmtree(job_dir)

    def run_until(self, deadline: float, first_job: int = 0, after_job=None) -> int:
        """Start timed jobs until the ``perf_counter`` deadline (at least one); returns jobs run.

        ``after_job``, if given, runs after each job; its time counts toward the
        deadline but not toward any job.
        """
        jobs = 0
        while jobs == 0 or time.perf_counter() < deadline:
            self.run_job(first_job + jobs)
            jobs += 1
            if after_job is not None:
                after_job()
        return jobs

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    @property
    def throughput(self) -> float:
        return self.work / sum(self.times)


def measure(workload: str, seed: int, seconds: float, trace: bool, *, small: bool = False) -> tuple[dict, Runner]:
    """One benchmark run: the result object printed as the last line, and the runner."""
    cli = import_program()
    runner = Runner(cli, workload, seed, small=small)
    deadline = time.perf_counter() + seconds
    try:
        runner.run_job(0, timed=False)  # warm-up: first-call costs are not part of a job's time
        if not trace:
            setup: list[float] = []

            def probe_setup() -> None:
                if len(setup) < SETUP_SAMPLES:
                    setup.append(setup_probe())

            runner.run_until(deadline, first_job=1, after_job=probe_setup)
            while len(setup) < SETUP_SAMPLES:
                probe_setup()
            metrics = {
                "throughput": runner.throughput,
                "job_p50_s": statistics.median(runner.times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = UNITS
        else:
            from perfbench import spans

            untraced = runner.run_until((time.perf_counter() + deadline) / 2, first_job=1)
            untraced_throughput = runner.throughput
            tracer = spans.Tracer()
            before_work, before_time = runner.work, sum(runner.times)
            tracer.install()
            runner.tracer = tracer
            jobs = runner.run_until(deadline, first_job=1 + untraced)
            traced_throughput = (runner.work - before_work) / (sum(runner.times) - before_time)
            metrics = tracer.metrics(jobs, traced_throughput / untraced_throughput)
            units = spans.metric_units()
            WORK.mkdir(exist_ok=True)
            tracer.save(WORK / f"trace-{workload}-seed{seed}.npz")
    finally:
        runner.close()
    return {
        "correct": runner.failed_jobs == 0,
        "attempted": runner.attempted,
        "failed": runner.failed_jobs,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, runner


def print_table(workload: str, seed: int, result: dict, runner: Runner) -> None:
    attempted, failed = result["attempted"], result["failed"]
    timed = len(runner.times)
    print(f"workload {workload}, seed {seed}: {attempted} jobs ({timed} timed after one warm-up), "
          f"{runner.work} {ITEMS[workload]}, {failed} failed, {runner.unpinned_jobs} checked without a pin")
    for name, metric in result["metrics"].items():
        unit = f"{ITEMS[workload]}/s" if name == "throughput" else metric["unit"]
        note = f" (median of {timed} jobs)" if name == "job_p50_s" else ""
        note = f" (median of {SETUP_SAMPLES} fresh imports)" if name == "setup_s" else note
        print(f"  {name:<58} {metric['value']:>14.6g} {unit}{note}")
    print(f"  {'fail_ratio':<58} {failed / attempted:>14.6g} ({failed}/{attempted} jobs)")
    for failure in runner.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[0] = str(ROOT)  # import the benchmark as the perfbench package
    result, runner = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, args.seed, result, runner)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
