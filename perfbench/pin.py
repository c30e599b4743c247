"""Pin the outputs of a workload's job pool at the current commit.

    python3 perfbench/pin.py --workload ledger --pool 512

Runs job seeds ``0 .. pool-1`` at full size, requires every job to pass the
seed-independent checks, and writes the values ``checks.pin_of`` extracts
to ``perfbench/pins/<workload>.json``. Run it only on a commit whose
outputs are known good; the benchmark then holds every later commit to
them. The pool size must be a power of two.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import checks, gen  # noqa: E402
from perfbench.run import PINS, WORK, execute, import_program  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--pool", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pool < 1 or args.pool & (args.pool - 1):
        parser.error("--pool must be a power of two")
    cli = import_program()
    work = WORK / f"pin-{args.workload}"
    pins = {}
    for job_seed in range(args.pool):
        job_dir = work / str(job_seed)
        job_dir.mkdir(parents=True)
        job = gen.GENERATORS[args.workload](job_seed, job_dir)
        _, outputs = execute(cli, job)
        problems = checks.check(args.workload, job, outputs)
        if problems:
            print(f"job seed {job_seed}: {problems}", file=sys.stderr)
            return 1
        pins[str(job_seed)] = checks.pin_of(args.workload, job, outputs)
        shutil.rmtree(job_dir)
    shutil.rmtree(work, ignore_errors=True)
    PINS.mkdir(exist_ok=True)
    path = PINS / f"{args.workload}.json"
    path.write_text(json.dumps({"pool": args.pool, "pins": pins}, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(pins)} pins to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
