#!/usr/bin/env python3
"""Interleaved A/B timing of a bench workload's jobs on two checkouts.

    python3 tools/ab_jobs.py OLD_CHECKOUT NEW_CHECKOUT --workload big-fence --rounds 20
    python3 tools/ab_jobs.py OLD NEW --job tiling --job "check --alpha" --rounds 40

Both `fences` packages live in this one process, swapped into sys.modules
before each job, so both see the same machine state.  Each round runs the
workload's jobs (NEW_CHECKOUT's bench/jobs.py) once per side in shuffled
order, gc.collect() first.  Prints per-job medians and median new/old
ratios, each side's median wall time and job max, and whether every round
of every job gave one exit code and stdout, runtime_ms masked, on both
sides; a job whose output changes in a later round on either side (state
carried across rounds, say) prints "OUTPUTS DIFFER".  Each job's exit
codes (old/new, from the first round) are printed beside it; when any
job exits non-zero in any round on either side the script prints "JOB
FAILED" and exits 1, so a job that fails the same way on both sides is
not taken for a timing of the work.

Each round also times, per side and in the same shuffled order, one
fresh interpreter running the bench's setup probe (bench/run.py's
_SETUP_PROBE: import fences.cli, build the parser, list the jobs) and
prints its median as setup_s.  Both sides run it on a copy of their src
made without __pycache__, under PYTHONDONTWRITEBYTECODE=1, so each probe
compiles every fences module, as a fresh checkout does under the bench's
environment, and neither side profits from bytecode the other lacks.

--job SUBSTRING, repeatable, keeps only the jobs whose argv (joined by
spaces) contains one of the substrings, so a change to one command can
get more rounds in the same time; wall_s and job_max_s are then over
the kept jobs.  Without it every job of the workload is timed.
"""

import argparse
import contextlib
import gc
import importlib
import io
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from operator import truediv
from pathlib import Path

_RUNTIME_MS = re.compile(r'\n\s*"runtime_ms": \d+,?')


def load(root: Path) -> dict:
    """The fences modules of one checkout, imported from its sources."""
    for name in [n for n in sys.modules if n.split(".")[0] == "fences"]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    importlib.import_module("fences.cli")
    sys.path.pop(0)
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "fences"}


def run(modules: dict, argv: list) -> tuple:
    """(seconds, exit code, output with runtime_ms masked) of one job."""
    sys.modules.update(modules)
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = time.perf_counter()
        code = modules["fences.cli"].main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code, _RUNTIME_MS.sub("", out.getvalue())


def setup_seconds(code: str) -> float:
    """Seconds of the setup probe `code` in one fresh interpreter that
    writes no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(out.stdout.split()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", default="big-fence")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--job", action="append", metavar="SUBSTRING",
        help="time only the jobs whose argv contains SUBSTRING (repeatable)",
    )
    args = p.parse_args()
    sys.path.insert(0, str(args.new / "bench"))
    job_list = importlib.import_module("jobs").jobs(args.workload, args.seed)
    if args.job:
        job_list = [a for a in job_list if any(s in " ".join(a) for s in args.job)]
        if not job_list:
            p.error(f"no {args.workload} job contains any of {args.job}")
    probe = importlib.import_module("run")._SETUP_PROBE
    sides = {"old": load(args.old), "new": load(args.new)}
    indices = range(len(job_list))
    order = [(s, j) for s in sides for j in [*indices, None]]  # None: setup
    times = {key: [] for key in order}
    outputs = {(s, j): [] for s in sides for j in indices}  # (exit code, output)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        probes = {}
        for side, root in (("old", args.old), ("new", args.new)):
            src = Path(tmp, side)
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(root / "src", src, ignore=ignore)
            probes[side] = probe.format(
                src=str(src), bench=str(args.new / "bench"),
                workload=args.workload, seed=args.seed, scale="full",
            )
        for _ in range(args.rounds):
            rng.shuffle(order)
            for side, j in order:
                if j is None:
                    times[side, j].append(setup_seconds(probes[side]))
                    continue
                seconds, code, text = run(sides[side], job_list[j])
                times[side, j].append(seconds)
                outputs[side, j].append((code, text))
    med = {key: statistics.median(v) for key, v in times.items()}
    for j in indices:
        ratio = statistics.median(map(truediv, times["new", j], times["old", j]))
        argv = " ".join(job_list[j])
        codes = f"exit {outputs['old', j][0][0]}/{outputs['new', j][0][0]}"
        timing = f"{med['old', j]:7.3f} {med['new', j]:7.3f}  x{ratio:.3f}"
        print(f"{timing}  {codes}  {argv}")
    for side in sides:
        walls = [sum(times[side, j][r] for j in indices) for r in range(args.rounds)]
        job_max = max(med[side, j] for j in indices)
        print(
            f"{side}: wall_s {statistics.median(walls):.3f}  job_max_s {job_max:.3f}"
            f"  setup_s {med[side, None]:.3f}"
        )
    same = all(len({*outputs["old", j], *outputs["new", j]}) == 1 for j in indices)
    print("outputs identical" if same else "OUTPUTS DIFFER")
    if any(code for runs in outputs.values() for code, _ in runs):
        print("JOB FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
