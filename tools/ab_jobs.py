#!/usr/bin/env python3
"""Interleaved A/B timing of a bench workload's jobs on two checkouts.

    python3 tools/ab_jobs.py OLD_CHECKOUT NEW_CHECKOUT --workload big-fence --rounds 20

Both `fences` packages live in this one process, swapped into sys.modules
before each job, so both see the same machine state.  Each round runs the
workload's jobs (NEW_CHECKOUT's bench/jobs.py) once per side in shuffled
order, gc.collect() first.  Prints per-job medians and median new/old
ratios, each side's median wall time and job max, and whether the stdout
of every job, runtime_ms masked, was the same on both sides.
"""

import argparse
import contextlib
import gc
import importlib
import io
import random
import re
import statistics
import sys
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
    sys.modules.update(modules)
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = time.perf_counter()
        modules["fences.cli"].main(argv)
        seconds = time.perf_counter() - t0
    return seconds, _RUNTIME_MS.sub("", out.getvalue())


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", default="big-fence")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    sys.path.insert(0, str(args.new / "bench"))
    job_list = importlib.import_module("jobs").jobs(args.workload, args.seed)
    sides = {"old": load(args.old), "new": load(args.new)}
    indices = range(len(job_list))
    order = [(s, j) for s in sides for j in indices]
    times = {key: [] for key in order}
    outputs, rng = {}, random.Random(args.seed)
    for _ in range(args.rounds):
        rng.shuffle(order)
        for side, j in order:
            seconds, text = run(sides[side], job_list[j])
            times[side, j].append(seconds)
            outputs.setdefault((side, j), text)
    med = {key: statistics.median(v) for key, v in times.items()}
    for j in indices:
        ratio = statistics.median(map(truediv, times["new", j], times["old", j]))
        argv = " ".join(job_list[j])
        print(f"{med['old', j]:7.3f} {med['new', j]:7.3f}  x{ratio:.3f}  {argv}")
    for side in sides:
        walls = [sum(times[side, j][r] for j in indices) for r in range(args.rounds)]
        job_max = max(med[side, j] for j in indices)
        print(f"{side}: wall_s {statistics.median(walls):.3f}  job_max_s {job_max:.3f}")
    same = all(outputs["old", j] == outputs["new", j] for j in indices)
    print("outputs identical" if same else "OUTPUTS DIFFER")


if __name__ == "__main__":
    main()
