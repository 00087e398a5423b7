#!/usr/bin/env python3
"""End-to-end benchmark of the fences CLI, with an opt-in traced run.

One closed-loop client in one thread runs a workload's job list back to
back through `fences.cli.main(argv)` in this process, with stdout
captured; every job builds a fresh Fence, as a CLI invocation does.

    python3 bench/run.py --workload big-fence --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload toggles --seed 0 --seconds 35 --trace 1
    python3 bench/run.py --record-digests

Untraced runs (`--trace 0`) repeat the job list while the time allows and
report medians: `setup_s`, `wall_s`, `job_max_s`, `peak_rss_mb`.  A traced
run (`--trace 1`) runs the list once untraced and once with bench spans
installed and reports the per-layer metrics of the traced pass.  The last
line of stdout is one JSON object; a full record with provenance and the
time of every job goes to `.bench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 0
SETUP_SAMPLES = 7
# job time outside every span (the span of cli.main starting and ending) may
# be at most this share of a traced pass
UNATTRIBUTED_TOLERANCE = 0.05
BIG_FENCE_ARG, BIG_FENCE_ALPHA = "4^8", (4,) * 8
BIG_FENCE_ORBITS = 3029

_RUNTIME_MS = re.compile(rb'\n\s*"runtime_ms": \d+,?')

# the timed set-up, run in a fresh interpreter: import, parser, job list
_SETUP_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import fences.cli, jobs
fences.cli.build_parser()
jobs.jobs({workload!r}, {seed!r}, {scale!r})
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", choices=jobs.SCALES, default="full",
        help="smoke runs tiny job lists, for the benchmark's own smoke test",
    )
    p.add_argument(
        "--corrupt-digest", action="store_true",
        help="alter the first recorded digest, to show the check catches it",
    )
    p.add_argument(
        "--record-digests", action="store_true",
        help="record the default-seed output digests of every job",
    )
    args = p.parse_args(argv)
    if not args.record_digests and args.workload is None:
        p.error("--workload is required")
    return args


def import_cli():
    """Import the fences CLI from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "fences" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fences sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fences import cli

    if Path(cli.__file__).resolve().parent != SRC / "fences":
        raise SystemExit(f"bench: imported fences from {cli.__file__}, not {SRC}")
    return cli


def _setup_seconds(workload: str, seed: int, scale: str) -> list[float]:
    code = _SETUP_PROBE.format(
        src=str(SRC), bench=str(BENCH), workload=workload, seed=seed, scale=scale
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _cache_clears() -> list:
    """cache_clear of every memoised function in fences, so each job starts
    as cold as a fresh CLI process."""
    from tracer import fences_modules  # tracer needs fences importable

    out = []
    for module in fences_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and clear not in out:
                out.append(clear)
    return out


def _digest(stdout: bytes) -> str:
    return hashlib.sha256(_RUNTIME_MS.sub(b"", stdout)).hexdigest()


def _run_job(cli, argv: list[str], clears) -> tuple[int | None, float, bytes, str | None]:
    """One CLI invocation: exit code (None if it raised), seconds, stdout.
    Memo caches are cleared and garbage collected first, so every job
    starts from the same heap, as a fresh CLI process does."""
    for clear in clears:
        clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is itself a failed job
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue().encode(), error or err.getvalue().strip() or None


def _problem(argv, rc, stdout, error, digest, expected, first_seen) -> str | None:
    """Why a job's result is wrong, or None when it is correct."""
    if rc != 0:
        return f"exit code {rc}: {error}"
    if argv[0] in ("verify", "scan"):
        try:
            verdict = json.loads(stdout).get("verdict")
        except ValueError:
            return "report is not JSON"
        if verdict != "pass":
            return f"verdict {verdict!r}"
    if expected is not None and digest != expected:
        return f"digest {digest} differs from the recorded {expected}"
    if first_seen is not None and digest != first_seen:
        return "output differs from the first pass of this run"
    return None


class Runner:
    """Runs passes over one job list and checks every job."""

    def __init__(self, cli, job_list, digests, must_have_digest):
        self.cli = cli
        self.jobs = job_list
        self.digests = digests
        self.must_have_digest = must_have_digest
        self.clears = _cache_clears()
        self.first_seen: dict[str, str] = {}
        self.passes: list[dict] = []

    def run_pass(self, traced: bool) -> dict:
        records = []
        for argv in self.jobs:
            key = " ".join(argv)
            rc, seconds, stdout, error = _run_job(self.cli, argv, self.clears)
            digest = _digest(stdout)
            expected = self.digests.get(key)
            problem = _problem(
                argv, rc, stdout, error, digest, expected, self.first_seen.get(key)
            )
            if problem is None and expected is None and self.must_have_digest:
                problem = "no recorded digest for a default-seed job"
            if rc == 0:
                self.first_seen.setdefault(key, digest)
            records.append(
                {"argv": key, "seconds": seconds, "exit": rc, "bytes": len(stdout),
                 "digest": digest, "problem": problem}
            )
        # job time only: cache clears, collection and checks stay outside
        wall = sum(r["seconds"] for r in records)
        record = {"traced": traced, "wall_s": wall, "jobs": records}
        self.passes.append(record)
        return record

    @property
    def attempted(self) -> int:
        return sum(len(p["jobs"]) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(j["problem"] is not None for p in self.passes for j in p["jobs"])


def _untraced(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    from tracer import wrapped_attributes  # tracer needs fences importable

    deadline = time.perf_counter() + seconds
    wrapped = 0
    while True:
        wrapped += wrapped_attributes()
        record = runner.run_pass(traced=False)
        if time.perf_counter() + record["wall_s"] > deadline:
            break
    per_job = [
        statistics.median(p["jobs"][i]["seconds"] for p in runner.passes)
        for i in range(len(runner.jobs))
    ]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in runner.passes), "s"),
        "job_max_s": (max(per_job), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, {"ok": wrapped == 0, "wrapped_attributes": wrapped}


def _traced(runner: Runner, stem: str) -> tuple[dict, dict]:
    from tracer import Tracer, wrapped_attributes

    base = runner.run_pass(traced=False)
    tracer = Tracer()
    installed = tracer.install()
    try:
        record = runner.run_pass(traced=True)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    wall = record["wall_s"]
    unattributed = wall - tracer.top_level_seconds()
    metrics = {
        name: (value, "s" if name.endswith("_s") else "count")
        for name, value in layers.items()
    }
    tilings = layers["tiling.tilings"]
    metrics["tiling.render_bytes"] = (layers["tiling.render_bytes"], "bytes")
    metrics["tiling.validate_per_tiling"] = (
        layers["tiling.validate_calls"] / tilings if tilings else 0.0, "ratio",
    )
    metrics["cli.output_bytes"] = (sum(j["bytes"] for j in record["jobs"]), "bytes")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (wall / base["wall_s"], "ratio")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    count_ideals = sys.modules["fences.enumeration"].count_ideals
    expected_members = sum(count_ideals(alpha) for alpha in tracer.enumerated)
    big_fence_orbits = sorted(
        {n for alpha, n in tracer.orbit_lists if alpha == BIG_FENCE_ALPHA}
    )
    on_big_fence = any(BIG_FENCE_ARG in argv for argv in runner.jobs)
    checks = {
        "members_match_count_ideals": layers["fence.members"] == expected_members,
        "expected_members": expected_members,
        "big_fence_orbits": big_fence_orbits,
        "big_fence_orbits_ok": big_fence_orbits
        == ([BIG_FENCE_ORBITS] if on_big_fence else []),
        "unattributed_share": unattributed / wall,
        "unattributed_ok": unattributed <= UNATTRIBUTED_TOLERANCE * wall,
        "wrapped_attributes_installed": installed,
        "wrapped_attributes_left": wrapped_attributes(),
    }
    checks["ok"] = (
        checks["members_match_count_ideals"]
        and checks["big_fence_orbits_ok"]
        and checks["unattributed_ok"]
        and checks["wrapped_attributes_left"] == 0
    )
    _write_spans(stem, tracer)
    return metrics, checks


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(**run) -> dict:
    """Machine, interpreter and source revision, plus the run's own fields."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        **run,
    }


def _stem(args) -> str:
    return f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"


def _write_spans(stem: str, tracer) -> None:
    RESULTS.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        [name, round(start - origin, 7), round(end - origin, 7), parent]
        for name, start, end, parent in tracer.spans
    ]
    path = RESULTS / f"{stem}.spans.json"
    path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": rows}))


def _record_digests(cli) -> int:
    """Run every default-seed job twice and store its output digest."""
    clears = _cache_clears()
    digests = {}
    for scale in jobs.SCALES:
        for workload in jobs.WORKLOADS:
            for argv in jobs.jobs(workload, DEFAULT_SEED, scale):
                key = " ".join(argv)
                seen = []
                for _ in range(2):
                    rc, _, stdout, error = _run_job(cli, argv, clears)
                    digest = _digest(stdout)
                    problem = _problem(
                        argv, rc, stdout, error, digest, None, seen[0] if seen else None
                    )
                    if problem is not None:
                        print(f"bench: {key}: {problem}", file=sys.stderr)
                        return 1
                    seen.append(digest)
                digests[key] = seen[0]
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = import_cli()
    if args.record_digests:
        return _record_digests(cli)
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed, args.scale)
    digests = json.loads(DIGESTS.read_text())
    job_list = jobs.jobs(args.workload, args.seed, args.scale)
    if args.corrupt_digest:
        first = " ".join(job_list[0])
        digests[first] = "0" * 64
    runner = Runner(cli, job_list, digests, must_have_digest=args.seed == DEFAULT_SEED)
    stem = _stem(args)

    if args.trace:
        metrics, checks = _traced(runner, stem)
    else:
        metrics, checks = _untraced(runner, args.seconds, setup)
    attempted, failed = runner.attempted, runner.failed
    metrics["fail_ratio"] = (failed / attempted, "ratio")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0 and checks["ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in reported
        },
    }
    record = {
        "provenance": provenance(
            workload=args.workload, seed=args.seed, traced=bool(args.trace),
            scale=args.scale, seconds=args.seconds,
        ),
        "setup_samples_s": setup,
        "checks": checks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "passes": runner.passes,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    problems = Counter(
        (j["argv"], j["problem"]) for p in runner.passes for j in p["jobs"] if j["problem"]
    )
    for (argv, problem), times in problems.items():
        print(f"bench: FAILED {times}x {argv}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
