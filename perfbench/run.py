"""Oracle benchmark: one workload, timed in fresh interpreters, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kpq is imported from its `src/`.
BENCHMARK.json lists the workloads that are steady enough to gate changes;
`acm-quadric` is not among them (see README.md) but runs the same way. Each
repeat is a new `child.py` process, because a cold process is what every
`kpq` invocation pays. Repeats run one at a time until the next one would
end past S seconds (at least one always runs); extra set-up-only children
bring the `setup_s` sample to SETUP_SAMPLES.

With --trace 0 the result carries the end-to-end metrics, as medians over
the repeats. With --trace 1 it carries the per-layer metrics from traced
repeats, each paired with an untraced one for the tracing overhead. The
last line of stdout is the JSON result; the lines before it give every
metric by name and the environment, which is also written, with the raw
samples, to perfbench/results/. Exit code 0 means the result was printed;
`correct` is false when any answer failed its golden or referee check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
WORKLOADS = ("veronese-grid", "acm-quadric", "witness-grid", "cli-tables")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
# BLAS/OpenMP threads for every child: fixed, and never more than the cores
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# cell percentiles: meaningful on the grids (300+ cells); cli-tables and
# acm-quadric report them over their 2 or 3 cells per repeat
CELL_PERCENTILES = {"cell_p50_ms": 50, "cell_p90_ms": 90}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_threads() -> int:
    return min(BLAS_THREADS, _nproc())


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("KPQ_PRIME", None)  # every workload uses the default primes
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(blas_threads())
    return env


class Runner:
    """Starts child repeats one at a time and keeps their parsed results."""

    def __init__(self, workload: str, seed: int, root: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.env = child_env(self.src)
        self.started = started

    def child(self, *flags: str) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repeat")
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--expect-src", str(self.src), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repeat did not finish within {remaining:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"repeat exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"repeat printed no result: {proc.stdout[-200:]!r}") from exc


def _repeat_until(deadline: float, step) -> list:
    """Call step() at least once, then again while the next call should fit."""
    out = []
    while True:
        start = time.monotonic()
        out.append(step())
        took = time.monotonic() - start
        if time.monotonic() + took > deadline:
            return out


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced repeats: the end-to-end metrics."""
    warm = runner.child("--setup-only")  # compiles bytecode, warms the page cache
    deadline = time.monotonic() + seconds
    repeats = _repeat_until(deadline, runner.child)
    setups = [r["scaled_setup_s"] for r in repeats]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("--setup-only")["scaled_setup_s"])
    # every repeat of a run visits the cells in the same order; each cell's
    # latency is its median over the repeats, then percentiles go over cells
    latencies_ms = [summary.median(cell) * 1000.0
                    for cell in zip(*(r["scaled_latencies_s"] for r in repeats))]
    metrics = {
        "setup_s": (summary.median(setups), "s"),
        "wall_s": (summary.median([r["scaled_wall_s"] for r in repeats]), "s"),
        **{name: (summary.percentile(latencies_ms, q), "ms")
           for name, q in CELL_PERCENTILES.items()},
        "peak_rss_mb": (summary.median([r["peak_rss_mb"] for r in repeats]), "MB"),
    }
    return {"metrics": metrics, "repeats": repeats, "setup_samples": setups,
            "numpy": warm}


LAYER_UNITS = {"s": "s", "calls": "count", "block_cells": "count",
               "max_block_cells": "count", "nnz": "count", "blocks": "count",
               "useful_ratio": "ratio", "cache_hit_ratio": "ratio"}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Traced repeats, each paired with an untraced one: the per-layer metrics."""
    warm = runner.child("--setup-only")
    deadline = time.monotonic() + seconds
    pairs = _repeat_until(deadline, lambda: (runner.child(), runner.child("--trace")))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = LAYER_UNITS[name.rsplit(".", 1)[1]]
        values = [t["layers"][name] for t in traced]
        if summary.ABSENT in values:
            metrics[name] = (summary.ABSENT, unit)
            continue
        if unit == "s":
            values = [v * t["window_factor"] for v, t in zip(values, traced)]
        metrics[name] = (summary.median(values), unit)
    metrics["trace.overhead_ratio"] = (summary.ratio(
        summary.median([t["scaled_wall_s"] for t in traced]),
        summary.median([p["scaled_wall_s"] for p in plain])), "ratio")
    metrics["trace.coverage"] = (
        summary.median([summary.ratio(t["window_self_s"], t["wall_s"]) for t in traced]),
        "ratio")
    return {"metrics": metrics, "repeats": plain + traced, "numpy": warm}


def environment(numpy_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_info.get("numpy"),
        "blas": numpy_info.get("blas"),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "kpq" / "__init__.py").is_file():
        print(f"error: no kpq sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, root, started)
    try:
        if args.trace:
            run = measure_traced(runner, args.seconds)
        else:
            run = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in run["repeats"])
    failed = sum(r["failed"] for r in run["repeats"])
    errors = {k: v for r in run["repeats"] for k, v in r["errors"].items()}
    env = environment(run["numpy"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        "attempted": attempted, "failed": failed,
        "fail_ratio": summary.ratio(failed, attempted), "errors": errors,
        "repeats": [{k: v for k, v in r.items() if not k.endswith("latencies_s")}
                    for r in run["repeats"]],
        "setup_samples": run.get("setup_samples"),
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {len(run['repeats'])} repeat(s), "
          f"trace {args.trace}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<32} {value} {unit}")
    print(f"  {'fail_ratio':<32} {record['fail_ratio']} ({failed}/{attempted} cells)")
    for key, reason in list(errors.items())[:10]:
        print(f"  FAILED {key}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
