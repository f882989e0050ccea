"""One repeat of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--setup-only]
                               [--expect-src DIR] [--record]

The clock starts just before `import kpq`, so `setup_s` covers the imports
(numpy included), spec building and `KoszulComplex` construction. `wall_s`
runs from the first cell to the last answer. `--setup-only` stops after
set-up and also reports the numpy build. `--record` writes the answers as
the workload's golden file instead of checking them.

Run it through `run.py`, which sets the environment (PYTHONPATH, thread
variables) for it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import calibration


def _numpy_build() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {"numpy": numpy.__version__, "blas": blas}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expect-src", default=None,
                        help="fail unless kpq is imported from this directory")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    golden_path = Path(__file__).resolve().parent / "golden" / f"{args.workload}.json"
    golden = None if args.record else json.loads(golden_path.read_text())

    sampler = calibration.Sampler()
    try:
        return _repeat(args, golden, golden_path, sampler)
    finally:
        sampler.stop()


def _repeat(args, golden, golden_path: Path, sampler: calibration.Sampler) -> int:
    clock = sampler.clock
    sampler.phase("setup", calibration.SETUP_PERIOD_S)
    t0 = clock()
    import kpq
    import workloads

    src = Path(kpq.__file__).resolve().parent.parent
    if args.expect_src and src != Path(args.expect_src).resolve():
        print(f"kpq imported from {kpq.__file__}, not from {args.expect_src}", file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(clock)
        recorder.install()
    cells = workloads.setup(args.workload, args.seed)
    workloads.clear_caches()
    setup_s = clock() - t0
    sampler.stop()
    kernel_setup_s = statistics.median(k for _, k in sampler.samples["setup"])
    result: dict = {"setup_s": setup_s,
                    "scaled_setup_s": calibration.scale(setup_s, kernel_setup_s)}
    if args.setup_only:
        result.update(_numpy_build())
        print(json.dumps(result))
        return 0

    if recorder is not None:
        recorder.in_window = True
    sampler.phase("window", calibration.WINDOW_PERIOD_S)
    t1 = clock()
    outcome = workloads.run_cells(cells, golden, clock)
    wall_s = clock() - t1
    sampler.stop()
    if recorder is not None:
        recorder.in_window = False

    ticks = sampler.samples["window"]
    if args.workload in workloads.SCALED_WINDOW:
        scaled = calibration.scale_cells(outcome.starts_s, outcome.latencies_s, ticks)
        factor = calibration.scale(1.0, statistics.median(k for _, k in ticks))
    else:
        scaled, factor = outcome.latencies_s, 1.0
    result.update({
        "wall_s": wall_s,
        "scaled_wall_s": sum(scaled) + (wall_s - sum(outcome.latencies_s)) * factor,
        "window_factor": factor,
        "kernel_samples": len(ticks),
        "scaled_latencies_s": scaled,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": dict(sorted(outcome.errors.items())[:20]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if recorder is not None:
        result["layers"] = recorder.metrics()
        result["window_self_s"] = recorder.window_self_s
    if args.record and not outcome.errors:
        golden_path.write_text(json.dumps(outcome.answers, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
