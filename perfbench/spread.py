"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--seconds S]

Runs `run.py` once per seed, one run at a time, from the checkout root and
prints, per metric, the ten values' median and (Q3 - Q1) / median next to a
third of the metric's bound in BENCHMARK.json, the steadiness the benchmark
is held to.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect answers", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={values[n][-1]:.6g}" for n in bounds),
              flush=True)
    for name, vals in values.items():
        spread = summary.quartile_spread(vals)
        print(f"{name:<14} median {summary.median(vals):.6g}  spread {spread:.4f}  "
              f"(a third of the bound: {bounds[name] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
