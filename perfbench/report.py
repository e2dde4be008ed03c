"""Run the benchmark over workloads and seeds, one process per run, and summarize.

    python3 perfbench/report.py                        # every workload, default seed
    python3 perfbench/report.py --seeds 1-10 --workloads device_gc
    python3 perfbench/report.py --trace 1              # per-layer metrics

Run from the repository root.  Runs are sequential, one process each, so
``peak_rss_mib`` is per workload.  For each workload it prints every run's
figures (with units, sample counts and ``error_rate``), then for each
metric the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
beside the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="2024", help="e.g. 2024,7 or 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            command = [
                sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            print("\n".join(lines[:-1]))
            row = []
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
                row.append(f"{name}={metric['value']:.6g}")
            print(f"{workload} seed={seed} correct={result['correct']} " + " ".join(row))
            sys.stdout.flush()
        print(f"== {workload}: median and spread over {len(parse_seeds(args.seeds))} seeds")
        for name, series in values.items():
            bound = bounds.get(name) if args.trace == 0 else None
            limit = f" bound {bound}" if bound is not None else ""
            print(
                f"   {name:40s} {statistics.median(series):14.6g} {units[name]:8s}"
                f" spread {spread(series):7.4f}{limit}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
