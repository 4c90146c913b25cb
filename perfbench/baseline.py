"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload, runs ``run.py --trace 0`` once per seed (1 to 10) and
reports each end-to-end metric's median and quartile spread ((q3 - q1) /
median, from ``statistics.quantiles(values, n=4)``), then one ``--trace 1``
run on the first seed for the per-layer numbers. The record is tagged with
the Python version and the CPU count. Takes about 11 x run_seconds per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import gen  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med,
            "spread": (q3 - q1) / med,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


SEEDS = list(range(1, 11))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in gen.WORKLOADS:
        results = []
        for seed in SEEDS:
            results.append(run(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in results[-1]["metrics"].items()},
                  file=sys.stderr, flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": summarize(results),
            "attempted": [r["attempted"] for r in results],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_seed": SEEDS[0],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
