"""helixkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {verify,koszul,tables} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the helixkit package is imported
from ./src, nothing is installed). The run measures set-up cost, then
starts one worker process (perfbench/worker.py) that draws the workload's
ops from the seed, calls ``helixkit.cli.main`` on each in a closed loop with
one client and checks every output.

Prints each metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones from
a traced run (spans go to perfbench/_work/spans-<workload>-<seed>.csv).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import tracing  # noqa: E402

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Traced runs replay a fixed prefix of the op stream, so their counts repeat
# exactly for a seed: this many ops per workload.
TRACE_OPS = {"verify": 12, "koszul": 60, "tables": 45}

SETUP_LAUNCHES = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from helixkit.cli import main; sys.exit(main(['--version']))"
)
BARE_CODE = "import sys; sys.exit(0)"
# Wall time of a bare interpreter launch on the reference machine.
BARE_REFERENCE_S = 0.07

# glibc's malloc raises its mmap threshold each time a large block is freed,
# so in a long-lived worker later large blocks (MB-sized output strings)
# land in the heap, and the heap's fragmentation, which depends on the
# order of past ops, shifted peak RSS by 10 MiB between seeds. Pinning the
# threshold at glibc's initial 128 KiB keeps large blocks in mmap, as in
# the fresh process a CLI user runs. Other allocators ignore the variable.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

# The whole run must end well inside 180 s.
DEADLINE_S = 170


def _launch_seconds(code: str, stdout_prefix: str = "") -> float:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith(stdout_prefix):
        raise RuntimeError(f"interpreter launch failed: {proc.stderr.strip()}")
    return elapsed


def setup_seconds() -> tuple[float, float]:
    """Cold start of the CLI: the median wall time of fresh interpreters that
    import ``helixkit.cli`` and return from ``main(['--version'])``, and that
    median scaled to the reference machine.

    Launch times drift with the machine by 30% or more between runs, so each
    CLI launch is paired with a bare interpreter launch, and the CLI median
    is scaled by BARE_REFERENCE_S over the bare median. One unmeasured pair
    runs first, to compile bytecode."""
    cli, bare = [], []
    for k in range(SETUP_LAUNCHES + 1):
        c = _launch_seconds(SETUP_CODE, "helixkit ")
        b = _launch_seconds(BARE_CODE)
        if k:
            cli.append(c)
            bare.append(b)
    wall = statistics.median(cli)
    return wall * BARE_REFERENCE_S / statistics.median(bare), wall


def run_worker(cfg: dict, workdir: str, timeout: float) -> dict:
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, **WORKER_ENV),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "helixkit", "cli.py")):
        print(f"no helixkit source tree under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setup = None if args.trace else setup_seconds()
        cfg = {
            "src": SRC,
            "workload": args.workload,
            "seed": args.seed,
            "workdir": workdir,
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_ops": TRACE_OPS[args.workload],
            "spans": os.path.join(WORK, f"spans-{args.workload}-{args.seed}.csv"),
        }
        res = run_worker(cfg, workdir, DEADLINE_S - (perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        values, wall = res["metrics"], {}
    else:
        units = dict(END_TO_END)
        values = dict(res["metrics"], setup_s=setup[0])
        wall = dict(res["wall"], setup_s=setup[1])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['samples']} ops timed, {res['failed']} failed")
    for why in res["failures"]:
        print(f"  FAILED {why}")
    print(f"  fail_ratio: {res['failed'] / max(res['attempted'], 1):.4f} failed/attempted")
    if wall:
        print(f"  machine speed: {res['speed']:.3f} x reference over the run; each "
              f"op time is scaled by the speed around it, wall-clock values in brackets")
    for name, m in metrics.items():
        raw = f" [{wall[name]:.6g}]" if name in wall else ""
        print(f"  {name}: {m['value']:.6g} {m['unit']}{raw}")
    result = {
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
