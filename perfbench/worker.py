"""One benchmark run in one process: a closed loop with a single client.

    python3 perfbench/worker.py CONFIG.json

CONFIG names the source tree, the workload, its seed and work directory,
the seconds to measure and whether to trace. The ops come from gen.py's
endless stream, drawn one at a time between timed calls. Each op calls
``helixkit.cli.main(argv)`` in this process with stdout sent to a file and
stderr captured; only the call is timed, and its output is read back from
the file and checked right after. The result is one JSON line on stdout.

Untraced: ops run in stream order until ``seconds`` of loop wall time pass.
After each op the reference clock (refclock.py) runs for REF_SHARE of the
op's time; each op's time is scaled to the reference machine by the speed
measured around it, and the metrics are reported from the scaled times,
next to the raw wall-clock values.
Traced: the first ``trace_ops`` ops run with the tracer installed (stopping
early only past ``seconds``), then the same ops run again untraced; their
stdout digests must match, and the time ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import checks
import gen
from refclock import ReferenceClock

REF_SHARE = 0.1
# Each op's time is scaled by the machine speed over the reference samples
# within this many seconds of it: over five tables seeds (2-vCPU Xeon, other
# core busy), the quartile spread of op_p50_ms fell from 0.12 with the whole
# run's speed to 0.03.
SPEED_WINDOW_S = 1.0


def _digest(path: str) -> tuple[str, int]:
    """sha256 and byte count of a file, read a block at a time."""
    h, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            h.update(block)
            size += len(block)
    return h.hexdigest(), size


def run_op(main, op: dict, capture: str) -> dict:
    """Call main(argv) once and check its output; return the op's record:
    id, seconds, exit code, stdout byte count and digest, failure or None.

    stdout goes to the file `capture`, as it would for a user who redirects
    it, so that the worker's peak RSS holds no copy of it; the check reads
    it back as a stream."""
    err = io.StringIO()
    why = None
    with open(capture, "w", encoding="utf-8", newline="") as out:
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op["argv"]))
        except Exception:
            elapsed = perf_counter() - t0
            code = None
            last = traceback.format_exc().strip().splitlines()[-1]
            why = f"exception escaped main: {last}"
        else:
            elapsed = perf_counter() - t0
    if why is None and "Traceback (most recent call last)" in err.getvalue():
        why = "traceback on stderr"
    if why is None:
        try:
            with open(capture, encoding="utf-8", newline="") as out:
                why = checks.check(op, code, out)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            why = f"output could not be checked: {exc!r}"
    digest, size = _digest(capture)
    return {"id": op["id"], "seconds": elapsed, "code": code, "bytes": size,
            "digest": digest, "failure": why}


def loop(cli, ops, seconds: float, capture: str, on_op=None, clock=None):
    """Run ops in order until they run out or `seconds` of wall time pass;
    yield each op's record. stdout goes to the file `capture`."""
    ops = iter(ops)
    started = perf_counter()
    while perf_counter() - started < seconds:
        op = next(ops, None)
        if op is None:
            return
        if on_op:
            on_op(op)
        record = run_op(cli.main, op, capture)
        if clock:
            clock.sample(REF_SHARE * record["seconds"])
        yield record


def untraced(cli, ops, seconds: float, capture: str) -> dict:
    clock = ReferenceClock()
    times, failures = [], []
    for r in loop(cli, ops, seconds, capture, clock=clock):
        times.append(r["seconds"])
        if r["failure"]:
            failures.append(f"op {r['id']}: {r['failure']}")

    def summary(ts):
        p90 = statistics.quantiles(ts, n=10)[8] if len(ts) > 1 else ts[0]
        return {
            "ops_per_s": (len(ts) - len(failures)) / sum(ts),
            "op_p50_ms": 1000 * statistics.median(ts),
            "op_p90_ms": 1000 * p90,
        }

    speeds = clock.local_speeds(SPEED_WINDOW_S)  # one sample follows each op
    scaled = summary([t * v for t, v in zip(times, speeds)])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": dict(scaled, peak_rss_mb=rss),
        "wall": summary(times),
        "speed": clock.speed(),
        "samples": len(times),
    }


def traced(cli, ops, seconds: float, capture: str, spans_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        def mark(op):
            tracer.current_op = op["id"]

        traced_records = list(loop(cli, ops, seconds, capture, on_op=mark))
    finally:
        tracer.uninstall()
    replay = list(loop(cli, ops[:len(traced_records)], float("inf"), capture))
    failures = []
    for a, b in zip(traced_records, replay):
        why = a["failure"] or b["failure"]
        if not why and a["digest"] != b["digest"]:
            why = "traced and untraced stdout differ"
        if why:
            failures.append(f"op {a['id']}: {why}")
    metrics = tracer.summary()
    metrics["cli.stdout_bytes"] = sum(r["bytes"] for r in traced_records)
    metrics["trace.overhead_ratio"] = (
        sum(r["seconds"] for r in replay) / sum(r["seconds"] for r in traced_records)
    )
    tracer.write_spans(spans_path)
    return {
        "attempted": len(traced_records),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "samples": len(traced_records),
        "spans": len(tracer.names),
    }


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    import helixkit.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(cfg["src"]) + os.sep):
        print(f"helixkit was imported from {where}, not from {cfg['src']}",
              file=sys.stderr)
        return 2
    ops = gen.generate(cfg["workload"], cfg["seed"], cfg["workdir"])
    capture = os.path.join(cfg["workdir"], "stdout.txt")
    if cfg["trace"]:
        prefix = list(itertools.islice(ops, cfg["trace_ops"]))
        result = traced(cli, prefix, cfg["seconds"], capture, cfg["spans"])
    else:
        result = untraced(cli, ops, cfg["seconds"], capture)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
