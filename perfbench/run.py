#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design_corpus --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are listed in ``BENCHMARK.json``; the
layer-to-metric map and the seed's meaning are in ``perfbench/layers.json``.
Each run happens in a fresh child process (``worker.py``) so memory is
measured per workload.  With ``--trace 0`` two more children only set
up, and ``setup_s`` is the median of the three set-up times.  With
``--trace 1`` the per-layer metrics are reported instead.  End-to-end
times are wall-clock times scaled to a reference host speed measured
between requests (``probe.py``); the wall-clock figures are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans of
a traced run, the raw latencies of an untraced one and the recorded
work counters are written under ``.perfbench/``.  Without the
program's source next to this directory the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Whole-run limit; the children share it.
RUN_LIMIT_S = 170.0
#: Set-up samples per untraced run, the full run's own included.
SETUP_SAMPLES = 3
#: One numeric thread per process: the load stays at the stated workers.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def spawn(args: argparse.Namespace, deadline: float, *, setup_only: bool) -> dict:
    """Run ``worker.py`` in its own process group; return its JSON result."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0),
    ]
    if setup_only:
        command.append("--setup-only")
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             env={**os.environ, **CHILD_ENV}, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{args.workload} run exceeded {RUN_LIMIT_S:.0f} s") from None
    finally:
        _reap_group(child.pid)
    if child.returncode != 0:
        raise BenchError(f"worker exited with status {child.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _reap_group(pgid: int) -> None:
    """Stop anything the worker left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        result = spawn(args, deadline, setup_only=False)
        setups = [result]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, deadline, setup_only=True))
        measured = dict(result["metrics"],
                        setup_s=statistics.median(s["setup_s"] for s in setups))
        result["notes"].setdefault("wall_clock", {})["setup_s"] = statistics.median(
            s["setup_wall_s"] for s in setups)
        unknown = set(measured) - {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
        if unknown:
            raise BenchError(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    report(args, result, metrics, setups)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


def report(args, result: dict, metrics: dict, setups: list[float]) -> None:
    notes = result["notes"]
    mode = "traced (per-layer)" if args.trace else "untraced (end-to-end)"
    print(f"{args.workload} seed {args.seed}: {mode}, closed loop, 1 client, "
          f"{notes['requests']} requests, {result['attempted']} items")
    for name, metric in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{notes['tail_percentile']} of {notes['requests']} samples, "
                     f"{notes['tail_samples_beyond']} beyond)")
        elif name == "setup_s":
            extra = "  (median of " + ", ".join(f"{s['setup_s']:.3f}" for s in setups) + ")"
        wall = notes.get("wall_clock", {}).get(name)
        if wall is not None:
            extra += f"  (wall clock {wall:.6g})"
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{extra}")
    if "probe_median_ms" in notes:
        print(f"  host probe: median {notes['probe_median_ms']:.4g} ms over "
              f"{notes['probe_samples']} samples; times above are scaled to the "
              f"reference host speed")
    if not args.trace:
        print(f"  {'failed_fraction':<36} {notes['failed_fraction']:>14.6g} ratio  "
              f"({result['failed']} of {result['attempted']})")
    print("  work counters: " + json.dumps(result["counters"], sort_keys=True))
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


if __name__ == "__main__":
    sys.exit(main())
