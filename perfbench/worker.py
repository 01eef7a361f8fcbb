"""One run of one workload, in a fresh process started by ``run.py``.

Sets up (imports, input generation, warm-up), then serves requests in a
closed loop — one client, the next request only after the previous one
returns — for the given seconds, stopping at the workload's next
boundary, sampling the host's speed between requests (``probe.py``).
With ``--trace 0`` it reports the end-to-end measures, scaled to the
reference host speed.  With ``--trace 1`` it serves the same request
sequence twice, untraced and then rebuilt from the public layer calls
under spans, and reports the per-layer measures and the tracing
overhead.  Either way it checks every answer, runs the workload's deep
checks on the first pass, and compares the deterministic work counters
with an earlier run of the same seed on the same source.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from probe import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = {
    "design_corpus": ("wl_design", "DesignCorpus"),
    "large_models": ("wl_models", "LargeModels"),
    "service_levels": ("wl_models", "ServiceLevels"),
    "batch_corpus": ("wl_batch", "BatchCorpus"),
}
#: Most request failures to describe in the output.
MAX_PROBLEMS = 20


@dataclass
class Phase:
    """The requests of one timed closed-loop phase.

    ``raw`` holds the wall-clock latencies, ``latencies`` the same scaled
    to the reference host speed (``probe.py``); ``cpu_s`` excludes the
    probe's own time.
    """

    raw: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    items: list[int] = field(default_factory=list)
    failed: int = 0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_phase(workload, seconds: float, rec=None) -> Phase:
    phase = Phase()
    probe = HostProbe()
    cpu_start = _cpu_s()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        probe.maybe_sample(i)
        req = workload.request(i)
        n = workload.items(req)
        start = time.perf_counter()
        try:
            if rec is None:
                answer = workload.run(req)
            else:
                rec.request = i
                with rec.span("request"):
                    answer = workload.run_traced(req, rec)
            phase.raw.append(time.perf_counter() - start)
            workload.check(i, req, answer)
        except Exception as exc:  # a failed request is counted, the loop goes on
            if len(phase.raw) == i:
                phase.raw.append(time.perf_counter() - start)
            phase.failed += n
            if len(phase.problems) < MAX_PROBLEMS:
                phase.problems.append(f"request {i}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        phase.items.append(n)
        i += 1
        if time.perf_counter() >= deadline and workload.may_stop(i):
            break
    probe.maybe_sample(i, force=True)
    phase.cpu_s = _cpu_s() - cpu_start - probe.cpu_s
    scales = probe.scales(len(phase.raw))
    phase.latencies = [t * s for t, s in zip(phase.raw, scales)]
    phase.probes = [sample for _, sample in probe.samples]
    return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with ten samples or
    fewer it is the maximum, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    rank = n - 10  # 1-based nearest rank with exactly ten samples above it
    return ordered[rank - 1], 100.0 * rank / n, 10


def peak_rss_mib() -> float:
    """This process's peak resident set plus its largest reaped child's
    (the batch workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    busy = sum(phase.latencies)
    items = sum(phase.items)
    value, percentile, beyond = tail(phase.latencies)
    scale = busy / sum(phase.raw)
    metrics = {
        "throughput_items_per_s": items / busy,
        "latency_p50_ms": statistics.median(phase.latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "cpu_ms_per_item": phase.cpu_s * scale / items * 1e3,
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "wall_clock": {
            "throughput_items_per_s": items / sum(phase.raw),
            "latency_p50_ms": statistics.median(phase.raw) * 1e3,
            "latency_tail_ms": tail(phase.raw)[0] * 1e3,
            "cpu_ms_per_item": phase.cpu_s / items * 1e3,
        },
        "probe_median_ms": statistics.median(phase.probes) * 1e3,
        "probe_samples": len(phase.probes),
        "requests": len(phase.latencies),
        "items": items,
        "tail_percentile": round(percentile, 2),
        "tail_samples_beyond": beyond,
        "failed_fraction": phase.failed / items,
    }
    return metrics, notes


def layer_base(span_name: str) -> tuple[str, str]:
    """Metric names for a span's median self time and its share."""
    if span_name == "request":
        return "pipeline.other_ms", "pipeline.other_share"
    if "." in span_name:
        return f"{span_name}_ms", f"{span_name}_share"
    return f"{span_name}.ms", f"{span_name}.share"


#: counts whose rate per second of their layer's self time is reported
RATES = {
    "pepanets.states_per_s": ("pepanets.states", "pepanets.derive"),
    "pepa.states_per_s": ("pepa.states", "pepa.derive"),
    "sim.events_per_s": ("sim.events", "sim.ssa"),
}


def per_layer(rec, untraced: Phase, traced: Phase, first_pass: int) -> dict[str, float]:
    """Span self times as per-request medians and shares of traced time,
    counts as totals over the first traced pass."""
    per_request: dict[tuple[str, int], float] = {}
    totals: dict[str, float] = {}
    roots = 0.0
    for span, self_time in rec.self_times():
        name, request = span[1], span[5]
        per_request[name, request] = per_request.get((name, request), 0.0) + self_time
        totals[name] = totals.get(name, 0.0) + self_time
        if span[4] is None:
            roots += span[3] - span[2]
    metrics: dict[str, float] = {}
    for name, total in totals.items():
        median_name, share_name = layer_base(name)
        values = [v for (n, _), v in per_request.items() if n == name]
        metrics[median_name] = statistics.median(values) * 1e3
        metrics[share_name] = total / roots
    all_counts: dict[str, float] = {}
    for request, counts in rec.counts.items():
        for name, value in counts.items():
            all_counts[name] = all_counts.get(name, 0.0) + value
            if request < first_pass:
                metrics[name] = metrics.get(name, 0.0) + value
    for rate, (count, span_name) in RATES.items():
        if totals.get(span_name):
            metrics[rate] = all_counts.get(count, 0.0) / totals[span_name]
    common = min(len(untraced.latencies), len(traced.latencies))
    metrics["trace.request_ms"] = statistics.median(traced.raw) * 1e3
    metrics["trace.overhead_frac"] = (
        sum(traced.latencies[:common]) / sum(untraced.latencies[:common]) - 1.0
    )
    metrics["trace.spans"] = len(rec.spans)
    metrics["trace.accounted_frac"] = sum(totals.values()) / roots
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_counters(workload: str, seed: int, counters: dict) -> str:
    """Record the counters, or check them against an earlier run of this
    seed on identical source.  Returns a problem description or ``""``."""
    path = STATE / "counters" / f"{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            return f"work counters differ from an earlier run of seed {seed}: {earlier} vs {counters}"
        return ""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counters, sort_keys=True))
    os.replace(tmp, path)
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)
    setup_probe = HostProbe()  # samples before and after set-up scale its time
    setup_probe.maybe_sample(0)

    sys.path.insert(0, str(ROOT / "src"))
    module, cls = WORKLOADS[args.workload]
    jobs = max(1, min(len(os.sched_getaffinity(0)), 4))
    workload = getattr(importlib.import_module(module), cls)(ROOT, args.seed, jobs)
    try:
        workload.setup()
        setup_wall_s = time.monotonic() - args.t0
        setup_probe.maybe_sample(1, force=True)
        setup_s = setup_wall_s * setup_probe.scales(1)[0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        if args.trace == 0:
            phase = timed_phase(workload, args.seconds)
            metrics, notes = end_to_end(phase)
            phases = [phase]
            latencies = STATE / f"latencies-{args.workload}-seed{args.seed}.json"
            latencies.parent.mkdir(exist_ok=True)
            latencies.write_text(json.dumps({"pass_length": workload.pass_length,
                                             "latencies_s": phase.latencies,
                                             "wall_clock_s": phase.raw,
                                             "probes_s": phase.probes,
                                             "items": phase.items}))
        else:
            from spans import Recorder

            untraced = timed_phase(workload, args.seconds / 2)
            workload.reset()
            rec = Recorder()
            traced = timed_phase(workload, args.seconds / 2, rec)
            metrics = per_layer(rec, untraced, traced, workload.pass_length)
            metrics.update(workload.layer_metrics())
            notes = {"requests": len(untraced.latencies) + len(traced.latencies)}
            phases = [untraced, traced]
            rec.write(STATE / f"spans-{args.workload}-seed{args.seed}.json")
        problems = [p for phase in phases for p in phase.problems]
        attempted = sum(sum(phase.items) for phase in phases)
        failed = sum(phase.failed for phase in phases)
        verify_problems = workload.verify()
        counters = workload.counters()
        counter_problem = compare_counters(args.workload, args.seed, counters)
    finally:
        workload.close()
    problems += verify_problems[:MAX_PROBLEMS]
    if counter_problem:
        problems.append(counter_problem)
    failed = min(attempted, failed + len(verify_problems))
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "counters": counters,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
