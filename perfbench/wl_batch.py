"""``batch_corpus``: the CI and sweep user, one ``run_batch`` call per request.

Batch ``b`` submits four documents never seen before — generated
scenario structures ``4b .. 4b+3`` with rates drawn from the seed — and
re-submits up to four documents of earlier batches, chosen by the seed.
Every batch runs on ``jobs`` worker processes against one persistent
cache directory and no journal, as ``choreographer batch`` does by
default.  Misses write the cache and re-submissions read it.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import time

from base import require
from repro.batch.cache import DerivationCache
from repro.batch.engine import BatchTask, run_batch
from repro.choreographer.platform import Choreographer
from repro.core.keys import stable_digest
from wl_design import scenario_document

NEW_PER_BATCH = 4
RESUBMIT_PER_BATCH = 4
#: Batches whose counters are deterministic and compared between runs;
#: a run serves at least this many.
COUNTED_BATCHES = 6


class BatchCorpus:
    name = "batch_corpus"
    pass_length = COUNTED_BATCHES

    def __init__(self, root, seed: int, jobs: int):
        self.root = root
        self.seed = seed
        self.jobs = jobs
        self.docs: dict[int, object] = {}
        self.measures: dict[int, str] = {}
        self.counted: dict[int, dict] = {}
        self.traced: list[dict] = []
        self.work = None

    # -- inputs ------------------------------------------------------------
    def setup(self) -> None:
        state = self.root / ".perfbench"
        state.mkdir(exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="batch-", dir=state)
        self._fresh_cache()
        # warm-up: one pooled batch against a throwaway cache
        warm = [self._task(f"warm-{k}", scenario_document(k, -1 - k)) for k in range(self.jobs)]
        run_batch(warm, jobs=self.jobs, cache_dir=f"{self.work}/warm")
        self.inline = Choreographer(solver="direct")

    def _fresh_cache(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work)
        self.stored = 0

    def _doc(self, j: int):
        if j not in self.docs:
            self.docs[j] = scenario_document(j, self.seed * 1_000_003 + j)
        return self.docs[j]

    @staticmethod
    def _task(task_id: str, doc) -> BatchTask:
        return BatchTask(id=task_id, kind="xmi", payload={
            "text": doc.text, "rates": doc.rates, "reset_rate": doc.reset_rate,
        })

    def request(self, b: int) -> list[tuple[int, BatchTask]]:
        fresh = list(range(NEW_PER_BATCH * b, NEW_PER_BATCH * (b + 1)))
        rng = random.Random(self.seed * 7919 + b)
        earlier = rng.sample(range(NEW_PER_BATCH * b), min(RESUBMIT_PER_BATCH, NEW_PER_BATCH * b))
        return [(j, self._task(f"b{b}-doc{j}", self._doc(j))) for j in fresh + earlier]

    def items(self, batch) -> int:
        return len(batch)

    def may_stop(self, done: int) -> bool:
        return done >= COUNTED_BATCHES

    # -- serving -----------------------------------------------------------
    def run(self, batch):
        return run_batch([task for _, task in batch], jobs=self.jobs, cache_dir=self.cache_dir)

    def run_traced(self, batch, rec):
        entries = self.stored
        start = time.perf_counter()
        with rec.span("batch.makespan"):
            report = self.run(batch)
        makespan = time.perf_counter() - start
        totals = report.cache_totals()
        self.traced.append({
            "makespan": makespan,
            "busy": sum(result.duration_s for result in report.results),
            "tasks": len(batch),
            "entries": entries,
            "hits": totals.get("hits", 0),
            "misses": totals.get("misses", 0),
            "retries": report.retries,
        })
        return report

    def reset(self) -> None:
        self._fresh_cache()

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)

    # -- checking ----------------------------------------------------------
    def check(self, b: int, batch, report) -> None:
        totals = report.cache_totals()
        self.stored += totals.get("stores", 0)
        failed = [r.task_id for r in report.results if not r.ok]
        require(not failed, f"batch {b}: tasks failed: {', '.join(failed)}")
        for (j, _), result in zip(batch, report.results):
            measures = json.dumps(result.measures, sort_keys=True)
            if j not in self.measures:
                self.measures[j] = measures
            else:
                require(measures == self.measures[j],
                        f"document {j} measured differently on re-submission")
        if b < COUNTED_BATCHES and b not in self.counted:
            self.counted[b] = {
                "hits": totals.get("hits", 0), "misses": totals.get("misses", 0),
                "entries": totals.get("stores", 0), "tasks": len(batch),
                "states": sum(d["n_states"] for r in report.results
                              for d in r.measures["diagrams"]),
            }

    def verify(self) -> list[str]:
        """Every document's batch measures equal an inline ``process_xmi``."""
        problems = []
        for j, measures in sorted(self.measures.items()):
            doc = self.docs[j]
            measured = json.loads(measures)
            result = self.inline.process_xmi(doc.text, doc.rates, reset_rate=doc.reset_rate)
            throughputs = [
                {name: float(value) for name, value in sorted(o.analysis.all_throughputs().items())}
                for o in result.activity_outcomes
            ]
            if measured["document_sha256"] != stable_digest(result.document):
                problems.append(f"document {j}: reflected document differs from inline")
            elif [d["throughputs"] for d in measured["diagrams"]] != throughputs:
                problems.append(f"document {j}: throughputs differ from inline")
        return problems

    def counters(self) -> dict:
        out = {name: sum(c[name] for c in self.counted.values())
               for name in ("hits", "misses", "entries", "tasks", "states")}
        out["batches"] = len(self.counted)
        return out

    def layer_metrics(self) -> dict[str, float]:
        stats = self.traced
        hits = sum(s["hits"] for s in stats)
        misses = sum(s["misses"] for s in stats)
        quarter = max(1, len(stats) // 4)
        cache = DerivationCache(self.cache_dir)
        metrics = {
            "batch.task_busy_ms": statistics.median(s["busy"] for s in stats) * 1e3,
            "batch.worker_idle_frac": 1.0 - sum(s["busy"] for s in stats) / (
                self.jobs * sum(s["makespan"] for s in stats)),
            "batch.overhead_ms_per_task": self._overhead(stats),
            "batch.overhead_ms_per_task_q1": self._overhead(stats[:quarter]),
            "batch.overhead_ms_per_task_q4": self._overhead(stats[-quarter:]),
            "batch.retries": sum(s["retries"] for s in stats),
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses),
            "cache.entries": len(cache),
            "cache.entries_q1": statistics.mean(s["entries"] for s in stats[:quarter]),
            "cache.entries_q4": statistics.mean(s["entries"] for s in stats[-quarter:]),
            "cache.bytes": cache.total_bytes(),
        }
        return metrics

    def _overhead(self, stats: list[dict]) -> float:
        """Worker time not spent inside tasks, per task, in ms."""
        spent = self.jobs * sum(s["makespan"] for s in stats) - sum(s["busy"] for s in stats)
        return spent / sum(s["tasks"] for s in stats) * 1e3
