"""What every workload provides to the driver loop in ``worker.py``.

A workload turns the benchmark seed into inputs (``setup``), hands out
request ``i`` of its closed-loop sequence (``request``), serves it
untraced (``run``) or rebuilt from the public layer calls under spans
(``run_traced``), checks each answer as it arrives (``check``) and the
retained first pass in depth once timing is over (``verify``), and
reports deterministic work counters (``counters``).
"""

from __future__ import annotations

import random


class Failure(Exception):
    """A correctness check did not hold."""


def scaled(rng: random.Random, value: float, spread: float = 1.25) -> float:
    """``value`` times a seeded factor in ``[1/spread, spread]``, rounded
    so it prints and parses back exactly."""
    return round(value * spread ** rng.uniform(-1.0, 1.0), 4)


def generator_size(chain) -> tuple[int, int]:
    """Stored non-zeros and bytes of a chain's generator, either backend."""
    generator = chain.generator
    nnz = getattr(generator, "stored_nnz", None)
    return (generator.nnz if nnz is None else nnz), generator.stored_bytes


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


class PassWorkload:
    """A fixed list of requests replayed in passes.

    A run may stop only at a pass boundary, so every run serves the same
    mix whatever the host speed.  The first pass's answers are kept: the
    deep checks run on them after timing, and every later answer to the
    same request (untraced or traced) must equal them exactly.
    """

    name = ""

    def __init__(self, root, seed: int, jobs: int):
        self.root = root
        self.seed = seed
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.requests: list = []
        self.first: dict[int, object] = {}

    @property
    def pass_length(self) -> int:
        return len(self.requests)

    def request(self, i: int):
        return self.requests[i % len(self.requests)]

    def items(self, req) -> int:
        return 1

    def may_stop(self, done: int) -> bool:
        return done % len(self.requests) == 0

    def reset(self) -> None:
        """Return to the start state before a second timed phase."""

    def close(self) -> None:
        """Release what ``setup`` acquired."""

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def check(self, i: int, req, answer) -> None:
        k = i % len(self.requests)
        if k not in self.first:
            self.first[k] = answer
        else:
            require(self.same(answer, self.first[k]),
                    f"request {k} answered differently from its first pass")

    def verify(self) -> list[str]:
        """Run ``verify_one`` on every first-pass answer; describe each failure."""
        problems = []
        for k, req in enumerate(self.requests):
            if k not in self.first:
                problems.append(f"{self.label(req)}: no first-pass answer to check")
                continue
            try:
                self.verify_one(req, self.first[k])
            except Exception as exc:  # every check failure is reported, not raised
                problems.append(f"{self.label(req)}: {type(exc).__name__}: {exc}")
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values that do not come from spans."""
        return {}
