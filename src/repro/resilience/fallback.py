"""Fallback-chain steady-state solving with bounded retries.

A production service cannot abort a whole request because ``gmres``
returned ``info != 0`` — numerical back ends are fallible,
interchangeable components behind a uniform interface (Ding & Hillston,
arXiv:1012.3040).  :func:`solve_with_fallback` therefore tries an
ordered :class:`FallbackPolicy` of methods from
:data:`repro.ctmc.steady.SOLVERS`; each attempt is bounded by the
policy's iteration budget and a cooperative wall-clock deadline, and
iterative methods get bounded retry-with-backoff (perturbed starting
vector, relaxed ILU preconditioner) before the chain moves on.  Every
attempt — successful or not — is recorded in a structured
:class:`SolveDiagnostics`, and a converged result is only accepted if
its residual passes :func:`repro.ctmc.steady.certified`, so a method
that silently stagnated cannot hand back a wrong answer.  The loop,
:func:`run_policy`, takes the attempt and residual functions, so the
fluid chain of :mod:`repro.fluid.ode` runs on it too.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.ctmc.chain import CTMC
from repro.ctmc.steady import (
    SOLVERS,
    ResidualError,
    _normalise,
    balance_residual,
    certified,
    residual_bound,
    solve_recurrent,
)
from repro.exceptions import SolverError
from repro.obs import get_metrics, get_tracer
from repro.resilience.budget import Deadline
from repro.utils.formatting import format_table

__all__ = [
    "AttemptRecord",
    "FallbackPolicy",
    "SolveDiagnostics",
    "ITERATIVE_METHODS",
    "run_policy",
    "solve_with_fallback",
]

#: Methods that can profit from a retry with a different starting point
#: or preconditioner; ``direct`` is deterministic, so retrying it with
#: the same inputs would only burn the deadline.
ITERATIVE_METHODS = frozenset(
    {"gmres", "bicgstab", "lgmres", "power", "gauss_seidel", "jacobi"}
)

#: Relative magnitude of the starting-vector perturbation per retry.
_PERTURBATION = 1e-3


@dataclass(frozen=True)
class FallbackPolicy:
    """An ordered solving policy: which methods, how hard, how long.

    ``methods`` are tried left to right; each iterative method gets up
    to ``1 + retries`` attempts with exponential ``backoff`` sleeps and
    per-retry perturbation of the starting vector (relative magnitude
    1e-3 per retry) plus a 100×-per-retry relaxed ILU ``drop_tol``.
    ``deadline`` bounds the whole chain in wall-clock seconds
    (cooperatively — a running scipy kernel is never pre-empted).
    A candidate answer is rejected unless its residual ``‖πQ‖∞`` is
    within :data:`repro.ctmc.steady.RESIDUAL_TOL` scaled by the chain's
    largest exit rate.
    """

    methods: tuple[str, ...] = ("direct", "gmres", "bicgstab", "power")
    retries: int = 2
    backoff: float = 0.05
    deadline: float | None = None
    tol: float = 1e-12
    max_iterations: int = 200_000

    @classmethod
    def parse(cls, spec: str, **overrides) -> "FallbackPolicy":
        """Build a policy from a comma-separated method list.

        ``FallbackPolicy.parse("direct,gmres,power", deadline=30.0)``
        is the CLI's ``--solver-policy`` syntax; remaining fields come
        from ``overrides`` or the defaults.
        """
        methods = tuple(m.strip() for m in spec.split(",") if m.strip())
        if not methods:
            raise SolverError(f"empty solver policy spec {spec!r}")
        return cls(methods=methods, **overrides)

    def validate(self, registry: dict | None = None) -> None:
        """Reject unknown method names eagerly (O(1), before any solve).

        ``registry`` defaults to :data:`repro.ctmc.steady.SOLVERS`.
        """
        known = SOLVERS if registry is None else registry
        unknown = [m for m in self.methods if m not in known]
        if unknown:
            raise SolverError(
                f"unknown steady-state method(s) {unknown} in fallback policy; "
                f"choose from {sorted(known)}"
            )
        if not self.methods:
            raise SolverError("fallback policy has no methods")

    def attempts_for(self, method: str) -> int:
        """Total attempts granted to ``method`` (1 + retries if iterative)."""
        return 1 + (self.retries if method in ITERATIVE_METHODS else 0)


@dataclass
class AttemptRecord:
    """One solver attempt: what ran, how long, and how it ended.

    ``outcome`` is one of ``"converged"``, ``"failed"`` (a
    :class:`SolverError`), ``"error"`` (an unexpected exception),
    ``"bad-residual"`` (converged but failed the ``‖πQ‖∞`` sanity
    check) or ``"deadline"`` (skipped, budget exhausted).
    """

    method: str
    attempt: int
    outcome: str
    elapsed: float
    residual: float | None = None
    detail: str = ""
    #: Which preconditioner path a Krylov attempt took: ``"ilu"``,
    #: ``"none-fallback"`` (ILU factorisation failed) or
    #: ``"none-operator"`` (matrix-free backend, ILU skipped).  Empty
    #: for non-Krylov methods.
    preconditioner: str = ""

    @property
    def ok(self) -> bool:
        """True for the attempt that produced the accepted answer."""
        return self.outcome == "converged"


@dataclass
class SolveDiagnostics:
    """The structured story of one fallback-chain solve.

    ``attempts`` lists every try in order; ``method`` names the solver
    that produced the accepted answer (``None`` if the whole chain
    failed); ``elapsed`` is total wall-clock time.
    """

    n_states: int = 0
    attempts: list[AttemptRecord] = field(default_factory=list)
    method: str | None = None
    elapsed: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True once some attempt converged and passed the residual check."""
        return self.method is not None

    def record(self, method: str, attempt: int, outcome: str, elapsed: float,
               *, residual: float | None = None, detail: str = "",
               preconditioner: str = "") -> AttemptRecord:
        """Append (and return) one :class:`AttemptRecord`."""
        rec = AttemptRecord(method, attempt, outcome, elapsed,
                            residual=residual, detail=detail,
                            preconditioner=preconditioner)
        self.attempts.append(rec)
        return rec

    def attempts_for(self, method: str) -> list[AttemptRecord]:
        """All recorded attempts of one method, in order."""
        return [a for a in self.attempts if a.method == method]

    def as_table(self) -> str:
        """Render the attempt log as an aligned plain-text table."""
        rows = [
            [a.method, a.attempt, a.outcome, f"{a.elapsed:.4f}s",
             "-" if a.residual is None else f"{a.residual:.3e}", a.detail]
            for a in self.attempts
        ]
        return format_table(
            ["method", "attempt", "outcome", "elapsed", "residual", "detail"], rows
        )

    def summary(self) -> str:
        """One line: winner (or failure), attempt count, total time."""
        outcome = f"solved by {self.method}" if self.succeeded else "all methods failed"
        return (
            f"{outcome} after {len(self.attempts)} attempt(s) "
            f"in {self.elapsed:.4f}s over {self.n_states} states"
        )


def _retry_options(n: int, attempt: int) -> dict:
    """Per-attempt solver hints: none on the first try, a perturbed
    start vector and a relaxed preconditioner on retries."""
    if attempt == 1:
        return {}
    rng = np.random.default_rng(7919 * attempt + n)
    x0 = np.full(n, 1.0 / n) * (
        1.0 + _PERTURBATION * attempt * rng.standard_normal(n)
    )
    x0 = np.abs(x0)
    x0 /= x0.sum()
    return {
        "x0": x0,
        "ilu_drop_tol": 1e-5 * 100.0 ** (attempt - 1),
        "ilu_fill_factor": 20,
    }


def run_policy(
    policy: FallbackPolicy,
    attempt: Callable[[str, int, dict], np.ndarray],
    residual: Callable[[np.ndarray], float],
    bound: float,
    *,
    diag: SolveDiagnostics,
    label: str = "fallback",
    stage: str = "solve",
    norm: str = "‖πQ‖∞",
) -> tuple[np.ndarray, float]:
    """The one attempt loop: try ``policy``'s methods in order.

    ``attempt(method, k, info)`` makes the ``k``-th try of ``method``
    and may fill ``info`` (e.g. the Krylov ``"preconditioner"``); each
    candidate is checked by :func:`~repro.ctmc.steady.certified`, opens
    a ``solve.attempt`` span and is recorded in ``diag``.  Returns
    ``(x, residual)`` of the first certified candidate, else raises
    :class:`SolverError` with ``diag`` as ``exc.diagnostics``.
    """
    deadline = Deadline.after(policy.deadline)
    start = time.monotonic()
    tracer = get_tracer()
    for method in policy.methods:
        for k in range(1, policy.attempts_for(method) + 1):
            if deadline.expired:
                diag.record(
                    method, k, "deadline", 0.0,
                    detail=f"skipped: {policy.deadline:g}s budget exhausted",
                )
                diag.elapsed = time.monotonic() - start
                raise _failure(
                    f"steady-state deadline of {policy.deadline:g}s exhausted "
                    f"after {len(diag.attempts)} attempt(s); {diag.summary()}",
                    diag, stage)
            if k > 1 and policy.backoff > 0:
                time.sleep(
                    min(policy.backoff * 2.0 ** (k - 2),
                        max(deadline.remaining(), 0.0))
                )
            info: dict = {}
            value, detail = None, ""
            t0 = time.monotonic()
            with tracer.span("solve.attempt", method=method, attempt=k) as asp:
                try:
                    x, value = certified(lambda: attempt(method, k, info),
                                         residual, bound, norm)
                except ResidualError as exc:
                    outcome, value, detail = "bad-residual", exc.residual, str(exc)
                    asp.set(outcome=outcome, residual=value)
                except SolverError as exc:
                    outcome, detail = "failed", str(exc)
                    asp.set(outcome=outcome, error=type(exc).__name__)
                except Exception as exc:  # noqa: BLE001 — any back-end blow-up
                    outcome, detail = "error", f"{type(exc).__name__}: {exc}"
                    asp.set(outcome=outcome, error=type(exc).__name__)
                else:
                    outcome = "converged"
                    asp.set(outcome=outcome, residual=value)
            diag.record(method, k, outcome, time.monotonic() - t0,
                        residual=value, detail=detail,
                        preconditioner=info.get("preconditioner", ""))
            if outcome == "converged":
                diag.method = method
                diag.elapsed = time.monotonic() - start
                return x, value
    diag.elapsed = time.monotonic() - start
    failures = "; ".join(
        f"{a.method}#{a.attempt}: {a.outcome}" + (f" ({a.detail})" if a.detail else "")
        for a in diag.attempts
    )
    raise _failure(
        f"all {len(policy.methods)} {label} method(s) failed "
        f"({len(diag.attempts)} attempts): {failures}", diag, stage)


def _failure(message: str, diag: SolveDiagnostics, stage: str) -> SolverError:
    """The aggregate error of a failed :func:`run_policy`."""
    exc = SolverError(message).with_context(stage=stage, attempt=len(diag.attempts))
    exc.diagnostics = diag
    return exc


def solve_with_fallback(
    chain: CTMC,
    policy: FallbackPolicy | str | None = None,
    *,
    check_irreducible: bool = True,
    reducible: str = "error",
    solvers: dict | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve ``πQ = 0, Σπ = 1`` through an ordered fallback chain.

    Returns ``(pi, diagnostics)``.  ``policy`` may be a
    :class:`FallbackPolicy`, a comma-separated method list, or ``None``
    for the default ``direct → gmres → bicgstab → power`` chain.
    ``reducible`` has the same semantics as in
    :func:`repro.ctmc.steady.steady_state`, whose prelude
    (:func:`~repro.ctmc.steady.solve_recurrent`) this shares.
    ``solvers`` overrides the registry (tests use this); entries are
    looked up per attempt so fault-injection wrappers installed mid-run
    are honoured.

    Raises :class:`SolverError` — with the full :class:`SolveDiagnostics`
    attached as ``exc.diagnostics`` and summarised in ``exc.context`` —
    only when *every* method of the policy has been exhausted or the
    deadline ran out.
    """
    if isinstance(policy, str):
        policy = FallbackPolicy.parse(policy)
    if policy is None:
        policy = FallbackPolicy()
    registry = SOLVERS if solvers is None else solvers
    policy.validate(registry)
    diag = SolveDiagnostics(n_states=chain.n_states)
    tracer = get_tracer()

    def solve(sub: CTMC) -> np.ndarray:
        def attempt(method: str, k: int, info: dict) -> np.ndarray:
            # Solvers report back through ``info`` — currently the
            # Krylov methods record which preconditioner path ran.
            options = {**_retry_options(sub.n_states, k), "info": info}
            raw = registry[method](sub, policy.tol, policy.max_iterations, options)
            return _normalise(raw, method)

        with tracer.span("ctmc.solve.fallback", states=sub.n_states,
                         methods=",".join(policy.methods)) as span:
            try:
                pi, residual = run_policy(
                    policy, attempt, partial(balance_residual, sub),
                    residual_bound(sub), diag=diag,
                )
            finally:
                span.set(attempts=len(diag.attempts), solved_by=diag.method or "none",
                         diagnostics=diag.summary())
        get_metrics().gauge("residual").set(residual)
        return pi

    pi = solve_recurrent(chain, solve, check_irreducible=check_irreducible,
                         reducible=reducible)
    diag.method = diag.method or "trivial"
    return pi, diag
