"""Steady-state solvers.

We solve the global balance equations ``πQ = 0`` with ``Σπ = 1`` by
several methods, mirroring the solver menu of the PEPA Workbench the
paper builds on, and following the HPC guide's advice to prefer
``scipy.sparse`` solvers and to pick the method by problem size:

* ``direct``        sparse LU on the normal system (exact, the default
  for small/medium chains — "exact solution is an advantage"), run on
  the chain's coarsest strictly lumpable quotient and certified by the
  full chain's residual (see :func:`_solve_direct`);
* ``gmres`` / ``bicgstab`` / ``lgmres``  preconditioned Krylov
  iterations for large chains;
* ``power``         power iteration on the uniformized DTMC (lowest
  memory footprint, tolerant of very large state spaces);
* ``gauss_seidel`` / ``jacobi``  classical stationary iterations, kept
  both as a baseline for the solver benchmark and because Gauss–Seidel
  is what the original Workbench shipped.

Every iterative method consumes the chain through its
:class:`~repro.ctmc.operator.GeneratorOperator`, so a matrix-free
Kronecker-descriptor chain solves without ever materialising the
global generator.  Only the direct solver, Gauss–Seidel (which needs
random row access) and the ILU preconditioner require the matrix:
``direct``/``gauss_seidel`` materialise transparently (announced by the
chain's ``solver.materialize`` event), while the Krylov methods on a
descriptor simply skip ILU and solve unpreconditioned — the
preconditioner path actually taken is reported through the
``options["info"]`` dict (and surfaces in the fallback layer's
:class:`~repro.resilience.fallback.SolveDiagnostics`).

All methods require an irreducible chain; hand a reducible one to
:func:`steady_state` and you get a :class:`SolverError` naming the
offending structure (use :meth:`CTMC.bottom_sccs` to analyse further).

Every solver callable takes ``(chain, tol, max_iterations, options)``;
``options`` (possibly ``None``) carries per-attempt hints (``x0``,
``ilu_drop_tol``, ``ilu_fill_factor``) that the retry layer of
:mod:`repro.resilience.fallback` uses between attempts.  The pseudo
method ``"fallback"`` routes through that fallback chain.  Both paths
share one prelude (:func:`solve_recurrent`) and one checked attempt
(:func:`certified`), so every returned π is certified by ``‖πQ‖∞``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

import time

from repro.ctmc.chain import CTMC
from repro.ctmc.lumping import quotient, strict_lumping
from repro.exceptions import SolverError
from repro.obs import get_events, get_metrics, get_tracer

__all__ = ["steady_state", "SOLVERS"]

_DEFAULT_TOL = 1e-12
_DEFAULT_MAXITER = 200_000
#: Certificate of every returned π: ‖πQ‖∞ ≤ RESIDUAL_TOL · max(1, max exit rate).
RESIDUAL_TOL = 1e-6
#: Certificate of a lumped ``direct`` solve: ‖πQ‖∞ on the full chain,
#: relative to the largest exit rate, must not exceed this.
LUMPED_RESIDUAL = 1e-12


def steady_state(
    chain: CTMC,
    method: str = "direct",
    *,
    tol: float = _DEFAULT_TOL,
    max_iterations: int = _DEFAULT_MAXITER,
    check_irreducible: bool = True,
    reducible: str = "error",
    policy=None,
    solver_options: Mapping | None = None,
) -> np.ndarray:
    """The stationary distribution π of a CTMC.

    Returns a dense probability vector of length ``chain.n_states``
    that passed :func:`certified`; a π above the bound raises.

    ``reducible`` selects the policy for chains that are not
    irreducible: ``"error"`` (the default) raises; ``"bscc"`` solves on
    the chain's unique bottom strongly connected component and assigns
    probability zero to the transient states — the correct long-run
    distribution for models with a start-up phase, such as the paper's
    one-shot instant-message transmission.  A chain with *several*
    bottom components has no initial-state-independent steady state and
    always raises.

    ``method="fallback"`` (or any non-``None`` ``policy``) solves
    through the resilient fallback chain of
    :func:`repro.resilience.fallback.solve_with_fallback`: an ordered
    list of methods tried in turn with bounded retries; ``policy`` may
    be a :class:`~repro.resilience.fallback.FallbackPolicy` or a
    comma-separated method list such as ``"direct,gmres,power"``.
    Use :func:`~repro.resilience.fallback.solve_with_fallback` directly
    when you also want the per-attempt diagnostics record.

    ``solver_options`` forwards per-attempt hints (``x0``,
    ``ilu_drop_tol``, ``ilu_fill_factor``) to the solver.
    """
    if method == "fallback" or policy is not None:
        from repro.resilience.fallback import FallbackPolicy, solve_with_fallback

        if policy is None:
            policy = FallbackPolicy(tol=tol, max_iterations=max_iterations)
        elif isinstance(policy, str):
            policy = FallbackPolicy.parse(
                policy, tol=tol, max_iterations=max_iterations
            )
        pi, _ = solve_with_fallback(
            chain, policy,
            check_irreducible=check_irreducible, reducible=reducible,
        )
        return pi
    # Validate the method name first: a typo must fail in O(1), not
    # after a full SCC analysis of a large chain.
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise SolverError(
            f"unknown steady-state method {method!r}; choose from {sorted(SOLVERS)}"
        ) from None
    tracer = get_tracer()

    def solve(sub: CTMC) -> np.ndarray:
        with tracer.span("ctmc.solve", method=method, states=sub.n_states) as sp:
            pi, residual = certified(
                lambda: _normalise(solver(sub, tol, max_iterations, solver_options), method),
                partial(balance_residual, sub), residual_bound(sub),
            )
            sp.set(residual=residual)
        get_metrics().gauge("residual").set(residual)
        return pi

    return solve_recurrent(chain, solve, check_irreducible=check_irreducible,
                           reducible=reducible)


def solve_recurrent(chain: CTMC, solve: Callable[[CTMC], np.ndarray], *,
                    check_irreducible: bool = True,
                    reducible: str = "error") -> np.ndarray:
    """The prelude of every steady-state solve: run ``solve`` on an
    irreducible chain, or (``reducible="bscc"``) on the unique bottom
    SCC and lift its π back with zeros on the transient states."""
    if reducible not in ("error", "bscc"):
        raise SolverError(f"unknown reducible policy {reducible!r}")
    if chain.n_states == 0:
        raise SolverError("cannot solve an empty chain").with_context(stage="solve")
    if chain.n_states == 1:
        return np.ones(1)
    if not check_irreducible or chain.is_irreducible():
        return solve(chain)
    if reducible != "bscc":
        raise _irreducibility_failure(chain)
    bsccs = chain.bottom_sccs()
    if len(bsccs) != 1:
        raise SolverError(
            f"the chain has {len(bsccs)} bottom strongly connected "
            "components; the steady state depends on the initial state"
        ).with_context(stage="solve")
    members = bsccs[0]
    pi = np.zeros(chain.n_states)
    pi[members] = solve_recurrent(chain.restricted_to(members), solve,
                                  check_irreducible=False)
    return pi


class ResidualError(SolverError):
    """A candidate whose residual (kept as ``residual``) misses its bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def certified(solve: Callable[[], np.ndarray], residual: Callable[[np.ndarray], float],
              bound: float, norm: str = "‖πQ‖∞") -> tuple[np.ndarray, float]:
    """One checked attempt: ``(x, residual(x))`` for ``x = solve()``, or
    :class:`ResidualError` unless the residual is finite and ≤ ``bound``."""
    x = solve()
    value = float(residual(x))
    if not value <= bound:  # also rejects NaN
        raise ResidualError(f"{norm} = {value:.3e} above bound {bound:.3e}", value)
    return x, value


def balance_residual(chain: CTMC, pi: np.ndarray) -> float:
    """``‖πQ‖∞``: one SpMV on either generator backend."""
    return float(np.abs(chain.generator.rmatvec(pi)).max())


def residual_bound(chain: CTMC) -> float:
    """:data:`RESIDUAL_TOL` scaled by ``max(1, largest exit rate)``."""
    return RESIDUAL_TOL * max(1.0, chain.max_exit_rate())


def _irreducibility_failure(chain: CTMC) -> SolverError:
    """Build the reducible-chain error, naming absorbing states if any."""
    absorbing = chain.absorbing_states()
    detail = (
        f" (it has {len(absorbing)} absorbing state(s); the first is "
        f"{chain.labels[absorbing[0]] if chain.labels is not None and len(chain.labels) else absorbing[0]!r})"
        if absorbing.size
        else ""
    )
    return SolverError(
        "steady-state analysis requires an irreducible chain" + detail
    ).with_context(stage="solve")


def _normalise(pi: np.ndarray, method: str) -> np.ndarray:
    if not np.all(np.isfinite(pi)):
        raise SolverError(f"{method} solver produced non-finite probabilities")
    # Tiny negative round-off is expected from direct solves; anything
    # materially negative means the solve failed.
    if pi.min() < -1e-8:
        raise SolverError(f"{method} solver produced negative probabilities ({pi.min():g})")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(f"{method} solver produced a zero vector")
    return pi / total


# ----------------------------------------------------------------------
# Individual methods
# ----------------------------------------------------------------------
def _solve_direct(chain: CTMC, tol: float, max_iterations: int,
                  options: Mapping | None = None) -> np.ndarray:
    """Sparse LU on the chain's coarsest strictly lumpable quotient.

    The quotient ``Q̂ = diag(1/|B|)·Eᵀ Q E`` solves like the full chain
    (:func:`_solve_lu`), and since π is uniform within each block of a
    strictly lumpable partition, ``π_i = π̂_B / |B|``.  Every lumped π is
    certified on the full generator: ``‖πQ‖∞`` must stay within
    :data:`LUMPED_RESIDUAL` times the largest exit rate, or the chain is
    solved unlumped and a ``solver.lumping_rejected`` event says so.  A
    chain without a non-trivial partition solves exactly as the plain
    LU, bit for bit.
    """
    Q = chain.Q
    n = chain.n_states
    block_of = strict_lumping(Q)
    blocks = int(block_of.max()) + 1
    tracer = get_tracer()
    if blocks < n:
        sizes = np.bincount(block_of).astype(float)
        pi = (_solve_lu(quotient(Q, block_of)) / sizes)[block_of]
        residual = balance_residual(chain, pi)
        bound = LUMPED_RESIDUAL * chain.max_exit_rate()
        if residual <= bound:
            tracer.annotate(blocks=blocks, lumped=True)
            return pi
        get_events().emit("solver.lumping_rejected", states=n, blocks=blocks,
                          residual=residual, bound=bound)
        get_metrics().counter("solver.lumping_rejected").inc()
    tracer.annotate(blocks=n, lumped=False)
    return _solve_lu(Q)


def _solve_lu(Q) -> np.ndarray:
    """Sparse LU on ``Qᵀ π = 0`` with one row replaced by ``Σπ = 1``."""
    n = Q.shape[0]
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = spla.spsolve(augmented_system(Q), b)
    return np.asarray(pi).ravel()


def augmented_system(Q):
    """``Qᵀ`` with its last row replaced by ones, in CSC (shared by the
    LU, the ILU preconditioner and :mod:`repro.ctmc.sensitivity`)."""
    n = Q.shape[0]
    A = Q.transpose().tocsr(copy=True).tolil()
    A[n - 1, :] = np.ones(n)
    return A.tocsc()


class _Progress:
    """One iterative solve's ``solver.convergence`` events, timed from
    construction, and (:meth:`count`) its iteration and SpMV counters."""

    def __init__(self, solver: str):
        self.solver, self.events = solver, get_events()
        self.enabled = self.events.enabled
        self.start = time.perf_counter() if self.enabled else 0.0

    def step(self, iteration: int, residual: float) -> None:
        if self.enabled:
            self.events.emit(
                "solver.convergence", solver=self.solver,
                iteration=iteration, residual=float(residual),
                elapsed_s=round(time.perf_counter() - self.start, 9),
            )

    @staticmethod
    def count(iterations: int) -> None:
        metrics = get_metrics()
        metrics.counter("solver_iterations").inc(iterations)
        metrics.counter("spmv_count").inc(iterations)


_KRYLOV_FNS = {
    "gmres": spla.gmres,
    "bicgstab": spla.bicgstab,
    "lgmres": spla.lgmres,
}


def _krylov(name: str) -> Callable[..., np.ndarray]:
    def solve(chain: CTMC, tol: float, max_iterations: int,
              options: Mapping | None = None) -> np.ndarray:
        options = options or {}
        info_out = options.get("info")
        if not isinstance(info_out, dict):
            info_out = {}
        n = chain.n_states
        b = np.zeros(n)
        b[n - 1] = 1.0
        if chain.materialized:
            A = augmented_system(chain.Q)
            try:
                ilu = spla.spilu(
                    A,
                    drop_tol=options.get("ilu_drop_tol", 1e-5),
                    fill_factor=options.get("ilu_fill_factor", 20),
                )
                M = spla.LinearOperator((n, n), ilu.solve)
                info_out["preconditioner"] = "ilu"
            except (RuntimeError, ValueError, MemoryError):
                # spilu raises RuntimeError on exactly-singular factors, but
                # near-singular or very large systems can also surface as
                # ValueError/MemoryError — an unpreconditioned solve beats a
                # crashed one in every case.
                M = None
                info_out["preconditioner"] = "none-fallback"
        else:
            # Matrix-free backend: the normal system's operator is
            # Qᵀx with the last row replaced by Σx — ILU would need
            # the matrix, so the solve runs unpreconditioned rather
            # than forcing materialisation.
            op = chain.generator

            def normal_matvec(x):
                x = np.asarray(x, dtype=float).ravel()
                y = op.rmatvec(x)
                y[n - 1] = x.sum()
                return y

            A = spla.LinearOperator((n, n), matvec=normal_matvec, dtype=float)
            M = None
            info_out["preconditioner"] = "none-operator"
        x0 = np.asarray(options.get("x0", np.full(n, 1.0 / n)), dtype=float)
        fn = _KRYLOV_FNS[name]
        iterations = [0]
        progress = _Progress(name)

        def count_iteration(arg):
            iterations[0] += 1
            if progress.enabled:
                # gmres (legacy callback) hands us the preconditioned
                # residual norm directly; bicgstab/lgmres hand the
                # iterate, so the true residual costs one extra SpMV —
                # paid only while an event stream is live.
                progress.step(iterations[0], arg if name == "gmres" else
                              np.abs(b - A @ np.asarray(arg).ravel()).max())

        kwargs = {"rtol": max(tol, 1e-12), "maxiter": max_iterations, "M": M,
                  "x0": x0, "callback": count_iteration}
        if name == "gmres":
            kwargs["restart"] = min(50, n)
            kwargs["callback_type"] = "legacy"
        pi, info = fn(A, b, **kwargs)
        if progress.enabled and iterations[0] == 0:
            # scipy skips the callback when x0 already satisfies the
            # tolerance; record the solve anyway so every Krylov call
            # leaves at least one convergence event behind.
            progress.step(0, np.abs(b - A @ np.asarray(pi).ravel()).max())
        _Progress.count(iterations[0])
        if info != 0:
            raise SolverError(f"{name} failed to converge (info={info})")
        return np.asarray(pi).ravel()

    return solve


def _solve_power(chain: CTMC, tol: float, max_iterations: int,
                 options: Mapping | None = None) -> np.ndarray:
    """Power iteration on the uniformized DTMC ``P = I + Q/Λ``.

    ``Pᵀπ = π + Qᵀπ/Λ`` needs only the generator's ``rmatvec``, so the
    iteration runs matrix-free on either backend (Λ is 1.02× the
    maximum exit rate, strictly above it for aperiodicity)."""
    options = options or {}
    op = chain.generator
    lam = max(chain.max_exit_rate() * 1.02, 1e-12)
    n = chain.n_states
    pi = np.asarray(options.get("x0", np.full(n, 1.0 / n)), dtype=float)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    progress = _Progress("power")
    it = 0
    try:
        for it in range(1, max_iterations + 1):
            nxt = pi + op.rmatvec(pi) / lam
            nxt /= nxt.sum()
            delta = np.abs(nxt - pi).max()
            progress.step(it, delta)
            if delta < tol:
                return nxt
            pi = nxt
    finally:
        _Progress.count(it)
    raise SolverError(f"power iteration did not converge in {max_iterations} steps")


def _solve_gauss_seidel(chain: CTMC, tol: float, max_iterations: int,
                        options: Mapping | None = None) -> np.ndarray:
    """Gauss–Seidel on ``πQ = 0``.

    Written over the transposed generator in CSR so each state's update
    streams one contiguous row (cache-friendly per the HPC guide).  The
    in-place latest-value sweep needs random row access, so this is one
    of the two methods that materialise a descriptor-backed chain.
    """
    n = chain.n_states
    QT = chain.Q.transpose().tocsr()
    indptr, indices, data = QT.indptr, QT.indices, QT.data
    diag = chain.Q.diagonal()
    if np.any(diag == 0.0):
        raise SolverError("stationary iteration requires every state to have an exit rate")
    pi = np.full(n, 1.0 / n)
    progress = _Progress("gauss_seidel")
    sweeps = 0
    try:
        for sweeps in range(1, max_iterations + 1):
            src = pi
            max_delta = 0.0
            for i in range(n):
                acc = 0.0
                for k in range(indptr[i], indptr[i + 1]):
                    j = indices[k]
                    if j != i:
                        acc += data[k] * src[j]
                new = acc / -diag[i]
                delta = abs(new - pi[i])
                if delta > max_delta:
                    max_delta = delta
                pi[i] = new
            total = pi.sum()
            if total > 0:
                pi /= total
            progress.step(sweeps, max_delta)
            if max_delta < tol:
                return pi
    finally:
        _Progress.count(sweeps)
    raise SolverError(
        f"gauss_seidel did not converge in {max_iterations} sweeps"
    )


def _solve_jacobi(chain: CTMC, tol: float, max_iterations: int,
                  options: Mapping | None = None) -> np.ndarray:
    """Damped Jacobi on ``πQ = 0``, matrix-free.

    The whole sweep is one ``rmatvec``: the off-diagonal accumulation
    ``Σ_{j≠i} Qᵀ[i,j]·π_j`` equals ``(Qᵀπ)_i + exit_i·π_i`` because the
    diagonal of ``Q`` is ``-exit``.  Undamped Jacobi has
    iteration-matrix spectral radius 1 on this singular system and
    oscillates on cyclic chains; a relaxation factor < 1 restores
    convergence without moving the fixed point.
    """
    omega = 0.7
    n = chain.n_states
    op = chain.generator
    exits = chain.exit_rates()
    if np.any(exits == 0.0):
        raise SolverError("stationary iteration requires every state to have an exit rate")
    pi = np.full(n, 1.0 / n)
    progress = _Progress("jacobi")
    sweeps = 0
    try:
        for sweeps in range(1, max_iterations + 1):
            acc = op.rmatvec(pi) + exits * pi
            new = omega * (acc / exits) + (1.0 - omega) * pi
            max_delta = float(np.abs(new - pi).max())
            pi = new
            total = pi.sum()
            if total > 0:
                pi /= total
            progress.step(sweeps, max_delta)
            if max_delta < tol:
                return pi
    finally:
        _Progress.count(sweeps)
    raise SolverError(
        f"jacobi did not converge in {max_iterations} sweeps"
    )


#: The solver registry: name → callable ``(chain, tol, max_iterations,
#: options=None)``.  :mod:`repro.resilience.faultinject` swaps entries
#: in and out to inject failures, so callers should look a method up at
#: call time rather than caching the callable.
SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "direct": _solve_direct,
    "gmres": _krylov("gmres"),
    "bicgstab": _krylov("bicgstab"),
    "lgmres": _krylov("lgmres"),
    "power": _solve_power,
    "gauss_seidel": _solve_gauss_seidel,
    "jacobi": _solve_jacobi,
}
