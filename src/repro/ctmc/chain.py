"""Continuous-Time Markov Chains over abstract generator operators.

A chain carries its generator behind the :class:`GeneratorOperator`
interface (:mod:`repro.ctmc.operator`): either a materialised CSR
matrix (off-diagonal entries are transition rates, the diagonal makes
rows sum to zero — the classic assemble-in-COO, convert-once layout) or
a matrix-free Kronecker descriptor built compositionally from the
model.  Consumers that only need SpMV products use :attr:`generator`
and stay representation-agnostic; consumers that genuinely need the
matrix (direct solves, ILU, graph analyses) read :attr:`Q`, which
materialises a descriptor on first access and announces it with a
``solver.materialize`` event so the fallback is observable rather than
silent.

Besides the generator the chain optionally carries:

* ``labels`` — a human-readable name per state (the PEPA derivative);
* ``action_rates`` — for each action type, the vector of total outgoing
  rates of that type per state.  This is exactly what is needed to turn
  a steady-state distribution into *activity throughput*, the measure
  the paper reflects back onto activity diagrams.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.ctmc.operator import CsrGenerator, GeneratorOperator
from repro.exceptions import SolverError

__all__ = ["CTMC", "build_ctmc"]


class CTMC:
    """A finite CTMC with optional state labels and action-rate vectors.

    Construct either from a materialised generator (``CTMC(Q, ...)``,
    unchanged from the historical dataclass) or from a matrix-free
    operator (``CTMC(operator=descriptor, ...)``).
    """

    def __init__(
        self,
        Q: sp.spmatrix | None = None,
        labels: list[str] | None = None,
        action_rates: dict[str, np.ndarray] | None = None,
        initial: int = 0,
        *,
        operator: GeneratorOperator | None = None,
    ):
        if Q is None and operator is None:
            raise SolverError("a CTMC needs a generator matrix or operator")
        self._Q: sp.csr_matrix | None = None if Q is None else sp.csr_matrix(Q)
        self._operator: GeneratorOperator | None = operator
        self.labels = list(labels or [])
        self.action_rates = dict(action_rates or {})
        self.initial = initial

        n, m = self.generator.shape if self._Q is None else self._Q.shape
        if n != m:
            raise SolverError(f"generator must be square, got {(n, m)}")
        if self.labels and len(self.labels) != n:
            raise SolverError("label count does not match state count")
        self._n = n

    # ------------------------------------------------------------------
    # Generator access
    # ------------------------------------------------------------------
    @property
    def materialized(self) -> bool:
        """True when the CSR generator matrix already exists."""
        return self._Q is not None

    @property
    def generator(self) -> GeneratorOperator:
        """The representation-agnostic generator operator."""
        if self._operator is None:
            self._operator = CsrGenerator(self._Q)
        return self._operator

    @property
    def Q(self) -> sp.csr_matrix:
        """The materialised generator.  For descriptor-backed chains
        the first access builds the matrix and emits a
        ``solver.materialize`` event (plus a ``generator.materialize``
        counter) — the observable escape hatch for consumers that
        cannot work matrix-free."""
        if self._Q is None:
            from repro.obs import get_events, get_metrics

            op = self._operator
            self._Q = op.to_csr()
            get_events().emit(
                "solver.materialize",
                states=self._Q.shape[0],
                nnz=int(self._Q.nnz),
                generator=op.description,
            )
            get_metrics().counter("generator.materialize").inc()
        return self._Q

    @property
    def n_states(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        backend = "csr" if self.materialized else self.generator.description
        return f"CTMC(n_states={self._n}, generator={backend})"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate per state (``-diag(Q)``)."""
        if self._Q is not None:
            return -self._Q.diagonal()
        return self.generator.exit_rates()

    def max_exit_rate(self) -> float:
        """The largest exit rate (the uniformization constant's floor)."""
        rates = self.exit_rates()
        return float(rates.max()) if rates.size else 0.0

    def absorbing_states(self) -> np.ndarray:
        """Indices of states with no outgoing transitions."""
        return np.flatnonzero(self.exit_rates() == 0.0)

    def is_irreducible(self) -> bool:
        """True when the chain is one strongly connected component.

        Matrix-free chains answer via support propagation (forward and
        backward reachability closure from state 0 through repeated
        SpMV), so irreducibility checks never force materialisation.
        """
        if self.materialized:
            n_comp, _ = connected_components(self._Q, directed=True, connection="strong")
            return bool(n_comp == 1)
        return bool(
            self._support_closure(forward=True).all()
            and self._support_closure(forward=False).all()
        )

    def _support_closure(self, *, forward: bool) -> np.ndarray:
        """Boolean reachability closure from state 0 along (or against)
        the transition relation, using only generator products."""
        op = self.generator
        exits = self.exit_rates()
        # Qx + exit*x reconstructs the rate-matrix product; tiny
        # cancellation noise is filtered against the rate scale.
        eps = 1e-9 * max(1.0, float(exits.max()) if exits.size else 1.0)
        reached = np.zeros(self._n, dtype=bool)
        reached[0] = True
        frontier = True
        while frontier:
            x = reached.astype(float)
            y = (op.rmatvec(x) if forward else op.matvec(x)) + exits * x
            new = (y > eps) & ~reached
            frontier = bool(new.any())
            reached |= new
        return reached

    def strongly_connected_components(self) -> list[np.ndarray]:
        """SCCs as arrays of state indices, in component-label order."""
        n_comp, labels = connected_components(self.Q, directed=True, connection="strong")
        return [np.flatnonzero(labels == c) for c in range(n_comp)]

    def bottom_sccs(self) -> list[np.ndarray]:
        """Bottom strongly connected components (closed recurrent classes)."""
        Q = self.Q
        n_comp, labels = connected_components(Q, directed=True, connection="strong")
        rows = np.repeat(np.arange(self._n), np.diff(Q.indptr))
        leaving = (Q.data > 0) & (labels[rows] != labels[Q.indices])
        leaves = np.ones(n_comp, dtype=bool)
        leaves[labels[rows[leaving]]] = False
        return [np.flatnonzero(labels == c) for c in np.flatnonzero(leaves)]

    def restricted_to(self, states: np.ndarray) -> "CTMC":
        """The sub-chain on ``states`` (rates leaving the set are dropped
        and the diagonal is rebuilt so rows sum to zero)."""
        states = np.asarray(states, dtype=np.int64)
        sub = self.Q[states][:, states]
        sub.sort_indices()
        rows = np.repeat(np.arange(states.size), np.diff(sub.indptr))
        sub.data[rows == sub.indices] = 0.0
        sub.eliminate_zeros()
        diag = -np.asarray(sub.sum(axis=1)).ravel()
        gen = (sub + sp.diags(diag)).tocsr()
        labels = [self.labels[i] for i in states] if self.labels else []
        actions = {a: v[states] for a, v in self.action_rates.items()}
        return CTMC(gen, labels=labels, action_rates=actions)

    # ------------------------------------------------------------------
    # Derived chains
    # ------------------------------------------------------------------
    def uniformized(self, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
        """The uniformized DTMC ``P = I + Q/Λ`` and the rate ``Λ`` used.

        ``Λ`` defaults to 1.02× the maximum exit rate (strictly above it
        so the chain is aperiodic, which the power method requires).
        """
        lam = rate if rate is not None else max(self.max_exit_rate() * 1.02, 1e-12)
        if lam < self.max_exit_rate():
            raise SolverError(
                f"uniformization rate {lam} is below the maximum exit rate "
                f"{self.max_exit_rate()}"
            )
        n = self.n_states
        P = (sp.identity(n, format="csr") + self.Q.multiply(1.0 / lam)).tocsr()
        return P, lam

    def to_coo_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Off-diagonal (row, col, rate) triplets of the generator."""
        coo = self.Q.tocoo()
        mask = coo.row != coo.col
        return coo.row[mask], coo.col[mask], coo.data[mask]


def build_ctmc(
    n_states: int,
    transitions: list[tuple[int, str, float, int]],
    labels: list[str] | None = None,
    initial: int = 0,
) -> CTMC:
    """Assemble a CTMC from (source, action, rate, target) records.

    Parallel transitions (same endpoints, possibly different actions)
    sum, per the race condition of the multi-transition-system
    semantics.  Self-loops contribute to action throughput but cancel in
    the generator (a CTMC cannot observe them), so they are recorded in
    ``action_rates`` and omitted from ``Q``.

    The assembly is numpy-batched: one pass converts the record list to
    flat arrays, per-action totals accumulate with ``np.add.at`` and the
    off-diagonal COO matrix is built from the masked arrays directly —
    no per-transition Python arithmetic.
    """
    n_trans = len(transitions)
    src = np.empty(n_trans, dtype=np.int64)
    tgt = np.empty(n_trans, dtype=np.int64)
    rates = np.empty(n_trans, dtype=float)
    actions: list[str] = [""] * n_trans
    for k, (source, action, rate, target) in enumerate(transitions):
        src[k] = source
        actions[k] = action
        rates[k] = rate
        tgt[k] = target
    if n_trans and rates.min() <= 0:
        bad = transitions[int(np.flatnonzero(rates <= 0)[0])][2]
        raise SolverError(f"transition rate must be positive, got {bad}")

    action_rates: dict[str, np.ndarray] = {}
    order = {}
    codes = np.empty(n_trans, dtype=np.int64)
    for k, action in enumerate(actions):
        code = order.get(action)
        if code is None:
            code = order[action] = len(order)
        codes[k] = code
    for action, code in order.items():
        vec = np.zeros(n_states)
        mask = codes == code
        np.add.at(vec, src[mask], rates[mask])
        action_rates[action] = vec

    off_mask = src != tgt
    off = sp.coo_matrix(
        (rates[off_mask], (src[off_mask], tgt[off_mask])), shape=(n_states, n_states)
    ).tocsr()
    off.sum_duplicates()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    Q = (off + sp.diags(diag)).tocsr()
    return CTMC(Q, labels=list(labels or []), action_rates=action_rates, initial=initial)
