"""The numerical vector form (NVF) of a replicated PEPA model.

Following Ding & Hillston (*Numerically Representing a Stochastic
Process Algebra*, arXiv:1012.3040), a population model is compiled out
of the SOS semantics into plain numerical data: a coordinate per
replica local state (occupancy counts) and per environment state
(occupancy probability of the single environment entity), plus
**activity matrices** — one sparse (source, target, rate) matrix per
action type — from which the mean-field vector field is evaluated with
a handful of numpy gathers.  The dimension is the number of *local*
states, never the replica count, so evaluating the field (and solving
the fluid ODE in :mod:`repro.fluid.ode`) costs the same at ``N = 10``
and ``N = 10^6``.

The flow of a shared action ``α`` uses the population apparent-rate
law, continuised: with replica-side mass function ``A_α(x) = Σ_s x_s ·
rα(s)`` and environment mass ``E_α(x)`` the total α-flow is
``min(A_α, E_α)`` (a passive side behaves as ``+∞``), split over
individual transitions by their share of their side's mass — exactly
the limit of :meth:`repro.pepa.population.PopulationModel.transitions`
as counts are relaxed to reals.  The approximation is *exact* (not just
asymptotic) whenever every flow is linear in ``x``: pure interleaving,
and shared actions whose environment side is a single-state passive
sink.  The cross-validation battery (:mod:`repro.fluid.crossval`)
exercises both regimes.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from repro.exceptions import WellFormednessError
from repro.fluid.shape import FluidUnsupported, PopulationShape, population_shape
from repro.obs import get_tracer
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.population import PopulationModel
from repro.pepa.rates import Rate
from repro.pepa.syntax import Expression

__all__ = [
    "SharedAction",
    "NumericalVectorForm",
    "compile_nvf",
    "environment_name",
    "nvf_of_model",
]


@dataclass
class _Side:
    """One side of a shared action: its transitions as flat arrays.

    ``src``/``tgt`` index the NVF coordinate vector; ``val`` is the
    active rate or the passive weight of each transition, per ``passive``.
    """

    src: np.ndarray
    tgt: np.ndarray
    val: np.ndarray
    passive: bool

    def mass(self, x: np.ndarray) -> np.ndarray:
        """Per-transition mass ``x[src] · val`` (sums to the side's
        apparent rate — or total passive weight — under ``x``)."""
        return x[self.src] * self.val


@dataclass
class SharedAction:
    """The compiled activity data of one cooperation action type."""

    action: str
    replica: _Side
    environment: _Side

    def total_flow(self, a_repl: float, a_env: float) -> float:
        """``min`` of the two apparent rates, passive = unbounded."""
        if self.replica.passive:
            return a_env
        if self.environment.passive:
            return a_repl
        return min(a_repl, a_env)


#: The two messages for a passive move outside the cooperation set,
#: indexed by side (replica, environment).
_PASSIVE_OUTSIDE = (
    "replica activity ({}) is passive outside the cooperation set; it can "
    "never proceed",
    "environment activity ({}) is passive outside the cooperation set",
)


def environment_name(label: str, replica_names: Collection[str]) -> str:
    """The coordinate name of an environment state: its label, or
    ``env:label`` when a replica local state has the same label."""
    return f"env:{label}" if label in replica_names else label


def _side(action: str, rows: list[tuple[int, int, Rate]], side: str) -> _Side | None:
    """One side's ``(source, target, rate)`` rows of a shared action as
    flat arrays; ``None`` when the side never performs it."""
    if not rows:
        return None
    kinds = {rate.is_passive() for _, _, rate in rows}
    if len(kinds) > 1:
        raise FluidUnsupported(
            f"the {side} side enables shared action ({action}) with a "
            "mix of active and passive rates across its local states; "
            "the fluid apparent rate is undefined for mixed kinds"
        )
    passive = kinds.pop()
    return _Side(
        np.asarray([src for src, _, _ in rows], dtype=np.intp),
        np.asarray([tgt for _, tgt, _ in rows], dtype=np.intp),
        np.asarray(
            [rate.weight if passive else rate.value for _, _, rate in rows],  # type: ignore[union-attr]
            dtype=float,
        ),
        passive,
    )


class NumericalVectorForm:
    """Activity matrices + mean-field vector field of a population model.

    Coordinates ``0 .. n_replica_states-1`` are replica local-state
    occupancies (summing to the replica count ``N``); the remaining
    ``n_env_states`` coordinates are the environment entity's state
    probabilities (summing to 1, absent for environment-free systems).
    Both blocks are read off the population model's local-state table.
    ``names[i]`` is the label of coordinate ``i`` — see
    :func:`environment_name` for the one qualification that keeps the
    names unique.
    """

    def __init__(self, model: PopulationModel):
        table = model.table
        self.replica = model.replica
        self.cooperation = model.cooperation
        # table index -> coordinate, one map per block: the replica and
        # the environment may hold the same term (``(P || P) <a> P``)
        replica = {i: k for k, i in enumerate(model.replica_states.values())}
        offset = len(replica)
        environment = {
            i: offset + k for k, i in enumerate(model.environment_universe)
        }
        self.names: list[str] = list(model.replica_states)
        self.names += [
            environment_name(table.label(i), model.replica_states) for i in environment
        ]
        self.n_replica_states = len(replica)
        self.n_env_states = len(environment)
        self.dimension = len(self.names)
        self._initial_replica = replica[model.initial_replica]
        self._initial_env = (
            environment[table.index[model.environment_component]]
            if model.environment_component is not None
            else None
        )

        # --- one pass over the rows: moves outside the cooperation set
        # are independent (linear) flows, the rest are collected per
        # shared action and side --------------------------------------
        lin: list[tuple[int, int, float, str]] = []  # (source, target, rate, action)
        shared_rows: dict[str, tuple[list, list]] = {
            action: ([], []) for action in model.cooperation
        }
        for side, coords in enumerate((replica, environment)):
            for i, coord in coords.items():
                for action, rate, (j,) in table.rows(i):
                    if action in model.cooperation:
                        shared_rows[action][side].append((coord, coords[j], rate))
                    elif rate.is_passive():
                        raise WellFormednessError(_PASSIVE_OUTSIDE[side].format(action))
                    else:
                        lin.append((coord, coords[j], rate.value, action))
        lin_src, lin_tgt, lin_rate, lin_action = zip(*lin) if lin else ((),) * 4
        self._lin_src = np.asarray(lin_src, dtype=np.intp)
        self._lin_tgt = np.asarray(lin_tgt, dtype=np.intp)
        self._lin_rate = np.asarray(lin_rate, dtype=float)
        self._lin_action = list(lin_action)

        # --- shared activity matrices, one per cooperation action -----
        self.shared: list[SharedAction] = []
        for action in sorted(model.cooperation):
            replica_rows, environment_rows = shared_rows[action]
            repl = _side(action, replica_rows, "replica")
            envs = _side(action, environment_rows, "environment")
            if repl is None or envs is None:
                # One side can never perform the action: it never fires
                # (exactly as the exact population construction skips it).
                continue
            if repl.passive and envs.passive:
                raise WellFormednessError(
                    f"shared activity ({action}) is passive on both sides "
                    "of the cooperation"
                )
            # A passive side contributes no rate bound: the fluid flow
            # equals the active side's apparent rate *only* while the
            # passive side is enabled, and that indicator is identically
            # 1 just when the passive side has a single local state.
            # With several local states the mean-field closure of
            # E[rate · 1{enabled}] is no longer exact (nor even bounded
            # by the available mass), so we refuse rather than integrate
            # a wrong ODE.
            if repl.passive and self.n_replica_states > 1:
                raise FluidUnsupported(
                    f"shared action ({action}) is passive on the replica "
                    f"side, whose component has {self.n_replica_states} "
                    "local states; passive cooperation is only fluid-sound "
                    "for single-state sides — give the activity a finite "
                    "rate instead of T"
                )
            if envs.passive and self.n_env_states > 1:
                raise FluidUnsupported(
                    f"shared action ({action}) is passive on the "
                    f"environment side, which has {self.n_env_states} "
                    "states; passive cooperation is only fluid-sound for "
                    "single-state sides — give the activity a finite rate "
                    "instead of T"
                )
            self.shared.append(SharedAction(action, repl, envs))

        rates = [float(r) for r in self._lin_rate]
        for sa in self.shared:
            rates.extend(float(v) for v in sa.replica.val if not sa.replica.passive)
            rates.extend(
                float(v) for v in sa.environment.val if not sa.environment.passive
            )
        #: Largest rate constant appearing in any flow — the scale
        #: against which residuals are judged in the ODE analyzer.
        self.rate_scale = max(rates, default=1.0)
        self.n_flows = len(self._lin_rate) + sum(
            len(sa.replica.val) + len(sa.environment.val) for sa in self.shared
        )

    # ------------------------------------------------------------------
    def initial_vector(self, n_replicas: int) -> np.ndarray:
        """All ``n_replicas`` mass on the replica constant, environment
        at its start state with probability 1."""
        x = np.zeros(self.dimension)
        x[self._initial_replica] = float(n_replicas)
        if self._initial_env is not None:
            x[self._initial_env] = 1.0
        return x

    def vector_field(self, x: np.ndarray) -> np.ndarray:
        """``dx/dt`` of the mean-field ODE at occupancy vector ``x``."""
        dx = np.zeros(self.dimension)
        if len(self._lin_rate):
            flow = self._lin_rate * x[self._lin_src]
            np.add.at(dx, self._lin_tgt, flow)
            np.add.at(dx, self._lin_src, -flow)
        for sa in self.shared:
            p = sa.replica.mass(x)
            q = sa.environment.mass(x)
            a_repl = float(p.sum())
            a_env = float(q.sum())
            if a_repl <= 0.0 or a_env <= 0.0:
                continue
            total = sa.total_flow(a_repl, a_env)
            fr = p * (total / a_repl)
            np.add.at(dx, sa.replica.tgt, fr)
            np.add.at(dx, sa.replica.src, -fr)
            fe = q * (total / a_env)
            np.add.at(dx, sa.environment.tgt, fe)
            np.add.at(dx, sa.environment.src, -fe)
        return dx

    def action_flows(self, x: np.ndarray) -> dict[str, float]:
        """Steady flow (throughput) of every action type under ``x``."""
        flows: dict[str, float] = {}
        if len(self._lin_rate):
            per = self._lin_rate * x[self._lin_src]
            for action, f in zip(self._lin_action, per):
                flows[action] = flows.get(action, 0.0) + float(f)
        for sa in self.shared:
            a_repl = float(sa.replica.mass(x).sum())
            a_env = float(sa.environment.mass(x).sum())
            if a_repl <= 0.0 or a_env <= 0.0:
                flows.setdefault(sa.action, 0.0)
                continue
            flows[sa.action] = flows.get(sa.action, 0.0) + sa.total_flow(a_repl, a_env)
        return flows

    def activity_matrices(self) -> dict[str, list[tuple[str, str, float]]]:
        """The per-action activity matrices as (source, target, value)
        triples over coordinate names — the NVF rendered for humans
        (passive entries carry the weight)."""
        out: dict[str, list[tuple[str, str, float]]] = {}
        for action, s, t, r in zip(
            self._lin_action, self._lin_src, self._lin_tgt, self._lin_rate
        ):
            out.setdefault(action, []).append(
                (self.names[s], self.names[t], float(r))
            )
        for sa in self.shared:
            rows = out.setdefault(sa.action, [])
            for side in (sa.replica, sa.environment):
                for s, t, v in zip(side.src, side.tgt, side.val):
                    rows.append((self.names[s], self.names[t], float(v)))
        return out

    def conservation_classes(self) -> list[tuple[np.ndarray, float | None]]:
        """Index blocks whose coordinate sums are invariants: the replica
        block (sums to ``N``) and the environment block (sums to 1).
        The invariant value for the replica block is ``None`` — it
        depends on the replica count the caller analyses."""
        classes: list[tuple[np.ndarray, float | None]] = [
            (np.arange(self.n_replica_states, dtype=np.intp), None)
        ]
        if self.n_env_states:
            classes.append(
                (np.arange(self.n_replica_states, self.dimension, dtype=np.intp), 1.0)
            )
        return classes


def compile_nvf(
    env: Environment,
    replica: str,
    environment_component: Expression | None,
    cooperation: frozenset[str] | set[str],
) -> NumericalVectorForm:
    """Compile the NVF of ``replica^N <L> environment`` (any ``N``)."""
    with get_tracer().span("fluid.compile", replica=replica) as span:
        model = PopulationModel(
            env, replica, 1, environment_component, frozenset(cooperation)
        )
        nvf = NumericalVectorForm(model)
        span.set(dimension=nvf.dimension, flows=nvf.n_flows)
    return nvf


def nvf_of_model(
    model: PepaModel, replicas: int | None = None
) -> tuple[NumericalVectorForm, PopulationShape, int]:
    """Recognise ``model``'s population shape and compile its NVF.

    Returns ``(nvf, shape, n)`` where ``n`` is ``replicas`` when given
    (overriding the replica count spelled out in the system equation),
    else the count the equation spells out.  Raises
    :class:`~repro.fluid.shape.FluidUnsupported` outside the population
    shape.
    """
    shape = population_shape(model)
    n = shape.n_replicas if replicas is None else int(replicas)
    if n < 1:
        raise WellFormednessError("need at least one replica")
    nvf = compile_nvf(
        model.environment, shape.replica, shape.environment, shape.cooperation
    )
    return nvf, shape, n
