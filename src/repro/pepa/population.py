"""Population (counting) semantics for replicated components.

The client/server families that drive state-space explosion have a
well-known cure: when ``n`` identical sequential components run in pure
interleaving, global states that differ only by *which* replica is in
which local state are lumpable, and the quotient is the **population
CTMC** whose states count replicas per local state.  The state count
drops from ``|ds(P)|^n`` to ``C(n + |ds(P)| - 1, |ds(P)| - 1)`` —
polynomial instead of exponential.

We implement the construction for the system shape

    (P || P || ... || P)  <L>  Q

(``n`` replicas of one sequential component cooperating with an
arbitrary — typically small — environment component ``Q``):

* an *individual* activity of a replica in local state ``s`` with rate
  ``r`` occurs at population rate ``n_s · r``;
* a *shared* activity ``α ∈ L`` follows the apparent-rate law with the
  replica side's apparent rate ``Σ_s n_s · rα(s)`` — exactly what the
  unfolded cooperation would compute, because apparent rates add across
  interleaved replicas;
* ``Q``'s independent activities are unchanged.

The result is exact: the tests verify that every measure (throughput,
local-state probabilities scaled by counts) matches the unfolded model
on instances small enough to unfold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.ctmcgen import ctmc_from_lts
from repro.core.explore import explore_lts
from repro.ctmc.chain import CTMC
from repro.exceptions import WellFormednessError
from repro.pepa.compiled import LocalStates
from repro.pepa.environment import Environment
from repro.pepa.rates import ActiveRate, PassiveRate, Rate, cooperation_rate, rate_sum
from repro.pepa.syntax import Const, Expression, Sequential

__all__ = [
    "PopulationState",
    "PopulationModel",
    "population_ctmc",
]

#: Bound on the local states of the replica and of the environment.
MAX_LOCAL_STATES = 100_000


@dataclass(frozen=True)
class PopulationState:
    """(counts per replica local state, environment state).

    ``environment_state`` is ``None`` for environment-free systems
    (pure interleaving of replicas, no cooperation).
    """

    counts: tuple[tuple[str, int], ...]  # sorted (local-state-name, n>0)
    environment_state: Expression | None

    def count_of(self, local_state: str) -> int:
        """How many replicas currently occupy the given local state."""
        return dict(self.counts).get(local_state, 0)

    def total(self) -> int:
        """The total replica count (invariant across the state space)."""
        return sum(n for _, n in self.counts)

    def __str__(self) -> str:
        pops = ", ".join(f"{name}:{n}" for name, n in self.counts)
        if self.environment_state is None:
            return f"[{pops}]"
        return f"[{pops}] | {self.environment_state}"


class PopulationModel:
    """The counting-semantics model for ``replica^n <L> environment``.

    Replica and environment draw their local states from one
    :class:`~repro.pepa.compiled.LocalStates` table: ``replica_states``
    maps each replica local state's label to its table index (in label
    order), and the environment — whatever its structure — is one
    whole-expression local state per reachable environment term.
    """

    def __init__(
        self,
        env: Environment,
        replica: str,
        n_replicas: int,
        environment_component: Expression | None,
        cooperation: frozenset[str],
    ):
        if n_replicas < 1:
            raise WellFormednessError("need at least one replica")
        if environment_component is None and cooperation:
            raise WellFormednessError(
                "a cooperation set needs an environment component to "
                "cooperate with; pure interleaving has an empty set"
            )
        self.env = env
        self.replica = replica
        self.n = n_replicas
        self.environment_component = environment_component
        self.cooperation = cooperation
        self.table = table = LocalStates(env)
        self.initial_replica = table.intern(Const(replica))
        closure = table.closure(self.initial_replica, MAX_LOCAL_STATES)
        for i in closure:
            if not isinstance(table.exprs[i], Sequential):
                raise WellFormednessError(
                    f"token family {replica!r} evolves to a non-sequential term"
                )
        #: label -> table index of every replica local state, by label.
        self.replica_states: dict[str, int] = {
            table.label(i): i for i in sorted(closure, key=table.label)
        }

    @cached_property
    def environment_universe(self) -> list[int]:
        """Table indices of every state the environment can reach through
        its own rows, by label (empty without an environment)."""
        if self.environment_component is None:
            return []
        table = self.table
        closure = table.closure(table.intern(self.environment_component), MAX_LOCAL_STATES)
        return sorted(closure, key=table.label)

    # ------------------------------------------------------------------
    def initial_state(self) -> PopulationState:
        """All replicas in the start state, environment at its start."""
        name = self.table.label(self.initial_replica)
        return PopulationState(((name, self.n),), self.environment_component)

    def replica_apparent_rate(self, state: PopulationState, action: str) -> Rate | None:
        """Apparent rate of the whole population: Σ n_s · rα(s)."""
        total: Rate | None = None
        for name, count in state.counts:
            single = self.table.apparent(self.replica_states[name], action)
            if single is None:
                continue
            scaled = _scale(single, count)
            total = scaled if total is None else rate_sum(total, scaled)
        return total

    def transitions(self, state: PopulationState) -> list[tuple[str, float, PopulationState]]:
        """All outgoing (action, rate, successor) of a population state."""
        table = self.table
        out: list[tuple[str, float, PopulationState]] = []
        counts = dict(state.counts)
        env_state = state.environment_state
        env_index = None if env_state is None else table.intern(env_state)
        env_rows = [] if env_index is None else table.rows(env_index)
        # --- independent replica moves (action not in L) --------------
        for name, n in state.counts:
            for action, rate, (j,) in table.rows(self.replica_states[name]):
                if action in self.cooperation:
                    continue
                if rate.is_passive():
                    raise WellFormednessError(
                        f"replica activity ({action}) is passive outside "
                        "the cooperation set; it can never proceed"
                    )
                successor = _move(counts, name, table.label(j))
                out.append((action, n * rate.value,
                            PopulationState(successor, env_state)))
        # --- independent environment moves -----------------------------
        for action, rate, (j,) in env_rows:
            if action in self.cooperation:
                continue
            if rate.is_passive():
                raise WellFormednessError(
                    f"environment activity ({action}) is passive outside "
                    "the cooperation set"
                )
            out.append((action, rate.value,
                        PopulationState(state.counts, table.exprs[j])))
        # --- shared activities ------------------------------------------
        for action in sorted(self.cooperation):
            pop_apparent = self.replica_apparent_rate(state, action)
            env_apparent = table.apparent(env_index, action)
            if pop_apparent is None or env_apparent is None:
                continue
            for name, n in state.counts:
                for ra, rate, (j,) in table.rows(self.replica_states[name]):
                    if ra != action:
                        continue
                    replica_rate = _scale(rate, n)
                    for ea, env_rate, (k,) in env_rows:
                        if ea != action:
                            continue
                        joint = cooperation_rate(
                            replica_rate, env_rate, pop_apparent, env_apparent
                        )
                        if joint.is_passive():
                            raise WellFormednessError(
                                f"shared activity ({action}) is passive on "
                                "both sides of the cooperation"
                            )
                        successor = _move(counts, name, table.label(j))
                        out.append((action, joint.value,
                                    PopulationState(successor, table.exprs[k])))
        return out


def _scale(rate: Rate, factor: int) -> Rate:
    if factor == 1:
        return rate
    if rate.is_passive():
        assert isinstance(rate, PassiveRate)
        return PassiveRate(rate.weight * factor)
    return ActiveRate(rate.value * factor)


def _move(counts: dict[str, int], source: str, target: str) -> tuple[tuple[str, int], ...]:
    nxt = dict(counts)
    nxt[source] -= 1
    nxt[target] = nxt.get(target, 0) + 1
    return tuple(sorted((k, v) for k, v in nxt.items() if v > 0))


def population_ctmc(
    env: Environment,
    replica: str,
    n_replicas: int,
    environment_component: Expression | None,
    cooperation: frozenset[str] | set[str],
    *,
    max_states: int = 1_000_000,
) -> tuple[list[PopulationState], CTMC]:
    """Explore the population state space and build its CTMC.

    The states are listed in breadth-first discovery order, the initial
    state (all replicas at the replica constant) first.
    """
    model = PopulationModel(
        env, replica, n_replicas, environment_component, frozenset(cooperation)
    )
    space = explore_lts(
        model.initial_state(), model.transitions,
        stage="pepa.population", max_states=max_states,
        span_attrs={"replica": replica, "replicas": n_replicas},
        overflow=lambda limit: f"population space exceeds {limit} states",
    )
    return space.states, ctmc_from_lts(space)
