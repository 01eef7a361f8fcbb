"""State-space derivation: from a PEPA expression to a labelled
multi-transition system (LTS).

The derivation graph of a PEPA model, with each distinct derivative as a
state and activities as labelled arcs, *is* the CTMC skeleton: treating
each state as a CTMC state and summing activity rates per (source,
target) pair yields the generator matrix (done in
:mod:`repro.pepa.ctmcgen`).

Exploration runs on the shared breadth-first kernel
(:func:`repro.core.explore.explore_lts`) with a configurable state
bound — the paper is explicit that susceptibility to state-space
explosion is the price of exact numerical solution, so we surface the
bound as a first-class error instead of letting memory blow up.  The
kernel walks tuples of local-state indices of the compiled model
(:mod:`repro.pepa.compiled`); the expressions are rebuilt from them
only when ``states`` is first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.explore import DEFAULT_MAX_STATES, explore_lts
from repro.core.lts import LabelledArc, Lts
from repro.exceptions import WellFormednessError
from repro.pepa.compiled import CompiledModel
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.syntax import Expression

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget

__all__ = ["LabelledArc", "StateSpace", "explore", "derive"]


class StateSpace(Lts):
    """The reachable derivation graph of a model.

    ``states[i]`` is the expression for state ``i``; ``arcs`` is the
    multiset of labelled transitions; ``initial`` is always 0.  All
    accessors (``successors``, ``arcs_by_action``, ``deadlocks``,
    ``actions``, ...) come from :class:`repro.core.lts.Lts`.  An explored
    space keeps the index tuples as ``keys`` and its
    :class:`~repro.pepa.compiled.CompiledModel` as ``codec``; one read
    back from the derivation cache holds the expressions themselves.
    """

    states: list[Expression]


def _overflow(max_states: int) -> str:
    return (
        f"state space exceeds the configured bound of {max_states} states; "
        "raise max_states or aggregate the model"
    )


def explore(
    initial: Expression,
    env: Environment,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    exclude: frozenset[str] = frozenset(),
    budget: "ExecutionBudget | None" = None,
) -> StateSpace:
    """Breadth-first derivation of the reachable state space.

    ``exclude`` suppresses the given action types (used by the PEPA-net
    layer to keep firings out of local derivation).  ``budget`` adds a
    cooperative wall-clock/state-count guard checked once per explored
    state; when it runs out a
    :class:`~repro.exceptions.BudgetExceededError` carrying the partial
    frontier size and a resumable summary is raised instead of the
    search silently grinding on.

    The system is compiled once (:class:`~repro.pepa.compiled.CompiledModel`)
    and the kernel explores tuples of local-state indices; discovery
    order, arcs and rates are those of the SOS derivation
    (:func:`~repro.pepa.semantics.derivatives`) on the expressions.
    """
    model = CompiledModel(initial, env, exclude=exclude)

    def successors(v: tuple[int, ...]) -> list[tuple[str, float, tuple[int, ...]]]:
        out = []
        for action, rate, target in model.moves(v):
            if rate.is_passive():
                raise WellFormednessError(
                    f"activity ({action}, {rate}) of state {model.label(v)} is passive "
                    "at the top level: the system equation leaves it without an "
                    "active partner"
                )
            out.append((action, rate.value, target))
        return out

    lts = explore_lts(
        model.initial,
        successors,
        stage="pepa.statespace",
        budget_stage="pepa state space",
        max_states=max_states,
        budget=budget,
        overflow=_overflow,
    )
    model.forget_moves()
    return StateSpace(lts.keys, lts.arcs, codec=model)


#: Payload schema of cached PEPA state spaces; bump on layout changes.
#: ``/2``: pickled expressions leave out their per-process cached hash.
CACHE_SCHEMA = "repro-statespace/2"


def derive(
    model: PepaModel,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> StateSpace:
    """Derive the state space of a complete model's system equation.

    When an ambient :class:`~repro.batch.cache.DerivationCache` is
    installed (see :func:`repro.batch.cache.use_cache`), the derivation
    is content-addressed by the model's canonical source text: a hit
    reconstructs the state space from disk and skips exploration
    entirely (no ``pepa.statespace`` span, no explored-state counters —
    only ``cache.hit``); a miss explores as usual and publishes the
    result.  A cached space larger than ``max_states`` is rejected so
    the ceiling keeps its meaning, and exploration (which will raise
    the usual overflow error) runs instead.
    """
    from repro.batch.cache import get_cache

    cache = get_cache()
    if cache is None:
        return explore(
            model.system, model.environment, max_states=max_states, budget=budget
        )

    from repro.core.keys import DerivationKey
    from repro.pepa.export import model_source

    key = DerivationKey.of("pepa", model_source(model))
    payload = cache.fetch(key)
    if (
        payload is not None
        and payload.get("schema") == CACHE_SCHEMA
        and len(payload.get("states", ())) <= max_states
    ):
        space = StateSpace(states=payload["states"], arcs=payload["arcs"])
        space.cache_key = key
        return space
    space = explore(
        model.system, model.environment, max_states=max_states, budget=budget
    )
    cache.store(
        key, {"schema": CACHE_SCHEMA, "states": space.states, "arcs": space.arcs}
    )
    space.cache_key = key
    return space
