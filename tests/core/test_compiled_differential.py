"""Differential battery: compiled exploration against the SOS reference.

``pepa.statespace.explore`` and ``pepanets.semantics.explore_net`` walk
tuples of local-state indices of a compiled model.  The reference here
is a plain breadth-first search over expressions, driven by the
executable semantics — :func:`repro.pepa.semantics.derivatives` for PEPA
and :func:`repro.pepanets.semantics.net_arcs` for nets.  Both must give
the same ordered state labels, the same ordered arcs with bit-identical
rates, and — for ill-formed models — the same error with the same
message.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import RateError, WellFormednessError
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.rates import ActiveRate, PassiveRate
from repro.pepa.semantics import derivatives
from repro.pepa.statespace import explore
from repro.pepa.syntax import Choice, Const, Cooperation, Hiding, Prefix
from repro.pepanets.firing import DerivativeSets
from repro.pepanets.parser import parse_net
from repro.pepanets.semantics import explore_net, net_arcs
from repro.scenarios.generator import generate_scenario


# ----------------------------------------------------------------------
# The reference: breadth-first search over expressions
# ----------------------------------------------------------------------
def _bfs(initial, successors) -> dict:
    index = {initial: 0}
    states = [initial]
    arcs = []
    k = 0
    while k < len(states):
        for action, rate, target in successors(states[k]):
            j = index.get(target)
            if j is None:
                j = index[target] = len(states)
                states.append(target)
            arcs.append((k, action, rate, j))
        k += 1
    return {"labels": [str(s) for s in states], "arcs": arcs}


def _reference_pepa(model: PepaModel) -> dict:
    env = model.environment

    def successors(state):
        out = []
        for tr in derivatives(state, env):
            if tr.rate.is_passive():
                raise WellFormednessError(
                    f"activity ({tr.action}, {tr.rate}) of state {state} is passive at "
                    "the top level: the system equation leaves it without an active "
                    "partner"
                )
            out.append((tr.action, tr.rate.value, tr.target))
        return out

    return _bfs(model.system, successors)


def _reference_net(net) -> dict:
    ds = DerivativeSets(net.environment)
    return _bfs(net.initial_marking(), lambda marking: net_arcs(net, marking, ds))


def _snapshot(space) -> dict:
    labels = [space.state_label(i) for i in range(space.size)]
    # the decoded objects print as their labels and index back to i
    states = space.states
    assert [str(s) for s in states] == labels
    assert all(space.index[s] == i for i, s in enumerate(states))
    return {
        "labels": labels,
        "arcs": [(a.source, a.action, a.rate, a.target) for a in space.arcs],
    }


def _outcome(run) -> tuple:
    try:
        return ("ok", run())
    except (WellFormednessError, RateError) as exc:
        return (type(exc).__name__, str(exc))


def _assert_same(reference, compiled) -> None:
    expected = _outcome(reference)
    actual = _outcome(compiled)
    assert actual[0] == expected[0], (expected, actual)
    if expected[0] != "ok":
        assert actual[1] == expected[1]
        return
    assert actual[1]["labels"] == expected[1]["labels"], "state order or labels differ"
    assert actual[1]["arcs"] == expected[1]["arcs"], "arcs or rates differ"


# ----------------------------------------------------------------------
# PEPA: hypothesis-drawn models
# ----------------------------------------------------------------------
ACTIONS = ["a", "b", "c", "d"]
N_CONSTANTS = 4


@st.composite
def _rates(draw):
    if draw(st.integers(0, 3)) == 0:
        return PassiveRate(draw(st.sampled_from([0.5, 1.0, 2.0])))
    return ActiveRate(draw(st.floats(0.1, 9.0, allow_nan=False)))


@st.composite
def _bodies(draw):
    """A guarded choice of one to three prefixes over constants."""
    branches = [
        Prefix(draw(st.sampled_from(ACTIONS)), draw(_rates()),
               Const(f"C{draw(st.integers(0, N_CONSTANTS - 1))}"))
        for _ in range(draw(st.integers(1, 3)))
    ]
    body = branches[0]
    for branch in branches[1:]:
        body = Choice(body, branch)
    return body


@st.composite
def _systems(draw, depth: int):
    kind = draw(st.integers(0, 5)) if depth > 0 else 0
    if kind <= 1:
        if draw(st.booleans()):
            return Const(f"C{draw(st.integers(0, N_CONSTANTS - 1))}")
        return draw(_bodies())
    if kind == 2:
        hidden = draw(st.sets(st.sampled_from(ACTIONS), min_size=1, max_size=2))
        return Hiding(draw(_systems(depth - 1)), frozenset(hidden))
    actions = draw(st.sets(st.sampled_from(ACTIONS), max_size=3))
    return Cooperation(draw(_systems(depth - 1)), draw(_systems(depth - 1)),
                       frozenset(actions))


@st.composite
def pepa_models(draw) -> PepaModel:
    env = Environment()
    for i in range(N_CONSTANTS):
        env.define(f"C{i}", draw(_bodies()))
    return PepaModel(env, draw(_systems(2)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pepa_models())
def test_pepa_exploration_matches_sos_reference(model):
    _assert_same(
        lambda: _reference_pepa(model),
        lambda: _snapshot(explore(model.system, model.environment)),
    )


def _model(system, **bodies) -> PepaModel:
    env = Environment()
    for name, body in bodies.items():
        env.define(name, body)
    return PepaModel(env, system)


def test_passive_at_top_level_keeps_its_message():
    model = _model(
        Cooperation(Const("P"), Const("Q"), frozenset()),
        P=Prefix("a", PassiveRate(2.0), Const("P")),
        Q=Prefix("b", ActiveRate(1.0), Const("Q")),
    )
    kind, message = _outcome(lambda: _snapshot(explore(model.system, model.environment)))
    assert kind == "WellFormednessError"
    assert message == (
        "activity (a, 2*T) of state P || Q is passive at the top level: the system "
        "equation leaves it without an active partner"
    )


def test_mixed_active_passive_apparent_rate_keeps_its_message():
    mixed = Choice(Prefix("a", ActiveRate(1.0), Const("P")),
                   Prefix("a", PassiveRate(1.0), Const("P")))
    model = _model(
        Cooperation(Const("P"), Const("Q"), frozenset({"a"})),
        P=mixed, Q=Prefix("a", ActiveRate(2.0), Const("Q")),
    )
    reference = _outcome(lambda: _reference_pepa(model))
    assert reference[0] == "RateError" and "active and passive" in reference[1]
    _assert_same(lambda: _reference_pepa(model),
                 lambda: _snapshot(explore(model.system, model.environment)))


# ----------------------------------------------------------------------
# PEPA nets: the scenario corpus and hand-built edge cases
# ----------------------------------------------------------------------
def test_first_200_scenario_nets_match_reference():
    for seed in range(200):
        net = generate_scenario(seed).build_net()
        _assert_same(lambda: _reference_net(net), lambda: _snapshot(explore_net(net)))


EDGE_NETS = {
    # three tokens in one place, two drawn at a time, at unequal rates
    "multi_draw": """
        Tok = (pair, 1.0).Tok2 + (local, 0.5).Tok;
        Tok2 = (back, 2.0).Tok;
        Tok3 = (pair, 3.0).Tok2;
        Src[Tok, Tok3, Tok] = Tok[_] || Tok[_] || Tok[_];
        Dst[_, _] = Tok[_] || Tok[_];
        pair = (pair, 3.0) : Src, Src -> Dst, Dst;
        back = (back, 1.0) : Dst -> Src;
    """,
    # the higher-priority transition pre-empts its rival when enabled
    "priorities": """
        Msg = (go, 1.0).Msg;
        A[Msg] = Msg[_];
        B[_] = Msg[_];
        C[_] = Msg[_];
        fast = (go, 2.0, 3) : A -> B;
        slow = (go, 5.0, 1) : A -> C;
        home_b = (go, 1.0, 1) : B -> A;
        home_c = (go, 1.0, 1) : C -> A;
    """,
    # passive labels against active tokens and the reverse, and a join
    # of an active and a passive place under a passive label
    "passive_labels": """
        Act = (hop, 2.0).Act + (hop, 3.0).Act;
        Pas = (hop, 2*T).Pas;
        A[Act] = Act[_];
        B[_] = Act[_];
        C[Pas] = Pas[_];
        D[_] = Pas[_];
        there = (hop, T) : A -> B;
        back = (hop, 4.0) : B -> A;
        pas = (hop, 4.0) : C -> D;
        join = (hop, T) : B, D -> A, C;
    """,
    # several type-preserving bijections: equal vacant cells, repeated outputs
    "bijections": """
        Tok = (move, 1.0).Tok + (work, 2.0).Tok;
        In[Tok, Tok] = Tok[_] <work> Tok[_];
        Out[_, _, _] = Tok[_] || (Tok[_] || Tok[_]);
        move = (move, 2.0) : In, In -> Out, Out;
        back = (move, 1.0) : Out -> In;
    """,
    # a token deposited into a cell of another family that admits it
    "cross_family": """
        Agent = (move, 1.0).Agent2;
        Agent2 = (work, 2.0).Agent + (move, 1.5).Agent;
        Host = (work, 2.0).Agent;
        Home[Agent] = Agent[_];
        Away[_] = Host[_];
        Lost[_] = Other[_];
        Other = (idle, 1.0).Other;
        there = (move, 1.0) : Home -> Away;
        lost = (move, 1.0) : Home -> Lost;
        back = (move, 1.0) : Away -> Home;
    """,
    # static components, hiding over cells, a cell in a cooperation
    "static_context": """
        File = (read, 2.0).File + (go, 1.0).File;
        Reader = (read, T).Reader;
        P1[File] = (File[_] <read> Reader)/{read};
        P2[_] = File[_]/{read};
        go = (go, 1.0) : P1 -> P2;
        come = (go, 1.0) : P2 -> P1;
    """,
    # a place whose tokens mix active and passive rates for one firing type
    "mixed_place_rates": """
        Act = (hop, 2.0).Act;
        Pas = (hop, T).Pas;
        P1[Act, Pas] = Act[_] || Pas[_];
        P2[_] = Act[_];
        hop = (hop, 1.0) : P1 -> P2;
    """,
    # an all-passive firing
    "all_passive": """
        Pas = (hop, T).Pas;
        P1[Pas] = Pas[_];
        P2[_] = Pas[_];
        hop = (hop, T) : P1 -> P2;
    """,
    # a passive local activity with no partner in its place
    "passive_local": """
        Tok = (work, T).Tok + (hop, 1.0).Tok;
        P1[Tok] = Tok[_];
        P2[_] = Tok[_];
        hop = (hop, 1.0) : P1 -> P2;
    """,
}


def _edge(name: str):
    return parse_net(EDGE_NETS[name])


def test_net_edge_cases_match_reference():
    for name in EDGE_NETS:
        net = _edge(name)
        _assert_same(lambda: _reference_net(net), lambda: _snapshot(explore_net(net)))


def test_edge_cases_exercise_what_they_name():
    """Guard against vacuous edge cases: each reaches its feature."""
    outcome = {name: _outcome(lambda: _snapshot(explore_net(_edge(name))))
               for name in EDGE_NETS}
    pair_rates = {a[2] for a in outcome["multi_draw"][1]["arcs"] if a[1] == "pair"}
    assert len(pair_rates) > 1                      # weighted unordered 2-subsets
    prio = outcome["priorities"][1]
    assert not any("C: Msg[Msg]" in label for label in prio["labels"])
    assert {a[1] for a in outcome["passive_labels"][1]["arcs"]} == {"hop"}
    # two tokens into three equal vacant cells: six bijections, equal shares
    first = [a for a in outcome["bijections"][1]["arcs"] if a[0] == 0 and a[1] == "move"]
    assert len(first) == 6 and len({a[2] for a in first}) == 1
    assert any("Host[Agent2]" in label for label in outcome["cross_family"][1]["labels"])
    assert not any("Other[Agent2]" in label for label in outcome["cross_family"][1]["labels"])
    assert outcome["static_context"][0] == "ok"
    assert outcome["mixed_place_rates"] == (
        "WellFormednessError",
        "place 'P1' mixes active and passive tokens for firing type 'hop'; "
        "the apparent rate is undefined",
    )
    assert outcome["all_passive"] == (
        "WellFormednessError",
        "net transition 'hop': the label and every participating token are "
        "passive; the firing rate is undefined",
    )
    assert outcome["passive_local"] == (
        "WellFormednessError",
        "place 'P1': local activity (work, T) is passive at place level and has "
        "no partner",
    )
