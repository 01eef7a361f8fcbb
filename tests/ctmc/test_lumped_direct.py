"""Differential battery: the lumped ``direct`` solve against plain LU.

``direct`` solves on the chain's coarsest strictly lumpable quotient and
lifts π back evenly within blocks.  Every case here compares that
answer with an in-test reference — sparse LU on ``Qᵀπ = 0`` with the
last row replaced by ``Σπ = 1``, on the full chain — to 1e-12 in π and
in the relative residual ``‖πQ‖∞ / max exit rate``.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.ctmcgen import ctmc_from_lts
from repro.ctmc import build_ctmc, lump
from repro.ctmc import steady as steady_module
from repro.ctmc.lumping import coarsest_lumping, strict_lumping, verify_lumpable
from repro.ctmc.steady import LUMPED_RESIDUAL, steady_state
from repro.exceptions import SolverError
from repro.obs import EventStream, MetricsRegistry, Tracer, use_events, use_metrics, use_tracer
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.rates import ActiveRate, PassiveRate
from repro.pepa.statespace import derive
from repro.pepa.syntax import Choice, Const, Cooperation, Prefix
from repro.pepanets.semantics import explore_net
from repro.scenarios.generator import corpus_net
from repro.workloads import (
    client_server_model,
    courier_ring_net,
    roaming_fleet_net,
    symmetric_branches_model,
)

TOLERANCE = 1e-12


def reference_pi(chain) -> np.ndarray:
    """Plain augmented-row LU on the full (irreducible) chain."""
    Q = chain.Q
    n = Q.shape[0]
    A = Q.transpose().tolil()
    A[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = np.clip(spla.spsolve(A.tocsc(), b), 0.0, None)
    return pi / pi.sum()


def relative_residual(chain, pi) -> float:
    return float(np.abs(chain.generator.rmatvec(pi)).max()) / chain.max_exit_rate()


def assert_matches_reference(chain, pi) -> None:
    ref = reference_pi(chain)
    assert np.abs(pi - ref).max() <= TOLERANCE
    assert relative_residual(chain, pi) <= TOLERANCE


def pepa_chain(model):
    return ctmc_from_statespace(derive(model), environment=model.environment)


def net_chain(net):
    return ctmc_from_lts(explore_net(net))


def blocks_of(chain) -> int:
    return int(strict_lumping(chain.Q).max()) + 1


def solve_traced(chain, **kwargs):
    tracer = Tracer()
    with use_tracer(tracer):
        pi = steady_state(chain, method="direct", **kwargs)
    return pi, tracer.roots[-1]


# ----------------------------------------------------------------------
# Model families
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_clients", range(2, 10))
def test_client_server_family(n_clients):
    chain = pepa_chain(client_server_model(n_clients))
    pi, span = solve_traced(chain)
    assert_matches_reference(chain, pi)
    # n interchangeable clients: 2n + 1 blocks of states
    assert span.attributes["blocks"] == 2 * n_clients + 1 < chain.n_states
    assert span.attributes["lumped"] is True


@pytest.mark.parametrize("net", [courier_ring_net(4, 2), courier_ring_net(5, 3),
                                 roaming_fleet_net(2, 3), roaming_fleet_net(3, 4)],
                         ids=["courier_4x2", "courier_5x3", "fleet_2x3", "fleet_3x4"])
def test_symmetric_nets(net):
    chain = net_chain(net)
    pi, span = solve_traced(chain, reducible="bscc")
    members = chain.bottom_sccs()[0]
    sub = chain.restricted_to(members)
    assert np.all(pi[np.setdiff1d(np.arange(chain.n_states), members)] == 0.0)
    assert_matches_reference(sub, pi[members])
    assert span.attributes["lumped"] is True
    assert span.attributes["blocks"] < members.size


@pytest.mark.parametrize("n_branches", [1, 4, 32])
def test_symmetric_branches(n_branches):
    chain = pepa_chain(symmetric_branches_model(n_branches))
    pi = steady_state(chain, method="direct")
    assert_matches_reference(chain, pi)
    assert blocks_of(chain) == min(2, chain.n_states)


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_reducible_corpus_nets_under_bscc(seed):
    chain = net_chain(corpus_net(seed))
    bsccs = chain.bottom_sccs()
    if len(bsccs) != 1:
        pytest.skip("several bottom components: no unique steady state")
    pi = steady_state(chain, method="direct", reducible="bscc")
    members = bsccs[0]
    assert pi[members].sum() == pytest.approx(1.0, abs=1e-15)
    if members.size > 1:
        assert_matches_reference(chain.restricted_to(members), pi[members])


def test_reducible_corpus_includes_transient_states():
    reducible = [seed for seed in range(0, 40, 3)
                 if not net_chain(corpus_net(seed)).is_irreducible()]
    assert len(reducible) >= 5


# ----------------------------------------------------------------------
# Hypothesis-drawn PEPA models with replicated components
# ----------------------------------------------------------------------
ACTIONS = ["a", "b", "c"]
N_CONSTANTS = 3


@st.composite
def replicated_models(draw) -> PepaModel:
    """``C0 || ... || C0 <L> Ck``: replicas make strict lumping likely;
    rates come from a small set so equal rates recur."""
    env = Environment()
    for i in range(N_CONSTANTS):
        branches = [
            Prefix(draw(st.sampled_from(ACTIONS)),
                   ActiveRate(draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))),
                   Const(f"C{draw(st.integers(0, N_CONSTANTS - 1))}"))
            for _ in range(draw(st.integers(1, 2)))
        ]
        body = branches[0]
        for branch in branches[1:]:
            body = Choice(body, branch)
        env.define(f"C{i}", body)
    replicas = Const("C0")
    for _ in range(draw(st.integers(0, 3))):
        replicas = Cooperation(replicas, Const("C0"), frozenset())
    other = Const(f"C{draw(st.integers(0, N_CONSTANTS - 1))}")
    shared = frozenset(draw(st.sets(st.sampled_from(ACTIONS), max_size=2)))
    return PepaModel(env, Cooperation(replicas, other, shared))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replicated_models())
def test_drawn_models_match_plain_lu(model):
    chain = pepa_chain(model)
    assume(chain.n_states > 1)
    if chain.is_irreducible():
        pi = steady_state(chain, method="direct")
        assert_matches_reference(chain, pi)
        return
    bsccs = chain.bottom_sccs()
    assume(len(bsccs) == 1 and bsccs[0].size > 1)
    pi = steady_state(chain, method="direct", reducible="bscc")
    assert_matches_reference(chain.restricted_to(bsccs[0]), pi[bsccs[0]])


# ----------------------------------------------------------------------
# Near-symmetry, trivial partitions and the certificate
# ----------------------------------------------------------------------
def client_server_with_odd_client(n_clients: int, factor: float) -> PepaModel:
    """``client_server_model`` with one client thinking ``factor`` times
    faster than the others."""
    env = Environment()
    for suffix, think in (("", 1.0), ("Odd", factor)):
        env.define(f"Think{suffix}", Prefix("think", ActiveRate(think), Const(f"Ready{suffix}")))
        env.define(f"Ready{suffix}", Prefix("request", ActiveRate(2.0), Const(f"Wait{suffix}")))
        env.define(f"Wait{suffix}", Prefix("response", PassiveRate(), Const(f"Think{suffix}")))
    env.define("Idle", Prefix("request", PassiveRate(), Const("Serve")))
    env.define("Serve", Prefix("response", ActiveRate(5.0), Const("Idle")))
    clients = Const("ThinkOdd")
    for _ in range(n_clients - 1):
        clients = Cooperation(clients, Const("Think"), frozenset())
    return PepaModel(env, Cooperation(clients, Const("Idle"), frozenset({"request", "response"})))


def test_near_symmetry_splits_the_odd_client_off():
    symmetric = pepa_chain(client_server_with_odd_client(9, 1.0))
    near = pepa_chain(client_server_with_odd_client(9, 1.0 + 1e-9))
    assert blocks_of(symmetric) == 19
    assert blocks_of(near) > 19
    pi = steady_state(near, method="direct")
    assert_matches_reference(near, pi)


def test_trivial_partition_is_bit_identical_to_plain_lu():
    chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 2.0, 2), (2, "c", 4.5, 0),
                           (0, "d", 0.3, 2)])
    assert blocks_of(chain) == chain.n_states
    pi, span = solve_traced(chain)
    raw = steady_module._solve_lu(chain.Q)
    assert np.array_equal(pi, np.clip(raw, 0.0, None) / np.clip(raw, 0.0, None).sum())
    assert span.attributes["lumped"] is False
    assert span.attributes["blocks"] == chain.n_states


def birth_death(up: list[float]):
    """A birth–death chain whose down rates mirror its up rates, so the
    reflection i ↔ n−1−i is strictly lumpable."""
    n = len(up) + 1
    return build_ctmc(n, [(i, "up", r, i + 1) for i, r in enumerate(up)]
                      + [(i + 1, "down", r, i) for i, r in enumerate(reversed(up))])


def test_refinement_over_several_rounds_finds_the_reflection():
    chain = birth_death([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    block_of = strict_lumping(chain.Q)
    assert block_of.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
    pi, span = solve_traced(chain)
    assert_matches_reference(chain, pi)
    assert span.attributes["lumped"] is True


def test_refinement_that_does_not_settle_gives_the_trivial_partition():
    # the reflection of 200 states takes 100 rounds to find
    chain = birth_death([1.0] * 199)
    assert blocks_of(chain) == chain.n_states
    assert_matches_reference(chain, steady_state(chain, method="direct"))


def ordinary_not_exact():
    """{1, 2} is ordinarily lumpable but not exactly: π₁ ≠ π₂."""
    return build_ctmc(4, [(0, "a", 1.0, 1), (0, "a", 3.0, 2), (1, "b", 2.0, 3),
                          (2, "b", 2.0, 3), (3, "c", 4.0, 0)])


def test_strict_lumping_rejects_ordinary_only_blocks():
    assert blocks_of(ordinary_not_exact()) == 4


def test_bad_partition_trips_the_certificate(monkeypatch):
    chain = ordinary_not_exact()
    monkeypatch.setattr(steady_module, "strict_lumping", lambda Q: np.array([0, 1, 1, 2]))
    events, metrics = EventStream(), MetricsRegistry()
    with use_events(events), use_metrics(metrics):
        pi, span = solve_traced(chain)
    np.testing.assert_allclose(pi, [0.25, 0.125, 0.375, 0.25], atol=1e-15)
    rejected = events.by_name("solver.lumping_rejected")
    assert len(rejected) == 1
    fields = rejected[0].fields
    assert fields["blocks"] == 3 and fields["states"] == 4
    assert fields["residual"] > fields["bound"] == LUMPED_RESIDUAL * chain.max_exit_rate()
    assert metrics.counter("solver.lumping_rejected").value == 1
    assert span.attributes["lumped"] is False


def test_fallback_chain_direct_attempt_lumps():
    chain = pepa_chain(client_server_model(5))
    pi, root = solve_traced(chain, policy="direct,gmres")
    assert_matches_reference(chain, pi)
    attempt = next(s for s in root.iter_spans() if s.name == "solve.attempt")
    assert attempt.attributes["method"] == "direct"
    assert attempt.attributes["lumped"] is True
    assert attempt.attributes["blocks"] == 11


# ----------------------------------------------------------------------
# LumpedChain.lift
# ----------------------------------------------------------------------
def test_lift_refuses_a_block_that_is_not_exactly_lumpable():
    chain = ordinary_not_exact()
    lumped = lump(chain)
    assert sorted(sorted(b.tolist()) for b in lumped.blocks) == [[0], [1, 2], [3]]
    with pytest.raises(SolverError, match=r"block 1 \(states \[1, 2\]\)"):
        lumped.lift(steady_state(lumped.chain), chain)


def test_lift_of_a_strict_lumping_is_the_full_pi():
    chain = pepa_chain(client_server_model(4))
    lumped = lump(chain)
    lifted = lumped.lift(steady_state(lumped.chain), chain)
    assert np.abs(lifted - reference_pi(chain)).max() <= 1e-12


# ----------------------------------------------------------------------
# The tolerances of the public queries
# ----------------------------------------------------------------------
def two_branches(rate_1: float, rate_2: float):
    """State 0 forks to 1 and 2, which return to 0 at the given rates."""
    return build_ctmc(3, [(0, "a", 1.0, 1), (0, "a", 1.0, 2),
                          (1, "b", rate_1, 0), (2, "b", rate_2, 0)])


def test_verify_lumpable_compares_rates_within_the_tolerance():
    # 2.0 and 2.0 + 6e-10 differ by less than 1e-9, though they round
    # to different multiples of it
    chain = two_branches(2.0, 2.0 + 6e-10)
    blocks = [np.array([0]), np.array([1, 2])]
    assert verify_lumpable(chain, blocks, tol=1e-9)
    assert not verify_lumpable(chain, blocks, tol=1e-10)
    assert not verify_lumpable(two_branches(2.0, 2.0 + 2e-9), blocks, tol=1e-9)


def test_verify_lumpable_ignores_rates_within_the_tolerance_of_zero():
    chain = build_ctmc(3, [(0, "a", 1.0, 1), (0, "a", 1.0, 2), (1, "b", 2.0, 0),
                           (2, "b", 2.0, 0), (2, "c", 5e-10, 1)])
    assert verify_lumpable(chain, [np.array([0]), np.array([1, 2])], tol=1e-9)
    assert not verify_lumpable(chain, [np.array([0, 1]), np.array([2])], tol=1e-9)


def test_coarsest_lumping_lists_blocks_by_smallest_member():
    blocks = coarsest_lumping(ordinary_not_exact())
    assert [b.tolist() for b in blocks] == [[0], [1, 2], [3]]
