"""Tests for the population (counting) semantics.

The headline property: the population CTMC is an exact lumping of the
unfolded interleaving, so every aggregate measure matches.
"""

import math
from math import comb

import numpy as np
import pytest

from repro.ctmc import steady_state, throughput
from repro.exceptions import WellFormednessError
from repro.pepa import parse_expression, parse_model
from repro.pepa.ctmcgen import ctmc_of_model
from repro.pepa.population import PopulationState, population_ctmc
from repro.workloads import client_server_model

CLIENT_SERVER_DEFS = """
Think = (think, 1.0).Ready;
Ready = (request, 2.0).Wait;
Wait  = (response, T).Think;
Idle  = (request, T).Serve;
Serve = (response, 5.0).Idle;
"""


def defs_environment():
    model = parse_model(CLIENT_SERVER_DEFS + "Idle")
    return model.environment


class TestConstruction:
    def test_state_count_is_multiset_bound(self):
        env = defs_environment()
        for n in (1, 2, 4):
            states, chain = population_ctmc(
                env, "Think", n, parse_expression("Idle"),
                {"request", "response"},
            )
            # 3 local states, times 2 server phases, but Wait-count and
            # server phase are correlated; bound: C(n+2, 2) * 2
            assert len(states) <= comb(n + 2, 2) * 2
            assert chain.n_states == len(states)

    def test_population_conserved(self):
        env = defs_environment()
        states, _ = population_ctmc(
            env, "Think", 5, parse_expression("Idle"), {"request", "response"}
        )
        assert all(s.total() == 5 for s in states)

    def test_replica_count_validated(self):
        env = defs_environment()
        with pytest.raises(WellFormednessError):
            population_ctmc(env, "Think", 0, parse_expression("Idle"), set())


class TestExactness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_throughput_matches_unfolded_model(self, n):
        env = defs_environment()
        _, pop_chain = population_ctmc(
            env, "Think", n, parse_expression("Idle"), {"request", "response"}
        )
        _, full_chain = ctmc_of_model(client_server_model(n))
        for action in ("think", "request", "response"):
            assert math.isclose(
                throughput(pop_chain, action),
                throughput(full_chain, action),
                rel_tol=1e-9,
            ), action

    @pytest.mark.parametrize("n", [2, 3])
    def test_mean_population_matches_unfolded(self, n):
        env = defs_environment()
        states, pop_chain = population_ctmc(
            env, "Think", n, parse_expression("Idle"), {"request", "response"}
        )
        pi = steady_state(pop_chain)
        mean_waiting_pop = sum(
            p * s.count_of("Wait") for p, s in zip(pi, states)
        )
        # unfolded: expected number of clients in Wait
        space, full_chain = ctmc_of_model(client_server_model(n))
        pi_full = steady_state(full_chain)
        mean_waiting_full = sum(
            p * str(space.states[i]).count("Wait")
            for i, p in enumerate(pi_full)
        )
        assert math.isclose(mean_waiting_pop, mean_waiting_full, rel_tol=1e-9)

    def test_state_space_reduction(self):
        env = defs_environment()
        n = 8
        states, _ = population_ctmc(
            env, "Think", n, parse_expression("Idle"), {"request", "response"}
        )
        from repro.pepa.statespace import derive

        full = derive(client_server_model(n))
        assert len(states) < full.size / 10  # massive reduction at n=8

    def test_scales_far_beyond_unfolding(self):
        """100 clients: the unfolded space would have ~2^99·102 states;
        the population space stays tiny and solves instantly."""
        env = defs_environment()
        states, chain = population_ctmc(
            env, "Think", 100, parse_expression("Idle"), {"request", "response"}
        )
        assert len(states) < 12_000
        pi = steady_state(chain)
        assert math.isclose(pi.sum(), 1.0, rel_tol=1e-9)
        # flow balance still holds
        assert math.isclose(
            throughput(chain, "request", pi), throughput(chain, "response", pi),
            rel_tol=1e-9,
        )


class TestDiagnostics:
    def test_passive_individual_activity_rejected(self):
        model = parse_model("P = (lonely, T).P; Q = (tick, 1).Q; Q")
        with pytest.raises(WellFormednessError, match="passive"):
            population_ctmc(
                model.environment, "P", 2, parse_expression("Q"), set()
            )

    def test_unknown_replica_rejected(self):
        env = defs_environment()
        with pytest.raises(WellFormednessError):
            population_ctmc(env, "Ghost", 2, parse_expression("Idle"), set())

    def test_state_rendering(self):
        env = defs_environment()
        states, _ = population_ctmc(
            env, "Think", 2, parse_expression("Idle"), {"request", "response"}
        )
        assert any("Think:2" in str(s) for s in states)


class TestEdgeShapes:
    """Boundary shapes the fluid compiler leans on: degenerate replicas,
    passive-only cooperation and the no-environment form."""

    def test_single_local_state_replica(self):
        """A one-state replica cycles in place: one population state,
        throughput n·r at every n."""
        model = parse_model("P = (tick, 2.0).P; P")
        for n in (1, 7):
            states, chain = population_ctmc(
                model.environment, "P", n, None, set()
            )
            assert len(states) == 1
            assert chain.n_states == 1
            pi = steady_state(chain)
            assert math.isclose(throughput(chain, "tick", pi), 2.0 * n)

    def test_passive_only_shared_action_with_sink(self):
        """A single-state passive sink never gates the replicas: the
        shared throughput equals the replicas' own apparent rate."""
        model = parse_model(
            "Reader = (read, 1.5).Writer; Writer = (write, 2.0).Reader;"
            "Sink = (write, T).Sink; Sink"
        )
        states, chain = population_ctmc(
            model.environment, "Reader", 3, parse_expression("Sink"),
            {"write"},
        )
        pi = steady_state(chain)
        expected = 3 / (1 / 1.5 + 1 / 2.0)  # n · cycle rate
        assert math.isclose(throughput(chain, "write", pi), expected, rel_tol=1e-9)
        # ... and matches the unfolded interleaving exactly
        sys_model = parse_model(
            "Reader = (read, 1.5).Writer; Writer = (write, 2.0).Reader;"
            "Sink = (write, T).Sink;"
            "(Reader || Reader || Reader) <write> Sink"
        )
        _, full_chain = ctmc_of_model(sys_model)
        assert math.isclose(
            throughput(chain, "write", pi),
            throughput(full_chain, "write"),
            rel_tol=1e-9,
        )

    def test_no_environment_rejects_cooperation_set(self):
        model = parse_model("P = (a, 1.0).P; P")
        with pytest.raises(WellFormednessError, match="environment component"):
            population_ctmc(model.environment, "P", 2, None, {"a"})
