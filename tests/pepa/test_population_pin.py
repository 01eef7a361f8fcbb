"""Pins of the population state spaces, and the exploration's limits.

State sets, labels and the labelled generator entries were recorded
before the population route moved onto the shared exploration kernel.
They are compared as sets: the kernel discovers states breadth-first,
so only the initial state's index (0) is part of the contract.
"""

import pytest

from repro.exceptions import StateSpaceError
from repro.obs import observe
from repro.pepa import parse_expression, parse_model
from repro.pepa.population import population_ctmc

CLIENT_SERVER_DEFS = """
Think = (think, 1.0).Ready;
Ready = (request, 2.0).Wait;
Wait  = (response, T).Think;
Idle  = (request, T).Serve;
Serve = (response, 5.0).Idle;
"""

CLIENT_SERVER_LABELS = {
    1: {"[Think:1] | Idle", "[Ready:1] | Idle", "[Wait:1] | Serve"},
    2: {
        "[Think:2] | Idle", "[Ready:1, Think:1] | Idle", "[Ready:2] | Idle",
        "[Think:1, Wait:1] | Serve", "[Ready:1, Wait:1] | Serve",
    },
    3: {
        "[Think:3] | Idle", "[Ready:1, Think:2] | Idle", "[Ready:2, Think:1] | Idle",
        "[Ready:3] | Idle", "[Think:2, Wait:1] | Serve",
        "[Ready:1, Think:1, Wait:1] | Serve", "[Ready:2, Wait:1] | Serve",
    },
}

#: Off-diagonal generator entries of the three-client space.
CLIENT_SERVER_3_ARCS = {
    ("[Ready:1, Think:1, Wait:1] | Serve", "[Ready:1, Think:2] | Idle", 5.0),
    ("[Ready:1, Think:1, Wait:1] | Serve", "[Ready:2, Wait:1] | Serve", 1.0),
    ("[Ready:1, Think:2] | Idle", "[Ready:2, Think:1] | Idle", 2.0),
    ("[Ready:1, Think:2] | Idle", "[Think:2, Wait:1] | Serve", 2.0),
    ("[Ready:2, Think:1] | Idle", "[Ready:1, Think:1, Wait:1] | Serve", 4.0),
    ("[Ready:2, Think:1] | Idle", "[Ready:3] | Idle", 1.0),
    ("[Ready:2, Wait:1] | Serve", "[Ready:2, Think:1] | Idle", 5.0),
    ("[Ready:3] | Idle", "[Ready:2, Wait:1] | Serve", 6.0),
    ("[Think:2, Wait:1] | Serve", "[Ready:1, Think:1, Wait:1] | Serve", 2.0),
    ("[Think:2, Wait:1] | Serve", "[Think:3] | Idle", 5.0),
    ("[Think:3] | Idle", "[Ready:1, Think:2] | Idle", 3.0),
}


def client_server(n, **kwargs):
    env = parse_model(CLIENT_SERVER_DEFS + "Idle").environment
    return population_ctmc(
        env, "Think", n, parse_expression("Idle"), {"request", "response"}, **kwargs
    )


class TestStateSets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_client_server_states_and_labels(self, n):
        states, chain = client_server(n)
        assert {str(s) for s in states} == CLIENT_SERVER_LABELS[n]
        assert chain.labels == [str(s) for s in states]
        assert chain.labels[0] == f"[Think:{n}] | Idle"

    def test_client_server_generator_entries(self):
        _, chain = client_server(3)
        q = chain.Q.tocoo()
        arcs = {
            (chain.labels[i], chain.labels[j], float(v))
            for i, j, v in zip(q.row, q.col, q.data) if i != j
        }
        assert arcs == CLIENT_SERVER_3_ARCS

    def test_sink_states(self):
        model = parse_model(
            "Reader = (read, 1.5).Writer; Writer = (write, 2.0).Reader;"
            "Sink = (write, T).Sink; Sink"
        )
        states, chain = population_ctmc(
            model.environment, "Reader", 3, parse_expression("Sink"), {"write"}
        )
        assert set(chain.labels) == {
            "[Reader:3] | Sink", "[Reader:2, Writer:1] | Sink",
            "[Reader:1, Writer:2] | Sink", "[Writer:3] | Sink",
        }
        assert chain.labels[0] == "[Reader:3] | Sink"

    def test_environment_free_states(self):
        model = parse_model("P = (tick, 2.0).P; P")
        states, chain = population_ctmc(model.environment, "P", 7, None, set())
        assert chain.labels == ["[P:7]"]


class TestExplorationKernel:
    def test_population_bound_raises(self):
        with pytest.raises(StateSpaceError, match="population space exceeds 4 states"):
            client_server(3, max_states=4)

    def test_bound_at_the_exact_size_passes(self):
        states, _ = client_server(3, max_states=7)
        assert len(states) == 7

    def test_one_exploration_span_and_states_counter(self):
        with observe() as (tracer, metrics):
            states, chain = client_server(3)
        spans = [s for root in tracer.roots for s in root.iter_spans()]
        explored = [s for s in spans if "states" in s.attributes and "arcs" in s.attributes
                    and s.name.startswith("pepa.population")]
        assert len(explored) == 1
        assert explored[0].attributes["states"] == len(states) == 7
        assert explored[0].attributes["arcs"] == 11
        assert metrics.counter("states_explored").value == 7
