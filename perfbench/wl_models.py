"""``large_models`` and ``service_levels``: exact solves and analysis queries.

``large_models`` solves the largest existing model families exactly,
one model per request, through the public ``analyse``/``analyse_net``
with the default ``direct`` solver.  ``service_levels`` derives
mid-size PEPA models and answers one analysis question per request.

In ``large_models`` the seed scales every rate by a factor in
[0.8, 1.25] and fixes the request order; derivation and the direct
solve cost the same at any rates.  ``service_levels`` keeps the
published rates, because the cost of its queries depends on them
(uniformisation steps grow with rate times horizon, and so do Krylov
iterations and the quantile's bisection); there the seed fixes the
request order and the SSA random stream.

Kept out of ``service_levels`` on purpose: the 95% passage quantile from
the empty to the all-full state of ``tandem_queue_model(3, 5)``.  Its
mean passage time is about 3.4e4 s and the quantile ran for more than
100 s, because every bisection step restarts uniformisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from base import PassWorkload, generator_size, require, scaled
from spans import NULL
from repro.ctmc.density import passage_time_moments, passage_time_quantile
from repro.ctmc.passage import passage_time_cdf
from repro.ctmc.steady import steady_state
from repro.ctmc.transient import transient_distribution
from repro.core.ctmcgen import ctmc_from_lts
from repro.fluid.crossval import FAMILIES
from repro.fluid.nvf import nvf_of_model
from repro.fluid.ode import analyse_fluid, steady_fluid
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.measures import analyse
from repro.pepa.sensitivity import sensitivity_profile
from repro.pepa.statespace import derive
from repro.pepanets.measures import analyse_net
from repro.pepanets.semantics import explore_net
from repro.sim.ssa import simulate_pepa
from repro.workloads import (
    build_web_model,
    client_server_model,
    courier_ring_net,
    roaming_fleet_net,
    tandem_queue_model,
)

#: ‖πQ‖∞ allowed after an exact solve, relative to the largest exit rate.
DIRECT_RESIDUAL = 1e-9
#: The same for the matrix-free Krylov solves.
KRYLOV_RESIDUAL = 1e-7
FLUID_TOLERANCE = 1e-6


@dataclass(eq=False)
class Answer:
    """``key`` must repeat exactly; ``keep`` holds what the deep checks need."""

    key: tuple
    keep: dict = field(default_factory=dict)


def _vector_key(vector: np.ndarray) -> bytes:
    return np.ascontiguousarray(vector).tobytes()


def _residual(chain, pi: np.ndarray) -> float:
    """‖πQ‖∞ relative to the largest exit rate, through the operator."""
    return float(np.abs(chain.generator.rmatvec(pi)).max()) / chain.max_exit_rate()


class ModelWorkload(PassWorkload):
    @staticmethod
    def same(a: Answer, b: Answer) -> bool:
        return a.key == b.key

    @staticmethod
    def count_chain(rec, prefix: str, space, chain) -> None:
        rec.count(f"{prefix}.states", space.size)
        rec.count(f"{prefix}.arcs", len(space.arcs))
        nnz, stored = generator_size(chain)
        rec.count("ctmc.generator_nnz", nnz)
        rec.count("ctmc.generator_bytes", stored)

    @staticmethod
    def label(req) -> str:
        return req[0]


# ----------------------------------------------------------------------
class LargeModels(ModelWorkload):
    name = "large_models"
    #: Fewest passes a run serves.  The four models take four distinct
    #: latencies, so the tail's rank must land on the same model every
    #: run: with 6 to 10 passes it is the third slowest.
    MIN_PASSES = 6

    #: (label, formalism, known state count)
    SHAPES = (
        ("client_server_9", "pepa", 2816),
        ("tandem_queue_4x5", "pepa", 1296),
        ("roaming_fleet_3x4", "net", 1760),
        ("courier_ring_5x3", "net", 455),
    )

    def setup(self) -> None:
        r = self.rng
        models = {
            "client_server_9": client_server_model(
                9, think_rate=scaled(r, 1.0), request_rate=scaled(r, 2.0),
                serve_rate=scaled(r, 5.0)),
            "tandem_queue_4x5": tandem_queue_model(
                4, 5, arrival=scaled(r, 1.0), service=scaled(r, 2.0)),
            "roaming_fleet_3x4": roaming_fleet_net(
                3, 4, download_rate=scaled(r, 1.0), handover_rate=scaled(r, 0.5)),
            "courier_ring_5x3": courier_ring_net(5, 3, hop_rate=scaled(r, 2.0)),
        }
        self.requests = [(label, kind, states, models[label]) for label, kind, states in self.SHAPES]
        r.shuffle(self.requests)
        # warm-up: the same code paths on small members of each family
        analyse(client_server_model(3))
        analyse_net(courier_ring_net(3, 2))
        self.run_traced(("warm", "pepa", 0, tandem_queue_model(2, 2)), NULL)

    def may_stop(self, done: int) -> bool:
        return done >= self.MIN_PASSES * len(self.requests) and super().may_stop(done)

    def run(self, req) -> Answer:
        label, kind, _, model = req
        analysis = analyse(model) if kind == "pepa" else analyse_net(model)
        return self._answer(label, analysis.space, analysis.chain, analysis.pi)

    def run_traced(self, req, rec) -> Answer:
        label, kind, _, model = req
        if kind == "pepa":
            with rec.span("pepa.derive"):
                space = derive(model)
            with rec.span("ctmc.assemble"):
                chain = ctmc_from_statespace(space, environment=model.environment)
            reducible = "error"
        else:
            with rec.span("pepanets.derive"):
                space = explore_net(model)
            with rec.span("ctmc.assemble"):
                chain = ctmc_from_lts(space)
            reducible = "bscc"
        with rec.span("ctmc.solve"):
            pi = steady_state(chain, method="direct", reducible=reducible)
        self.count_chain(rec, "pepa" if kind == "pepa" else "pepanets", space, chain)
        return self._answer(label, space, chain, pi)

    @staticmethod
    def _answer(label, space, chain, pi) -> Answer:
        return Answer((label, space.size, len(space.arcs), _vector_key(pi)),
                      {"chain": chain, "pi": pi})

    def verify_one(self, req, answer: Answer) -> None:
        label, _, states, _ = req
        require(answer.key[1] == states, f"{answer.key[1]} states, expected {states}")
        require(abs(answer.keep["pi"].sum() - 1.0) <= 1e-12 * states, "π does not sum to 1")
        residual = _residual(answer.keep["chain"], answer.keep["pi"])
        require(residual <= DIRECT_RESIDUAL,
                f"relative ‖πQ‖∞ = {residual:.3e} above {DIRECT_RESIDUAL:g}")

    def counters(self) -> dict:
        out = {}
        for answer in self.first.values():
            label, states, arcs, _ = answer.key
            nnz, stored = generator_size(answer.keep["chain"])
            out[label] = {"states": states, "arcs": arcs, "generator_nnz": nnz,
                          "generator_bytes": stored}
        return dict(sorted(out.items()))


# ----------------------------------------------------------------------
def _fluid_reference(family: str, replicas: int) -> float:
    """Steady throughput of the family's measured action, by hand.

    The three linear families cycle each replica through its local
    states independently, so each contributes the reciprocal of its
    mean cycle time.  The client/server family at these sizes keeps the
    server saturated: it alternates request (rate 10) and reset (rate 5).
    """
    cycle = {
        "roaming_sessions": 1 / 1.0 + 1 / 0.5,
        "file_sink": 1 / 1.5 + 1 / 2.0,
        "message_bus": 1 / 1.2 + 1 / 3.0 + 1 / 0.8,
    }
    if family == "client_server":
        return 1.0 / (1 / 10.0 + 1 / 5.0)
    return replicas / cycle[family]


class ServiceLevels(ModelWorkload):
    name = "service_levels"

    HORIZONS = (0.5, 2.0, 8.0)
    SSA_HORIZON = 400.0
    FLUID_SIZES = (10**3, 10**6)

    def setup(self) -> None:
        self.requests = [
            ("steady_mf_tandem_4x4", "steady_mf", tandem_queue_model(4, 4)),
            ("steady_mf_tandem_3x8", "steady_mf", tandem_queue_model(3, 8)),
            ("transient_clients_6", "transient", client_server_model(6)),
            ("passage_web", "passage", build_web_model()[0]),
            ("sensitivity_clients_7", "sensitivity", client_server_model(7)),
            ("ssa_clients_5", "ssa", client_server_model(5)),
        ]
        self.requests += [
            (f"fluid_{family}_{n}", "fluid", (family, n)) for family in FAMILIES for n in self.FLUID_SIZES
        ]
        self.rng.shuffle(self.requests)
        warmed = set()
        for req in self.requests:  # warm-up: one request of each kind
            if req[1] not in warmed:
                warmed.add(req[1])
                self.run(req)

    def run(self, req) -> Answer:
        return self._serve(req, NULL, traced=False)

    def run_traced(self, req, rec) -> Answer:
        return self._serve(req, rec, traced=True)

    def _derive(self, rec, model, generator="csr"):
        with rec.span("pepa.derive"):
            space = derive(model)
        with rec.span("ctmc.assemble"):
            chain = ctmc_from_statespace(space, generator=generator,
                                         environment=model.environment)
        return space, chain

    def _serve(self, req, rec, *, traced: bool) -> Answer:
        label, kind, model = req
        if kind == "fluid":
            family, n = model
            builder = FAMILIES[family].builder(2)
            action = FAMILIES[family].action
            if traced:
                with rec.span("fluid.compile"):
                    nvf, _, n = nvf_of_model(builder, n)
                with rec.span("fluid.solve"):
                    x, _ = steady_fluid(nvf, n)
                value, dimension = nvf.action_flows(x)[action], nvf.dimension
                rec.count("fluid.dimension", dimension)
            else:
                analysis = analyse_fluid(builder, replicas=n)
                value, dimension = analysis.throughput(action), analysis.dimension
            return Answer((label, dimension, value), {"family": family, "n": n})
        if kind == "ssa":
            with rec.span("sim.ssa"):
                result = simulate_pepa(model, self.SSA_HORIZON, seed=self.seed)
            rec.count("sim.events", result.n_events)
            counts = tuple(sorted(result.action_counts.items()))
            return Answer((label, result.n_events, counts), {"model": model})

        generator = "descriptor" if kind == "steady_mf" else "csr"
        space, chain = self._derive(rec, model, generator)
        self.count_chain(rec, "pepa", space, chain)
        keep = {"chain": chain}
        if kind == "steady_mf":
            with rec.span("ctmc.solve"):
                pi = steady_state(chain, method="gmres")
            rec.count("ctmc.materialized_solves", int(chain.materialized))
            keep.update(pi=pi, materialized=chain.materialized)
            key = (_vector_key(pi),)
        elif kind == "transient":
            with rec.span("ctmc.transient"):
                dists = [transient_distribution(chain, t) for t in self.HORIZONS]
            keep["dists"] = dists
            key = tuple(_vector_key(d) for d in dists)
        elif kind == "passage":
            source, targets = _response_passage(chain)
            with rec.span("ctmc.passage"):
                mean, second = passage_time_moments(chain, source, targets, 2)
                q95 = passage_time_quantile(chain, source, targets, 0.95)
            keep.update(source=source, targets=targets)
            key = (mean, second, q95)
        else:  # sensitivity
            with rec.span("ctmc.solve"):
                pi = steady_state(chain, method="direct")
            with rec.span("pepa.sensitivity"):
                profile = sensitivity_profile(space, chain, "request", pi)
            keep["pi"] = pi
            key = tuple(profile.items())
        return Answer((label, space.size, len(space.arcs)) + key, keep)

    def verify_one(self, req, answer: Answer) -> None:
        label, kind, model = req
        keep = answer.keep
        if kind == "fluid":
            value, expected = answer.key[2], _fluid_reference(keep["family"], keep["n"])
            require(abs(value - expected) <= FLUID_TOLERANCE * expected,
                    f"fluid throughput {value!r}, reference {expected!r}")
        elif kind == "ssa":
            _, events, counts = answer.key
            require(events > 0 and events == sum(c for _, c in counts),
                    "event count does not match the action counts")
            exact = analyse(keep["model"]).throughput("request")
            simulated = dict(counts).get("request", 0) / self.SSA_HORIZON
            require(abs(simulated - exact) <= 0.25 * exact,
                    f"SSA request throughput {simulated:.4f} far from exact {exact:.4f}")
        elif kind == "steady_mf":
            require(not keep["materialized"], "the matrix-free solve materialised the generator")
            residual = _residual(keep["chain"], keep["pi"])
            require(not keep["chain"].materialized, "the residual check materialised the generator")
            require(residual <= KRYLOV_RESIDUAL,
                    f"relative ‖πQ‖∞ = {residual:.3e} above {KRYLOV_RESIDUAL:g}")
        elif kind == "transient":
            for t, dist in zip(self.HORIZONS, keep["dists"]):
                require(abs(dist.sum() - 1.0) <= 1e-9 and dist.min() >= -1e-12,
                        f"transient distribution at t={t} is not a distribution")
        elif kind == "passage":
            mean, second, q95 = answer.key[3:]
            std = (second - mean * mean) ** 0.5
            chain = keep["chain"]
            cdf = float(passage_time_cdf(chain, keep["source"], keep["targets"], np.array([q95]))[0])
            require(abs(cdf - 0.95) <= 1e-4, f"P[T <= q95] = {cdf:.6f}, not 0.95")
            # Markov: E[T] >= 0.05 q95; Cantelli: q95 <= E[T] + std·sqrt(0.95/0.05)
            require(0.05 * q95 <= mean, "mean passage time below the Markov bound")
            require(q95 <= mean + std * (0.95 / 0.05) ** 0.5, "q95 above the Cantelli bound")
        else:  # sensitivity: rates scaled together scale throughput (Euler)
            total = sum(value for _, value in answer.key[3:])
            throughput = float(keep["pi"] @ keep["chain"].action_rates["request"])
            require(abs(total - throughput) <= 1e-6 * throughput,
                    f"sensitivities sum to {total!r}, throughput is {throughput!r}")

    def counters(self) -> dict:
        out = {}
        for answer in self.first.values():
            label = answer.key[0]
            if "chain" in answer.keep:
                nnz, stored = generator_size(answer.keep["chain"])
                out[label] = {"states": answer.key[1], "arcs": answer.key[2],
                              "generator_nnz": nnz, "generator_bytes": stored}
            elif label.startswith("ssa"):
                out[label] = {"events": answer.key[1]}
            else:
                out[label] = {"dimension": answer.key[1]}
        return dict(sorted(out.items()))


def _response_passage(chain) -> tuple[int, list[int]]:
    """Web model response time: from the first waiting state to any
    state where the client processes the response."""
    wait = [i for i, label in enumerate(chain.labels) if "WaitForResponse" in label]
    done = [i for i, label in enumerate(chain.labels) if "ProcessResponse" in label]
    return wait[0], done
