"""Three-way cross-validation of the fluid analyzer.

The fluid route is only trustworthy if it agrees with the two routes we
already trust, where their domains overlap:

1. **Exact at small N** — for model families whose vector field is
   linear in the occupancy vector (pure interleaving; shared actions
   against a single-state passive environment) the mean-field equations
   are the *exact* equations of the expected counts, so fluid occupancy
   and throughput must match the exact population CTMC to solver
   precision at any replica count.
2. **Convergence as N grows** — for genuinely nonlinear families
   (an active multi-state environment, e.g. a shared server) the fluid
   limit is asymptotic: the scaled exact occupancies must approach the
   scaled fluid ones as N doubles.
3. **SSA at large N** — at replica counts far beyond exact reach, an
   unbiased Gillespie estimate over the *population* chain (same CTMC
   by exact lumping, so N = 1000 simulates in counting space) must
   produce confidence intervals containing the fluid point estimate.

:func:`run_crossval` runs the battery over a seeded family registry and
returns a :class:`CrossValidationReport` whose summary line is stable
and greppable — it is both the test-suite oracle and the CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ctmc.rewards import all_throughputs
from repro.ctmc.steady import steady_state
from repro.exceptions import ReproError
from repro.fluid.nvf import environment_name
from repro.fluid.ode import analyse_fluid
from repro.fluid.shape import population_shape
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.population import PopulationModel, population_ctmc
from repro.pepa.rates import ActiveRate, PassiveRate
from repro.pepa.syntax import Const, Cooperation, Expression, Prefix
from repro.sim.estimators import estimate_throughput, replicate
from repro.utils.formatting import format_table

__all__ = [
    "Family",
    "FAMILIES",
    "CheckResult",
    "CrossValidationReport",
    "run_crossval",
]


@dataclass(frozen=True)
class Family:
    """One workload family of the battery.

    ``exact`` marks families whose fluid equations are exact at every N
    (linear vector field) — these get the 1e-6 element-level check;
    nonlinear families get the convergence check instead.  ``action``
    is the throughput compared against SSA intervals.
    """

    name: str
    builder: object  # (n_replicas) -> PepaModel
    exact: bool
    action: str


def _interleave(name: str, n: int) -> Expression:
    expr: Expression = Const(name)
    for _ in range(n - 1):
        expr = Cooperation(expr, Const(name), frozenset())
    return expr


def roaming_sessions_model(n: int) -> PepaModel:
    """Pure interleaving: n sessions cycling download → handover.

    No cooperation at all, so every flow is linear and the fluid
    equations are exact (the PEPA-net roaming fleet's local dynamics).
    """
    env = Environment()
    env.define("Session", Prefix("download", ActiveRate(1.0), Const("Roaming")))
    env.define("Roaming", Prefix("handover", ActiveRate(0.5), Const("Session")))
    return PepaModel(env, _interleave("Session", n))


def file_sink_model(n: int) -> PepaModel:
    """n reader/writer cycles feeding a single passive sink.

    The environment has exactly one state and is passive on the shared
    action, so the shared flow reduces to ``Σ xₛ·r`` — linear, hence
    the fluid equations are exact at every N.
    """
    env = Environment()
    env.define("Reader", Prefix("read", ActiveRate(1.5), Const("Writer")))
    env.define("Writer", Prefix("write", ActiveRate(2.0), Const("Reader")))
    env.define("Sink", Prefix("write", PassiveRate(), Const("Sink")))
    system = Cooperation(_interleave("Reader", n), Const("Sink"),
                         frozenset({"write"}))
    return PepaModel(env, system)


def message_bus_model(n: int) -> PepaModel:
    """n three-phase messaging clients sharing a passive one-state bus.

    Same linearity argument as :func:`file_sink_model`, with a longer
    replica cycle so occupancy spreads over three local states.
    """
    env = Environment()
    env.define("Compose", Prefix("compose", ActiveRate(1.2), Const("Send")))
    env.define("Send", Prefix("send", ActiveRate(3.0), Const("Rest")))
    env.define("Rest", Prefix("rest", ActiveRate(0.8), Const("Compose")))
    env.define("Bus", Prefix("send", PassiveRate(), Const("Bus")))
    system = Cooperation(_interleave("Compose", n), Const("Bus"),
                         frozenset({"send"}))
    return PepaModel(env, system)


def client_server_family(n: int) -> PepaModel:
    """n clients against one two-state server, sharing ``request`` only.

    Both sides of the shared action carry *active* rates, so its flow
    follows the ``min`` apparent-rate law — genuinely nonlinear, and
    exact only in the limit (the convergence check's subject).  At
    small N the client side binds (``2·n_Ready < 10``); at large N the
    server saturates and runs as an autonomous alternating-renewal
    process, so the fluid throughput ``1/(1/10 + 1/5) = 10/3`` is also
    the true large-N value the SSA containment check sees.  Only one
    action is shared on purpose: pairing a second shared action through
    the same single server would force the strict request/response
    alternation ``n_Wait ∈ {0, 1}``, a correlation with the fixed-size
    environment that no mean-field (product-form) limit can represent.
    """
    env = Environment()
    env.define("Think", Prefix("think", ActiveRate(1.0), Const("Ready")))
    env.define("Ready", Prefix("request", ActiveRate(2.0), Const("Wait")))
    env.define("Wait", Prefix("respond", ActiveRate(4.0), Const("Think")))
    env.define("Idle", Prefix("request", ActiveRate(10.0), Const("Serve")))
    env.define("Serve", Prefix("reset", ActiveRate(5.0), Const("Idle")))
    system = Cooperation(_interleave("Think", n), Const("Idle"),
                         frozenset({"request"}))
    return PepaModel(env, system)


#: The battery, in check order.  Three exact (linear) families satisfy
#: the small-N agreement gate; the client/server family exercises the
#: nonlinear regime via convergence and SSA containment.
FAMILIES: dict[str, Family] = {
    "roaming_sessions": Family("roaming_sessions", roaming_sessions_model,
                               exact=True, action="download"),
    "file_sink": Family("file_sink", file_sink_model,
                        exact=True, action="write"),
    "message_bus": Family("message_bus", message_bus_model,
                          exact=True, action="send"),
    "client_server": Family("client_server", client_server_family,
                            exact=False, action="request"),
}


@dataclass
class CheckResult:
    """One agreement check: what was compared and how it came out."""

    family: str
    check: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return f"{self.family}/{self.check}: {status} — {self.detail}"


@dataclass
class CrossValidationReport:
    """The battery's outcome: every check, plus render helpers."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def record(self, family: str, check: str, passed: bool, detail: str) -> None:
        """Append one check outcome to the battery."""
        self.results.append(CheckResult(family, check, passed, detail))

    def summary(self) -> str:
        """One stable, greppable line — the CI gate greps for
        ``all checks passed``."""
        n_ok = sum(1 for r in self.results if r.passed)
        line = f"fluid crossval: {n_ok}/{len(self.results)} checks passed"
        if self.ok:
            return f"{line} — all checks passed"
        failing = ", ".join(
            f"{r.family}/{r.check}" for r in self.results if not r.passed
        )
        return f"{line} — FAILED: {failing}"

    def as_table(self) -> str:
        """Every check as an aligned family/check/status/detail table."""
        rows = [
            [r.family, r.check, "ok" if r.passed else "FAILED", r.detail]
            for r in self.results
        ]
        return format_table(["family", "check", "status", "detail"], rows)

    def markdown(self) -> str:
        """The comparison report uploaded as a CI artifact on failure."""
        lines = ["# Fluid cross-validation report", "", self.summary(), "",
                 "| family | check | status | detail |",
                 "| --- | --- | --- | --- |"]
        for r in self.results:
            status = "ok" if r.passed else "**FAILED**"
            lines.append(f"| {r.family} | {r.check} | {status} | {r.detail} |")
        lines.append("")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The three check kinds
# ----------------------------------------------------------------------
def _exact_measures(
    model: PepaModel, n: int, replica_names: list[str]
) -> tuple[dict[str, float], dict[str, float]]:
    """Exact expected occupancies and throughputs via the population CTMC.

    Occupancies are keyed by fluid coordinate name: ``replica_names``
    (the fluid route's replica block) decides which environment labels
    :func:`~repro.fluid.nvf.environment_name` qualifies.
    """
    shape = population_shape(model)
    states, chain = population_ctmc(
        model.environment, shape.replica, n, shape.environment, shape.cooperation
    )
    pi = steady_state(chain)
    occupancy: dict[str, float] = {}
    for state, p in zip(states, pi):
        for name, count in state.counts:
            occupancy[name] = occupancy.get(name, 0.0) + float(p) * count
        if state.environment_state is not None:
            env_name = environment_name(str(state.environment_state), replica_names)
            occupancy[env_name] = occupancy.get(env_name, 0.0) + float(p)
    return occupancy, all_throughputs(chain, pi)


def _check_exact(report: CrossValidationReport, family: Family, n: int,
                 tol: float) -> None:
    model = family.builder(n)
    fluid = analyse_fluid(model)
    replica_names = fluid.names[: fluid.n_replica_states]
    occupancy, throughputs = _exact_measures(model, n, replica_names)
    worst_name, worst = "", 0.0
    for name in fluid.names:
        err = abs(fluid.occupancy(name) - occupancy.get(name, 0.0))
        if err > worst:
            worst_name, worst = name, err
    passed = worst <= tol
    report.record(
        family.name, f"exact-occupancy-N{n}", passed,
        f"max |fluid − exact| = {worst:.2e} at {worst_name or '-'} (tol {tol:g})",
    )
    t_worst_name, t_worst = "", 0.0
    for action, exact_tp in throughputs.items():
        err = abs(fluid.throughput(action) - exact_tp)
        scaled = err / max(1.0, abs(exact_tp))
        if scaled > t_worst:
            t_worst_name, t_worst = action, scaled
    report.record(
        family.name, f"exact-throughput-N{n}", t_worst <= tol,
        f"max rel err = {t_worst:.2e} at {t_worst_name or '-'} (tol {tol:g})",
    )


def _check_convergence(report: CrossValidationReport, family: Family,
                       ns: tuple[int, ...]) -> None:
    """Scaled exact occupancy must approach the fluid limit as N grows."""
    errors: list[float] = []
    for n in ns:
        model = family.builder(n)
        fluid = analyse_fluid(model)
        replica_names = fluid.names[: fluid.n_replica_states]
        occupancy, _ = _exact_measures(model, n, replica_names)
        err = max(
            abs(fluid.occupancy(name) - occupancy.get(name, 0.0)) / n
            for name in replica_names
        )
        errors.append(err)
    shrinking = all(b <= a * 1.05 for a, b in zip(errors, errors[1:]))
    halved = errors[-1] <= errors[0] / 2.0 or errors[-1] < 1e-9
    rendered = ", ".join(f"N={n}: {e:.2e}" for n, e in zip(ns, errors))
    report.record(
        family.name, "convergence", shrinking and halved,
        f"scaled occupancy error {rendered}",
    )


def _check_ssa(report: CrossValidationReport, family: Family, n: int, *,
               t_end: float, warmup: float, replications: int,
               confidence: float, base_seed: int) -> None:
    """Fluid point estimate must fall inside the SSA confidence interval.

    The trajectory runs over the population (counting) chain — the same
    CTMC as the unfolded model by exact lumping — so ``n = 1000`` costs
    a transition list over local-state counts, not a 1000-way product.
    """
    model = family.builder(1)
    shape = population_shape(model)
    pop = PopulationModel(model.environment, shape.replica, n,
                          shape.environment, shape.cooperation)
    fluid = analyse_fluid(model, replicas=n)
    results = replicate(
        pop.transitions, pop.initial_state(), t_end,
        n_replications=replications, warmup=warmup, base_seed=base_seed,
    )
    estimate = estimate_throughput(results, family.action, confidence=confidence)
    value = fluid.throughput(family.action)
    low, high = estimate.interval
    report.record(
        family.name, f"ssa-ci-N{n}", estimate.covers(value),
        f"fluid {family.action} = {value:.6g} vs SSA {confidence:.0%} CI "
        f"[{low:.6g}, {high:.6g}] ({replications} reps, t={t_end:g})",
    )


def run_crossval(
    families: list[str] | None = None,
    *,
    small_ns: tuple[int, ...] = (5, 12),
    convergence_ns: tuple[int, ...] = (4, 16, 64),
    tol_exact: float = 1e-6,
    ssa_replicas: int = 1000,
    ssa_t_end: float = 20.0,
    ssa_warmup: float = 4.0,
    ssa_replications: int = 6,
    confidence: float = 0.99,
    base_seed: int = 2026,
    include_ssa: bool = True,
) -> CrossValidationReport:
    """Run the three-way battery and return its report.

    ``families`` restricts the battery to a subset of :data:`FAMILIES`
    (the CI job runs two; the full suite runs all four).  Exact
    families get the element-level check at each ``small_ns``; the
    nonlinear ones get the convergence ladder; every selected family
    gets the SSA containment check at ``ssa_replicas`` unless
    ``include_ssa`` is off.
    """
    selected = list(FAMILIES) if families is None else families
    unknown = [f for f in selected if f not in FAMILIES]
    if unknown:
        raise ReproError(
            f"unknown crossval families {unknown}; choose from {sorted(FAMILIES)}"
        )
    report = CrossValidationReport()
    for name in selected:
        family = FAMILIES[name]
        if family.exact:
            for n in small_ns:
                _check_exact(report, family, n, tol_exact)
        else:
            _check_convergence(report, family, convergence_ns)
        if include_ssa:
            _check_ssa(
                report, family, ssa_replicas,
                t_end=ssa_t_end, warmup=ssa_warmup,
                replications=ssa_replications, confidence=confidence,
                base_seed=base_seed,
            )
    return report
