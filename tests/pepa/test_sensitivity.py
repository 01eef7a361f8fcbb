"""Unit tests for PEPA-level sensitivity analysis.

The ground truth is finite differencing: scale every rate of the
perturbed action by (1+θ) in the *source*, re-solve, and compare the
measured slope against the analytic derivative.
"""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.pepa import parse_model
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.measures import analyse
from repro.pepa.sensitivity import (
    action_generator_derivative,
    sensitivity_profile,
    throughput_sensitivity,
)
from repro.pepa.statespace import derive

TEMPLATE = """
r_up = 3.0; r_down = {r_down};
On = (switch_off, r_down).Off;
Off = (switch_on, 3.0).On;
On
"""


def _derived(source: str):
    model = parse_model(source)
    space = derive(model)
    return space, ctmc_from_statespace(space)


def _finite_difference(measured: str, perturbed_rate_template: str,
                       base: float, theta: float = 1e-6) -> float:
    lo = analyse(parse_model(perturbed_rate_template.format(r_down=base)))
    hi = analyse(parse_model(
        perturbed_rate_template.format(r_down=base * (1 + theta))))
    return (hi.throughput(measured) - lo.throughput(measured)) / theta


class TestThroughputSensitivity:
    def test_matches_finite_difference_cross_action(self):
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        analytic = throughput_sensitivity(space, chain, "switch_on", "switch_off")
        numeric = _finite_difference("switch_on", TEMPLATE, 1.0)
        assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_matches_finite_difference_self(self):
        # measured == perturbed exercises the product-rule term π·r
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        analytic = throughput_sensitivity(space, chain, "switch_off", "switch_off")
        numeric = _finite_difference("switch_off", TEMPLATE, 1.0)
        assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_conserved_cycle_throughputs_move_together(self):
        # in a 2-state cycle both actions share one throughput, so both
        # sensitivities to the same perturbation must be equal
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        a = throughput_sensitivity(space, chain, "switch_on", "switch_off")
        b = throughput_sensitivity(space, chain, "switch_off", "switch_off")
        assert a == pytest.approx(b, rel=1e-9)

    def test_unknown_measured_action_rejected(self):
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        with pytest.raises(SolverError, match="no action 'teleport'"):
            throughput_sensitivity(space, chain, "teleport", "switch_on")

    def test_unknown_perturbed_action_rejected(self):
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        with pytest.raises(SolverError, match="no action 'teleport'"):
            throughput_sensitivity(space, chain, "switch_on", "teleport")


class TestGeneratorDerivative:
    def test_rows_sum_to_zero(self):
        space, _ = _derived(TEMPLATE.format(r_down=1.0))
        dQ = action_generator_derivative(space, "switch_off")
        assert np.allclose(dQ.toarray().sum(axis=1), 0.0)

    def test_unlabelled_action_gives_zero_matrix(self):
        space, _ = _derived(TEMPLATE.format(r_down=1.0))
        assert action_generator_derivative(space, "absent").nnz == 0

    def test_self_loops_cancel_in_generator(self):
        # a cooperation-free self-loop contributes nothing to dQ even
        # though the action still has throughput
        source = """
        Loop = (tick, 2.0).Loop;
        Loop
        """
        space, chain = _derived(source)
        assert action_generator_derivative(space, "tick").nnz == 0
        # ... but the product-rule term still reports d(throughput)/dθ = rate
        assert throughput_sensitivity(space, chain, "tick", "tick") == pytest.approx(2.0)


class TestSensitivityProfile:
    def test_sorted_by_absolute_impact(self):
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        profile = sensitivity_profile(space, chain, "switch_on")
        values = [abs(v) for v in profile.values()]
        assert values == sorted(values, reverse=True)
        assert set(profile) == {"switch_on", "switch_off"}

    def test_profile_consistent_with_pointwise_calls(self):
        space, chain = _derived(TEMPLATE.format(r_down=1.0))
        profile = sensitivity_profile(space, chain, "switch_on")
        for action, value in profile.items():
            assert value == pytest.approx(
                throughput_sensitivity(space, chain, "switch_on", action))


#: ``sensitivity_profile(space, chain, "request")`` of
#: ``client_server_model(k)``, recorded when every action still
#: refactorised the augmented system on its own; the shared
#: factorisation must reproduce them bit for bit, in the same order.
PINNED_PROFILES = {
    2: [("think", 0.59025500559392), ("request", 0.33563519925928786),
        ("response", 0.19212221750704064)],
    3: [("think", 0.7419290657439448), ("request", 0.4802595155709346),
        ("response", 0.36604671280276824)],
    4: [("think", 0.8160249999999992), ("request", 0.6010999999999997),
        ("response", 0.582875)],
    5: [("response", 0.8306479318167537), ("think", 0.8306479318167532),
        ("request", 0.6951242657340826)],
    6: [("response", 1.095888127611984), ("think", 0.8040501550525279),
        ("request", 0.7622220013140069)],
    7: [("response", 1.3658855345975134), ("request", 0.8046810088694762),
        ("think", 0.7522533945012102)],
}


@pytest.mark.parametrize("clients", sorted(PINNED_PROFILES))
def test_profile_pinned_bit_for_bit(clients):
    from repro.workloads import client_server_model

    model = client_server_model(clients)
    space = derive(model)
    chain = ctmc_from_statespace(space, environment=model.environment)
    assert list(sensitivity_profile(space, chain, "request").items()) == PINNED_PROFILES[clients]
