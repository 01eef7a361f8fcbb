"""PEPA-level sensitivity: which activity's rate should the modeller
tune?

Built on :mod:`repro.ctmc.sensitivity`: the state space retains every
arc with its action label, so the generator derivative for "scale all
rates of action α by (1+θ)" is assembled exactly — each α-arc
contributes its rate to ``dQ`` off-diagonal and subtracts it on the
diagonal.  Self-loop α-arcs cancel in the generator but still count
toward the throughput reward derivative.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC
from repro.ctmc.sensitivity import stationary_derivatives
from repro.ctmc.steady import steady_state
from repro.exceptions import SolverError
from repro.pepa.statespace import StateSpace

__all__ = ["action_generator_derivative", "throughput_sensitivity", "sensitivity_profile"]


def action_generator_derivative(space: StateSpace, action: str) -> sp.csr_matrix:
    """``∂Q/∂θ`` for scaling every ``action``-labelled rate by (1+θ)."""
    n = space.size
    rows, cols, vals = [], [], []
    for arc in space.arcs:
        if arc.action != action or arc.source == arc.target:
            continue
        rows.extend((arc.source, arc.source))
        cols.extend((arc.target, arc.source))
        vals.extend((arc.rate, -arc.rate))
    dQ = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    dQ.sum_duplicates()
    return dQ


def throughput_sensitivity(
    space: StateSpace,
    chain: CTMC,
    measured: str,
    perturbed: str,
    pi: np.ndarray | None = None,
) -> float:
    """``d throughput(measured) / dθ`` at θ=0, where θ scales every
    rate of action ``perturbed`` by (1+θ).

    When ``measured == perturbed`` the reward vector itself scales, so
    the product-rule term ``π·r`` is added.
    """
    return _sensitivities(space, chain, measured, (perturbed,), pi)[perturbed]


def sensitivity_profile(
    space: StateSpace, chain: CTMC, measured: str, pi: np.ndarray | None = None
) -> dict[str, float]:
    """The full tuning guide: sensitivity of one measure to *every*
    action's rate scale, sorted by absolute impact (largest first).
    The augmented system is factorised once for all actions."""
    profile = _sensitivities(space, chain, measured, tuple(chain.action_rates), pi)
    return dict(sorted(profile.items(), key=lambda kv: -abs(kv[1])))


def _sensitivities(space: StateSpace, chain: CTMC, measured: str,
                   perturbed: tuple[str, ...], pi: np.ndarray | None) -> dict[str, float]:
    """``throughput_sensitivity`` for each of ``perturbed``, sharing
    one steady state and one factorisation."""
    for action in (measured, *perturbed):
        if action not in chain.action_rates:
            raise SolverError(f"chain performs no action {action!r}")
    if pi is None:
        pi = steady_state(chain)
    derivative = stationary_derivatives(chain, pi)
    rewards = np.asarray(chain.action_rates[measured], dtype=float)
    profile = {}
    for action in perturbed:
        value = float(derivative(action_generator_derivative(space, action)) @ rewards)
        if action == measured:
            value += float(pi @ rewards)
        profile[action] = value
    return profile
