"""``bottom_sccs`` and ``restricted_to`` against their loop-based forms.

The vectorised implementations must return exactly what the original
per-entry loop and LIL round trip returned: the same components in the
same order, and sub-chains whose CSR arrays are equal element for
element (so every downstream solve sees the same bits).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.core.ctmcgen import ctmc_from_lts
from repro.ctmc import CTMC, build_ctmc
from repro.pepanets.semantics import explore_net
from repro.scenarios.generator import corpus_net
from repro.workloads import courier_ring_net


def loop_bottom_sccs(chain):
    n_comp, labels = connected_components(chain.Q, directed=True, connection="strong")
    coo = chain.Q.tocoo()
    leaves = set(range(n_comp))
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if v > 0 and labels[i] != labels[j]:
            leaves.discard(int(labels[i]))
    return [np.flatnonzero(labels == c) for c in sorted(leaves)]


def lil_restricted_to(chain, states):
    states = np.asarray(states, dtype=np.int64)
    sub = chain.Q[states][:, states].tolil()
    sub.setdiag(0.0)
    sub = sub.tocsr()
    sub.eliminate_zeros()
    diag = -np.asarray(sub.sum(axis=1)).ravel()
    gen = (sub + sp.diags(diag)).tocsr()
    labels = [chain.labels[i] for i in states] if chain.labels else []
    actions = {a: v[states] for a, v in chain.action_rates.items()}
    return CTMC(gen, labels=labels, action_rates=actions)


def random_chain(seed: int) -> CTMC:
    """A sparse random chain, usually reducible, some rates repeated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    transitions = []
    for _ in range(int(rng.integers(1, 3 * n))):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        rate = float(rng.choice([0.5, 1.0, 2.5])) if rng.random() < 0.5 else float(rng.random() + 0.01)
        transitions.append((i, "a" if rng.random() < 0.5 else "b", rate, j))
    return build_ctmc(n, transitions, labels=[f"s{i}" for i in range(n)])


def chains():
    for seed in range(60):
        yield f"random-{seed}", random_chain(seed)
    for seed in range(25):
        yield f"corpus-{seed}", ctmc_from_lts(explore_net(corpus_net(seed)))
    yield "courier_ring_3x2", ctmc_from_lts(explore_net(courier_ring_net(3, 2)))


CHAINS = list(chains())


def assert_same_chain(a: CTMC, b: CTMC) -> None:
    for field in ("data", "indices", "indptr"):
        got, want = getattr(a.Q, field), getattr(b.Q, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert a.Q.has_sorted_indices == b.Q.has_sorted_indices
    assert a.labels == b.labels
    assert a.action_rates.keys() == b.action_rates.keys()
    for action, rates in a.action_rates.items():
        assert np.array_equal(rates, b.action_rates[action])


@pytest.mark.parametrize("name,chain", CHAINS, ids=[name for name, _ in CHAINS])
def test_bottom_sccs_match_the_loop(name, chain):
    got, want = chain.bottom_sccs(), loop_bottom_sccs(chain)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name,chain", CHAINS, ids=[name for name, _ in CHAINS])
def test_restriction_matches_the_lil_round_trip(name, chain):
    for members in [*chain.bottom_sccs(), np.arange(chain.n_states)[::2]]:
        assert_same_chain(chain.restricted_to(members), lil_restricted_to(chain, members))


def test_the_corpus_has_reducible_chains():
    """The comparison above is only meaningful if some chains reduce."""
    assert sum(len(loop_bottom_sccs(c)) >= 1 and not c.is_irreducible()
               for _, c in CHAINS) >= 20
