"""Exact lumping by vectorised partition refinement.

State-space explosion is the stated disadvantage of the numerical
route (paper §1.1); exact aggregation is the classical mitigation.  A
partition is *ordinarily lumpable* if every state in a block has the
same total rate into every other block; the lumped chain over blocks is
then an exact CTMC whose stationary distribution aggregates the
original's.  It is *exactly lumpable* if every state in a block
receives the same total rate from every block; *strictly lumpable* if
it is both, and then π is also uniform within each block, so the
quotient's solution lifts back to the full chain exactly.

One refinement engine finds the partitions and checks ``lift``'s
blocks.  Each round reads every state's rates out to each block, the
rows of ``off @ E`` (and, for strict lumping, in from each block,
``offᵀ @ E``), where ``off`` is the generator without its diagonal and
``E`` the n×k block-indicator matrix; the product is formed by summing
``off``'s entries per (state, block) pair.  Each state's signature is
its current block followed by those (block, rate key) pairs padded to a
fixed width; grouping equal signature rows splits the blocks.  Rounds repeat until the block count
stops changing, and only states in blocks of two or more take part.

Rate keys are either absolute (``round(rate / rate_tolerance)``, the
meaning :func:`coarsest_lumping` has always given its tolerance) or, for the solver's strict
lumping, per-value relative: the float rounded to 40 mantissa bits
(about 1e-12), so sums that differ in the last ulp still match while
genuinely different small rates never merge.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC
from repro.exceptions import SolverError

__all__ = ["lump", "LumpedChain", "coarsest_lumping", "strict_lumping", "verify_lumpable"]

#: Mantissa bits dropped by the relative rate key (52 − 12 = 40 kept).
_DROPPED_BITS = 12
#: Refinement rounds :func:`strict_lumping` allows before it gives up
#: and reports the trivial partition.  Plain refinement needs one round
#: per link of the longest chain of splits: replicated components and
#: symmetric nets settle in one or two, a symmetric birth–death chain
#: would take n/2, each round a pass over the generator.
_MAX_ROUNDS = 8


class LumpedChain:
    """The result of lumping: the quotient chain plus the block map."""

    #: Rates compare equal in :meth:`lift` when they round to the same
    #: multiple of this; :func:`lump` sets it to its own tolerance.
    rate_tolerance = 1e-9

    def __init__(self, chain: CTMC, block_of: np.ndarray, blocks: list[np.ndarray]):
        self.chain = chain
        self.block_of = block_of
        self.blocks = blocks

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def lift(self, pi_lumped: np.ndarray, original: CTMC) -> np.ndarray:
        """The full chain's π from the quotient's: each block's
        probability split evenly over its members.

        The even split is exact when the partition is also exactly
        lumpable (every member of a block receives the same rate from
        every block).  That is checked here; a block that fails it
        raises :class:`SolverError` naming the block, because its
        members' probabilities are then not equal.
        """
        rows, cols, rates = _off_entries(original.Q)
        split = _split((cols, rows, rates), self.block_of, self.rate_tolerance,
                       -original.Q.diagonal())
        if split is not None:
            members = self.blocks[split]
            raise SolverError(
                f"cannot lift to the full chain: block {split} "
                f"(states {members.tolist()[:8]}{', ...' if len(members) > 8 else ''}) "
                "is not exactly lumpable, so its members' probabilities differ"
            )
        sizes = np.bincount(self.block_of)
        return (np.asarray(pi_lumped, dtype=float) / sizes)[self.block_of]


# ----------------------------------------------------------------------
# The refinement engine
# ----------------------------------------------------------------------
def _off_entries(Q: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, col, rate) entries of the generator off its diagonal,
    stored zeros dropped."""
    rows = np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))
    keep = (Q.indices != rows) & (Q.data != 0.0)
    return rows[keep], Q.indices[keep], Q.data[keep]


def _rate_keys(values: np.ndarray, tolerance: float | None) -> np.ndarray:
    """Integer keys for rates: equal keys mean "the same rate".

    ``tolerance=None`` rounds each value to 40 mantissa bits (positive
    floats order like their bit patterns, so rounding the pattern
    rounds the value); otherwise the key is ``round(value / tolerance)``
    kept as a float's bit pattern, so no magnitude overflows it.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if tolerance is None:
        bits = values.view(np.int64)
        return (bits + (1 << (_DROPPED_BITS - 1))) >> _DROPPED_BITS
    return (np.rint(values / tolerance) + 0.0).view(np.int64)


def _block_rates(direction, block_of: np.ndarray, k: int, position: np.ndarray,
                 tolerance: float | None) -> np.ndarray:
    """Each active state's rates along ``direction`` summed per block:
    the rows of ``M @ E`` for the matrix ``M`` of the (source, target,
    rate) entries and the block-indicator matrix ``E``.  ``position``
    maps a state to its row (−1 if inactive).  Laid out as an
    ``(n_active, 2w)`` int64 array: blocks ascending, then rate keys;
    padding −1/0."""
    src, dst, rates = direction
    row = position[src]
    sel = row >= 0
    pairs, inverse = np.unique(row[sel] * k + block_of[dst[sel]], return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=rates[sel])
    row, block = np.divmod(pairs, k)
    counts = np.bincount(row, minlength=int(position.max()) + 1)
    width = int(counts.max())
    out = np.zeros((counts.size, 2 * width), dtype=np.int64)
    out[:, :width] = -1
    slot = np.arange(pairs.size) - (np.cumsum(counts) - counts)[row]
    out[row, slot] = block
    out[row, width + slot] = _rate_keys(sums, tolerance)
    return out


def _signatures(directions, block_of, k, active, tolerance) -> np.ndarray:
    """Signature rows of the ``active`` states: current block, then the
    padded block rates along each direction."""
    position = np.full(block_of.size, -1, dtype=np.int64)
    position[active] = np.arange(active.size)
    return np.hstack([block_of[active, None]]
                     + [_block_rates(d, block_of, k, position, tolerance) for d in directions])


def _refine(directions, block_of: np.ndarray, tolerance: float | None,
            max_rounds: int | None = None) -> np.ndarray | None:
    """Split ``block_of`` until every state in a block has the same
    block rates along every direction.

    Returns contiguous block ids, or ``None`` if ``max_rounds`` rounds
    did not reach a stable partition.
    """
    rounds = 0
    while True:
        k = int(block_of.max()) + 1
        sizes = np.bincount(block_of, minlength=k)
        active = np.flatnonzero(sizes[block_of] > 1)
        if active.size == 0:
            return block_of
        if max_rounds is not None and rounds >= max_rounds:
            return None
        rounds += 1
        sub = np.unique(_signatures(directions, block_of, k, active, tolerance), axis=0,
                        return_inverse=True)[1].ravel()
        if int(sub.max()) + 1 == np.count_nonzero(sizes > 1):
            return block_of
        # new blocks take fresh ids, then the ids are compacted
        block_of = block_of.copy()
        block_of[active] = k + sub
        used = np.zeros(k + int(sub.max()) + 1, dtype=bool)
        used[block_of] = True
        block_of = (np.cumsum(used) - 1)[block_of]


def _split(direction, block_of, tolerance, exits) -> int | None:
    """The first block whose members disagree on their block rates along
    ``direction`` or on their exit rates, or ``None``: one refinement
    round used as a check."""
    k = int(block_of.max()) + 1
    active = np.flatnonzero(np.bincount(block_of, minlength=k)[block_of] > 1)
    if active.size == 0:
        return None
    sig = np.column_stack([_signatures([direction], block_of, k, active, tolerance),
                           _rate_keys(exits[active], tolerance)])
    _, first = np.unique(sig, axis=0, return_index=True)
    groups_per_block = np.bincount(block_of[active][first], minlength=k)
    bad = np.flatnonzero(groups_per_block > 1)
    return int(bad[0]) if bad.size else None


def _canonical(block_of: np.ndarray) -> np.ndarray:
    """Renumber blocks in order of their smallest member."""
    _, first = np.unique(block_of, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[block_of]


def _members(block_of: np.ndarray) -> list[np.ndarray]:
    order = np.argsort(block_of, kind="stable")
    bounds = np.cumsum(np.bincount(block_of))[:-1]
    return np.split(order, bounds)


# ----------------------------------------------------------------------
# Public queries
# ----------------------------------------------------------------------
def strict_lumping(Q: sp.csr_matrix) -> np.ndarray:
    """Block ids of the coarsest strictly lumpable partition of the
    generator ``Q``, numbered in order of each block's smallest state.

    Refinement starts from the classes of (exit rate, total in-rate);
    when those pairs are already all distinct the partition is trivial
    and no refinement round runs.  Rates compare by per-value
    relative keys (40 mantissa bits).  A chain whose refinement does
    not settle within :data:`_MAX_ROUNDS` rounds gets the trivial
    partition.
    """
    n = Q.shape[0]
    rows, cols, rates = _off_entries(Q)
    exit_keys = _rate_keys(-Q.diagonal(), None)
    in_keys = _rate_keys(np.bincount(cols, weights=rates, minlength=n), None)
    order = np.lexsort((in_keys, exit_keys))
    new_class = np.ones(n, dtype=bool)
    new_class[1:] = (np.diff(exit_keys[order]) != 0) | (np.diff(in_keys[order]) != 0)
    block_of = np.empty(n, dtype=np.int64)
    block_of[order] = np.cumsum(new_class) - 1
    refined = _refine([(rows, cols, rates), (cols, rows, rates)], block_of, None, _MAX_ROUNDS)
    return np.arange(n) if refined is None else _canonical(refined)


def quotient(Q: sp.csr_matrix, block_of: np.ndarray) -> sp.csr_matrix:
    """The lumped generator ``diag(1/|B|)·Eᵀ Q E``: rates between blocks
    averaged over the source block's members, diagonal rebuilt so rows
    sum to zero (exact when ``block_of`` is ordinarily lumpable)."""
    rows, cols, rates = _off_entries(Q)
    k = int(block_of.max()) + 1
    sizes = np.bincount(block_of, minlength=k).astype(float)
    src, dst = block_of[rows], block_of[cols]
    between = src != dst
    off = sp.csr_matrix((rates[between] / sizes[src[between]], (src[between], dst[between])),
                        shape=(k, k))
    return (off - sp.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()


def coarsest_lumping(
    chain: CTMC,
    initial_partition: Callable[[int, str], object] | None = None,
    *,
    rate_tolerance: float = 1e-9,
) -> list[np.ndarray]:
    """The coarsest ordinarily-lumpable partition refining the initial
    one.

    ``initial_partition`` maps ``(state_index, label)`` to a block key;
    states whose measures must stay distinguishable should map to
    different keys.  Default: one single block (pure aggregation).
    Rates into a block compare equal when they round to the same
    multiple of ``rate_tolerance``.  Blocks are listed in order of their
    smallest member.
    """
    return _members(_coarsest(chain, initial_partition, rate_tolerance))


def _coarsest(chain, initial_partition, rate_tolerance) -> np.ndarray:
    n = chain.n_states
    if initial_partition is None:
        block_of = np.zeros(n, dtype=np.int64)
    else:
        labels = chain.labels or [""] * n
        ids: dict[object, int] = {}
        block_of = np.array(
            [ids.setdefault(initial_partition(i, labels[i]), len(ids)) for i in range(n)],
            dtype=np.int64,
        )
    return _canonical(_refine([_off_entries(chain.Q)], block_of, rate_tolerance))


def lump(
    chain: CTMC,
    initial_partition: Callable[[int, str], object] | None = None,
    *,
    rate_tolerance: float = 1e-9,
) -> LumpedChain:
    """Lump ``chain`` by its coarsest ordinary lumping and build the
    quotient CTMC (including lumped per-action rate vectors, so
    throughput survives aggregation)."""
    block_of = _coarsest(chain, initial_partition, rate_tolerance)
    blocks = _members(block_of)
    labels = []
    for b, members in enumerate(blocks):
        if chain.labels:
            labels.append("{" + ", ".join(chain.labels[m] for m in members[:3])
                          + (", ..." if len(members) > 3 else "") + "}")
        else:
            labels.append(f"block{b}")
    sizes = np.bincount(block_of).astype(float)
    action_rates = {
        a: np.bincount(block_of, weights=v) / sizes for a, v in chain.action_rates.items()
    }
    lumped = CTMC(quotient(chain.Q, block_of), labels=labels, action_rates=action_rates,
                  initial=int(block_of[chain.initial]))
    result = LumpedChain(lumped, block_of, blocks)
    result.rate_tolerance = rate_tolerance
    return result


def verify_lumpable(chain: CTMC, blocks: list[np.ndarray], tol: float = 1e-9) -> bool:
    """Check the ordinary-lumpability condition for a given partition:
    every state's rates into each block, those above ``tol`` kept, must
    name the same blocks as its block's first member's and differ from
    them by at most ``tol``."""
    n, k = chain.n_states, len(blocks)
    block_of = np.empty(n, dtype=np.int64)
    for b, members in enumerate(blocks):
        block_of[members] = b
    rows, cols, rates = _off_entries(chain.Q)
    into = sp.csr_matrix((rates, (rows, block_of[cols])), shape=(n, k))
    into.data[np.abs(into.data) <= tol] = 0.0
    into.eliminate_zeros()
    first = np.array([members[0] for members in blocks], dtype=np.int64)
    reference = into[first[block_of]]
    if (into.astype(bool) != reference.astype(bool)).nnz:
        return False
    gap = abs(into - reference)
    return gap.nnz == 0 or gap.max() <= tol
