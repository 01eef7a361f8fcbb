"""Compositional Kronecker-descriptor construction for PEPA models.

The derivation graph of a PEPA system is a flat LTS, but the system
*equation* is a tree of cooperations over sequential components.  This
module re-derives the generator from that tree compositionally — one
small dense rate matrix per component per action, combined by Kronecker
products and apparent-rate scale factors — so the solver stack can run
matrix-free (:class:`repro.ctmc.operator.KroneckerDescriptor`) instead
of materialising the global CSR matrix.

The component tree and its local automata are those of the compiled
model (:class:`repro.pepa.compiled.CompiledModel`) — the same IR the
exact exploration runs on.  The construction walks that tree bottom-up,
carrying one *action block* per action type per subtree:

* **Leaf** (any non-cooperation subtree — a sequential component, a
  cell, a constant): the local derivative closure is explored
  independently over the leaf's automaton, giving per-action active
  rate matrices ``R[a]`` and passive weight matrices ``W[a]`` over the
  local states.
* **Interleaving** (``a`` outside the cooperation set): blocks simply
  concatenate — the subtrees act on disjoint positions.
* **Synchronisation** (``a`` in the cooperation set): the blocks
  combine by the PEPA bounded-capacity law.  The two exactly
  representable cases are

  - *active × passive*: the pairwise rate is ``r·w/W(y)`` where ``W``
    is the passive side's total weight in its current state — a
    Kronecker product with one state-dependent denominator group
    (the apparent-rate ``min`` cancels against the active share);
  - *active × active with constant apparent rates*: the rate scales by
    the constant ``min(α1, α2)/(α1·α2)``.

  Anything else (state-dependent active×active apparent rates,
  passive×passive synchronisation, components mixing active and
  passive activities of one type across states) raises
  :class:`DescriptorUnsupported` and the caller falls back to the
  materialised path — the descriptor is an exact representation or no
  representation at all.

Correctness notes: each leaf's independent closure is a *superset* of
its in-context reachable states, so the product space embeds every
global state; transitions out of reachable product states land in
reachable product states, making the reachable-state projection exact.
Hiding above a cooperation folds the hidden actions' blocks into
``tau`` (hidden activities can never synchronise further out, so no
apparent-rate bookkeeping survives them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lts import Lts
from repro.ctmc.chain import CTMC
from repro.ctmc.operator import DescriptorUnsupported, KroneckerDescriptor, KroneckerTerm
from repro.exceptions import StateSpaceError
from repro.pepa.compiled import CompiledModel, HideNode, Leaf, Node
from repro.pepa.environment import Environment
from repro.pepa.syntax import TAU, Expression

__all__ = ["build_descriptor", "descriptor_chain", "DescriptorUnsupported"]

#: Per-component local state-space bound — a leaf larger than this is
#: no longer "small local matrices" and the descriptor loses its point.
MAX_LOCAL_STATES = 20_000

#: Absolute product-space bound (full-space work vectors are dense).
MAX_PRODUCT_SIZE = 1 << 26

#: Beyond this product/reachable blow-up the shuffle SpMV does more
#: arithmetic than a CSR product would; auto mode should fall back.
MAX_PRODUCT_RATIO = 1024

#: Term-count safety valve for pathological synchronisation fan-out.
MAX_TERMS = 5_000


# ---------------------------------------------------------------------------
# Leaf closures
# ---------------------------------------------------------------------------
@dataclass
class _Closure:
    """One leaf's local state space: ``order[k]`` is the table index of
    local state ``k`` (BFS order from the leaf's initial state) and
    ``where`` maps table indices back to ``k``."""

    leaf: Leaf
    order: list[int]
    where: dict[int, int]

    @property
    def size(self) -> int:
        return len(self.order)


def _close_leaf(leaf: Leaf, max_local_states: int) -> _Closure:
    """Independent closure of one component's derivatives.  The closure
    is a superset of the states the component visits inside the full
    system, which is exactly what the product embedding needs."""
    try:
        order = leaf.table.closure(leaf.initial, max_local_states)
    except StateSpaceError:
        raise DescriptorUnsupported(
            f"component state space exceeds {max_local_states} states"
        ) from None
    return _Closure(leaf, order, {j: k for k, j in enumerate(order)})


# ---------------------------------------------------------------------------
# Action blocks
# ---------------------------------------------------------------------------
@dataclass
class _Term:
    coeff: float
    factors: dict[int, np.ndarray]
    scales: tuple = ()


@dataclass
class _Block:
    """All ways a subtree performs one action type: a sum of Kronecker
    terms, the activity kind, and — when still representable — the
    apparent rate in positional sum form ``sum_k parts[k].vec[u_k]``."""

    terms: list[_Term]
    kind: str  # "active" | "passive" | "mixed"
    parts: tuple[tuple[int, np.ndarray], ...] | None


def _leaf_blocks(closure: _Closure) -> dict[str, _Block]:
    d = closure.size
    pos = closure.leaf.pos
    rows, where = closure.leaf.table.rows, closure.where
    rate_mats: dict[str, np.ndarray] = {}
    weight_mats: dict[str, np.ndarray] = {}
    for i, state in enumerate(closure.order):
        for action, rate, (target,) in rows(state):
            j = where[target]
            if rate.is_passive():
                mat = weight_mats.setdefault(action, np.zeros((d, d)))
                mat[i, j] += rate.weight
            else:
                mat = rate_mats.setdefault(action, np.zeros((d, d)))
                mat[i, j] += rate.value
    blocks: dict[str, _Block] = {}
    for action in sorted(set(rate_mats) | set(weight_mats)):
        active = rate_mats.get(action)
        passive = weight_mats.get(action)
        if active is not None and passive is not None:
            # Active in some states, passive in others: legal PEPA, but
            # the uniform pairwise rate formula no longer applies.
            blocks[action] = _Block([], "mixed", None)
        elif active is not None:
            blocks[action] = _Block(
                [_Term(1.0, {pos: active})], "active", ((pos, active.sum(axis=1)),)
            )
        else:
            blocks[action] = _Block(
                [_Term(1.0, {pos: passive})], "passive", ((pos, passive.sum(axis=1)),)
            )
    return blocks


def _merge_interleaved(left: _Block | None, right: _Block | None) -> _Block:
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    kind = left.kind if left.kind == right.kind else "mixed"
    if kind == "mixed":
        return _Block([], "mixed", None)
    parts = None
    if left.parts is not None and right.parts is not None:
        parts = left.parts + right.parts
    return _Block(left.terms + right.terms, kind, parts)


def _constant_apparent(block: _Block) -> float | None:
    """The constant total apparent rate of an active block, or None
    when it is state-dependent (or opaque after a nested sync)."""
    if block.parts is None:
        return None
    if len(block.parts) == 1:
        # A single component: zeros mark states that cannot perform the
        # action (no pair fires from them), the nonzero support must be
        # uniform for the pairwise formula to hold globally.
        vec = block.parts[0][1]
        support = vec[vec > 0.0]
        if support.size == 0 or np.ptp(support) > 1e-12 * support.max():
            return None
        return float(support[0])
    # Interleaved components: the apparent rate sums one entry per
    # position, so it is constant only when every part is constant.
    total = 0.0
    for _, vec in block.parts:
        if vec.size == 0 or np.ptp(vec) > 1e-12 * max(abs(vec.max()), 1.0):
            return None
        total += float(vec[0])
    return total if total > 0.0 else None


def _synchronise(action: str, left: _Block, right: _Block) -> _Block:
    if left.kind == "mixed" or right.kind == "mixed":
        raise DescriptorUnsupported(
            f"action {action!r}: a component mixes active and passive "
            "activities across states; not descriptor-representable"
        )
    if left.kind != right.kind:
        active, passive = (left, right) if left.kind == "active" else (right, left)
        if passive.parts is None:
            raise DescriptorUnsupported(
                f"action {action!r}: passive side apparent rate is opaque"
            )
        # r * w / W(y): the min(ra, W*T) = ra floor cancels the active
        # side's apparent-rate share exactly, whatever its structure.
        group = tuple(passive.parts)
        terms = [
            _Term(
                at.coeff * pt.coeff,
                {**at.factors, **pt.factors},
                at.scales + pt.scales + (group,),
            )
            for at in active.terms
            for pt in passive.terms
        ]
        return _Block(terms, "active", None)
    if left.kind == "active":
        alpha_left = _constant_apparent(left)
        alpha_right = _constant_apparent(right)
        if alpha_left is None or alpha_right is None:
            raise DescriptorUnsupported(
                f"action {action!r}: active-active synchronisation needs "
                "constant apparent rates on both sides"
            )
        scale = min(alpha_left, alpha_right) / (alpha_left * alpha_right)
        terms = [
            _Term(
                lt.coeff * rt.coeff * scale,
                {**lt.factors, **rt.factors},
                lt.scales + rt.scales,
            )
            for lt in left.terms
            for rt in right.terms
        ]
        return _Block(terms, "active", None)
    raise DescriptorUnsupported(
        f"action {action!r}: passive-passive synchronisation is not "
        "descriptor-representable"
    )


def _tree_blocks(
    node: Node, leaf_blocks: dict[int, dict[str, _Block]]
) -> dict[str, _Block]:
    if isinstance(node, Leaf):
        return dict(leaf_blocks[node.pos])
    if isinstance(node, HideNode):
        child = _tree_blocks(node.child, leaf_blocks)
        out = {a: b for a, b in child.items() if a not in node.actions}
        hidden = [child[a] for a in sorted(child) if a in node.actions]
        if hidden:
            tau = out.get(TAU)
            for block in hidden:
                # tau never synchronises, so the apparent rate is moot;
                # only the terms and the kind survive the renaming.
                folded = _Block(block.terms, block.kind, None)
                tau = folded if tau is None else _merge_interleaved(
                    _Block(tau.terms, tau.kind, None), folded
                )
            out[TAU] = tau
        return out
    left = _tree_blocks(node.left, leaf_blocks)
    right = _tree_blocks(node.right, leaf_blocks)
    out = {}
    for action in sorted(set(left) | set(right)):
        if action in node.actions:
            if action in left and action in right:
                out[action] = _synchronise(action, left[action], right[action])
            # A shared action only one side can ever perform is blocked
            # for good: no block, no transitions.
        else:
            out[action] = _merge_interleaved(left.get(action), right.get(action))
    return out


# ---------------------------------------------------------------------------
# Projection + entry points
# ---------------------------------------------------------------------------
def _compiled(space: Lts, environment: Environment) -> tuple[CompiledModel, list]:
    """The compiled model of a PEPA derivation space and its states'
    index tuples: the exploring model when the space carries one, else
    (a space read back from the derivation cache) a fresh compile of
    state 0 with every state encoded against it."""
    codec = space.codec
    if (
        isinstance(codec, CompiledModel)
        and codec.table.env is environment
        and not codec.table.exclude
    ):
        return codec, space.keys
    system = space.states[0]
    if not isinstance(system, Expression):
        raise DescriptorUnsupported("not a PEPA derivation state space")
    return CompiledModel(system, environment), None


def _project(
    model: CompiledModel, space: Lts, vectors: list | None, closures: list[_Closure]
) -> np.ndarray:
    """Map every reachable state onto its product-space index: the
    mixed-radix number of its leaves' closure positions."""
    if vectors is None:
        vectors = []
        for state in space.states:
            try:
                vectors.append(model.encode(state))
            except ValueError:
                raise DescriptorUnsupported(
                    "reachable state no longer matches the system equation shape"
                ) from None
            except KeyError:
                raise DescriptorUnsupported(
                    "reachable state outside the component's local closure"
                ) from None
    table = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), len(closures))
    projection = np.zeros(len(vectors), dtype=np.int64)
    for column, closure in enumerate(closures):
        lookup = np.full(len(closure.leaf.table), -1, dtype=np.int64)
        lookup[closure.order] = np.arange(closure.size)
        local = lookup[table[:, column]]
        if (local < 0).any():
            raise DescriptorUnsupported(
                "reachable state outside the component's local closure"
            )
        projection = projection * closure.size + local
    return projection


def build_descriptor(
    space: Lts,
    environment: Environment,
    *,
    max_local_states: int = MAX_LOCAL_STATES,
    max_product_size: int = MAX_PRODUCT_SIZE,
    max_product_ratio: int = MAX_PRODUCT_RATIO,
) -> KroneckerDescriptor:
    """Build the Kronecker descriptor of an explored PEPA state space.

    ``space`` is the derivation LTS (state 0 is the system expression);
    ``environment`` resolves the model's constants.  Raises
    :class:`DescriptorUnsupported` whenever the model falls outside the
    exactly-representable fragment or the product space blows up past
    the point where the descriptor could win.
    """
    if space.size == 0:
        raise DescriptorUnsupported("empty state space")
    model, vectors = _compiled(space, environment)

    closures = [_close_leaf(leaf, max_local_states) for leaf in model.leaves]
    dims = tuple(closure.size for closure in closures)
    product_size = 1
    for d in dims:
        product_size *= d
        if product_size > max_product_size:
            raise DescriptorUnsupported(
                f"product space exceeds {max_product_size} states"
            )
    if product_size > 4096 and product_size > max_product_ratio * space.size:
        raise DescriptorUnsupported(
            f"product space ({product_size}) dwarfs the reachable space "
            f"({space.size}); shuffle SpMV would lose to CSR"
        )

    blocks = _tree_blocks(
        model.root, {closure.leaf.pos: _leaf_blocks(closure) for closure in closures}
    )

    terms: list[KroneckerTerm] = []
    for action in sorted(blocks):
        block = blocks[action]
        if not block.terms and block.kind == "mixed":
            raise DescriptorUnsupported(
                f"action {action!r} mixes active and passive activities at "
                "the system level"
            )
        if block.kind != "active":
            raise DescriptorUnsupported(
                f"action {action!r} stays {block.kind} at the system level"
            )
        for term in block.terms:
            terms.append(KroneckerTerm(action, term.coeff, term.factors, term.scales))
    if len(terms) > MAX_TERMS:
        raise DescriptorUnsupported(f"descriptor needs {len(terms)} terms (> {MAX_TERMS})")

    projection = _project(model, space, vectors, closures)

    try:
        return KroneckerDescriptor(dims, terms, projection)
    except ValueError as exc:  # e.g. colliding projections
        raise DescriptorUnsupported(str(exc)) from exc


def descriptor_chain(space: Lts, environment: Environment) -> CTMC:
    """A matrix-free CTMC over the descriptor generator, mirroring what
    ``build_ctmc`` produces from the arc list (labels, action-rate
    vectors, initial state) without materialising the matrix."""
    descriptor = build_descriptor(space, environment)
    labels = [space.state_label(i) for i in range(space.size)]
    return CTMC(
        labels=labels,
        action_rates=dict(descriptor.action_rates),
        initial=space.initial,
        operator=descriptor,
    )
