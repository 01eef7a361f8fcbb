"""Compiled component automata: the numerical form of a system equation.

A PEPA system equation is a tree of cooperations and hidings over
sequential components (and, inside PEPA-net places, cells).  Exploring
it by rebuilding and hashing a fresh expression per global state spends
most of its time on syntax.  Compiling the tree once gives the
numerical representation of Ding & Hillston (arXiv:1012.3040) and the
stochastic-automata-network structure of Sbeity & Brenner
(arXiv:1202.0414):

* a **synchronisation tree** — the system split at cooperation and
  hiding (:class:`SyncNode`, :class:`HideNode`), with one
  :class:`Leaf` per remaining subterm;
* a table of **local states** (:class:`LocalStates`) the leaves draw
  from.  Each local state is interned the first time it is reached and
  stores its one-step ``(action, Rate, target index)`` rows and its
  apparent rates, both taken from the SOS reference
  (:func:`repro.pepa.semantics.derivatives` /
  :func:`~repro.pepa.semantics.apparent_rate`).

A global state is then a tuple of local-state indices, one per leaf in
left-to-right order.  Every tree node reads its slice of that tuple and
memoises its moves per slice, so the cooperation rate law runs once per
distinct combination of its partners' local states, not once per global
state.  Node by node the moves are computed exactly as the SOS rules
compute them — same order, same :class:`~repro.pepa.rates.Rate`
arithmetic — so exploring index tuples discovers the same states and
arcs, with bit-identical rates, as exploring expressions.

Expressions and their printed labels are rebuilt from a tuple only on
request (:meth:`CompiledModel.decode`, :meth:`CompiledModel.label`),
through per-node memos, so a chain's labels never need a per-state
expression.  Leaves need not be sequential: a subterm without
cooperation (a constant defined as a cooperation, say) is one leaf whose
local states are whole expressions — still exact, just not compositional.
"""

from __future__ import annotations

from typing import Union

from repro.exceptions import StateSpaceError
from repro.pepa.environment import Environment
from repro.pepa.rates import Rate, cooperation_rate, rate_min, rate_sum
from repro.pepa.semantics import apparent_rate, derivatives
from repro.pepa.syntax import (
    TAU,
    WILDCARD_SET,
    Cell,
    Cooperation,
    Expression,
    Hiding,
    _paren,
)

__all__ = ["CompiledModel", "HideNode", "Leaf", "LocalStates", "SyncNode"]

#: One move of a tree node: action, rate and the node's target slice.
Move = tuple[str, Rate, tuple[int, ...]]

#: Sentinel distinguishing "memoised as None" from "not memoised".
_MISSING = object()


class LocalStates:
    """The interned local states every leaf of a model draws from.

    ``exprs[i]`` is local state ``i``.  Its :meth:`rows` (one-step moves
    as ``(action, Rate, (target index,))``, with the action types in
    ``exclude`` suppressed) and its :meth:`apparent` rates are computed
    on first request, so the table holds exactly what exploration
    needed.  Leaves with equal subterms share rows: the nine clients of
    a client/server model derive each local state once.
    """

    __slots__ = ("env", "exclude", "exprs", "index", "_rows", "_apparent",
                 "_labels", "_parens")

    def __init__(self, env: Environment, exclude: frozenset[str] = frozenset()):
        self.env = env
        self.exclude = exclude
        self.exprs: list[Expression] = []
        self.index: dict[Expression, int] = {}
        self._rows: list[list[Move] | None] = []
        self._apparent: dict[tuple[int, str], Rate | None] = {}
        self._labels: dict[int, str] = {}
        self._parens: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.exprs)

    def intern(self, expr: Expression) -> int:
        """The index of a local state, assigning the next one if new."""
        i = self.index.get(expr)
        if i is None:
            i = self.index[expr] = len(self.exprs)
            self.exprs.append(expr)
            self._rows.append(None)
        return i

    def rows(self, i: int) -> list[Move]:
        """The one-step moves of local state ``i`` (do not mutate)."""
        rows = self._rows[i]
        if rows is None:
            intern = self.intern
            rows = self._rows[i] = [
                (tr.action, tr.rate, (intern(tr.target),))
                for tr in derivatives(self.exprs[i], self.env, exclude=self.exclude)
            ]
        return rows

    def closure(self, start: int, limit: int) -> list[int]:
        """Every local state reachable from ``start`` through :meth:`rows`,
        in breadth-first order from ``start``.

        Raises :class:`StateSpaceError` when there are more than
        ``limit``.  This is the one local-state enumeration: the
        Kronecker leaves, the population replicas and environments and
        the fluid coordinates all read theirs from it.
        """
        order = [start]
        seen = {start}
        for i in order:  # ``order`` grows behind the loop: a FIFO queue
            for _, _, (j,) in self.rows(i):
                if j not in seen:
                    if len(order) >= limit:
                        raise StateSpaceError(
                            f"local state space of {self.label(start)} "
                            f"exceeds {limit} states"
                        )
                    seen.add(j)
                    order.append(j)
        return order

    def apparent(self, i: int, action: str) -> Rate | None:
        """The apparent rate of ``action`` in local state ``i``."""
        key = (i, action)
        rate = self._apparent.get(key, _MISSING)
        if rate is _MISSING:
            rate = self._apparent[key] = apparent_rate(self.exprs[i], action, self.env)
        return rate  # type: ignore[return-value]

    def label(self, i: int) -> str:
        """``str`` of local state ``i``, memoised."""
        text = self._labels.get(i)
        if text is None:
            text = self._labels[i] = str(self.exprs[i])
        return text

    def paren(self, i: int) -> str:
        """The label as it prints inside a cooperation or hiding."""
        text = self._parens.get(i)
        if text is None:
            text = self._parens[i] = _paren(self.exprs[i])
        return text


class Leaf:
    """One component position of the synchronisation tree.

    Its key is a single index into the shared :class:`LocalStates`;
    ``initial`` is the local state it starts in.
    """

    __slots__ = ("pos", "table", "initial")

    def __init__(self, pos: int, table: LocalStates, initial: int):
        self.pos = pos
        self.table = table
        self.initial = initial

    @property
    def lo(self) -> int:
        return self.pos

    @property
    def hi(self) -> int:
        return self.pos + 1

    def moves(self, v: tuple[int, ...]) -> list[Move]:
        """The local state's rows; targets are 1-tuples."""
        return self.table.rows(v[self.pos])

    compute_moves = moves

    def apparent(self, v: tuple[int, ...], action: str) -> Rate | None:
        """The local state's apparent rate of ``action``."""
        return self.table.apparent(v[self.pos], action)

    def label(self, v: tuple[int, ...]) -> str:
        """The local state's printed form."""
        return self.table.label(v[self.pos])

    render = label

    def paren(self, v: tuple[int, ...]) -> str:
        """The printed form as an operand of a combinator."""
        return self.table.paren(v[self.pos])

    def expression(self, v: tuple[int, ...]) -> Expression:
        """The local state's expression."""
        return self.table.exprs[v[self.pos]]

    build = expression

    def encode(self, expr: Expression, out: list[int]) -> None:
        """Append the index of ``expr`` (:class:`KeyError` if unknown)."""
        out.append(self.table.index[expr])

    def forget(self) -> None:
        """Nothing to release: the rows belong to the shared table."""


class _Inner:
    """Shared memo plumbing of the two combinator nodes.

    Each memo is keyed by the node's slice ``v[lo:hi]`` of the global
    index tuple.  ``compute_moves``/``render``/``build`` are the
    unmemoised forms the model root uses: every global state is
    distinct, so memoising there would only hold memory.
    """

    __slots__ = ("lo", "hi", "actions", "_moves", "_apparent", "_labels", "_exprs")

    def _init_memos(self) -> None:
        self._moves: dict[tuple[int, ...], list[Move]] = {}
        self._apparent: dict[tuple[tuple[int, ...], str], Rate | None] = {}
        self._labels: dict[tuple[int, ...], str] = {}
        self._exprs: dict[tuple[int, ...], Expression] = {}

    def moves(self, v: tuple[int, ...]) -> list[Move]:
        """The node's moves in the local states ``v`` assigns it."""
        key = v[self.lo:self.hi]
        out = self._moves.get(key)
        if out is None:
            out = self._moves[key] = self.compute_moves(v)
        return out

    def apparent(self, v: tuple[int, ...], action: str) -> Rate | None:
        """The node's apparent rate of ``action``."""
        key = (v[self.lo:self.hi], action)
        rate = self._apparent.get(key, _MISSING)
        if rate is _MISSING:
            rate = self._apparent[key] = self.compute_apparent(v, action)
        return rate  # type: ignore[return-value]

    def label(self, v: tuple[int, ...]) -> str:
        """The printed form of the node's subterm."""
        key = v[self.lo:self.hi]
        text = self._labels.get(key)
        if text is None:
            text = self._labels[key] = self.render(v)
        return text

    def paren(self, v: tuple[int, ...]) -> str:
        """The printed form as an operand: always parenthesised."""
        return f"({self.label(v)})"

    def expression(self, v: tuple[int, ...]) -> Expression:
        """The node's subterm as an expression."""
        key = v[self.lo:self.hi]
        expr = self._exprs.get(key)
        if expr is None:
            expr = self._exprs[key] = self.build(v)
        return expr

    def forget(self) -> None:
        """Drop the move and apparent-rate memos (exploration is over)."""
        self._moves.clear()
        self._apparent.clear()


class SyncNode(_Inner):
    """``left <actions> right``: Hillston's cooperation rule over the
    partners' memoised moves."""

    __slots__ = ("left", "right", "mid", "symbol")

    def __init__(self, left: "Node", right: "Node", actions: frozenset[str]):
        self.left = left
        self.right = right
        self.actions = actions
        self.lo, self.mid, self.hi = left.lo, right.lo, right.hi
        if actions == WILDCARD_SET:
            self.symbol = "<*>"
        elif actions:
            self.symbol = "<" + ", ".join(sorted(actions)) + ">"
        else:
            self.symbol = "||"
        self._init_memos()

    def compute_moves(self, v: tuple[int, ...]) -> list[Move]:
        """Interleaved moves of each side, then every synchronising
        pair per shared action (sorted), at the apparent-rate law."""
        left = self.left.moves(v)
        right = self.right.moves(v)
        actions = self.actions
        lkey = v[self.lo:self.mid]
        rkey = v[self.mid:self.hi]
        out = [(a, r, t + rkey) for a, r, t in left if a not in actions]
        out += [(a, r, lkey + t) for a, r, t in right if a not in actions]
        if not actions:
            return out
        shared = {a for a, _, _ in left if a in actions} & {
            a for a, _, _ in right if a in actions
        }
        for action in sorted(shared):
            ra_left = self.left.apparent(v, action)
            ra_right = self.right.apparent(v, action)
            for al, rl, tl in left:
                if al != action:
                    continue
                for ar, rr, tr in right:
                    if ar != action:
                        continue
                    out.append(
                        (action, cooperation_rate(rl, rr, ra_left, ra_right), tl + tr)
                    )
        return out

    def compute_apparent(self, v: tuple[int, ...], action: str) -> Rate | None:
        """``min`` over a shared action, the sum over any other."""
        left = self.left.apparent(v, action)
        right = self.right.apparent(v, action)
        if action in self.actions:
            if left is None or right is None:
                return None
            return rate_min(left, right)
        if left is None:
            return right
        if right is None:
            return left
        return rate_sum(left, right)

    def render(self, v: tuple[int, ...]) -> str:
        """``str`` of the cooperation, from the partners' labels."""
        return f"{self.left.paren(v)} {self.symbol} {self.right.paren(v)}"

    def build(self, v: tuple[int, ...]) -> Expression:
        """The cooperation expression, from the partners' memos."""
        return Cooperation(self.left.expression(v), self.right.expression(v), self.actions)

    def encode(self, expr: Expression, out: list[int]) -> None:
        """Append the partners' indices (:class:`ValueError` on a
        shape mismatch)."""
        if not isinstance(expr, Cooperation) or expr.actions != self.actions:
            raise ValueError("expression does not match the system equation shape")
        self.left.encode(expr.left, out)
        self.right.encode(expr.right, out)

    def forget(self) -> None:
        """Drop this node's and its subtree's move memos."""
        super().forget()
        self.left.forget()
        self.right.forget()


class HideNode(_Inner):
    """``child / actions``: hidden action types become ``tau``."""

    __slots__ = ("child", "exclude", "suffix")

    def __init__(self, child: "Node", actions: frozenset[str], exclude: frozenset[str]):
        self.child = child
        self.actions = actions
        self.exclude = exclude
        self.lo, self.hi = child.lo, child.hi
        self.suffix = "/{" + ", ".join(sorted(actions)) + "}"
        self._init_memos()

    def compute_moves(self, v: tuple[int, ...]) -> list[Move]:
        """The child's moves with hidden types renamed to ``tau``."""
        hidden, exclude = self.actions, self.exclude
        out = []
        for a, r, t in self.child.moves(v):
            action = TAU if a in hidden else a
            if action not in exclude:
                out.append((action, r, t))
        return out

    def compute_apparent(self, v: tuple[int, ...], action: str) -> Rate | None:
        """None for hidden types and ``tau``; the child's otherwise."""
        if action in self.actions or action == TAU:
            return None
        return self.child.apparent(v, action)

    def render(self, v: tuple[int, ...]) -> str:
        """``str`` of the hiding, from the child's label."""
        return self.child.paren(v) + self.suffix

    def build(self, v: tuple[int, ...]) -> Expression:
        """The hiding expression, from the child's memo."""
        return Hiding(self.child.expression(v), self.actions)

    def encode(self, expr: Expression, out: list[int]) -> None:
        """Append the child's indices (:class:`ValueError` on a shape
        mismatch)."""
        if not isinstance(expr, Hiding) or expr.actions != self.actions:
            raise ValueError("expression does not match the system equation shape")
        self.child.encode(expr.expr, out)

    def forget(self) -> None:
        """Drop this node's and its subtree's move memos."""
        super().forget()
        self.child.forget()


Node = Union[Leaf, SyncNode, HideNode]


def _structural(expr: Expression) -> bool:
    """True when a hiding's body must be split further: it contains a
    cooperation, or a cell a net firing must address on its own."""
    if isinstance(expr, (Cooperation, Cell)):
        return True
    if isinstance(expr, Hiding):
        return _structural(expr.expr)
    return False


class CompiledModel:
    """A system equation compiled into a synchronisation tree over
    lazily interned local automata.

    ``initial`` is the index tuple of ``system``; :meth:`moves` lists a
    global state's ``(action, Rate, target tuple)`` in the order
    :func:`~repro.pepa.semantics.derivatives` lists the expression's
    transitions.  The model is the codec of the state spaces explored
    over it (:meth:`decode`, :meth:`label`).  Several models may share
    one ``table`` (the places of a PEPA net do).
    """

    def __init__(
        self,
        system: Expression,
        env: Environment,
        *,
        exclude: frozenset[str] = frozenset(),
        table: LocalStates | None = None,
    ):
        self.system = system
        self.table = LocalStates(env, exclude) if table is None else table
        self.leaves: list[Leaf] = []
        self.root: Node = self._split(system)
        self.initial: tuple[int, ...] = tuple(leaf.initial for leaf in self.leaves)

    def _split(self, expr: Expression) -> Node:
        if isinstance(expr, Cooperation):
            return SyncNode(self._split(expr.left), self._split(expr.right), expr.actions)
        if isinstance(expr, Hiding) and _structural(expr.expr):
            return HideNode(self._split(expr.expr), expr.actions, self.table.exclude)
        leaf = Leaf(len(self.leaves), self.table, self.table.intern(expr))
        self.leaves.append(leaf)
        return leaf

    def moves(self, v: tuple[int, ...]) -> list[Move]:
        """All one-step moves of global state ``v``."""
        return self.root.compute_moves(v)

    def decode(self, v: tuple[int, ...]) -> Expression:
        """The expression of global state ``v``."""
        return self.root.build(v)

    def label(self, v: tuple[int, ...]) -> str:
        """``str(self.decode(v))``, without building the expression."""
        return self.root.render(v)

    def encode(self, expr: Expression) -> tuple[int, ...]:
        """The index tuple of an expression of the system's shape.

        Raises :class:`ValueError` when the expression's cooperation and
        hiding skeleton differs from the system's, :class:`KeyError`
        when a component is in a local state never interned."""
        out: list[int] = []
        self.root.encode(expr, out)
        return tuple(out)

    def forget_moves(self) -> None:
        """Release the per-node move memos; the local-state table, the
        labels and the decoded expressions stay."""
        self.root.forget()
