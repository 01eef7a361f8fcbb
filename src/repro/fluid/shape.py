"""Recognising the replicated-population shape of a system equation.

The fluid analyzer (like the exact population construction in
:mod:`repro.pepa.population`) applies to systems of the form

    (P || P || ... || P)  <L>  Q

— ``n`` textually identical replicas of one sequential constant ``P``
in pure interleaving, cooperating over ``L`` with an arbitrary (small)
environment component ``Q``; the environment (and the cooperation) may
be absent, and the replica block may sit on either side.  This module
extracts that shape from a parsed :class:`~repro.pepa.environment.PepaModel`
so the CLI's ``--fluid`` flag works on ordinary model files: the model
is written with a handful of replicas, and ``--replicas N`` rescales
the population without ever rebuilding an ``N``-wide expression.

Models outside the shape raise :class:`FluidUnsupported` with a
diagnostic naming the offending subterm — mirroring
:class:`~repro.ctmc.operator.DescriptorUnsupported`, these are
capability boundaries for the caller to fall back on, not bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.pepa.compiled import CompiledModel, Leaf, LocalStates, Node, SyncNode
from repro.pepa.environment import PepaModel
from repro.pepa.syntax import Const, Expression

__all__ = ["FluidUnsupported", "PopulationShape", "population_shape"]


class FluidUnsupported(ReproError):
    """The model cannot be analysed by the fluid/mean-field route.

    Raised by the shape recogniser and the NVF compiler when a system
    equation falls outside the ``(P || ... || P) <L> Q`` population
    shape (or violates its rate discipline).  Callers fall back to the
    exact CTMC path — the exception is a capability boundary, so the
    message always names what was unsupported and why.
    """


@dataclass(frozen=True)
class PopulationShape:
    """The decomposed population form of a system equation.

    ``replica`` is the constant name of the replicated component,
    ``n_replicas`` how many copies the equation spells out,
    ``environment`` the (possibly absent) cooperating component and
    ``cooperation`` the shared action set (empty iff no environment or
    a pure ``||`` composition).
    """

    replica: str
    n_replicas: int
    environment: Expression | None
    cooperation: frozenset[str]

    def describe(self) -> str:
        """The shape in one line, e.g. ``Client^100 <use> Server``."""
        env = f" <{', '.join(sorted(self.cooperation))}> {self.environment}" \
            if self.environment is not None else ""
        return f"{self.replica}^{self.n_replicas}{env}"


def _replica_block(node: Node, table: LocalStates) -> tuple[str, int] | None:
    """``(constant, count)`` when ``node`` is ``P || ... || P``: a
    subtree of empty-set cooperations whose leaves all start at the same
    interned constant.  Anything else (prefixes, hiding, cells, a
    non-empty cooperation) disqualifies the subtree as a replica block.
    """
    if isinstance(node, Leaf):
        expr = table.exprs[node.initial]
        return (expr.name, 1) if isinstance(expr, Const) else None
    if isinstance(node, SyncNode) and not node.actions:
        left = _replica_block(node.left, table)
        right = _replica_block(node.right, table)
        if left is not None and right is not None and left[0] == right[0]:
            return left[0], left[1] + right[1]
    return None


def population_shape(model: PepaModel) -> PopulationShape:
    """Decompose ``model``'s system equation into its population shape.

    The shape is a query on the compiled synchronisation tree
    (:class:`~repro.pepa.compiled.CompiledModel`).  Raises
    :class:`FluidUnsupported` when the equation is not a pure
    interleaving of one constant, optionally cooperating with a single
    environment component.  When both sides of the top cooperation are
    replica blocks the larger one is taken as the population (ties go
    left) and the other becomes the environment.
    """
    system = model.system
    compiled = CompiledModel(system, model.environment)
    root, table = compiled.root, compiled.table
    whole = _replica_block(root, table)
    if whole is not None:
        name, count = whole
        return PopulationShape(name, count, None, frozenset())
    if not isinstance(root, SyncNode):
        raise FluidUnsupported(
            f"system equation {system} is not a replicated population: "
            "expected (P || ... || P) <L> Q with a single repeated constant"
        )
    left = _replica_block(root.left, table)
    right = _replica_block(root.right, table)
    if left is None and right is None:
        raise FluidUnsupported(
            f"neither side of the top-level cooperation {system} is a pure "
            "interleaving of one constant; the fluid analyzer needs the "
            "(P || ... || P) <L> Q population shape"
        )
    if left is not None and (right is None or right[1] <= left[1]):
        (name, count), environment = left, root.right
    else:
        (name, count), environment = right, root.left
    return PopulationShape(
        name, count, environment.expression(compiled.initial), root.actions
    )
