"""PEPA nets compiled for exploration over local-state index vectors.

Each place context is compiled into a
:class:`~repro.pepa.compiled.CompiledModel`; all places share one table
of local states (:class:`~repro.pepa.compiled.LocalStates`), with the
net's firing types excluded from the local rows.  A marking is then a
tuple of per-place index tuples, and a token is simply the index of a
``Family[content]`` cell state in its cell's position.

The firing rule (Definitions 2–6) runs the helpers of
:mod:`repro.pepanets.firing` — the same token combinations, apparent
rates, priority filter and type-preserving bijections the expression
reference :func:`~repro.pepanets.firing.firing_instances` uses — over
cell positions and token indices.  Each net transition's analysis
depends only on the local states of the places it touches, so it is
memoised on them and computed once, not once for concession and again
for firing.  Markings, arcs and rates come out exactly as
:func:`~repro.pepanets.semantics.net_arcs` produces them.
"""

from __future__ import annotations

from repro.exceptions import WellFormednessError
from repro.pepa.compiled import CompiledModel, LocalStates
from repro.pepa.rates import Rate
from repro.pepa.semantics import derivatives
from repro.pepa.syntax import Cell, Sequential
from repro.pepanets.firing import (
    DerivativeSets,
    Eligible,
    Vacant,
    _firing_floor,
    _output_mappings,
    _token_combinations,
)
from repro.pepanets.syntax import NetMarking, NetTransitionSpec, PepaNet, find_cells

__all__ = ["CompiledNet"]

#: A marking: one index tuple per place, in the net's place order.
MarkingVector = tuple[tuple[int, ...], ...]

#: Sentinel distinguishing "memoised as None" from "not memoised".
_MISSING = object()


class _Cell:
    """One cell position: place ``place``, leaf ``pos`` of that place's
    tuple.  ``rank`` orders cells as their ``(place, path)`` sort, and
    ``vacant`` is the index of ``Family[_]``."""

    __slots__ = ("place", "pos", "family", "rank", "vacant")

    def __init__(self, place: int, pos: int, family: str, vacant: int):
        self.place = place
        self.pos = pos
        self.family = family
        self.vacant = vacant
        self.rank = -1


class _Token:
    """One firing-type derivative of a token: its activity rate, the
    content it turns into and — per receiving family, once type-checked
    — the index of the filled cell (``None`` when not admitted)."""

    __slots__ = ("rate", "target", "into")

    def __init__(self, rate: Rate, target: Sequential):
        self.rate = rate
        self.target = target
        self.into: dict[str, int | None] = {}


class _Analysis:
    """A net transition at one assignment of local states to its places:
    token combinations, then — lazily, in the reference's order — each
    combination's bijections, the concession verdict and the firings."""

    __slots__ = ("combos", "apparent", "mappings", "concession", "firings")

    def __init__(self, combos: list, apparent: dict[str, Rate]):
        self.combos = combos
        self.apparent = apparent
        self.mappings: list[list[tuple[Vacant, ...]] | None] = [None] * len(combos)
        self.concession: bool | None = None
        self.firings: list[tuple[float, tuple]] | None = None


class _Transition:
    """A net transition with its memos: token combinations keyed on the
    local states of its input places, the full analysis on those of
    every place it touches."""

    __slots__ = ("spec", "inputs", "touched", "combos", "memo")

    def __init__(self, spec: NetTransitionSpec, slot: dict[str, int]):
        self.spec = spec
        self.inputs = tuple(sorted({slot[p] for p in spec.inputs}))
        self.touched = tuple(sorted({slot[p] for p in spec.inputs + spec.outputs}))
        self.combos: dict[tuple, tuple[list, dict[str, Rate]]] = {}
        self.memo: dict[tuple, _Analysis] = {}


class CompiledNet:
    """A PEPA net compiled once for marking-space exploration; also the
    codec turning marking vectors back into :class:`NetMarking`\\ s and
    their labels."""

    def __init__(self, net: PepaNet):
        env = net.environment
        self.net = net
        self.ds = DerivativeSets(env)
        self.table = LocalStates(env, net.firing_actions)
        marking = net.initial_marking()
        self.names = marking.place_names
        self.slot = {name: p for p, name in enumerate(self.names)}
        self.places = [
            CompiledModel(expr, env, table=self.table) for expr in marking.place_states
        ]
        self.initial: MarkingVector = tuple(place.initial for place in self.places)

        self.cells: list[list[_Cell]] = []
        order: list[tuple[tuple, _Cell]] = []
        for p, (name, place, expr) in enumerate(
            zip(self.names, self.places, marking.place_states)
        ):
            leaves = [
                leaf for leaf in place.leaves
                if isinstance(self.table.exprs[leaf.initial], Cell)
            ]
            cells = []
            for leaf, (path, cell) in zip(leaves, find_cells(expr)):
                slot = _Cell(p, leaf.pos, cell.family, self.table.intern(cell.vacated()))
                cells.append(slot)
                order.append(((name, path), slot))
            self.cells.append(cells)
        self.by_rank: list[_Cell] = []
        for rank, (_, slot) in enumerate(sorted(order, key=lambda item: item[0])):
            slot.rank = rank
            self.by_rank.append(slot)

        self.transitions = [_Transition(spec, self.slot) for spec in net.transitions.values()]
        self._tokens: dict[tuple[int, str], list[_Token]] = {}
        self._local: list[dict] = [{} for _ in self.places]
        self._exprs: list[dict] = [{} for _ in self.places]
        self._labels: list[dict] = [{} for _ in self.places]

    # ------------------------------------------------------------------
    # Successors
    # ------------------------------------------------------------------
    def successors(self, v: MarkingVector) -> list[tuple[str, float, MarkingVector]]:
        """Local moves of every place, then the enabled firings — the
        order of :func:`~repro.pepanets.semantics.net_arcs`."""
        out = []
        for p, pv in enumerate(v):
            moves = self._local[p].get(pv)
            if moves is None:
                moves = self._local[p][pv] = self._local_moves(p, pv)
            if moves:
                head, tail = v[:p], v[p + 1:]
                out += [(a, r, head + (t,) + tail) for a, r, t in moves]
        out += self._firings(v)
        return out

    def _local_moves(self, p: int, pv: tuple[int, ...]) -> list:
        out = []
        for action, rate, target in self.places[p].moves(pv):
            if rate.is_passive():
                raise WellFormednessError(
                    f"place {self.names[p]!r}: local activity ({action}, {rate}) is "
                    "passive at place level and has no partner"
                )
            out.append((action, rate.value, target))
        return out

    def _firings(self, v: MarkingVector) -> list[tuple[str, float, MarkingVector]]:
        with_concession = []
        for tr in self.transitions:
            key = tuple([v[p] for p in tr.inputs])
            combos = tr.combos.get(key)
            if combos is None:
                combos = tr.combos[key] = self._combinations(tr.spec, v)
            if not combos[0]:
                continue  # some input place has no eligible token
            key = tuple([v[p] for p in tr.touched])
            at = tr.memo.get(key)
            if at is None:
                at = tr.memo[key] = _Analysis(*combos)
            if at.concession is None:
                at.concession = any(
                    self._mappings(tr.spec, at, k, v) for k in range(len(at.combos))
                )
            if at.concession:
                with_concession.append((tr.spec, at))
        if not with_concession:
            return []
        top = max(spec.priority for spec, _ in with_concession)
        enabled = sorted(
            (item for item in with_concession if item[0].priority == top),
            key=lambda item: item[0].name,
        )
        out = []
        for spec, at in enabled:
            if at.firings is None:
                at.firings = self._fire(spec, at, v)
            for rate, updates in at.firings:
                successor = list(v)
                for p, pv in updates:
                    successor[p] = pv
                out.append((spec.action, rate, tuple(successor)))
        return out

    def _combinations(
        self, spec: NetTransitionSpec, v: MarkingVector
    ) -> tuple[list, dict[str, Rate]]:
        action = spec.action

        def eligible_of(place: str) -> list[Eligible]:
            p = self.slot[place]
            pv = v[p]
            return [
                (cell.rank, token.rate, (cell, token))
                for cell in self.cells[p]
                for token in self._tokens_of(pv[cell.pos], action)
            ]

        return _token_combinations(spec, eligible_of)

    def _tokens_of(self, i: int, action: str) -> list[_Token]:
        """The ``action``-derivatives of the token in cell state ``i``
        (Definition 2), with no action type excluded."""
        key = (i, action)
        tokens = self._tokens.get(key)
        if tokens is None:
            content = self.table.exprs[i].content  # type: ignore[attr-defined]
            tokens = self._tokens[key] = [] if content is None else [
                _Token(tr.rate, tr.target)
                for tr in derivatives(content, self.table.env)
                if tr.action == action
            ]
        return tokens

    def _admits(self, family: str, token: _Token) -> bool:
        index = token.into.get(family, _MISSING)
        if index is _MISSING:
            index = token.into[family] = (
                self.table.intern(Cell(family, token.target))
                if self.ds.admits(family, token.target) else None
            )
        return index is not None

    def _mappings(
        self, spec: NetTransitionSpec, at: _Analysis, k: int, v: MarkingVector
    ) -> list[tuple[Vacant, ...]]:
        mappings = at.mappings[k]
        if mappings is None:

            def vacant_of(place: str) -> list[Vacant]:
                p = self.slot[place]
                pv = v[p]
                return [
                    (cell.rank, cell.family)
                    for cell in self.cells[p] if pv[cell.pos] == cell.vacant
                ]

            targets = tuple(token for _, token in at.combos[k][0])
            mappings = at.mappings[k] = _output_mappings(
                spec, targets, vacant_of, self._admits
            )
        return mappings

    def _fire(
        self, spec: NetTransitionSpec, at: _Analysis, v: MarkingVector
    ) -> list[tuple[float, tuple]]:
        """Definition 6 over indices: per firing, its rate and the new
        index tuples of the places it changes."""
        floor = _firing_floor(spec, at.apparent)
        out = []
        for k, (combo, share) in enumerate(at.combos):
            mappings = self._mappings(spec, at, k, v)
            if not mappings:
                continue
            combo_rate = share * floor.value
            per_mapping = combo_rate / len(mappings)
            for mapping in mappings:
                changed: dict[int, list[int]] = {}
                for cell, _ in combo:
                    if cell.place not in changed:
                        changed[cell.place] = list(v[cell.place])
                    changed[cell.place][cell.pos] = cell.vacant
                for (_, token), (rank, family) in zip(combo, mapping):
                    cell = self.by_rank[rank]
                    if cell.place not in changed:
                        changed[cell.place] = list(v[cell.place])
                    changed[cell.place][cell.pos] = token.into[family]
                out.append(
                    (per_mapping, tuple((p, tuple(pv)) for p, pv in changed.items()))
                )
        return out

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def decode(self, v: MarkingVector) -> NetMarking:
        """The :class:`NetMarking` of a marking vector."""
        states = []
        for p, pv in enumerate(v):
            expr = self._exprs[p].get(pv)
            if expr is None:
                expr = self._exprs[p][pv] = self.places[p].decode(pv)
            states.append(expr)
        return NetMarking(self.names, tuple(states))

    def label(self, v: MarkingVector) -> str:
        """``str(self.decode(v))``, from per-place memoised strings."""
        parts = []
        for p, pv in enumerate(v):
            text = self._labels[p].get(pv)
            if text is None:
                text = self._labels[p][pv] = f"{self.names[p]}: {self.places[p].label(pv)}"
            parts.append(text)
        return " | ".join(parts)

    def forget_moves(self) -> None:
        """Release the exploration memos; the codec's memos stay."""
        for place in self.places:
            place.forget_moves()
        for memo in self._local:
            memo.clear()
        for tr in self.transitions:
            tr.combos.clear()
            tr.memo.clear()
        self._tokens.clear()
