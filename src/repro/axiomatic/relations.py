"""Relational algebra over event identifiers.

The axiomatic model (Fig. 6) is phrased as unions, compositions and
restrictions of binary relations over events, plus acyclicity/emptiness
checks.  :class:`Relation` provides exactly those operations on sets of
``(EventId, EventId)`` pairs, keeping :mod:`repro.axiomatic.model` close to
the herd/cat source text.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .events import Event, EventId

Pair = tuple[EventId, EventId]


class Relation:
    """An immutable binary relation over event identifiers."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[Pair] = ()) -> None:
        self._pairs: frozenset[Pair] = frozenset(pairs)

    # -- basic set operations ------------------------------------------------
    def __or__(self, other: "Relation") -> "Relation":
        return Relation(self._pairs | other._pairs)

    def __and__(self, other: "Relation") -> "Relation":
        return Relation(self._pairs & other._pairs)

    def __sub__(self, other: "Relation") -> "Relation":
        return Relation(self._pairs - other._pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._pairs

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Relation({sorted(self._pairs)})"

    # -- relational operators --------------------------------------------------
    def compose(self, other: "Relation") -> "Relation":
        """Relational composition ``self ; other``."""
        by_src: dict[EventId, list[EventId]] = {}
        for a, b in other._pairs:
            by_src.setdefault(a, []).append(b)
        return Relation(
            (a, c) for a, b in self._pairs for c in by_src.get(b, ())
        )

    def inverse(self) -> "Relation":
        """The converse relation ``self^-1``."""
        return Relation((b, a) for a, b in self._pairs)

    def restrict(
        self,
        domain: Callable[[EventId], bool] | None = None,
        range_: Callable[[EventId], bool] | None = None,
    ) -> "Relation":
        """Restrict the domain and/or range by predicates on event ids."""
        return Relation(
            (a, b)
            for a, b in self._pairs
            if (domain is None or domain(a)) and (range_ is None or range_(b))
        )

    def transitive_closure(self) -> "Relation":
        """The transitive closure ``self+`` (used only on small graphs)."""
        succ: dict[EventId, set[EventId]] = {}
        for a, b in self._pairs:
            succ.setdefault(a, set()).add(b)
        closure: set[Pair] = set()
        for start in list(succ):
            seen: set[EventId] = set()
            stack = list(succ.get(start, ()))
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                closure.add((start, node))
                stack.extend(succ.get(node, ()))
        return Relation(closure)

    def is_acyclic(self) -> bool:
        """Is the relation acyclic (no directed cycle)?"""
        succ: dict[EventId, list[EventId]] = {}
        nodes: set[EventId] = set()
        for a, b in self._pairs:
            succ.setdefault(a, []).append(b)
            nodes.add(a)
            nodes.add(b)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in nodes}
        for root in nodes:
            if colour[root] != WHITE:
                continue
            stack: list[tuple[EventId, Iterator[EventId]]] = [(root, iter(succ.get(root, ())))]
            colour[root] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == GREY:
                        return False
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        stack.append((child, iter(succ.get(child, ()))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return True

    def is_empty(self) -> bool:
        return not self._pairs


def identity_on(events: Iterable[Event], predicate: Callable[[Event], bool]) -> Relation:
    """The identity relation restricted to events satisfying ``predicate``.

    Corresponds to the cat-language ``[S]`` set-as-relation notation.
    """
    return Relation((e.eid, e.eid) for e in events if predicate(e))


def relation_from_pairs(pairs: Iterable[tuple[Event, Event]]) -> Relation:
    """Build a relation from event (not event-id) pairs."""
    return Relation((a.eid, b.eid) for a, b in pairs)


def cross(sources: Iterable[Event], targets: Iterable[Event]) -> Relation:
    """Cartesian product of two event sets as a relation."""
    targets = list(targets)
    return Relation((s.eid, t.eid) for s in sources for t in targets)


__all__ = ["Relation", "Pair", "identity_on", "relation_from_pairs", "cross"]
