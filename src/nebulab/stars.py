"""Backward-edge graphs, star components, and nebula/galaxy ordering recognition.

A star component is classified by where its center sits among the component's
positions: strictly first (left), strictly last (right), or in between
(central).  Components with two vertices have an arbitrary center and are kept
as GENERAL; they satisfy the plain nebula predicate but none of the
three-vertex-kind predicates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .core import Ordering, Tournament, check_ordering, mask_vertices
from .errors import BudgetError

ORDERING_SEARCH_BUDGET = 10


@dataclass(frozen=True)
class BackwardEdgeGraph:
    """Undirected graph of the backward pairs of a tournament under an ordering.

    ``adj[v]`` is the bitmask of the vertices joined to ``v`` by a backward
    edge; it is symmetric, and 0 for a vertex the ordering has not placed.
    """

    n: int
    adj: tuple[int, ...]


class StarKind(Enum):
    SINGLETON = "singleton"
    LEFT = "left"
    RIGHT = "right"
    CENTRAL = "central"
    GENERAL = "general"
    NON_STAR = "non-star"


@dataclass(frozen=True)
class StarComponent:
    vertices: frozenset[int]
    center: Optional[int]
    kind: StarKind
    positions: tuple[int, ...]

    @property
    def leaves(self) -> frozenset[int]:
        if self.center is None:
            return frozenset()
        return self.vertices - {self.center}


def backward_graph(t: Tournament, order: Sequence[int]) -> BackwardEdgeGraph:
    """B(T, order) for an ordering or a prefix of one: two placed vertices are
    adjacent iff the later one beats the earlier one."""
    adj = [0] * t.n
    placed = 0
    for v in order:
        if not 0 <= v < t.n:
            raise ValueError(f"ordering vertex {v} leaves the vertex range")
        if placed >> v & 1:
            raise ValueError("ordering repeats a vertex")
        back = t.rows[v] & placed
        adj[v] = back
        for u in mask_vertices(back):
            adj[u] |= 1 << v
        placed |= 1 << v
    return BackwardEdgeGraph(t.n, tuple(adj))


def classify_components(graph: BackwardEdgeGraph, order: Ordering) -> list[StarComponent]:
    """Partition the vertex set into classified backward components."""
    check_ordering(order, graph.n)
    return classify_components_partial(graph, order)


def classify_components_partial(
    graph: BackwardEdgeGraph, placed: Sequence[int]
) -> list[StarComponent]:
    """Classify the backward components among the ``placed`` vertices.

    Positions are indices into ``placed``; components come in increasing
    order of their least vertex.
    """
    pos = {v: i for i, v in enumerate(placed)}
    adj = graph.adj
    remaining = 0
    for v in placed:
        remaining |= 1 << v
    out = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & remaining & ~comp
            comp |= new
            frontier |= new
        remaining &= ~comp
        verts = mask_vertices(comp)
        comp_pos = tuple(sorted(pos[v] for v in verts))
        center, kind = None, StarKind.SINGLETON
        if len(verts) == 2:
            center, kind = verts[0], StarKind.GENERAL
        elif len(verts) > 2:
            hub = max(verts, key=lambda v: adj[v].bit_count())
            if adj[hub].bit_count() != len(verts) - 1 or any(
                adj[v].bit_count() != 1 for v in verts if v != hub
            ):
                kind = StarKind.NON_STAR
            elif pos[hub] == comp_pos[0]:
                center, kind = hub, StarKind.LEFT
            elif pos[hub] == comp_pos[-1]:
                center, kind = hub, StarKind.RIGHT
            else:
                center, kind = hub, StarKind.CENTRAL
        out.append(StarComponent(frozenset(verts), center, kind, comp_pos))
    return out


@dataclass(frozen=True)
class NebulaVerdict:
    kind: str
    holds: bool
    ordering: Optional[Ordering]
    components: tuple[StarComponent, ...]


def is_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    """Every backward component is a star or a singleton."""
    comps = classify_components(backward_graph(t, order), order)
    return all(c.kind is not StarKind.NON_STAR for c in comps)


def _is_three_star_ordering(t: Tournament, order: Ordering, kind: StarKind) -> bool:
    comps = classify_components(backward_graph(t, order), order)
    return all(
        c.kind is StarKind.SINGLETON or (c.kind is kind and len(c.vertices) == 3)
        for c in comps
    )


def is_left_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    """Every backward component is a singleton or a 3-vertex left star."""
    return _is_three_star_ordering(t, order, StarKind.LEFT)


def is_right_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    return _is_three_star_ordering(t, order, StarKind.RIGHT)


def is_central_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    return _is_three_star_ordering(t, order, StarKind.CENTRAL)


def _galaxy_positions_ok(stars: list[tuple[int, list[int]]]) -> bool:
    """No star center may sit strictly between two leaves of another star.

    Stars are given as (center position, leaf positions).
    """
    for i, (center, _) in enumerate(stars):
        for j, (_, leaves) in enumerate(stars):
            if i == j or len(leaves) < 2:
                continue
            if min(leaves) < center < max(leaves):
                return False
    return True


def is_galaxy_ordering(t: Tournament, order: Ordering) -> bool:
    """Components are left/right stars or singletons, with no star center
    positioned between two leaves of another star.

    Two-vertex components have an arbitrary center; the predicate holds if
    some assignment of their centers satisfies the positional rule.
    """
    pos = check_ordering(order, t.n)
    comps = classify_components(backward_graph(t, order), order)
    fixed = []
    ambiguous = []
    for c in comps:
        if c.kind is StarKind.SINGLETON:
            continue
        if c.kind is StarKind.GENERAL:
            ambiguous.append(sorted(pos[v] for v in c.vertices))
            continue
        if c.kind not in (StarKind.LEFT, StarKind.RIGHT):
            return False
        fixed.append((pos[c.center], [pos[v] for v in c.leaves]))
    for choice in itertools.product((0, 1), repeat=len(ambiguous)):
        stars = list(fixed)
        for flip, (p0, p1) in zip(choice, ambiguous):
            center, leaf = (p0, p1) if flip == 0 else (p1, p0)
            stars.append((center, [leaf]))
        if _galaxy_positions_ok(stars):
            return True
    return not fixed and not ambiguous


PREDICATES: dict[str, Callable[[Tournament, Ordering], bool]] = {
    "nebula": is_nebula_ordering,
    "left": is_left_nebula_ordering,
    "right": is_right_nebula_ordering,
    "central": is_central_nebula_ordering,
    "galaxy": is_galaxy_ordering,
}


def _prefix_viable(t: Tournament, placed: list[int], kind: str) -> bool:
    """Can a partial ordering still extend to one satisfying the predicate?

    The backward graph restricted to placed vertices is final, so a component
    that is already a non-star (or violates the requested 3-vertex kind) kills
    the whole subtree.
    """
    comps = classify_components_partial(backward_graph(t, placed), placed)
    for c in comps:
        if c.kind is StarKind.NON_STAR:
            return False
        if kind in ("left", "right", "central"):
            if len(c.vertices) > 3:
                return False
            if len(c.vertices) == 3:
                want = {"left": StarKind.LEFT, "right": StarKind.RIGHT,
                        "central": StarKind.CENTRAL}[kind]
                if c.kind is not want:
                    return False
            if kind == "right" and len(c.vertices) == 2:
                # a right star's hub arrives last and attaches to all leaves
                # at once, so no valid prefix ever holds a 2-vertex component
                return False
        if kind == "galaxy" and len(c.vertices) >= 3:
            if c.kind not in (StarKind.LEFT, StarKind.RIGHT):
                return False
    if kind == "galaxy":
        fixed = []
        for c in comps:
            if c.kind in (StarKind.LEFT, StarKind.RIGHT) and len(c.vertices) >= 3:
                center = min(c.positions) if c.kind is StarKind.LEFT else max(c.positions)
                fixed.append((center, [p for p in c.positions if p != center]))
        if not _galaxy_positions_ok(fixed):
            return False
    return True


def find_ordering(
    t: Tournament,
    predicate: Callable[[Tournament, Ordering], bool],
    budget: int = ORDERING_SEARCH_BUDGET,
) -> Optional[Ordering]:
    """Exhaustive ordering search with prefix pruning.

    Returns the lexicographically first ordering satisfying the predicate, or
    None after exhausting all n! candidates (pruned).
    """
    if t.n > budget:
        raise BudgetError(f"ordering search limited to n <= {budget}, got {t.n}")
    kind = next((k for k, p in PREDICATES.items() if p is predicate), "nebula")

    def descend(placed: list[int], remaining: list[int]) -> Optional[Ordering]:
        if not remaining:
            order = tuple(placed)
            return order if predicate(t, order) else None
        for v in remaining:
            placed.append(v)
            if _prefix_viable(t, placed, kind):
                found = descend(placed, [w for w in remaining if w != v])
                if found is not None:
                    placed.pop()
                    return found
            placed.pop()
        return None

    return descend([], list(range(t.n)))


def nebula_verdict(t: Tournament, kind: str, order: Optional[Ordering] = None,
                   budget: int = ORDERING_SEARCH_BUDGET) -> NebulaVerdict:
    """Check or search for an ordering of the requested kind."""
    predicate = PREDICATES[kind]
    if order is None:
        order = find_ordering(t, predicate, budget=budget)
        if order is None:
            return NebulaVerdict(kind, False, None, ())
    holds = predicate(t, order)
    comps = tuple(classify_components(backward_graph(t, order), order))
    return NebulaVerdict(kind, holds, order, comps)
