"""Backward-edge graphs, star components, and nebula/galaxy ordering recognition.

A star component is classified by where its center sits among the component's
positions: strictly first (left), strictly last (right), or in between
(central).  Components with two vertices have an arbitrary center and are kept
as GENERAL; they satisfy the plain nebula predicate but none of the
three-vertex-kind predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .core import Ordering, Tournament, check_ordering, mask_vertices, vertex_mask
from .errors import BudgetError

ORDERING_SEARCH_BUDGET = 12


class StarKind(Enum):
    SINGLETON = "singleton"
    LEFT = "left"
    RIGHT = "right"
    CENTRAL = "central"
    GENERAL = "general"
    NON_STAR = "non-star"


@dataclass(frozen=True)
class StarComponent:
    mask: int  # the component's vertex set, bit v for vertex v
    center: Optional[int]
    kind: StarKind
    positions: tuple[int, ...]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(mask_vertices(self.mask))


def backward_graph(t: Tournament, order: Sequence[int]) -> tuple[int, ...]:
    """B(T, order) for an ordering or a prefix of one, as symmetric adjacency
    masks: two placed vertices are adjacent iff the later one beats the
    earlier one, and the mask of a vertex not yet placed is 0."""
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
    return tuple(adj)


def classify_components(adj: Sequence[int], order: Ordering) -> list[StarComponent]:
    """Partition the vertex set into classified backward components."""
    check_ordering(order, len(adj))
    return classify_components_partial(adj, order)


def classify_components_partial(adj: Sequence[int], placed: Sequence[int]) -> list[StarComponent]:
    """Classify the backward components among the ``placed`` vertices.

    Positions are indices into ``placed``; components come in increasing
    order of their least vertex.
    """
    remaining = vertex_mask(placed)
    out = []
    while remaining:
        comp, grown = 0, remaining & -remaining
        while grown != comp:
            comp = grown
            for u in mask_vertices(comp):
                grown |= adj[u] & remaining
        remaining &= ~comp
        out.append(_classify(comp, adj, placed))
    return out


def _classify(comp: int, adj: Sequence[int], placed: Sequence[int]) -> StarComponent:
    """The star rule on the backward component with vertex mask ``comp``."""
    verts = mask_vertices(comp)
    comp_pos = tuple(i for i, v in enumerate(placed) if comp >> v & 1)
    center, kind = None, StarKind.SINGLETON
    if len(verts) == 2:
        center, kind = verts[0], StarKind.GENERAL
    elif len(verts) > 2:
        hub = max(verts, key=lambda v: adj[v].bit_count())
        if adj[hub].bit_count() != len(verts) - 1 or any(
            adj[v].bit_count() != 1 for v in verts if v != hub
        ):
            kind = StarKind.NON_STAR
        elif placed[comp_pos[0]] == hub:
            center, kind = hub, StarKind.LEFT
        elif placed[comp_pos[-1]] == hub:
            center, kind = hub, StarKind.RIGHT
        else:
            center, kind = hub, StarKind.CENTRAL
    return StarComponent(comp, center, kind, comp_pos)


@dataclass(frozen=True)
class NebulaVerdict:
    holds: bool
    ordering: Optional[Ordering]
    components: tuple[StarComponent, ...]


_THREE_STAR_KINDS = {"left": StarKind.LEFT, "right": StarKind.RIGHT, "central": StarKind.CENTRAL}


def _galaxy_positions_ok(stars: list[tuple[int, Sequence[int]]]) -> bool:
    """No star center may sit strictly between two leaves of another star;
    stars are given as (center position, leaf positions)."""
    return not any(
        i != j and len(leaves) >= 2 and min(leaves) < center < max(leaves)
        for i, (center, _) in enumerate(stars) for j, (_, leaves) in enumerate(stars)
    )


def _admissible(
    comps: Sequence[StarComponent], kind: str, complete: bool, gap: bool = False
) -> bool:
    """The rule of an ordering kind on classified backward components.

    With ``complete`` the components are those of a whole ordering, and the
    answer is the kind's predicate.  Otherwise they are those of a prefix,
    whose backward graph is final among the placed vertices, and False means
    that no extension of the prefix satisfies the predicate.  The complete
    rule is the stricter one.  With ``gap`` other vertices may still arrive
    before the prefix's last vertex, so the right-kind 2-vertex clause is not
    applied.

    Two-vertex components have an arbitrary center: a galaxy ordering needs
    some choice of their centers to satisfy the positional rule.  With one
    leaf such a component constrains no other, so each picks its center
    alone: it needs an end outside every star's leaf span.
    """
    want = _THREE_STAR_KINDS.get(kind)
    stars: list[tuple[int, Sequence[int]]] = []  # galaxy: (center, leaves)
    pairs: list[tuple[int, ...]] = []  # galaxy: two-vertex positions
    for c in comps:
        size = len(c.positions)
        if c.kind is StarKind.NON_STAR:
            return False
        if want is not None:
            # a right star's hub arrives last and attaches to all leaves at
            # once, so no prefix of a right nebula ordering holds a 2-vertex
            # component; across a gap, the last vertex can still become the
            # hub of a leaf placed before it
            if size > 3 or (size == 3 and c.kind is not want) or (
                size == 2 and (complete or (want is StarKind.RIGHT and not gap))
            ):
                return False
        elif kind == "galaxy" and size >= 3:
            if c.kind is StarKind.LEFT:
                stars.append((c.positions[0], c.positions[1:]))
            elif c.kind is StarKind.RIGHT:
                stars.append((c.positions[-1], c.positions[:-1]))
            else:
                return False
        elif kind == "galaxy" and size == 2 and complete:
            pairs.append(c.positions)
    if kind != "galaxy":
        return True
    spans = [(min(leaves), max(leaves)) for _, leaves in stars]
    return _galaxy_positions_ok(stars) and all(
        any(all(not lo < end < hi for lo, hi in spans) for end in pair) for pair in pairs
    )


def _ordering_admissible(t: Tournament, order: Ordering, kind: str) -> bool:
    return _admissible(classify_components(backward_graph(t, order), order), kind, True)


def is_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    """Every backward component is a star or a singleton."""
    return _ordering_admissible(t, order, "nebula")


def is_left_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    """Every backward component is a singleton or a 3-vertex left star."""
    return _ordering_admissible(t, order, "left")


def is_right_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    return _ordering_admissible(t, order, "right")


def is_central_nebula_ordering(t: Tournament, order: Ordering) -> bool:
    return _ordering_admissible(t, order, "central")


def is_galaxy_ordering(t: Tournament, order: Ordering) -> bool:
    """Components are left/right stars or singletons, with no star center
    positioned between two leaves of another star."""
    return _ordering_admissible(t, order, "galaxy")


PREDICATES: dict[str, Callable[[Tournament, Ordering], bool]] = {
    "nebula": is_nebula_ordering,
    "left": is_left_nebula_ordering,
    "right": is_right_nebula_ordering,
    "central": is_central_nebula_ordering,
    "galaxy": is_galaxy_ordering,
}


def _extensions(t: Tournament, kind: str, placed: list[int], adj: list[int],
                comps: list[StarComponent]) -> Optional[list[tuple]]:
    """The one-step extensions of the admitted prefix ``placed`` (backward
    masks ``adj``, components ``comps``) that the prefix rule admits, as
    (child, its ``adj``, its components) by increasing added vertex; None when
    the look-ahead kills ``placed``, because some extension breaks the rule
    with a gap."""
    mask, out = vertex_mask(placed), []
    complete = len(placed) + 1 == t.n
    for v in range(t.n):
        if mask >> v & 1:
            continue
        back = t.rows[v] & mask
        child, child_adj = placed + [v], list(adj)
        child_adj[v] = back
        for u in mask_vertices(back):
            child_adj[u] |= 1 << v
        joined, child_comps = 1 << v, []
        for c in comps:
            if c.mask & back:
                joined |= c.mask
            else:
                child_comps.append(c)
        child_comps.append(_classify(joined, child_adj, child))
        checked = child_comps if complete or kind == "galaxy" else child_comps[-1:]
        if not _admissible(checked, kind, False, gap=True):
            return None
        if _admissible(checked, kind, complete):
            out.append((child, child_adj, child_comps))
    return out


def find_ordering(
    t: Tournament,
    predicate: Callable[[Tournament, Ordering], bool],
) -> Optional[Ordering]:
    """Exhaustive ordering search with look-ahead.

    ``predicate`` must be one of ``PREDICATES``; the search applies its rule
    to every prefix and never calls it.  A prefix is pruned when its own
    backward graph breaks the rule, and also when some one-step extension
    ``placed + [w]`` does, bar the right-kind 2-vertex clause.  This is sound
    because ``w``'s back edges into the placed set are ``rows[w] & placed``
    wherever ``w`` lands, the placed vertices and ``w`` keep their relative
    order, components only merge, and a merged component keeps every broken
    clause; only the 2-vertex clause can be repaired, by a vertex placed
    between the prefix and ``w``.  Returns the lexicographically first
    ordering satisfying the predicate, or None after exhausting all n!
    candidates (pruned).

    A prefix carries its ``adj`` masks and components.  Its child ``placed +
    [v]`` merges v with the components that ``rows[v] & placed`` touches and
    classifies only that one.  The nebula, left, right and central rules are
    per component, and every kept component passed the prefix rule, which is
    stricter than the gap rule, so both checks of a child read the merged one
    alone.  Galaxy, whose positional rule couples stars, and a child that
    completes the ordering, where the 2-vertex clause applies to all, read all.
    """
    kind = next((k for k, p in PREDICATES.items() if p is predicate), None)
    if kind is None:
        raise ValueError("find_ordering searches only for the predicates in PREDICATES")
    if t.n > ORDERING_SEARCH_BUDGET:
        raise BudgetError(f"ordering search limited to n <= {ORDERING_SEARCH_BUDGET}, got {t.n}")

    def descend(placed: list[int], adj: list[int], comps: list) -> Optional[Ordering]:
        if len(placed) == t.n:
            return tuple(placed)
        for child in _extensions(t, kind, placed, adj, comps) or ():
            found = descend(*child)
            if found is not None:
                return found
        return None

    return descend([], [0] * t.n, [])


def nebula_verdict(t: Tournament, kind: str, order: Optional[Ordering] = None) -> NebulaVerdict:
    """Check or search for an ordering of the requested kind."""
    predicate = PREDICATES[kind]
    if order is None:
        order = find_ordering(t, predicate)
        if order is None:
            return NebulaVerdict(False, None, ())
    comps = tuple(classify_components(backward_graph(t, order), order))
    return NebulaVerdict(_admissible(comps, kind, True), order, comps)
