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


def _galaxy_positions_ok(stars: Sequence[tuple[int, int, int]]) -> bool:
    """No star center sits strictly inside another star's leaf span; stars are
    the (center, lo, hi) positions of left and right stars with 3 or more
    vertices, whose own center lies outside their own span."""
    return not any(lo < center < hi for center, _, _ in stars for _, lo, hi in stars)


def _pairs_ok(stars: Sequence[tuple[int, int, int]], pairs: Sequence[Sequence[int]]) -> bool:
    """Each 2-vertex component, given by its two positions, has an end outside
    every star's leaf span.  With one leaf such a component constrains no
    other, so each picks that end as its center alone."""
    return all(any(all(not lo < end < hi for _, lo, hi in stars) for end in pair)
               for pair in pairs)


def _admissible(comps: Sequence[StarComponent], kind: str) -> bool:
    """The predicate of an ordering kind on the classified backward components
    of a whole ordering."""
    want = _THREE_STAR_KINDS.get(kind)
    stars: list[tuple[int, int, int]] = []  # galaxy: (center, lo, hi)
    pairs: list[tuple[int, ...]] = []  # galaxy: two-vertex positions
    for c in comps:
        size, at = len(c.positions), c.positions
        if c.kind is StarKind.NON_STAR:
            return False
        if want is not None:
            if size > 1 and (size != 3 or c.kind is not want):
                return False
        elif kind == "galaxy" and size == 2:
            pairs.append(at)
        elif kind == "galaxy" and size >= 3:
            if c.kind is StarKind.LEFT:
                stars.append((at[0], at[1], at[-1]))
            elif c.kind is StarKind.RIGHT:
                stars.append((at[-1], at[0], at[-2]))
            else:
                return False
    return kind != "galaxy" or (_galaxy_positions_ok(stars) and _pairs_ok(stars, pairs))


def _ordering_admissible(t: Tournament, order: Ordering, kind: str) -> bool:
    return _admissible(classify_components(backward_graph(t, order), order), kind)


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


# A search prefix carries each backward component as a plain tuple (mask, hub,
# kind, lo, hi): its vertex mask, the center of a star with 3 or more vertices
# (None otherwise), its StarKind, and the first and last positions of its
# leaves, where every vertex of a singleton or a 2-vertex component counts as
# a leaf (0 and 0 for a non-star).
Carried = tuple[int, Optional[int], StarKind, int, int]

# the search reads these for every child: a plain global is cheaper than an
# attribute lookup on StarKind
_SINGLETON, _PAIR, _NON_STAR = StarKind.SINGLETON, StarKind.GENERAL, StarKind.NON_STAR
_LEFT, _RIGHT, _CENTRAL = StarKind.LEFT, StarKind.RIGHT, StarKind.CENTRAL


def _append(comps: Sequence[Carried], pos: Sequence[int], v: int, back: int) -> Carried:
    """The component that ``v`` forms when it is appended to a prefix with
    components ``comps``, by the append rule of ``find_ordering``: ``back`` is
    ``rows[v] & placed`` and ``pos`` holds the position of every placed vertex
    and of ``v``."""
    p = pos[v]
    if not back:
        return (1 << v, None, _SINGLETON, p, p)
    if not back & (back - 1):
        u = back.bit_length() - 1
        mask, hub, kind, lo, hi = next(c for c in comps if c[0] & back)
        mask |= 1 << v
        if kind is _SINGLETON:
            return (mask, None, _PAIR, lo, p)
        if kind is _PAIR:  # u is one end; the other one and v become leaves
            return (mask, u, _LEFT, hi, p) if pos[u] == lo else (mask, u, _CENTRAL, lo, p)
        if hub == u:
            return (mask, u, _CENTRAL if kind is _RIGHT else kind, lo, p)
        return (mask, None, _NON_STAR, 0, 0)
    joined, star, at = 1 << v, True, []
    for c in comps:
        if c[0] & back:
            joined |= c[0]
            star = star and c[2] is _SINGLETON
            at.append(c[3])
    if not star:
        return (joined, None, _NON_STAR, 0, 0)
    return (joined, v, _RIGHT, min(at), max(at))


def _extend(t: Tournament, kind: str, pos: list[int], placed: int, edges: int, limit: int,
            comps: Sequence[Carried]) -> Optional[list[tuple[int, int, list[Carried]]]]:
    """The one-step extensions of the admitted prefix with vertex mask
    ``placed``, components ``comps`` and ``edges`` committed backward edges
    that the prefix rule admits and that commit at most ``limit``, as (added
    vertex, child's edges, child's components) by increasing added vertex;
    None when the look-ahead kills the prefix, because some extension breaks
    the rule with a gap.  ``pos`` holds the positions of the placed vertices,
    and each added vertex's position is written into it."""
    want = _THREE_STAR_KINDS.get(kind)
    p = placed.bit_count()
    complete = p + 1 == t.n
    out = []
    for v in range(t.n):
        if placed >> v & 1:
            continue
        back = t.rows[v] & placed
        pos[v] = p
        merged = _append(comps, pos, v, back)
        mask, _, mkind, _, _ = merged
        if mkind is _NON_STAR:
            return None
        size = mask.bit_count()
        if want is not None:
            if size > 3 or (size == 3 and mkind is not want):
                return None
            # a right star's hub arrives last and attaches to all leaves at
            # once, so no prefix of a right nebula ordering holds a 2-vertex
            # component; across a gap, the last vertex can still become the
            # hub of a leaf placed before it
            if size == 2 and want is _RIGHT:
                continue
        child = [c for c in comps if not c[0] & back]
        child.append(merged)
        if want is not None and complete and any(c[2] is _PAIR for c in child):
            continue
        if kind == "galaxy" and (size >= 3 or complete):
            if mkind is _CENTRAL:
                return None
            stars = [(pos[c[1]], c[3], c[4]) for c in child if c[1] is not None]
            if not _galaxy_positions_ok(stars):
                return None
            if complete and not _pairs_ok(stars, [c[3:] for c in child if c[2] is _PAIR]):
                continue
        # the vertices still to come that beat v: n - 1 - |rows[v] | placed|
        grown = edges + t.n - 1 - (t.rows[v] | placed).bit_count()
        if grown <= limit:
            out.append((v, grown, child))
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

    A prefix carries one tuple per component (see ``Carried``), and the DFS
    path one ``pos`` array.  A child ``placed + [v]`` takes the components
    that ``back = rows[v] & placed`` does not touch as they are, and the kind
    of the one that v joins from the append rule, with no reclassification:

    - ``back`` empty: v is a singleton;
    - ``back = {u}``: a singleton u makes a 2-vertex component; a pair
      ``{u, w}`` makes a 3-star with hub u, left if u precedes w and central
      otherwise; a star with hub u gains the leaf v, and left stays left,
      central stays central and right becomes central; if u is a star leaf,
      the result is not a star;
    - ``|back| >= 2``: the result is a star only when every vertex of
      ``back`` is a singleton, and then it is a right star with hub v, which
      is last.

    Proof: v is last and adjacent exactly to ``back``, and in a star with 3
    or more vertices only the hub has degree 2 or more.  With ``back = {u}``,
    v hangs off u: in a pair, u reaches degree 2 and is the hub, before or
    after its leaf w; in a star, u must already be the hub, since a leaf u
    would make a second vertex of degree 2, and v, last, keeps a first hub
    first and puts a last one between leaves.  With ``|back| >= 2``, v has
    degree 2 or more and must be the hub, so no vertex of ``back`` may have
    another neighbour, and the hub, v, is last.  The nebula, left, right and
    central rules are per component, and every kept component passed the
    prefix rule, so both checks of a child read the merged one alone, bar the
    2-vertex clause at completion.  Galaxy, whose positional rule couples
    stars, rereads all stars whenever the merged component is one.

    Bound: an edge x -> y with y placed and x after it, later in the prefix or
    not yet placed, is backward in every completion, and appending v commits
    the edges into v from the vertices still to come.  A child that commits
    more edges than its kind's limit is skipped; its siblings are still tried.
    The limit is n - 1, as a star forest has n minus its number of components
    edges, and 2 * (n // 3) for left, right and central, which end with
    singletons and 3-vertex stars only, two edges per three vertices.
    """
    kind = next((k for k, p in PREDICATES.items() if p is predicate), None)
    if kind is None:
        raise ValueError("find_ordering searches only for the predicates in PREDICATES")
    if t.n > ORDERING_SEARCH_BUDGET:
        raise BudgetError(f"ordering search limited to n <= {ORDERING_SEARCH_BUDGET}, got {t.n}")
    limit = 2 * (t.n // 3) if kind in _THREE_STAR_KINDS else t.n - 1
    pos, order = [0] * t.n, []

    def descend(placed: int, edges: int, comps: list[Carried]) -> Optional[Ordering]:
        if len(order) == t.n:
            return tuple(order)
        for v, grown, child in _extend(t, kind, pos, placed, edges, limit, comps) or ():
            pos[v] = len(order)
            order.append(v)
            found = descend(placed | 1 << v, grown, child)
            if found is not None:
                return found
            order.pop()
        return None

    return descend(0, 0, [])


def nebula_verdict(t: Tournament, kind: str, order: Optional[Ordering] = None) -> NebulaVerdict:
    """Check or search for an ordering of the requested kind."""
    predicate = PREDICATES[kind]
    if order is None:
        order = find_ordering(t, predicate)
        if order is None:
            return NebulaVerdict(False, None, ())
    comps = tuple(classify_components(backward_graph(t, order), order))
    return NebulaVerdict(_admissible(comps, kind), order, comps)
