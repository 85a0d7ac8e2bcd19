"""Backward-edge graphs, star components, and nebula/galaxy ordering recognition.

One append rule (``_append``) decides every star kind: appending the vertices
of an ordering one by one classifies its backward components, for the
ordering search, the five predicates and ``classify_components`` alike, and
one whole-ordering rule (``_admissible``) reads the kinds off the result.  A
star component is left, right or central as its center sits strictly first,
strictly last or in between among the component's positions.  Components
with two vertices have an arbitrary center, reported as their least vertex,
and are kept as GENERAL; they satisfy the plain nebula predicate but none of
the three-vertex-kind predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .core import Ordering, Tournament, check_ordering, mask_vertices
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


# A prefix carries each backward component as a plain tuple (mask, hub, kind,
# lo, hi): its vertex mask, the center of a star with 3 or more vertices (None
# otherwise), its StarKind, and the first and last positions of its leaves,
# where every vertex of a singleton or a 2-vertex component counts as a leaf
# (0 and 0 for a non-star).
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


def _fold(rows: Sequence[int], placed: Sequence[int]) -> tuple[list[Carried], list[int]]:
    """Append the ``placed`` vertices in order by the append rule: the
    carried components and the position of each placed vertex.
    ``rows[v] & placed-so-far`` must be v's set of earlier neighbours, which
    holds for a tournament's rows and for a backward graph's masks alike."""
    pos = [0] * len(rows)
    comps: list[Carried] = []
    seen = 0
    for p, v in enumerate(placed):
        if seen >> v & 1:
            raise ValueError("ordering repeats a vertex")
        back = rows[v] & seen
        pos[v] = p
        merged = _append(comps, pos, v, back)
        comps = [c for c in comps if not c[0] & back]
        comps.append(merged)
        seen |= 1 << v
    return comps, pos


def _components(comps: Sequence[Carried]) -> list[StarComponent]:
    """Carried components as StarComponents, in increasing order of their
    least vertex, which is also a pair's center."""
    return [
        StarComponent(mask, (mask & -mask).bit_length() - 1 if kind is _PAIR else hub, kind)
        for mask, hub, kind, _, _ in sorted(comps, key=lambda c: c[0] & -c[0])
    ]


def classify_components(adj: Sequence[int], order: Ordering) -> list[StarComponent]:
    """Partition the vertex set into classified backward components."""
    check_ordering(order, len(adj))
    return classify_components_partial(adj, order)


def classify_components_partial(adj: Sequence[int], placed: Sequence[int]) -> list[StarComponent]:
    """Classify the backward components among the ``placed`` vertices, given
    the backward graph ``adj`` of ``placed`` or of an ordering that it
    begins; components come in increasing order of their least vertex."""
    return _components(_fold(adj, placed)[0])


@dataclass(frozen=True)
class NebulaVerdict:
    holds: bool
    ordering: Optional[Ordering]
    components: tuple[StarComponent, ...]


_THREE_STAR_KINDS = {"left": StarKind.LEFT, "right": StarKind.RIGHT, "central": StarKind.CENTRAL}


def _galaxy_positions_ok(stars: Sequence[tuple[int, int, int]]) -> bool:
    """No star center sits strictly inside a star's leaf span; stars are the
    (center, lo, hi) positions of the stars with 3 or more vertices.  A
    central star's center lies inside its own span, so it fails alone."""
    return not any(lo < center < hi for center, _, _ in stars for _, lo, hi in stars)


def _pairs_ok(stars: Sequence[tuple[int, int, int]], pairs: Sequence[Sequence[int]]) -> bool:
    """Each 2-vertex component, given by its two positions, has an end outside
    every star's leaf span.  With one leaf such a component constrains no
    other, so each picks that end as its center alone."""
    return all(any(all(not lo < end < hi for _, lo, hi in stars) for end in pair)
               for pair in pairs)


def _admissible(comps: Sequence[Carried], pos: Sequence[int], kind: str) -> bool:
    """The rule of an ordering kind on the carried components ``comps`` of a
    whole ordering whose vertex positions are ``pos``."""
    if any(c[2] is _NON_STAR for c in comps):
        return False
    want = _THREE_STAR_KINDS.get(kind)
    if want is not None:
        return all(c[2] is _SINGLETON or (c[2] is want and c[0].bit_count() == 3) for c in comps)
    if kind != "galaxy":
        return True
    stars = [(pos[c[1]], c[3], c[4]) for c in comps if c[1] is not None]
    pairs = [c[3:] for c in comps if c[2] is _PAIR]
    return _galaxy_positions_ok(stars) and _pairs_ok(stars, pairs)


def _ordering_admissible(t: Tournament, order: Ordering, kind: str) -> bool:
    check_ordering(order, t.n)
    comps, pos = _fold(t.rows, order)
    return _admissible(comps, pos, kind)


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
        # a singleton or a pair leaves every star's center and span as they were
        if kind == "galaxy" and size >= 3:
            stars = [(pos[c[1]], c[3], c[4]) for c in child if c[1] is not None]
            if not _galaxy_positions_ok(stars):
                return None
        if complete and not _admissible(child, pos, kind):
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
    of the one that v joins from the append rule, the same rule that
    classifies the components of a whole ordering for the predicates:

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
    prefix rule, so both checks of a child read the merged one alone.
    Galaxy, whose positional rule couples stars, rereads all stars whenever
    the merged component is one.  A complete child must also pass the
    predicates' whole-ordering rule, which adds the 2-vertex clauses.

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
    check_ordering(order, t.n)
    comps, pos = _fold(t.rows, order)
    return NebulaVerdict(_admissible(comps, pos, kind), order, tuple(_components(comps)))
