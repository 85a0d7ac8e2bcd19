"""Slot products of tournaments and product-form nebula builders.

A placement maps a component tournament's vertices to distinct positive slot
numbers; placements of different components use disjoint slot sets.  Under
the ordering induced by increasing slots, the product's backward edges are
exactly the components' backward edges and every cross-component pair points
forward, so ``core.from_backward_edges``, the one constructor of "forward
except these backward edges", builds every product.  A nebula ordering is
completed to a product of small stars from one template per star kind and
component size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .containment import Embedding
from .core import Ordering, Tournament, from_backward_edges, mask_vertices
from .errors import InvariantError, ParseError
from .stars import StarKind, backward_graph, classify_components

Placement = dict[int, int]

# each kind's star tournament, built once from its backward edges under its
# default ordering (0, 1, 2), whose vertices each comment names
SMALL_STARS = {
    StarKind.LEFT: from_backward_edges(3, (0, 1, 2), [(1, 0), (2, 0)]),  # c, l1, l2
    StarKind.RIGHT: from_backward_edges(3, (0, 1, 2), [(2, 0), (2, 1)]),  # l1, l2, c
    StarKind.CENTRAL: from_backward_edges(3, (0, 1, 2), [(1, 0), (2, 1)]),  # l1, c, l2
}


def product(parts: list[tuple[Tournament, Placement]]) -> Tournament:
    """Combine parts under their placements; slots fix everything exactly.

    Product vertices are numbered by slot rank, so the identity is the slot
    ordering: each part's backward pairs, read off its rows under its slots,
    are flipped into the forward rows by ``from_backward_edges``."""
    if not parts:
        raise ValueError("product needs at least one part")
    taken: dict[int, tuple[int, int]] = {}
    for idx, (part, placement) in enumerate(parts):
        if set(placement) != set(range(part.n)):
            raise ValueError(f"part {idx}: placement does not cover the vertex set")
        if len(set(placement.values())) != part.n:
            raise ValueError(f"part {idx}: placement is not injective")
        for v, slot in placement.items():
            if slot < 1:
                raise ValueError(f"part {idx}: slots must be positive, got {slot}")
            if slot in taken:
                raise ValueError(f"slot {slot} reused by parts {taken[slot][0]} and {idx}")
            taken[slot] = (idx, v)
    vertex_map = {taken[slot]: rank for rank, slot in enumerate(sorted(taken))}
    n = len(taken)
    back = [
        (vertex_map[idx, w], vertex_map[idx, u])
        for idx, (part, placement) in enumerate(parts)
        for w in range(part.n)
        for u in mask_vertices(part.rows[w])
        if placement[u] < placement[w]
    ]
    return from_backward_edges(n, tuple(range(n)), back)


@dataclass(frozen=True)
class PlacementNebula:
    """A product of small stars of one kind, given by ascending slot triples.

    The m-th slot of each triple holds the m-th vertex of the star's default
    ordering, so ascending triples encode default-order-increasing placements.
    """

    kind: StarKind
    placements: tuple[tuple[int, int, int], ...]
    width: int

    def __post_init__(self) -> None:
        if self.kind not in SMALL_STARS:
            raise ParseError(f"nebula kind must be a small-star kind, got {self.kind}")
        seen: set[int] = set()
        for triple in self.placements:
            if len(triple) != 3:
                raise ParseError(f"placement {triple} must hold three slots")
            if list(triple) != sorted(set(triple)):
                raise ParseError(f"placement {triple} is not strictly increasing")
            if triple[0] < 1 or triple[-1] > self.width:
                raise ParseError(f"placement {triple} leaves the slot universe 1..{self.width}")
            if seen & set(triple):
                raise ParseError(f"placement {triple} reuses a slot")
            seen |= set(triple)
        if not self.placements:
            raise ParseError("nebula needs at least one star")

    @property
    def star_count(self) -> int:
        return len(self.placements)

    def build(self) -> Tournament:
        star = SMALL_STARS[self.kind]
        return product([(star, dict(enumerate(slots))) for slots in self.placements])


def build_nebula(
    kind: StarKind, placements: list[tuple[int, int, int]]
) -> tuple[PlacementNebula, Tournament]:
    """The nebula on the given slot triples, its width the largest slot."""
    width = max((s for triple in placements for s in triple), default=0)
    nebula = PlacementNebula(kind, tuple(tuple(p) for p in placements), width)
    return nebula, nebula.build()


# The default order of the small star that completes a component, by target
# kind and component size: "v" takes the component's next member in ordering
# order, "." a fresh vertex.
_TEMPLATES = {
    StarKind.LEFT: ("v..", "vv.", "vvv"),
    StarKind.RIGHT: ("..v", "v.v", "vvv"),
    StarKind.CENTRAL: (".v.", "vv.", "vvv"),
}


def extend_to_product_form(
    t: Tournament, order: Ordering, kind: StarKind
) -> tuple[PlacementNebula, Embedding]:
    """Complete a nebula ordering to a product of small stars containing ``t``.

    Singletons, 2-vertex components and 3-stars of ``kind`` are completed by
    the template of their size; any other component is refused.  A fresh
    vertex, numbered from ``t.n`` up, goes just before the next member in its
    star's default order, or after the last member if no member follows.
    Returns the completed nebula and the embedding of ``t`` into its product,
    validated as an induced copy of ``t``.
    """
    if kind not in SMALL_STARS:
        raise ValueError(f"cannot extend toward kind {kind}")
    comps = classify_components(backward_graph(t, order), order)
    pos = {v: p for p, v in enumerate(order)}
    # product vertices sort by (position of the member they sit at, side, id)
    place = {v: (p, 0, v) for v, p in pos.items()}
    fresh = count(t.n)
    stars = []
    for comp in comps:
        members = sorted(comp.vertices, key=pos.get)
        if comp.kind not in (StarKind.SINGLETON, StarKind.GENERAL, kind) or len(members) > 3:
            raise ValueError(
                f"component {sorted(comp.vertices)} ({comp.kind.value}) is incompatible "
                f"with a product-form {kind.value} nebula"
            )
        template, rest = _TEMPLATES[kind][len(members) - 1], iter(members)
        star = [next(rest) if mark == "v" else next(fresh) for mark in template]
        side = (pos[members[-1]], 1)  # after the last member, until a member follows
        for v in reversed(star):
            if v < t.n:
                side = (pos[v], -1)
            else:
                place[v] = (*side, v)
        stars.append(star)
    slot_of = {v: s for s, v in enumerate(sorted(place, key=place.get), start=1)}
    placements = sorted(tuple(slot_of[v] for v in star) for star in stars)
    nebula = PlacementNebula(kind, tuple(placements), len(slot_of))
    embedding = Embedding(tuple(slot_of[v] - 1 for v in range(t.n)))
    if not embedding.validate(nebula.build(), t):
        raise InvariantError("completion is not an induced copy of the input")
    return nebula, embedding
