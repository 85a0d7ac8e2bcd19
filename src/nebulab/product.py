"""Slot products of tournaments and product-form nebula builders.

A placement maps a component tournament's vertices to distinct positive slot
numbers; placements of different components use disjoint slot sets.  Under
the ordering induced by increasing slots, the product's backward edges are
exactly the components' backward edges and every cross-component pair points
forward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Ordering, Tournament, backward_edges, from_backward_edges, from_edges
from .errors import InvariantError, ParseError
from .stars import StarKind, backward_graph, classify_components

Placement = dict[int, int]


def small_left_star() -> tuple[Tournament, Ordering]:
    """Vertices (c, l1, l2) = (0, 1, 2); backward edges l1->c and l2->c."""
    return from_edges(3, [(1, 0), (2, 0), (1, 2)]), (0, 1, 2)


def small_right_star() -> tuple[Tournament, Ordering]:
    """Vertices (l1, l2, c) = (0, 1, 2); backward edges c->l1 and c->l2."""
    return from_edges(3, [(2, 0), (2, 1), (0, 1)]), (0, 1, 2)


def small_central_star() -> tuple[Tournament, Ordering]:
    """Vertices (l1, c, l2) = (0, 1, 2); backward edges c->l1 and l2->c."""
    return from_edges(3, [(1, 0), (2, 1), (0, 2)]), (0, 1, 2)


SMALL_STARS = {
    StarKind.LEFT: small_left_star,
    StarKind.RIGHT: small_right_star,
    StarKind.CENTRAL: small_central_star,
}


@dataclass(frozen=True)
class ProductResult:
    tournament: Tournament
    # (part index, part vertex) -> product vertex
    vertex_map: dict[tuple[int, int], int]


def product(parts: list[tuple[Tournament, Placement]]) -> ProductResult:
    """Combine parts under their placements; slots fix everything exactly.

    Product vertices are numbered by slot rank, so the identity is the slot
    ordering."""
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
    order_slots = sorted(taken)
    vertex_map = {taken[slot]: rank for rank, slot in enumerate(order_slots)}
    n = len(order_slots)
    back: list[tuple[int, int]] = []
    for idx, (part, placement) in enumerate(parts):
        part_order = tuple(sorted(range(part.n), key=lambda v: placement[v]))
        for w, u in backward_edges(part, part_order):
            back.append((vertex_map[(idx, w)], vertex_map[(idx, u)]))
    tournament = from_backward_edges(n, tuple(range(n)), back)
    return ProductResult(tournament, vertex_map)


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

    def build(self) -> ProductResult:
        star, _ = SMALL_STARS[self.kind]()
        return product([(star, dict(enumerate(slots))) for slots in self.placements])


def build_nebula(
    kind: StarKind, placements: list[tuple[int, int, int]]
) -> tuple[PlacementNebula, Tournament]:
    """The nebula on the given slot triples, its width the largest slot."""
    width = max((s for triple in placements for s in triple), default=0)
    nebula = PlacementNebula(kind, tuple(tuple(p) for p in placements), width)
    return nebula, nebula.build().tournament


def extend_to_product_form(
    t: Tournament, order: Ordering, kind: StarKind
) -> tuple[PlacementNebula, dict[int, int]]:
    """Complete a nebula ordering to a product of small stars containing ``t``.

    Partial components gain fresh leaves: left stars after their last member,
    right stars just before their center, central stars after their center
    (singletons additionally get a leading leaf for the central kind).
    Returns the completed nebula and the embedding original vertex -> product
    vertex, verified edge by edge.
    """
    if kind not in SMALL_STARS:
        raise ValueError(f"cannot extend toward kind {kind}")
    comps = classify_components(backward_graph(t, order), order)
    pos = {v: p for p, v in enumerate(order)}
    before: dict[int, list[str]] = {v: [] for v in order}
    after: dict[int, list[str]] = {v: [] for v in order}
    star_members: list[list[object]] = []
    fresh_count = 0

    def fresh() -> str:
        nonlocal fresh_count
        fresh_count += 1
        return f"fresh{fresh_count}"

    for comp in comps:
        members = sorted(comp.vertices, key=lambda v: pos[v])
        if comp.kind is StarKind.SINGLETON:
            v = members[0]
            a, b = fresh(), fresh()
            if kind is StarKind.LEFT:
                after[v].extend([a, b])
                star_members.append([v, a, b])
            elif kind is StarKind.RIGHT:
                before[v].extend([a, b])
                star_members.append([a, b, v])
            else:
                before[v].append(a)
                after[v].append(b)
                star_members.append([a, v, b])
        elif comp.kind is StarKind.GENERAL:
            u, w = members
            x = fresh()
            if kind is StarKind.LEFT:
                after[w].append(x)
                star_members.append([u, w, x])
            elif kind is StarKind.RIGHT:
                before[w].append(x)
                star_members.append([u, x, w])
            else:
                after[w].append(x)
                star_members.append([u, w, x])
        elif comp.kind is kind and len(comp.vertices) == 3:
            star_members.append(members)
        else:
            raise ValueError(
                f"component {sorted(comp.vertices)} ({comp.kind.value}) is incompatible "
                f"with a product-form {kind.value} nebula"
            )

    sequence: list[object] = []
    for v in order:
        sequence.extend(before[v])
        sequence.append(v)
        sequence.extend(after[v])
    slot_of = {member: idx + 1 for idx, member in enumerate(sequence)}
    placements = sorted(
        tuple(slot_of[m] for m in members) for members in star_members
    )
    nebula = PlacementNebula(kind, tuple(placements), len(sequence))
    result = nebula.build()
    embedding = {v: slot_of[v] - 1 for v in order}
    for u in order:
        for w in order:
            if u != w and t.has_edge(u, w) != result.tournament.has_edge(
                embedding[u], embedding[w]
            ):
                raise InvariantError(
                    f"completion broke the edge between {u} and {w}"
                )
    return nebula, embedding
