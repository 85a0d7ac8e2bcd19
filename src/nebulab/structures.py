"""Density structures, ordered-triple classification, and witness extraction.

Every vertex set of a structure or triple is held as a bitmask over the host
(bit v for vertex v), so densities and coverage counts are ``bit_count``s of
masked host rows.  Triple positions are 1-based (sets S_1, S_2, S_3) so the
(i,j) case names match the usual notation.  Density thresholds are compared
as integer cross-products; a ``Fraction`` is built only for a reported
density, and a ``frozenset`` only for an emitted ``CompletePair``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Optional, Sequence, Union

from .containment import Embedding, contains_in_parts
from .core import Tournament, mask_vertices, to_fraction, vertex_mask
from .errors import CoverageTieError, InvariantError, LambdaTooLargeError
from .product import SMALL_STARS, product
from .stars import StarKind


# ---------------------------------------------------------------------------
# Strong (c, lambda)-structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    check: str
    detail: dict


@dataclass(frozen=True)
class StructureCertificate:
    passed: bool
    violations: tuple[Violation, ...]
    parts: tuple  # the parts checked, as given
    under: tuple  # (host, c, lambda) they were checked under


def verify_structure(
    host: Tournament,
    subsets: Sequence[frozenset[int]],
    c: Fraction,
    lam: Fraction,
) -> StructureCertificate:
    """Check every condition of a strong (c, lambda)-structure, listing
    violations: part sizes, pair densities, then the per-vertex densities,
    one ``strong-out``/``strong-in`` entry per vertex and part it misses."""
    c, lam = to_fraction(c), to_fraction(lam)
    parts = [vertex_mask(s) for s in subsets]
    seen = 0
    for s in parts:
        if s & seen:
            raise ValueError("subsets overlap")
        seen |= s
    if len(parts) > 1 and not all(parts):
        raise ValueError("density needs nonempty sets")
    violations: list[Violation] = []
    bound = c * host.n
    for i, s in enumerate(parts):
        size = s.bit_count()
        if size < bound:
            violations.append(Violation("size", {"part": i, "size": size, "bound": bound}))
    # beaten[i, j][m]: how many vertices of part j the m-th vertex of part i
    # beats; the pair density and per-vertex checks share one table
    rows = host.rows
    members = [mask_vertices(s) for s in parts]
    beaten = {
        (i, j): [(rows[v] & parts[j]).bit_count() for v in members[i]]
        for i, j in permutations(range(len(parts)), 2)
    }
    den, keep = lam.denominator, lam.denominator - lam.numerator  # 1 - lam == keep / den
    for i, j in combinations(range(len(parts)), 2):
        pairs = len(members[i]) * len(members[j])
        edges = sum(beaten[i, j])
        if edges * den < keep * pairs:
            d = Fraction(edges, pairs)
            violations.append(Violation("pair-density", {"i": i, "j": j, "d": d}))
    for (i, j), counts in beaten.items():
        later = i < j
        kind = "strong-out" if later else "strong-in"
        size = len(members[j])
        need = keep * size
        for v, count in zip(members[i], counts):
            met = count if later else size - count
            if met * den < need:
                d = Fraction(met, size)
                violations.append(Violation(kind, {"i": i, "j": j, "vertex": v, "d": d}))
    return StructureCertificate(not violations, tuple(violations), tuple(subsets), (host, c, lam))


# ---------------------------------------------------------------------------
# Ordered triples and the coverage trichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triple:
    masks: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.masks) != 3:
            raise ValueError("a triple holds exactly three sets")
        s1, s2, s3 = self.masks
        if not (s1 and s2 and s3):
            raise ValueError("triple sets must be nonempty")
        if s1 & s2 or s1 & s3 or s2 & s3:
            raise ValueError("triple sets must be pairwise disjoint")


@dataclass(frozen=True)
class CompletePair:
    a: frozenset[int]
    b: frozenset[int]

    def validate(self, host: Tournament) -> bool:
        if not self.a or not self.b or self.a & self.b:
            return False
        if not all(0 <= v < host.n for v in self.a | self.b):
            return False
        return all(host.has_edge(u, v) for u in self.a for v in self.b)


@dataclass(frozen=True)
class TripleClass:
    """(i, j) verdict: coverage of S_j reaches half no later than S_l's.

    ``k_j`` and ``k_l`` are the steps along S_i, in ascending order, at which
    the coverages of S_j and S_l first reach half of their sets."""

    i: int
    j: int
    l: int
    k_j: int
    k_l: int


TripleVerdict = Union[CompletePair, TripleClass]


def _complete_pair(first: int, second: int) -> CompletePair:
    return CompletePair(frozenset(mask_vertices(first)), frozenset(mask_vertices(second)))


def classify_triple(host: Tournament, sigma: Triple, i: int, j: int) -> TripleVerdict:
    """The trichotomy: a complete pair, an (i,j)-triple, or an (i,l)-triple.

    S_i is walked once in ascending id order, each vertex adding N(v, j) and
    N(v, l) to the coverages of S_j and S_l; the walk stops at the step where
    both coverages have reached half.  If it ends with S_j's (else S_l's)
    coverage below half, the untouched half is complete to S_i (or the
    reverse) and a CompletePair is emitted.  Otherwise the verdict follows the
    first-to-half comparison of the two coverages; ties go to the queried j.
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3) or i == j:
        raise ValueError(f"invalid triple indices ({i},{j})")
    l = 6 - i - j
    source, target_j, target_l = sigma.masks[i - 1], sigma.masks[j - 1], sigma.masks[l - 1]
    size_j, size_l = target_j.bit_count(), target_l.bit_count()
    # N(v, m) is v's in-neighbourhood, ~row, when S_m is later than S_i
    flip_j, flip_l = -1 if j > i else 0, -1 if l > i else 0
    rows = host.rows
    cov_j = cov_l = k_j = k_l = step = 0
    rest = source
    while rest:
        low = rest & -rest
        rest ^= low
        row = rows[low.bit_length() - 1]
        step += 1
        if not k_j:
            cov_j |= target_j & (row ^ flip_j)
            if 2 * cov_j.bit_count() >= size_j:
                k_j = step
        if not k_l:
            cov_l |= target_l & (row ^ flip_l)
            if 2 * cov_l.bit_count() >= size_l:
                k_l = step
        if k_j and k_l:
            break
    for k, cov, target, index in ((k_j, cov_j, target_j, j), (k_l, cov_l, target_l, l)):
        if not k:
            untouched = target & ~cov
            if index > i:
                return _complete_pair(source, untouched)
            return _complete_pair(untouched, source)
    if k_j <= k_l:
        return TripleClass(i, j, l, k_j, k_l)
    return TripleClass(i, l, j, k_l, k_j)


# ---------------------------------------------------------------------------
# Witness extraction: vertex patterns or guaranteed complete pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessTriple:
    """(v1, v2, v3) with v_m in S_m inducing the pattern's three-vertex star,
    star vertex m - 1 at v_m."""

    vertices: tuple[int, int, int]
    pattern: StarKind

    def validate(self, host: Tournament, sigma: Triple) -> bool:
        vs = self.vertices
        # the copy check goes first: it refuses a vertex outside the host
        return Embedding(vs).validate(host, SMALL_STARS[self.pattern]) and all(
            sigma.masks[m] >> vs[m] & 1 for m in range(3))


# (i, j) -> (pattern, A side, B side); 'cov' takes the coverage of S_index at
# step k_j, 'compl' its complement; A is complete to B
WITNESS_TABLE: dict[tuple[int, int], tuple[StarKind, tuple[str, int], tuple[str, int]]] = {
    (2, 1): (StarKind.LEFT, ("cov", 1), ("compl", 3)),
    (3, 1): (StarKind.LEFT, ("cov", 1), ("compl", 2)),
    (2, 3): (StarKind.RIGHT, ("compl", 1), ("cov", 3)),
    (1, 3): (StarKind.RIGHT, ("compl", 2), ("cov", 3)),
    (1, 2): (StarKind.CENTRAL, ("cov", 2), ("compl", 3)),
    (3, 2): (StarKind.CENTRAL, ("compl", 1), ("cov", 2)),
}


def witness(
    host: Tournament, sigma: Triple, verdict: TripleClass
) -> Union[WitnessTriple, CompletePair]:
    """Extract the star pattern promised by an (i,j)-verdict, the lex-first
    (v1, v2, v3), or, when no pattern exists, a half-sized complete pair built
    from the coverages of S_j and S_l after the first k_j vertices of S_i.

    The pair needs a step at which S_j's coverage has reached half while
    S_l's has not exceeded it.  Before step k_j, S_j's coverage is below
    half; S_l's never shrinks, so if it exceeds half at step k_j no later step
    serves either, and step k_j is the only candidate.  S_l's coverage is
    below half before step k_l >= k_j, so a CoverageTieError is raised, in
    place of an undersized pair, exactly when k_j == k_l and S_l's coverage at
    that step is above half.

    The pair is complete.  In every WITNESS_TABLE row, A lies in the earlier
    of S_j and S_l.  A covered x in S_j is joined by a backward edge to some
    v among the first k_j of S_i, and an uncovered y in S_l by a forward edge
    to v; a backward edge between x and y would make x, v, y, in set order,
    the row's star centered at x, which contradicts "no pattern".  For
    (2,1): if b -> a for a in A and b in B, the covering v beats both, so
    (a, v, b) is a left star.  A holds at least half of S_j and B, by the
    tie check, at least half of S_l.
    """
    key = (verdict.i, verdict.j)
    if key not in WITNESS_TABLE:
        raise ValueError(f"no witness pattern for verdict {key}")
    pattern, a_spec, b_spec = WITNESS_TABLE[key]
    found = contains_in_parts(host, SMALL_STARS[pattern], sigma.masks)
    if found is not None:
        return WitnessTriple(found.mapping, pattern)
    i, j, l = verdict.i, verdict.j, verdict.l
    cov = {j: 0, l: 0}
    for v in mask_vertices(sigma.masks[i - 1])[: verdict.k_j]:
        for m in cov:  # N(v, m) is v's in-neighbourhood, ~row, when S_m is later
            cov[m] |= sigma.masks[m - 1] & (host.rows[v] ^ (-1 if m > i else 0))
    if 2 * cov[l].bit_count() > sigma.masks[l - 1].bit_count():
        raise CoverageTieError(
            f"verdict ({i},{j}) with k_j={verdict.k_j}, k_l={verdict.k_l}: "
            "no step satisfies both half bounds"
        )
    a, b = (sigma.masks[index - 1] & ~cov[index] if role == "compl" else cov[index]
            for role, index in (a_spec, b_spec))
    return _complete_pair(a, b)


# ---------------------------------------------------------------------------
# (H, phi)-normality and product extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalPart:
    """One component of a normal family: the tournament, its part map, and
    per-part row orderings (orderings[part index][row] = vertex)."""

    pattern: Tournament
    phi: dict[int, int]
    orderings: dict[int, tuple[int, ...]]


def is_normal(
    host: Tournament,
    parts: Sequence[frozenset[int]],
    pattern: Tournament,
    phi: dict[int, int],
    orderings: dict[int, tuple[int, ...]],
) -> bool:
    """Row-by-row check that the indexed rows each induce a copy of the pattern."""
    sizes = {len(p) for p in parts}
    if len(sizes) != 1:
        raise ValueError("normality needs equal part sizes")
    t = sizes.pop()
    if sorted(phi) != list(range(pattern.n)) or len(set(phi.values())) != pattern.n:
        raise ValueError("phi must be injective over the pattern's vertex set")
    for h, part_index in phi.items():
        ordering = orderings.get(part_index)
        if ordering is None or sorted(ordering) != sorted(parts[part_index]):
            return False
    return all(
        Embedding(tuple(orderings[phi[h]][row] for h in range(pattern.n))).validate(host, pattern)
        for row in range(t)
    )


@dataclass(frozen=True)
class ProductEmbedding:
    product: Tournament
    embedding: Embedding
    turan_gate: dict


def turan_threshold(p: int, max_part: int) -> Optional[Fraction]:
    """Density slack below which the row graph is guaranteed a p-clique."""
    if p <= 1:
        return None
    return Fraction(1, (p - 1) ** 2 * max_part**2)


def extract_product(
    host: Tournament,
    parts: Sequence[frozenset[int]],
    components: Sequence[NormalPart],
    lam: Fraction,
) -> ProductEmbedding:
    """Find one fully slot-consistent row per component and return the union
    embedding, validated as a copy of the slot product of the components.

    The clique search runs regardless of lambda; LambdaTooLargeError is
    raised only when it fails.
    """
    if not components:
        raise ValueError("extract_product needs at least one component")
    used_indices: set[int] = set()
    for comp in components:
        if set(comp.phi.values()) & used_indices:
            raise ValueError("component part maps overlap")
        used_indices |= set(comp.phi.values())
        if not is_normal(host, parts, comp.pattern, comp.phi, comp.orderings):
            raise ValueError("structure is not normal for a component")
    t = len(parts[0])
    p = len(components)
    # rows[m][s]: (part index, vertex) pairs of row s of component m
    rows = [
        [[(comp.phi[h], comp.orderings[comp.phi[h]][s]) for h in range(comp.pattern.n)]
         for s in range(t)]
        for comp in components
    ]

    def rows_compatible(row1, row2) -> bool:
        return all(
            host.has_edge(v1, v2) if k1 < k2 else host.has_edge(v2, v1)
            for k1, v1 in row1
            for k2, v2 in row2
        )

    # row s of component m is vertex m*t + s; a p-clique takes one row per
    # component, and the lex-least one is the lex-first row tuple
    edges = [
        (m1 * t + s1, m2 * t + s2)
        for m1, m2 in combinations(range(p), 2)
        for s1 in range(t)
        for s2 in range(t)
        if rows_compatible(rows[m1][s1], rows[m2][s2])
    ]
    clique = turan_clique(ugraph_from_edges(p * t, edges), p)

    max_part = max(comp.pattern.n for comp in components)
    threshold = turan_threshold(p, max_part)
    total_vertices = p * t
    gate = {
        "edges": len(edges),
        "vertices": total_vertices,
        "epsilon": lam * max_part**2,
        "bound": Fraction(total_vertices**2, 2)
        * (1 - Fraction(1, p))
        * (1 - lam * max_part**2)
        if p > 1
        else Fraction(0),
        "threshold": threshold,
    }
    if clique is None:
        raise LambdaTooLargeError(lam, threshold)
    chosen = [v - m * t for m, v in enumerate(clique)]

    prod = product([
        (comp.pattern, {v: slot + 1 for v, slot in comp.phi.items()}) for comp in components
    ])
    # part q sits at slot q + 1 and product() numbers slots by rank, so the
    # copy takes each used part's vertex in its chosen row, parts ascending
    row_vertex = {q: comp.orderings[q][s] for comp, s in zip(components, chosen)
                  for q in comp.phi.values()}
    embedding = Embedding(tuple(row_vertex[q] for q in sorted(row_vertex)))
    if not embedding.validate(host, prod):
        raise InvariantError("extracted rows do not induce the product")
    return ProductEmbedding(prod, embedding, gate)


# ---------------------------------------------------------------------------
# Exact clique search on small undirected graphs
# ---------------------------------------------------------------------------


def ugraph_from_edges(n: int, edges) -> tuple[int, ...]:
    """The adjacency masks of the undirected graph on 0..n-1 with ``edges``."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def lex_first_clique(
    n: int, p: int, narrow: Callable[[list[int], int], int]
) -> Optional[tuple[int, ...]]:
    """The lexicographically least p-subset of 0..n-1 whose members are each
    a candidate when chosen, None if there is none.  At first every vertex is
    a candidate; choosing v after the members ``chosen`` keeps only the
    candidates above v that lie in the mask ``narrow(chosen, v)``."""
    chosen: list[int] = []

    def descend(cand: int) -> bool:
        if len(chosen) == p:
            return True
        if len(chosen) + cand.bit_count() < p:
            return False
        for v in mask_vertices(cand):
            narrowed = cand & narrow(chosen, v) & ~((1 << (v + 1)) - 1)
            chosen.append(v)
            if descend(narrowed):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if descend((1 << n) - 1) else None


def turan_clique(adj: Sequence[int], p: int) -> Optional[tuple[int, ...]]:
    """Exact search for a p-clique, lexicographically least, None if absent,
    in the loopless graph with symmetric adjacency masks ``adj``."""
    return lex_first_clique(len(adj), p, lambda chosen, v: adj[v])
