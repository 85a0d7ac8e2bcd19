"""Tournament representation and the fundamental exact solvers.

Vertices are integers 0..n-1.  The adjacency relation is bit-packed: row u is
an int whose bit v is set iff the edge u->v is present.  Python ints are
unbounded, so the same code is the fast path for n <= 64 and the general path
beyond.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetError

Ordering = tuple[int, ...]

TR_BUDGET = 24
CANONICAL_BUDGET = 12
ENUMERATION_BUDGET = 8
MODULE_SEARCH_BUDGET = 16


@dataclass(frozen=True)
class Tournament:
    """A complete antisymmetric digraph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("tournament needs at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        n = self.n
        full = (1 << n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside the vertex range")
            if row >> u & 1:
                raise ValueError(f"self-edge at vertex {u}")
        # The rows, last first, as one bit string: row u sits at bits u*n..u*n+n-1
        # of int(grid, 2).  Its columns read the same way give the transpose, so
        # a set bit of their XOR with the off-diagonal mask is a pair oriented
        # twice or not at all, and the lowest one is the lex-first pair (u < v).
        width = f"0{n}b"
        grid = "".join([format(row, width) for row in reversed(self.rows)])
        transpose = int("".join([grid[a::n] for a in range(n)]), 2)
        bad = int(grid, 2) ^ transpose ^ _off_diagonal(n)
        if bad:
            u, v = divmod((bad & -bad).bit_length() - 1, n)
            raise ValueError(f"pair ({u},{v}) is not oriented exactly once")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def in_mask(self, u: int) -> int:
        full = (1 << self.n) - 1
        return full & ~self.rows[u] & ~(1 << u)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(self.n):
                if u != v and self.rows[u] >> v & 1:
                    yield (u, v)


@cache
def _off_diagonal(n: int) -> int:
    """Bits u*n + v for every u != v below n."""
    return ((1 << n * n) - 1) ^ sum(1 << u * (n + 1) for u in range(n))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Tournament:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
    return Tournament(n, tuple(rows))


def check_ordering(order: Ordering, n: int) -> dict[int, int]:
    """Map vertex -> position for an ordering given as the vertex sequence."""
    pos = {v: p for p, v in enumerate(order)}
    if len(pos) != len(order):
        raise ValueError("ordering repeats a vertex")
    if len(order) != n or set(order) != set(range(n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    return pos


def from_backward_edges(
    n: int, order: Ordering, back_edges: Iterable[tuple[int, int]]
) -> Tournament:
    """Build the tournament whose backward edges under ``order`` are exactly
    ``back_edges``.

    Each pair (w, u) requests the edge w->u and must point from a later
    position to an earlier one; every unlisted pair is oriented forward along
    the ordering.  The rows start forward and each pair flips one bit, so a
    pair whose bit is already flipped is a duplicate.
    """
    pos = check_ordering(order, n)
    rows = [0] * n
    later = 0
    for v in reversed(order):
        rows[v] = later
        later |= 1 << v
    for w, u in back_edges:
        if not (0 <= w < n and 0 <= u < n):
            raise ValueError(f"backward edge ({w},{u}) leaves the vertex range")
        if pos[u] >= pos[w]:
            raise ValueError(f"pair ({w},{u}) is oriented forward under the ordering")
        if rows[w] >> u & 1:
            raise ValueError(f"duplicate backward edge ({w},{u})")
        rows[w] ^= 1 << u
        rows[u] ^= 1 << w
    return Tournament(n, tuple(rows))


def backward_edges(t: Tournament, order: Ordering) -> set[tuple[int, int]]:
    """The set of edges of ``t`` pointing from a later to an earlier position."""
    pos = check_ordering(order, t.n)
    return {(u, v) for u, v in t.edges() if pos[u] > pos[v]}


def transitive_tournament(n: int) -> Tournament:
    rows = tuple(((1 << n) - 1) >> (u + 1) << (u + 1) for u in range(n))
    return Tournament(n, rows)


def cyclic_triangle() -> Tournament:
    return from_edges(3, [(0, 1), (1, 2), (2, 0)])


def random_tournament(n: int, rng: random.Random) -> Tournament:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return Tournament(n, tuple(rows))


def complement(t: Tournament) -> Tournament:
    """Reverse the direction of every edge."""
    full = (1 << t.n) - 1
    return Tournament(t.n, tuple(full & ~row & ~(1 << u) for u, row in enumerate(t.rows)))


def induced(t: Tournament, vertices: Iterable[int]) -> Tournament:
    """Subtournament induced by ``vertices``, relabelled by increasing id."""
    sub = sorted(set(vertices))
    if not sub:
        raise ValueError("cannot induce on the empty set")
    if sub[0] < 0 or sub[-1] >= t.n:
        raise ValueError("vertex outside the tournament")
    index = {v: i for i, v in enumerate(sub)}
    rows = [0] * len(sub)
    for v in sub:
        for w in sub:
            if v != w and t.has_edge(v, w):
                rows[index[v]] |= 1 << index[w]
    return Tournament(len(sub), tuple(rows))


def is_transitive(t: Tournament) -> bool:
    """True iff the tournament has no directed triangle."""
    for u in range(t.n):
        out = t.rows[u]
        back = t.in_mask(u)
        v_bits = out
        while v_bits:
            v = (v_bits & -v_bits).bit_length() - 1
            v_bits &= v_bits - 1
            if t.rows[v] & back:
                return False
    return True


def largest_transitive(t: Tournament) -> frozenset[int]:
    """An exact maximum transitive vertex set, via memoized chain search.

    A transitive set ordered as v1,...,vk has every vi beating all later
    members, so best(mask) = max over v in mask of 1 + best(mask & out(v)).
    The memo keeps, per mask, the best size and the least vertex reaching
    it, and the chain follows those vertices from the full mask.
    """
    if t.n > TR_BUDGET:
        raise BudgetError(f"exact transitive solver limited to n <= {TR_BUDGET}, got {t.n}")
    memo: dict[int, tuple[int, int]] = {0: (0, -1)}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached[0]
        size = choice = 0
        bits = mask
        while bits:
            v = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            reach = 1 + best(mask & t.rows[v])
            if reach > size:
                size, choice = reach, v
        memo[mask] = (size, choice)
        return size

    mask = (1 << t.n) - 1
    best(mask)
    chain = []
    while mask:
        v = memo[mask][1]
        chain.append(v)
        mask &= t.rows[v]
    return frozenset(chain)


def to_fraction(x) -> Fraction:
    """An exact threshold: a float is read through its decimal representation
    (``Fraction(str(x))``), so 0.3 means exactly 3/10."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def density(t: Tournament, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """d(A,B): fraction of the |A||B| pairs oriented from A to B."""
    a_set, b_set = set(a), set(b)
    if not a_set or not b_set:
        raise ValueError("density needs nonempty sets")
    if a_set & b_set:
        raise ValueError("density needs disjoint sets")
    b_mask = vertex_mask(b_set)
    edges = sum((t.rows[u] & b_mask).bit_count() for u in a_set)
    return Fraction(edges, len(a_set) * len(b_set))


def vertex_mask(vertices: Iterable[int]) -> int:
    """The mask with bit v set for every v in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_vertices(mask: int) -> list[int]:
    """The set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Canonical forms, isomorphism, enumeration
# ---------------------------------------------------------------------------


def _refine(rows: Sequence[int], cells: list[int]) -> list[int]:
    """Split an ordered partition (cell bitmasks) until it is equitable.

    Each vertex of a cell gets the signature of its out-degrees into every
    current cell; a cell splits into its signature classes, ordered by
    signature.  Rounds repeat until no cell splits.  A signature is packed
    into one int, four bits per cell: every count is at most n - 1 < 16
    (n <= CANONICAL_BUDGET), and packed ints of one length sort as the
    count tuples do.
    """
    while True:
        refined = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[int, int] = {}
            bits = cell
            while bits:
                low = bits & -bits
                bits ^= low
                row = rows[low.bit_length() - 1]
                sig = 0
                for c in cells:
                    sig = sig << 4 | (row & c).bit_count()
                parts[sig] = parts.get(sig, 0) | low
            if len(parts) == 1:
                refined.append(cell)
            else:
                refined.extend(parts[sig] for sig in sorted(parts))
        if len(refined) == len(cells):
            return cells
        cells = refined


def _leaf_columns(rows: Sequence[int], order: list[int]) -> tuple[int, ...]:
    placed = [rows[order[0]]]
    cols = []
    for v in order[1:]:
        col = 0
        for row in placed:
            col = col << 1 | (row >> v & 1)
        cols.append(col)
        placed.append(rows[v])
    return tuple(cols)


def _canonical_columns(rows: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically minimal column encoding over the search's leaves.

    The search starts from the score cells in ascending score order, which is
    what a first refinement round makes of the single full cell.
    """
    best: Optional[tuple[int, ...]] = None

    def search(cells: list[int]) -> None:
        nonlocal best
        cells = _refine(rows, cells)
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            leaf = _leaf_columns(rows, [c.bit_length() - 1 for c in cells])
            if best is None or leaf < best:
                best = leaf
            return
        bits = cell
        while bits:
            low = bits & -bits
            bits ^= low
            search(cells[:i] + [low, cell ^ low] + cells[i + 1 :])

    by_score = [0] * len(rows)
    for v, row in enumerate(rows):
        by_score[row.bit_count()] |= 1 << v
    search([cell for cell in by_score if cell])
    assert best is not None
    return best


def _columns_to_bytes(n: int, cols: tuple[int, ...]) -> bytes:
    acc = 0
    for q, col in enumerate(cols, start=1):
        acc = acc << q | col
    nbits = n * (n - 1) // 2
    return bytes([n]) + acc.to_bytes((nbits + 7) // 8 or 1, "big")


def _rows_from_columns(n: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    rows = [0] * n
    for q, col in enumerate(cols, start=1):
        for i in range(q):
            if col >> (q - 1 - i) & 1:
                rows[i] |= 1 << q
            else:
                rows[q] |= 1 << i
    return tuple(rows)


def canonical_form(t: Tournament) -> bytes:
    """Isomorphism-invariant minimal adjacency encoding: byte n, then the columns.

    The encoding lists, for each position q = 1..n-1, the column of bits
    edge(placed[i] -> placed[q]) for i < q.  The vertex orderings compared are
    the leaves of an individualization-refinement search (McKay-Piperno,
    "Practical graph isomorphism II", 2014): refine the partition of the
    vertices by out-degree into every cell until it is equitable, then
    individualize each vertex of the first non-singleton cell in turn and
    recurse until every cell is a singleton.  The refinement never looks at
    labels, so any relabelling maps the set of leaves onto itself, and the
    lexicographically minimal column sequence over the leaves is an
    isomorphism invariant.
    """
    if t.n > CANONICAL_BUDGET:
        raise BudgetError(f"canonical form limited to n <= {CANONICAL_BUDGET}, got {t.n}")
    return _columns_to_bytes(t.n, _canonical_columns(t.rows))


def enumerate_tournaments(n: int, budget: int = ENUMERATION_BUDGET) -> Iterator[Tournament]:
    """One representative per isomorphism class, by iterated one-vertex extension.

    An extension of a class representative by a new vertex is kept only if the
    new vertex maximises the key (score, second score) over the extended
    tournament, where a vertex's second score is the sum of the scores of the
    vertices it beats (McKay's canonical deletion by a vertex invariant,
    "Isomorph-free exhaustive generation", J. Algorithms 1998).  No class is
    lost: the key is an isomorphism invariant, so deleting a vertex that
    maximises it in any class leaves a tournament isomorphic to some
    representative, and the matching extension of that representative puts
    the new vertex at the maximum key, so that extension is kept.  Each kept
    extension, given as raw rows, is reduced to its canonical columns by the
    same search as ``canonical_form``; the distinct column tuples are the
    classes of the next size.  Representatives are rebuilt from their
    canonical encodings, so the stream is deterministic and sorted by encoding.
    """
    if n > budget:
        raise BudgetError(f"enumeration limited to n <= {budget}, got {n}")
    if n < 1:
        raise ValueError("n must be positive")
    reps: set[tuple[int, ...]] = {()}  # canonical column tuples at the current size
    for size in range(1, n):
        new_bit = 1 << size
        extended = set()
        for cols in reps:
            base = _rows_from_columns(size, cols)
            scores = [row.bit_count() for row in base]
            # at_least[s]: the base vertices of score >= s
            at_least = [sum(1 << v for v, score in enumerate(scores) if score >= s)
                        for s in range(size + 2)]
            # beaten_sum[v]: the base scores of the base vertices v beats
            beaten_sum = [sum(scores[w] for w in mask_vertices(row)) for row in base]
            for out_bits in range(1 << size):
                # the new vertex ties for top score: a base vertex above `top`
                # outscores it, and one at `top` does so when it beats the new vertex
                top = out_bits.bit_count()
                if at_least[top + 1] | at_least[top] & ~out_bits:
                    continue
                # the base vertices tied with it: those at `top` that it beats, and
                # those at `top - 1` that beat it (top >= 1 here, as size >= 1)
                tied = at_least[top] | at_least[top - 1] & ~out_bits
                second = sum(scores[w] for w in mask_vertices(out_bits))
                if any(
                    beaten_sum[u] + (base[u] & ~out_bits).bit_count()
                    + (0 if out_bits >> u & 1 else top) > second
                    for u in mask_vertices(tied)
                ):
                    continue
                rows = [
                    row if out_bits >> v & 1 else row | new_bit
                    for v, row in enumerate(base)
                ]
                rows.append(out_bits)
                extended.add(_canonical_columns(rows))
        reps = extended
    for cols in sorted(reps):
        yield Tournament(n, _rows_from_columns(n, cols))


# ---------------------------------------------------------------------------
# Homogeneous sets and primality
# ---------------------------------------------------------------------------


def _module_closure(t: Tournament, u: int, v: int) -> int:
    """Bitmask of the minimal homogeneous set containing {u, v}.

    A splitter, an outside vertex beaten by some member but not by all, never
    stays outside a containing module.  ``beaten`` ORs the members' rows and
    ``beaten_by_all`` ANDs them, so each round absorbs every splitter at once.
    """
    rows = t.rows
    mask = 1 << u | 1 << v
    beaten, beaten_by_all = rows[u] | rows[v], rows[u] & rows[v]
    while splitters := beaten & ~beaten_by_all & ~mask:
        mask |= splitters
        while splitters:
            low = splitters & -splitters
            splitters ^= low
            row = rows[low.bit_length() - 1]
            beaten |= row
            beaten_by_all &= row
    return mask


def find_module(t: Tournament) -> Optional[frozenset[int]]:
    """A homogeneous set X with 2 <= |X| < n, or None if the tournament is prime.

    Every vertex outside X is complete to X or complete from X.  The minimal
    module containing each pair is computed by splitter closure; a nontrivial
    module exists iff some pair closure is proper.
    """
    full = (1 << t.n) - 1
    for u in range(t.n):
        for v in range(u + 1, t.n):
            mask = _module_closure(t, u, v)
            if mask != full:
                return frozenset(w for w in range(t.n) if mask >> w & 1)
    return None


def is_prime(t: Tournament) -> bool:
    return find_module(t) is None


def find_module_exhaustive(t: Tournament) -> Optional[frozenset[int]]:
    """Oracle for find_module: decide every subset of size 2..n-1 at once.

    Bit M of a 2^n-bit integer stands for vertex subset M, and ``has[i]`` holds
    the subsets containing vertex i.  Vertex w splits the subsets that meet both
    its out- and its in-neighbourhood and leave w out; what no vertex splits,
    less the empty set, the singletons and the full set, are the modules.  The
    lowest one is the first a scan of the subsets in increasing order meets.
    """
    if t.n > MODULE_SEARCH_BUDGET:
        raise BudgetError(f"exhaustive module search limited to n <= {MODULE_SEARCH_BUDGET}")
    n, has, width = t.n, [], 1
    for _ in range(n):  # double the subset range; the new vertex holds the upper half
        has = [table | table << width for table in has] + [((1 << width) - 1) << width]
        width *= 2

    def meets(mask: int) -> int:
        tables = 0
        for i in range(n):
            if mask >> i & 1:
                tables |= has[i]
        return tables

    singletons = sum(1 << (1 << i) for i in range(n))
    modules = ((1 << width) - 1) & ~(1 | singletons | 1 << width - 1)
    for w in range(n):
        modules &= ~(meets(t.rows[w]) & meets(t.in_mask(w)) & ~has[w])
    first = (modules & -modules).bit_length() - 1
    return frozenset(v for v in range(n) if first >> v & 1) if modules else None
