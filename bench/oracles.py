"""Independent re-checks of the program's answers.

Nothing here calls into ``nebulab``: every check is re-derived from the
adjacency rows by definition, by exhaustive search on small inputs, or by a
cheaper exact argument.  A check never compares against stored bytes, so a
change of the program's encodings (canonical forms, file order) is not a
failure as long as the answers stay right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from inputs import Rows


def bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def has_edge(rows: Rows, u: int, v: int) -> bool:
    return bool(rows[u] >> v & 1)


def is_tournament(rows: Rows) -> bool:
    n = len(rows)
    if any(row >> n or row >> u & 1 for u, row in enumerate(rows)):
        return False
    return all(
        has_edge(rows, u, v) != has_edge(rows, v, u)
        for u in range(n)
        for v in range(u + 1, n)
    )


def parse_matrix(text: str) -> Rows:
    lines = text.split()
    if lines[:1] != ["tournament"] or lines[2] != "matrix":
        raise ValueError("not a matrix file")
    n = int(lines[1])
    body = lines[3:]
    if len(body) != n or any(len(line) != n or set(line) - {"0", "1"} for line in body):
        raise ValueError("malformed matrix body")
    return tuple(sum(1 << v for v, ch in enumerate(line) if ch == "1") for line in body)


def is_transitive_set(rows: Rows, vertices) -> bool:
    """No directed triangle inside ``vertices``."""
    vs = list(vertices)
    for a, b, c in itertools.combinations(vs, 3):
        ab, bc, ca = has_edge(rows, a, b), has_edge(rows, b, c), has_edge(rows, c, a)
        if ab == bc == ca:
            return False
    return True


def largest_transitive_size(rows: Rows) -> int:
    """Exhaustive subset sweep, largest size first."""
    n = len(rows)
    for r in range(n, 0, -1):
        if any(is_transitive_set(rows, c) for c in itertools.combinations(range(n), r)):
            return r
    return 0


def is_prime(rows: Rows) -> bool:
    """No homogeneous set X with 2 <= |X| < n: every subset is scanned."""
    n = len(rows)
    full = (1 << n) - 1
    for mask in range(1, full):
        if bin(mask).count("1") < 2:
            continue
        if all((rows[w] & mask) in (0, mask) for w in range(n) if not mask >> w & 1):
            return False
    return True


def invariant(rows: Rows) -> tuple:
    """An isomorphism invariant: per vertex its score, the sorted scores of
    its out-neighbours and its number of directed triangles."""
    n = len(rows)
    score = [bin(r).count("1") for r in rows]
    per_vertex = []
    for v in range(n):
        outs = bits(rows[v])
        triangles = sum(bin(rows[w] & ~rows[v] & ~(1 << v)).count("1") for w in outs)
        per_vertex.append((score[v], tuple(sorted(score[w] for w in outs)), triangles))
    return tuple(sorted(per_vertex))


def isomorphic(r1: Rows, r2: Rows) -> bool:
    """Exhaustive search over score-preserving bijections."""
    n = len(r1)
    if n != len(r2) or invariant(r1) != invariant(r2):
        return False
    s1 = [bin(r).count("1") for r in r1]
    s2 = [bin(r).count("1") for r in r2]
    image: list[int] = []

    def extend(u: int, used: int) -> bool:
        if u == n:
            return True
        for v in range(n):
            if used >> v & 1 or s2[v] != s1[u]:
                continue
            if all(has_edge(r1, u, x) == has_edge(r2, v, image[x]) for x in range(u)):
                image.append(v)
                if extend(u + 1, used | 1 << v):
                    return True
                image.pop()
        return False

    return extend(0, 0)


def pairwise_non_isomorphic(classes: list[Rows]) -> bool:
    groups: dict[tuple, list[Rows]] = {}
    for rows in classes:
        groups.setdefault(invariant(rows), []).append(rows)
    return not any(
        isomorphic(a, b)
        for group in groups.values()
        for a, b in itertools.combinations(group, 2)
    )


def min_backward_edges(rows: Rows) -> int:
    """The fewest backward edges over all orderings (a minimum feedback arc
    set), by dynamic programming over the set of vertices placed first."""
    n = len(rows)
    best = [0] + [n * n] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        for v in bits(mask):
            rest = mask & ~(1 << v)
            # v placed last among mask: its edges into the rest point backward
            cost = best[rest] + bin(rows[v] & rest).count("1")
            if cost < best[mask]:
                best[mask] = cost
    return best[(1 << n) - 1]


def score_order_backward_edges(rows: Rows) -> int:
    """Backward edges of the ordering by decreasing score: an upper bound
    on ``min_backward_edges``."""
    order = sorted(range(len(rows)), key=lambda v: -bin(rows[v]).count("1"))
    return sum(has_edge(rows, order[q], order[p])
               for p in range(len(order)) for q in range(p + 1, len(order)))


def ordering_satisfies(rows: Rows, order: list[int], kind: str) -> bool:
    """The five ordering predicates, from their definitions.

    The backward graph joins u and v when their edge points from the later
    to the earlier one.  A component with at least three vertices is a star
    when one hub is adjacent to all others and they only to it; the hub's
    position among the component's positions makes it left, right or central.
    """
    n = len(rows)
    if sorted(order) != list(range(n)):
        return False
    pos = {v: p for p, v in enumerate(order)}
    adj = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(n):
            if has_edge(rows, u, v) and pos[u] > pos[v]:
                adj[u].add(v)
                adj[v].add(u)
    comps, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        comp, frontier = {v}, [v]
        while frontier:
            for y in adj[frontier.pop()] - comp:
                comp.add(y)
                frontier.append(y)
        seen |= comp
        comps.append(comp)

    def star_kind(comp: set[int]):
        if len(comp) < 3:
            return "small"
        hubs = [v for v in comp if len(adj[v]) == len(comp) - 1]
        if len(hubs) != 1 or any(len(adj[v]) != 1 for v in comp if v != hubs[0]):
            return None
        hub = pos[hubs[0]]
        others = [pos[v] for v in comp if v != hubs[0]]
        return "left" if hub < min(others) else "right" if hub > max(others) else "central"

    kinds = [star_kind(c) for c in comps]
    if kind == "nebula":
        return None not in kinds
    if kind in ("left", "right", "central"):
        return all(len(c) == 1 or (len(c) == 3 and k == kind) for c, k in zip(comps, kinds))
    # galaxy: left/right stars, two-vertex components with a free hub, and no
    # hub strictly between two leaves of another star
    fixed, pairs = [], []
    for comp, k in zip(comps, kinds):
        if len(comp) == 2:
            pairs.append(sorted(pos[v] for v in comp))
        elif len(comp) >= 3:
            if k not in ("left", "right"):
                return False
            positions = sorted(pos[v] for v in comp)
            hub = positions[0] if k == "left" else positions[-1]
            fixed.append((hub, [p for p in positions if p != hub]))
    for flips in itertools.product((0, 1), repeat=len(pairs)):
        stars = fixed + [((p[f], [p[1 - f]])) for f, p in zip(flips, pairs)]
        if not any(
            min(leaves) < hub < max(leaves)
            for i, (hub, _) in enumerate(stars)
            for j, (_, leaves) in enumerate(stars)
            if i != j and len(leaves) >= 2
        ):
            return True
    return False


def embedding_ok(host: Rows, pattern: Rows, mapping: list[int]) -> bool:
    """mapping[h] is the host vertex of pattern vertex h (0-based)."""
    h = len(pattern)
    if len(mapping) != h or len(set(mapping)) != h:
        return False
    if any(not 0 <= v < len(host) for v in mapping):
        return False
    return all(
        has_edge(host, mapping[a], mapping[b]) == has_edge(pattern, a, b)
        for a in range(h)
        for b in range(h)
        if a != b
    )


def contains(host: Rows, pattern: Rows) -> bool:
    """Every vertex subset with the pattern's scores, tested by the
    exhaustive isomorphism search."""
    h = len(pattern)
    scores = sorted(bin(r).count("1") for r in pattern)
    for subset in itertools.combinations(range(len(host)), h):
        mask = sum(1 << v for v in subset)
        if sorted(bin(host[v] & mask).count("1") for v in subset) != scores:
            continue
        index = {v: i for i, v in enumerate(subset)}
        sub = tuple(
            sum(1 << index[w] for w in subset if has_edge(host, v, w)) for v in subset
        )
        if isomorphic(sub, pattern):
            return True
    return False


def complete(host: Rows, a, b) -> bool:
    """Every vertex of a beats every vertex of b."""
    return bool(a) and bool(b) and not set(a) & set(b) and all(
        has_edge(host, u, v) for u in a for v in b
    )


def density(host: Rows, a, b) -> Fraction:
    b_mask = sum(1 << v for v in b)
    return Fraction(sum(bin(host[u] & b_mask).count("1") for u in a), len(a) * len(b))


def regular_pair(host: Rows, a: list[int], b: list[int], eps: Fraction) -> bool:
    """Exact epsilon-regularity of (A, B) by sorted extremes.

    For a fixed X and |Y| = y, |e(X,Y)|A||B| - e0 x y| is convex in e(X,Y),
    so only the y largest and the y smallest column counts of X can violate.
    """
    num, den = eps.numerator, eps.denominator
    na, nb = len(a), len(b)
    ab = na * nb
    cols = [sum(1 << i for i, u in enumerate(a) if has_edge(host, u, v)) for v in b]
    e0 = sum(bin(c).count("1") for c in cols)
    for xmask in range(1, 1 << na):
        x = bin(xmask).count("1")
        if x * den < num * na:
            continue
        counts = sorted(bin(c & xmask).count("1") for c in cols)
        low = high = 0
        for y in range(1, nb + 1):
            low += counts[y - 1]
            high += counts[nb - y]
            if y * den < num * nb:
                continue
            for e in (low, high):
                if abs(e * ab - e0 * x * y) * den > num * x * y * ab:
                    return False
    return True
