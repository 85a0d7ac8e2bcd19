"""Seeded input generators of the benchmark.

The benchmark owns these generators, so that an edit to the test helpers or
to the library's own random constructors cannot silently change what a seed
produces.  Every generator takes a ``random.Random`` and returns adjacency
rows: row ``u`` is an int whose bit ``v`` is set iff the edge ``u -> v`` is
present.  The program sees only the files and ``Tournament`` objects built
from these rows.
"""

from __future__ import annotations

import random
from pathlib import Path

# Seed used while the benchmark was written; a claim of a gain is confirmed
# again on HELD_OUT_SEED, which no tuning looked at.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

Rows = tuple[int, ...]

# The paper's 3-vertex stars as (later, earlier) backward edges over slot
# positions 1..3 of one star; every other pair points forward.
STAR_BACK_EDGES = {
    "left": ((2, 1), (3, 1)),
    "right": ((3, 1), (3, 2)),
    "central": ((2, 1), (3, 2)),
}

# The two bundled 12-vertex reference tournaments, as 1-based backward edges
# under the identity ordering (the README of the source data).
LEFT_EXAMPLE_BACK = ((5, 1), (9, 1), (8, 6), (11, 6), (4, 2), (10, 3), (12, 7))
CENTRAL_EXAMPLE_BACK = ((4, 1), (8, 4), (5, 3), (9, 5), (6, 2), (11, 6), (10, 7), (12, 10))


def from_back_edges(n: int, back: set[tuple[int, int]]) -> Rows:
    """Rows of the tournament on 0..n-1 whose backward edges under the
    identity ordering are ``back`` (pairs (later, earlier))."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if (v, u) in back:
                rows[v] |= 1 << u
            else:
                rows[u] |= 1 << v
    return tuple(rows)


def random_rows(n: int, rng: random.Random) -> Rows:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return tuple(rows)


def transitive_rows(n: int) -> Rows:
    return from_back_edges(n, set())


def cyclic_triangle_rows() -> Rows:
    return from_back_edges(3, {(2, 0)})


def relabel(rows: Rows, perm: list[int]) -> Rows:
    """The same tournament with vertex ``u`` renamed ``perm[u]``."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in range(len(rows)):
            if row >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return tuple(out)


def random_relabel(rows: Rows, rng: random.Random) -> Rows:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel(rows, perm)


def circulant_rows(n: int, rng: random.Random) -> Rows:
    """A random circulant tournament on Z_n (n odd): i -> i+s for s in S,
    where S holds one of s and n-s for every s.  Vertex-transitive, so a
    canonical search meets many ties."""
    if n % 2 == 0:
        raise ValueError("circulant tournaments need an odd order")
    steps = [s if rng.random() < 0.5 else n - s for s in range(1, (n - 1) // 2 + 1)]
    return tuple(sum(1 << ((i + s) % n) for s in steps) for i in range(n))


def product_nebula_rows(kind: str, placements: list[tuple[int, int, int]]) -> Rows:
    """The slot product of 3-vertex stars of one kind.

    ``placements`` holds one ascending slot triple per star; the slots must
    cover 1..3*len(placements).  Under the slot ordering the backward edges
    are exactly the stars' own.
    """
    n = 3 * len(placements)
    back = set()
    for slots in placements:
        for later, earlier in STAR_BACK_EDGES[kind]:
            back.add((slots[later - 1] - 1, slots[earlier - 1] - 1))
    return from_back_edges(n, back)


def random_placements(stars: int, rng: random.Random) -> list[tuple[int, int, int]]:
    slots = list(range(1, 3 * stars + 1))
    rng.shuffle(slots)
    return sorted(tuple(sorted(slots[3 * i : 3 * i + 3])) for i in range(stars))


def example_rows(name: str) -> Rows:
    back = {"left": LEFT_EXAMPLE_BACK, "central": CENTRAL_EXAMPLE_BACK}[name]
    return from_back_edges(12, {(w - 1, u - 1) for w, u in back})


def _random_within_blocks(rows: list[int], parts: int, w: int, rng: random.Random) -> None:
    for p in range(parts):
        for i in range(w):
            for j in range(i + 1, w):
                u, v = p * w + i, p * w + j
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u


def _orient_cross(rows: list[int], w: int, a: int, b: int, back: set[tuple[int, int]]) -> None:
    """Orient block a -> block b forward except the (pos in b, pos in a) pairs in back."""
    for i in range(w):
        for j in range(w):
            u, v = a * w + i, b * w + j
            if (j, i) in back:
                rows[v] |= 1 << u
            else:
                rows[u] |= 1 << v


def victim_host(parts: int, w: int, rng: random.Random) -> Rows:
    """Blocks of size w with tuned coverage speeds per ordered block pair.

    For blocks a < b with speeds (B, D): the first B vertices of block b
    beat, between them, every vertex of the last half of block a, so the
    out-coverage reaches half at step B; w/2 further vertices of b each beat
    one of the first D vertices of a, so the in-coverage reaches half at
    step D.  The phase algorithm then stores witness triples until a vector
    saturates (a forbidden copy) or a coverage tie leaves a complete pair.
    """
    if w % 2 or w < 12:
        raise ValueError("victim blocks need an even size of at least 12")
    half = w // 2
    speeds = [(2, 5), (2, 15), (3, 5), (3, 15), (3, 2)]
    rows = [0] * (parts * w)
    _random_within_blocks(rows, parts, w, rng)
    for a in range(parts):
        for b in range(a + 1, parts):
            big, diffuse = rng.choice(speeds)
            back = {(i, pos) for i in range(big) for pos in range(half + i, w, big)}
            back |= {(4 + s, s % diffuse) for s in range(half)}
            _orient_cross(rows, w, a, b, back)
    return tuple(rows)


def noise_host(parts: int, w: int, span: int, rng: random.Random) -> Rows:
    """Mostly-forward blocks: every vertex of a later block beats one vertex
    among the first ``span`` of each earlier block, so coverage stays below
    half and the trichotomy ends in a complete pair."""
    rows = [0] * (parts * w)
    _random_within_blocks(rows, parts, w, rng)
    for a in range(parts):
        for b in range(a + 1, parts):
            perm = list(range(w))
            rng.shuffle(perm)
            _orient_cross(rows, w, a, b, {(j, perm[j] % span) for j in range(w)})
    return tuple(rows)


def forward_block_host(parts: int, w: int, rng: random.Random) -> Rows:
    """Every cross-block edge forward, within-block edges random."""
    rows = list(transitive_rows(parts * w))
    for p in range(parts):
        for i in range(w):
            for j in range(i + 1, w):
                u, v = p * w + i, p * w + j
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                    rows[v] &= ~(1 << u)
                else:
                    rows[v] |= 1 << u
                    rows[u] &= ~(1 << v)
    return tuple(rows)


def matrix_text(rows: Rows) -> str:
    """The documented matrix file format."""
    n = len(rows)
    body = (format(row, f"0{n}b")[::-1] for row in rows)
    return f"tournament {n} matrix\n" + "\n".join(body) + "\n"


def write_matrix(path: Path, rows: Rows) -> str:
    path.write_text(matrix_text(rows))
    return str(path)
