"""Shared instance builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

from nebulab import core
from nebulab.algorithm import CASES, AlgorithmConfig
from nebulab.containment import Embedding, contains
from nebulab.product import SMALL_STARS, PlacementNebula
from nebulab.regularity import PairVerdict, ViolatingPair, to_fraction
from nebulab.stars import StarKind
from nebulab.structures import CompletePair, Triple, TripleClass


def all_labeled_tournaments(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if bits >> idx & 1:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
        yield core.Tournament(n, tuple(rows))


def isomorphic(t1: core.Tournament, t2: core.Tournament) -> bool:
    return t1.n == t2.n and core.canonical_form(t1) == core.canonical_form(t2)


def relabel(t: core.Tournament, perm: list[int]) -> core.Tournament:
    rows = [0] * t.n
    for u, v in t.edges():
        rows[perm[u]] |= 1 << perm[v]
    return core.Tournament(t.n, tuple(rows))


def definition_contains(host: core.Tournament, pattern: core.Tournament):
    """Definition-level containment oracle: the first embedding, over every
    vertex subset and every bijection onto it, that passes validate."""
    for subset in combinations(range(host.n), pattern.n):
        for image in permutations(subset):
            emb = Embedding(image)
            if emb.validate(host, pattern):
                return emb
    return None


def is_module(t: core.Tournament, mask: int) -> bool:
    """Definition-level homogeneity: every vertex outside ``mask`` beats all of
    it or none of it."""
    return all((t.rows[w] & mask) in (0, mask) for w in range(t.n) if not mask >> w & 1)


def definition_module(t: core.Tournament) -> frozenset[int] | None:
    """Per-subset module oracle: the first subset of size 2..n-1, in increasing
    bitmask order, that is a module."""
    for mask in range(3, (1 << t.n) - 1):
        if mask.bit_count() >= 2 and is_module(t, mask):
            return frozenset(v for v in range(t.n) if mask >> v & 1)
    return None


def definition_components(t: core.Tournament, placed) -> list[tuple]:
    """Definition-level star classifier: the backward components among the
    ``placed`` vertices, found by a search over the backward edge list with
    plain sets, each as the tuple (mask, hub, kind, lo, hi) that the ordering
    search carries.  The hub is the one vertex adjacent to every other member
    of a component with 3 or more vertices, every other member being a leaf;
    lo and hi are the first and last leaf positions, where every vertex of a
    singleton or a pair counts as a leaf (0 and 0 for a non-star)."""
    pos = {v: p for p, v in enumerate(placed)}
    rest = [v for v in range(t.n) if v not in pos]
    adj = {v: set() for v in placed}
    for w, u in core.backward_edges(t, tuple(placed) + tuple(rest)):
        if w in pos and u in pos:
            adj[w].add(u)
            adj[u].add(w)
    seen, out = set(), []
    for v in placed:
        if v in seen:
            continue
        comp, frontier = {v}, [v]
        while frontier:
            for y in adj[frontier.pop()] - comp:
                comp.add(y)
                frontier.append(y)
        seen |= comp
        mask = sum(1 << x for x in comp)
        at = sorted(pos[x] for x in comp)
        if len(comp) == 1:
            out.append((mask, None, StarKind.SINGLETON, at[0], at[0]))
            continue
        if len(comp) == 2:
            out.append((mask, None, StarKind.GENERAL, at[0], at[1]))
            continue
        hubs = [x for x in comp if len(adj[x]) == len(comp) - 1]
        if len(hubs) != 1 or any(len(adj[x]) != 1 for x in comp if x != hubs[0]):
            out.append((mask, None, StarKind.NON_STAR, 0, 0))
            continue
        hub = hubs[0]
        leaves = [pos[x] for x in comp if x != hub]
        lo, hi = min(leaves), max(leaves)
        kind = (StarKind.LEFT if pos[hub] < lo else
                StarKind.RIGHT if pos[hub] > hi else StarKind.CENTRAL)
        out.append((mask, hub, kind, lo, hi))
    return out


def pattern_triple(host: core.Tournament, sigma: Triple, kind) -> tuple[int, int, int] | None:
    """Hand-unrolled witness oracle: the lex-first (v1, v2, v3) with v_m in
    S_m inducing the kind's three-vertex star, star vertex m - 1 at v_m."""
    star = SMALL_STARS[kind]

    def fitting(v: int, a: int, b: int) -> int:
        """Vertices of S_(b+1) oriented toward v, at star vertex a, as the star asks."""
        target = sigma[b]
        return target & host.rows[v] if star.has_edge(a, b) else target & ~host.rows[v]

    for v1 in core.mask_vertices(sigma[0]):
        for v2 in core.mask_vertices(fitting(v1, 0, 1)):
            third = fitting(v1, 0, 2) & fitting(v2, 1, 2)
            if third:
                return v1, v2, (third & -third).bit_length() - 1
    return None


def is_free(host: core.Tournament, family) -> bool:
    return all(contains(host, member) is None for member in family)


def write_backedges(t: core.Tournament, order) -> str:
    """Backedges file body: the ordering, then one `later earlier` line per backward edge."""
    lines = [f"tournament {t.n} backedges"]
    lines.append(" ".join(str(v + 1) for v in order))
    for w, u in sorted(core.backward_edges(t, order)):
        lines.append(f"{w + 1} {u + 1}")
    return "\n".join(lines) + "\n"


def loop_pair_check(n: int, rows) -> str | None:
    """Reference pair check, one pair at a time: the message Tournament(n, rows)
    raises for the lex-first pair not oriented exactly once, or None."""
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v & 1) == (rows[v] >> u & 1):
                return f"pair ({u},{v}) is not oriented exactly once"
    return None


def loop_write_matrix(t: core.Tournament) -> str:
    """Reference matrix writer: one character per ordered pair."""
    lines = [f"tournament {t.n} matrix"]
    for u in range(t.n):
        lines.append("".join("1" if t.has_edge(u, v) else "0" for v in range(t.n)))
    return "\n".join(lines) + "\n"


def tuple_refine(rows, cells: list[int]) -> list[int]:
    """Reference refinement with tuple signatures, one count per cell."""
    while True:
        refined = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[tuple[int, ...], int] = {}
            bits = cell
            while bits:
                low = bits & -bits
                bits ^= low
                row = rows[low.bit_length() - 1]
                sig = tuple([(row & c).bit_count() for c in cells])
                parts[sig] = parts.get(sig, 0) | low
            if len(parts) == 1:
                refined.append(cell)
            else:
                refined.extend(parts[sig] for sig in sorted(parts))
        if len(refined) == len(cells):
            return cells
        cells = refined


def tr_sweep(t: core.Tournament) -> int:
    """Definition-level oracle: largest subset passing is_transitive."""
    for r in range(t.n, 0, -1):
        for c in combinations(range(t.n), r):
            if core.is_transitive(core.induced(t, c)):
                return r
    return 0


def blocks(t_parts: int, w: int) -> list[frozenset[int]]:
    return [frozenset(range(p * w, (p + 1) * w)) for p in range(t_parts)]


def victim_host(
    t_parts: int, w: int, b_table: dict, d_table: dict, seed: int
) -> core.Tournament:
    """Blocks of size w with tunable coverage speeds per ordered block pair.

    For a < b: the first B(a,b) vertices of block b ("bigs") partition the
    victim half (last w/2 positions) of block a, so the out-coverage of block
    b over block a reaches half exactly at step B.  The w/2 "diffuse" vertices
    at positions 4.. of block b each beat one early position of block a,
    spread over positions 0..D(a,b)-1, so the in-coverage reaches half exactly
    at step D.  Everything else is forward; within-block edges are random.
    """
    assert w % 2 == 0 and w >= 12
    half = w // 2
    rng = random.Random(seed)
    n = t_parts * w
    rows = [0] * n

    def vid(part, pos):
        return part * w + pos

    for p in range(t_parts):
        for i in range(w):
            for j in range(i + 1, w):
                if rng.random() < 0.5:
                    rows[vid(p, i)] |= 1 << vid(p, j)
                else:
                    rows[vid(p, j)] |= 1 << vid(p, i)
    for a in range(t_parts):
        for b in range(a + 1, t_parts):
            bb = b_table[(a, b)]
            dd = d_table[(a, b)]
            back = set()
            for i in range(bb):
                for vpos in range(half + i, w, bb):
                    back.add((i, vpos))
            for s in range(half):
                back.add((4 + s, s % dd))
            for i in range(w):
                for j in range(w):
                    u, v = vid(a, i), vid(b, j)
                    if (j, i) in back:
                        rows[v] |= 1 << u
                    else:
                        rows[u] |= 1 << v
    return core.Tournament(n, tuple(rows))


def random_speed_tables(t_parts: int, rng: random.Random):
    """Mixed white/black tables keeping every per-vertex backward load small."""
    picks = [(2, 5), (2, 15), (3, 5), (3, 15), (3, 2)]
    b_table, d_table = {}, {}
    for a in range(t_parts):
        for b in range(a + 1, t_parts):
            b_table[(a, b)], d_table[(a, b)] = rng.choice(picks)
    return b_table, d_table


def noise_host(t_parts: int, w: int, span: int, seed: int) -> core.Tournament:
    """Mostly-forward blocks; each later-block vertex beats one early vertex
    of every earlier block, targets confined to the first ``span`` positions
    so total coverage stays below half and the trichotomy finds a pair."""
    rng = random.Random(seed)
    n = t_parts * w
    rows = [0] * n

    def vid(part, pos):
        return part * w + pos

    for p in range(t_parts):
        for i in range(w):
            for j in range(i + 1, w):
                if rng.random() < 0.5:
                    rows[vid(p, i)] |= 1 << vid(p, j)
                else:
                    rows[vid(p, j)] |= 1 << vid(p, i)
    for a in range(t_parts):
        for b in range(a + 1, t_parts):
            perm = list(range(w))
            rng.shuffle(perm)
            back = {(j, perm[j] % span) for j in range(w)}
            for i in range(w):
                for j in range(w):
                    u, v = vid(a, i), vid(b, j)
                    if (j, i) in back:
                        rows[v] |= 1 << u
                    else:
                        rows[u] |= 1 << v
    return core.Tournament(n, tuple(rows))


def single_star_config(case: str, t: int, w: int, lam, c=None) -> AlgorithmConfig:
    spec = CASES[case]
    nebulae = {
        spec.white: PlacementNebula(spec.white, ((1, 2, 3),), 3),
        spec.black: PlacementNebula(spec.black, ((1, 2, 3),), 3),
    }
    if c is None:
        c = Fraction(1, t)
    return AlgorithmConfig(case, nebulae, 3, t, w, Fraction(c), Fraction(lam))


def definition_monochromatic_clique(coloring, t: int, k: int):
    """Definition-level oracle: the first k-subset of range(t) in lex order
    whose triples are all white, else all black, else None."""
    for want in ("white", "black"):
        for subset in combinations(range(t), k):
            if all(coloring[edge][0] == want for edge in combinations(subset, 3)):
                return subset, want
    return None


def forward_block_host(part_count: int, part_size: int, seed: int) -> core.Tournament:
    """All cross-block edges forward, within-block edges random."""
    rng = random.Random(seed)
    n = part_count * part_size
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if u // part_size == v // part_size:
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
            else:
                rows[u] |= 1 << v
    return core.Tournament(n, tuple(rows))


def matching_host(part_count: int, part_size: int, share: float, seed: int) -> core.Tournament:
    """Forward blocks but for one random partial matching of backward edges
    per block pair, each pair of the matching kept with probability
    ``share``: a vertex misses at most one vertex of another block, so the
    blocks form a strong (1/part_count, 1/part_size)-structure."""
    rng = random.Random(seed)
    host = forward_block_host(part_count, part_size, seed)
    rows = list(host.rows)
    for a, b in combinations(range(part_count), 2):
        perm = rng.sample(range(part_size), part_size)
        for j, i in enumerate(perm):
            if rng.random() < share:
                u, v = a * part_size + i, b * part_size + j
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
    return core.Tournament(host.n, tuple(rows))


def extraction_columns(state, config: AlgorithmConfig, subset, kind) -> list[frozenset[int]]:
    """The parts a saturated vector hands to extraction: each used slot's
    stored vertices, one per stored triple, in slot order."""
    vec = state.vectors[kind, subset]
    columns = {
        slot: frozenset(triple[m] for triple in vec[z])
        for z, slots in enumerate(config.nebulae[kind].placements)
        for m, slot in enumerate(slots)
    }
    return [columns[slot] for slot in sorted(columns)]


def make_triple(s1, s2, s3) -> Triple:
    """The triple (S_1, S_2, S_3) of three vertex sets, as their masks."""
    return core.vertex_mask(s1), core.vertex_mask(s2), core.vertex_mask(s3)


def triple_set(sigma: Triple, index: int) -> frozenset[int]:
    """S_index of ``sigma``, 1-based like the triple's case names."""
    return frozenset(core.mask_vertices(sigma[index - 1]))


def neighborhood(host: core.Tournament, sigma: Triple, v: int, j: int) -> frozenset[int]:
    """N(v, j): the in-neighbours of v inside S_j when j is later than v's
    set, its out-neighbours when earlier."""
    i = next(k for k in (1, 2, 3) if sigma[k - 1] >> v & 1)
    target = sigma[j - 1]
    met = target & ~host.rows[v] if j > i else target & host.rows[v]
    return frozenset(core.mask_vertices(met))


def definition_classify_triple(host: core.Tournament, sigma: Triple, i: int, j: int):
    """The coverage trichotomy from whole coverage profiles on sets: for S_j,
    then S_l, the coverage after each vertex of S_i in ascending order.  A
    target whose total coverage misses half gives the complete pair of its
    untouched vertices and S_i; otherwise the verdict compares the first steps
    at which the two coverages reach half, a tie going to the queried j."""
    l = 6 - i - j
    source = triple_set(sigma, i)
    first_half = {}
    for target in (j, l):
        covered: set[int] = set()
        profile = []
        for v in sorted(source):
            covered |= neighborhood(host, sigma, v, target)
            profile.append(len(covered))
        whole = triple_set(sigma, target)
        if 2 * profile[-1] < len(whole):
            untouched = frozenset(whole - covered)
            if target > i:
                return CompletePair(source, untouched)
            return CompletePair(untouched, source)
        first_half[target] = next(k for k, size in enumerate(profile, 1)
                                  if 2 * size >= len(whole))
    if first_half[j] <= first_half[l]:
        return TripleClass(i, j, l, first_half[j], first_half[l])
    return TripleClass(i, l, j, first_half[l], first_half[j])


# (i, j) -> (A side, B side) of the witness fallback pair; 'cov' takes the
# coverage of S_index, 'compl' the rest of S_index; A is complete to B
WITNESS_SIDES = {
    (2, 1): (("cov", 1), ("compl", 3)),
    (3, 1): (("cov", 1), ("compl", 2)),
    (2, 3): (("compl", 1), ("cov", 3)),
    (1, 3): (("compl", 2), ("cov", 3)),
    (1, 2): (("cov", 2), ("compl", 3)),
    (3, 2): (("compl", 1), ("cov", 2)),
}


def definition_witness_pair(host: core.Tournament, sigma: Triple, verdict: TripleClass):
    """The witness fallback by a scan of every step: the coverages of S_j and
    S_l after each vertex of S_i in ascending order.  The first step at which
    S_j's coverage has reached half and S_l's has not exceeded it gives the
    complete pair read off ``WITNESS_SIDES``; None when no step does."""
    a_spec, b_spec = WITNESS_SIDES[verdict.i, verdict.j]
    j, l = verdict.j, verdict.l
    covered: dict[int, set[int]] = {j: set(), l: set()}
    size_j, size_l = len(triple_set(sigma, j)), len(triple_set(sigma, l))
    for v in sorted(triple_set(sigma, verdict.i)):
        for m in covered:
            covered[m] |= neighborhood(host, sigma, v, m)
        if 2 * len(covered[j]) < size_j or 2 * len(covered[l]) > size_l:
            continue
        a, b = (triple_set(sigma, index) - covered[index] if role == "compl"
                else frozenset(covered[index]) for role, index in (a_spec, b_spec))
        return CompletePair(a, b)
    return None


def definition_dense_vertices(t: core.Tournament, part, other, later: bool, slack) -> frozenset:
    """The vertices v of ``part`` whose density towards ``other`` on the
    structure's side, d({v}, other) when ``other`` is later and d(other, {v})
    otherwise, is at least 1 - slack."""
    return frozenset(
        v for v in part
        if (set_density(t, {v}, other) if later else set_density(t, other, {v})) >= 1 - slack
    )


def set_density(t: core.Tournament, a, b) -> Fraction:
    """d(A, B) by the definition: the share of the |A||B| pairs oriented A -> B."""
    return Fraction(sum(t.has_edge(u, v) for u in a for v in b), len(a) * len(b))


def sweep_pair_exact(host: core.Tournament, a, b, eps) -> PairVerdict:
    """The exact pair check as a plain sweep: every x-set of A in
    ``combinations`` order, at the witness sizes x = max(1, ceil(eps|A|)) and
    y = max(1, ceil(eps|B|)).  The first x-set whose y lowest or y highest
    columns, ranked by (count, index), stray by more than eps is the violator,
    with the low side on a tie."""
    a, b = sorted(set(a)), sorted(set(b))
    eps = to_fraction(eps)
    na, nb = len(a), len(b)
    x_size, y = max(1, math.ceil(eps * na)), max(1, math.ceil(eps * nb))
    if x_size > na or y > nb:
        return PairVerdict(True, None)
    ab = na * nb
    columns = [sum(1 << i for i, u in enumerate(a) if host.has_edge(u, v)) for v in b]
    e0 = sum(col.bit_count() for col in columns)
    mid = e0 * x_size * y
    limit = eps.numerator * x_size * y * ab
    for bits in combinations([1 << i for i in range(na)], x_size):
        xmask = sum(bits)
        ranked = sorted(((col & xmask).bit_count(), k) for k, col in enumerate(columns))
        below = mid - sum(count for count, _ in ranked[:y]) * ab
        above = sum(count for count, _ in ranked[nb - y :]) * ab - mid
        if max(below, above) * eps.denominator > limit:
            extreme = ranked[:y] if below >= above else ranked[nb - y :]
            x = frozenset(a[i] for i in range(na) if xmask >> i & 1)
            y_set = frozenset(b[k] for _, k in extreme)
            return PairVerdict(
                False, ViolatingPair(x, y_set, set_density(host, x, y_set), Fraction(e0, ab))
            )
    return PairVerdict(True, None)


def structure_oracle(t: core.Tournament, parts, c, lam) -> list[tuple[str, dict]]:
    """Definition-level strong (c, lambda)-structure check on sets: the
    violations as (check, detail), in the order verify_structure lists them."""
    parts = [set(p) for p in parts]
    for a, b in combinations(parts, 2):
        if a & b:
            raise ValueError("subsets overlap")
    out = []
    for i, part in enumerate(parts):
        if len(part) < c * t.n:
            out.append(("size", {"part": i, "size": len(part), "bound": c * t.n}))
    for i, j in combinations(range(len(parts)), 2):
        d = set_density(t, parts[i], parts[j])
        if d < 1 - lam:
            out.append(("pair-density", {"i": i, "j": j, "d": d}))
    for i, j in permutations(range(len(parts)), 2):
        for v in sorted(parts[i]):
            if i < j:
                check, d = "strong-out", set_density(t, {v}, parts[j])
            else:
                check, d = "strong-in", set_density(t, parts[j], {v})
            if d < 1 - lam:
                out.append((check, {"i": i, "j": j, "vertex": v, "d": d}))
    return out
