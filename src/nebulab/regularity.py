"""Density-regularity machinery and the strong-structure pipeline.

Thresholds are exact: an epsilon given as a float is read through its decimal
representation (``core.to_fraction``), so 0.25 means exactly 1/4.  All
pair checks reduce to integer comparisons.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence, Union

from .containment import contains_in_parts
from .core import Tournament, density, from_edges, mask_vertices, to_fraction, vertex_mask
from .errors import BudgetError, InvariantError
from .structures import turan_clique, ugraph_from_edges, verify_structure

EXACT_PAIR_BUDGET = 12


@dataclass(frozen=True)
class ViolatingPair:
    x: frozenset[int]
    y: frozenset[int]
    d_xy: Fraction
    d_ab: Fraction


@dataclass(frozen=True)
class PairVerdict:
    passed: bool
    violator: Optional[ViolatingPair]
    trials: int = 0


def regular_pair_exact(
    host: Tournament,
    a: Sequence[int],
    b: Sequence[int],
    eps,
) -> PairVerdict:
    """Exact check that scans one subset size per side, the witness sizes.

    Passes iff no X in A, Y in B with |X| >= eps|A|, |Y| >= eps|B| has
    |d(X,Y) - d(A,B)| > eps; otherwise reports a violator.  Only the sets of
    sizes x = max(1, ceil(eps|A|)) and y = max(1, ceil(eps|B|)) are scanned;
    if x > |A| or y > |B| no pair qualifies and the pair passes.

    Averaging lemma: fix X; the y columns of B with the most edges from X
    have at least the average density of any larger Y, and the y with the
    fewest have at most it.  The same holds for rows once Y is fixed, so
    shrinking a violator's Y to y and then its X to x does not lower its
    deviation from d(A,B).  For each X the deviation
    |e(X,Y)|A||B| - e(A,B)xy| is convex in e(X,Y), so only the y lowest and
    the y highest columns need a check.

    The x-sets are walked depth first in ``combinations`` order, carrying
    each column's count c_k = |X' & col_k| over the rows X' picked so far.
    With r more picks to come from the rows after the last one, every
    completion's count in column k lies in [c_k + max(0, r - zeros_k),
    c_k + min(r, ones_k)], where ones_k and zeros_k count those later rows
    with and without an edge into b[k].  The sum of the top y counts cannot
    fall when one count rises, nor the sum of the bottom y rise when one
    falls, so the top-y sum of the upper ends bounds every completion's
    top-y sum, and the bottom-y sum of the lower ends its bottom-y sum.  A
    branch where neither bound leaves [xy(d(A,B) - eps), xy(d(A,B) + eps)]
    holds no violator and is skipped.  The walk keeps the order, so the
    first violating X is the one a plain sweep over ``combinations`` meets
    first, and its Y comes from the same (count, k) ranking and tie rule.
    At a leaf (r = 0) the bounds are the exact counts, so a leaf is ranked
    once.
    """
    a, b = sorted(set(a)), sorted(set(b))
    if set(a) & set(b):
        raise ValueError("pair sets must be disjoint")
    if len(a) > EXACT_PAIR_BUDGET or len(b) > EXACT_PAIR_BUDGET:
        raise BudgetError(f"exact pair check limited to sides <= {EXACT_PAIR_BUDGET}")
    eps = to_fraction(eps)
    na, nb = len(a), len(b)
    x_size, y = _witness_size(eps, na), _witness_size(eps, nb)
    if x_size > na or y > nb:
        return PairVerdict(True, None)
    # rows[i][k] = 1 iff a[i] beats b[k]; ones[s][k] counts such i >= s
    rows = [[host.rows[u] >> v & 1 for v in b] for u in a]
    ones = [[0] * nb]
    for row in reversed(rows):
        ones.append([o + e for o, e in zip(ones[-1], row)])
    ones.reverse()
    d_ab = Fraction(sum(ones[0]), na * nb)
    # y column counts over an x-set violate iff their sum lies outside
    # [xy(d(A,B) - eps), xy(d(A,B) + eps)]
    xy = x_size * y
    low_max = math.ceil(xy * (d_ab - eps)) - 1
    high_min = math.floor(xy * (d_ab + eps)) + 1

    def walk(s: int, r: int, counts: list[int], xmask: int):
        """The first violating (X, extreme columns) in this branch: the rows
        in ``xmask`` picked, r more to come from a[s:]."""
        if r:
            if not _can_deviate(counts, ones[s], r, na - s, y, low_max, high_min):
                return None
            for j in range(s, na - r + 1):
                child = [c + e for c, e in zip(counts, rows[j])]
                found = walk(j + 1, r - 1, child, xmask | 1 << j)
                if found:
                    return found
            return None
        ranked = sorted(zip(counts, range(nb)))
        low, high = ranked[:y], ranked[nb - y :]
        bottom, top = sum(c for c, _ in low), sum(c for c, _ in high)
        if bottom <= low_max or top >= high_min:
            # the side that strays further, the low one on a tie
            return xmask, low if bottom + top <= 2 * xy * d_ab else high
        return None

    found = walk(0, x_size, [0] * nb, 0)
    if found is None:
        return PairVerdict(True, None)
    xmask, extreme = found
    x = frozenset(a[i] for i in range(na) if xmask >> i & 1)
    y_set = frozenset(b[k] for _, k in extreme)
    return PairVerdict(False, ViolatingPair(x, y_set, density(host, x, y_set), d_ab))


def _can_deviate(
    counts: list[int], ones: list[int], r: int, free: int, y: int, low_max: int, high_min: int
) -> bool:
    """Whether a branch of the exact pair check may hold a violator: with
    r more rows to pick from ``free`` rows, of which ones[k] beat b[k], the
    top y of the counts' upper ends reach ``high_min`` or the bottom y of
    their lower ends fall to ``low_max``."""
    short = r - free  # r - zeros_k = short + ones_k
    upper = sorted([c + (o if o < r else r) for c, o in zip(counts, ones)])
    lower = sorted([c + (short + o if short + o > 0 else 0) for c, o in zip(counts, ones)])
    return sum(upper[len(upper) - y :]) >= high_min or sum(lower[:y]) <= low_max


def _witness_size(eps: Fraction, side: int) -> int:
    """The smallest qualifying subset size, max(1, ceil(eps * side))."""
    return max(1, -(-eps.numerator * side // eps.denominator))


def regular_pair_sampled(
    host: Tournament,
    a: Sequence[int],
    b: Sequence[int],
    eps,
    trials: int = 200,
    seed: int = 0,
) -> PairVerdict:
    """Randomized surrogate: a Fail carries a concrete violator and is
    definitive; a Pass only means no violator was sampled.  As in the exact
    check, overlapping sides raise ValueError, and a side shorter than its
    witness size passes the pair with no draw.

    With d(A,B) = p/q in lowest terms, a trial's |e(X,Y)/(|X||Y|) - p/q| > eps
    is tested as |e(X,Y) q - p |X||Y|| den(eps) > num(eps) |X||Y| q."""
    a, b = sorted(set(a)), sorted(set(b))
    if set(a) & set(b):
        raise ValueError("pair sets must be disjoint")
    eps = to_fraction(eps)
    rng = random.Random(seed)
    na, nb = len(a), len(b)
    min_x, min_y = _witness_size(eps, na), _witness_size(eps, nb)
    if min_x > na or min_y > nb:
        return PairVerdict(True, None)
    d_ab = density(host, a, b)
    p, q = d_ab.numerator, d_ab.denominator
    rows = host.rows
    for drawn in range(1, trials + 1):
        xs = rng.sample(a, rng.randint(min_x, na))
        ys = rng.sample(b, rng.randint(min_y, nb))
        y_mask = vertex_mask(ys)
        e_xy = sum([(rows[u] & y_mask).bit_count() for u in xs])
        xy = len(xs) * len(ys)
        if abs(e_xy * q - p * xy) * eps.denominator > eps.numerator * xy * q:
            x, y = frozenset(xs), frozenset(ys)
            return PairVerdict(
                False, ViolatingPair(x, y, density(host, x, y), d_ab), trials=drawn
            )
    return PairVerdict(True, None, trials=trials)


@dataclass(frozen=True)
class PartitionCertificate:
    passed: bool
    exceptional_ok: bool
    equal_sizes: bool
    irregular_pairs: tuple[tuple[int, int], ...]


def verify_regular_partition(
    host: Tournament,
    exceptional: Sequence[int],
    parts: Sequence[Sequence[int]],
    eps,
    method: str = "exact",
    seed: int = 0,
) -> PartitionCertificate:
    """Check the three partition conditions and count irregular pairs.

    Pairs whose sides both fit ``EXACT_PAIR_BUDGET`` get the exact check;
    ``method`` decides a pair with a larger side: "exact" raises BudgetError,
    "sampled" draws it with ``regular_pair_sampled``.  Every listed pair is a
    true violator, and every violating pair within the budget is listed."""
    if method not in ("exact", "sampled"):
        raise ValueError(f"method must be 'exact' or 'sampled', got {method!r}")
    eps_f = to_fraction(eps)
    v0 = set(exceptional)
    all_parts = [sorted(set(p)) for p in parts]
    covered: set[int] = set(v0)
    for p in all_parts:
        if covered & set(p):
            raise ValueError("partition classes overlap")
        covered |= set(p)
    if covered != set(range(host.n)):
        raise ValueError("partition does not cover the vertex set")
    k = len(all_parts)
    exceptional_ok = len(v0) * eps_f.denominator <= eps_f.numerator * host.n
    equal_sizes = len({len(p) for p in all_parts}) <= 1
    irregular = []
    for i, j in combinations(range(k), 2):
        a, b = all_parts[i], all_parts[j]
        if method == "exact" or max(len(a), len(b)) <= EXACT_PAIR_BUDGET:
            verdict = regular_pair_exact(host, a, b, eps_f)
        else:
            verdict = regular_pair_sampled(host, a, b, eps_f, seed=seed + 31 * i + j)
        if not verdict.passed:
            irregular.append((i, j))
    bound_ok = len(irregular) * eps_f.denominator <= eps_f.numerator * k * k
    return PartitionCertificate(
        exceptional_ok and equal_sizes and bound_ok,
        exceptional_ok,
        equal_sizes,
        tuple(irregular),
    )


def stearns_transitive(t: Tournament) -> list[int]:
    """Transitive chain of size at least floor(log2 n) + 1.

    Recursive majority: pick the vertex whose larger side is largest, keep
    that side, and put the vertex before its out-side or after its in-side.
    """

    def chain(mask: int) -> list[int]:
        if mask == 0:
            return []
        best_v, best_size, best_out = -1, -1, 0
        for v in mask_vertices(mask):
            out = (t.rows[v] & mask).bit_count()
            inn = (t.in_mask(v) & mask).bit_count()
            size = max(out, inn)
            if size > best_size:
                best_v, best_size, best_out = v, size, out >= inn
        if best_out:
            return [best_v] + chain(t.rows[best_v] & mask)
        return chain(t.in_mask(best_v) & mask) + [best_v]

    return chain((1 << t.n) - 1)


# ---------------------------------------------------------------------------
# The strong-structure pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageFailure:
    stage: str
    inequality: str
    detail: object = None


@dataclass(frozen=True)
class PipelineReport:
    stable_parts: tuple[int, ...]
    t_hat_edges: tuple[tuple[int, int], ...]
    chain: tuple[int, ...]
    q_sizes: dict
    f_sizes: tuple[int, ...]
    finals: tuple[tuple[int, ...], ...]
    c: Fraction


def strong_structure_pipeline(
    host: Tournament,
    exceptional: Sequence[int],
    parts: Sequence[Sequence[int]],
    pattern: Tournament,
    p_target: int,
    lam,
    eta,
) -> Union[PipelineReport, StageFailure]:
    """Stages: regular-part selection, good/bad labelling, the clique/stable
    dichotomy (with no stable family, an exact search for a copy of the
    pattern with vertex i in the i-th part of a good clique), the derived
    part tournament, log-size chain extraction, and the per-vertex density
    filtering that equalizes the final sets.

    Returns a StageFailure at partition, turan-selection, ramsey-dichotomy,
    found-h (carrying the copy), h-absent-from-good-parts (no such copy
    exists) or lambda-range; past the dichotomy the stages cannot fail (see
    the comments at each), and the final strong re-check raises
    InvariantError should it ever fail.
    """
    if p_target < 1:
        raise ValueError(f"target P must be at least 1, got {p_target}")
    lam_f = to_fraction(lam)
    eta_f = to_fraction(eta)
    big_lam = lam_f / (4 * p_target)
    part_sets = [sorted(set(p)) for p in parts]
    r = len(part_sets)

    cert = verify_regular_partition(host, exceptional, part_sets, eta_f)
    if not cert.passed:
        return StageFailure("partition", "partition certificate failed", cert)

    regular_edges = [
        (i, j)
        for i, j in combinations(range(r), 2)
        if (i, j) not in cert.irregular_pairs
    ]
    g = ugraph_from_edges(r, regular_edges)
    selected: Optional[tuple[int, ...]] = None
    for size in range(r, 0, -1):
        clique = turan_clique(g, size)
        if clique is not None:
            selected = clique
            break
    needed = 2 ** (p_target - 1)
    if selected is None or len(selected) < needed:
        return StageFailure(
            "turan-selection",
            f"largest pairwise-regular family has {0 if selected is None else len(selected)}"
            f" parts, need at least {needed}",
        )

    densities = {
        (i, j): density(host, part_sets[i], part_sets[j]) for i, j in combinations(selected, 2)
    }
    # a pair is good when its density lies in [Lambda, 1 - Lambda], bad otherwise
    good, bad = [], []
    for (i, j), d in densities.items():
        (good if big_lam <= d <= 1 - big_lam else bad).append(
            (selected.index(i), selected.index(j)))
    good_graph = ugraph_from_edges(len(selected), good)
    stable_local = turan_clique(ugraph_from_edges(len(selected), bad), needed)
    if stable_local is None:
        h_clique = turan_clique(good_graph, pattern.n)
        if h_clique is None:
            return StageFailure(
                "ramsey-dichotomy",
                f"no {needed} pairwise-bad parts and no {pattern.n} pairwise-good parts",
            )
        h_parts = [vertex_mask(part_sets[selected[i]]) for i in h_clique]
        emb = contains_in_parts(host, pattern, h_parts)
        if emb is not None:
            return StageFailure(
                "found-h", "good clique embeds the forbidden pattern", emb
            )
        return StageFailure(
            "h-absent-from-good-parts",
            "no copy of the pattern has vertex i in the i-th good part",
        )
    if big_lam >= Fraction(1, 2):
        return StageFailure("lambda-range", f"lambda/(4P) = {big_lam} must be below 1/2")
    stable = tuple(selected[i] for i in stable_local)

    # Every stable pair is labelled bad, so d > 1 - Lambda or d < Lambda, and
    # Lambda < 1/2 makes the two exclusive: each pair has one orientation.
    t_hat_edges = [
        (a, b) if densities[(stable[a], stable[b])] > 1 - big_lam else (b, a)
        for a, b in combinations(range(len(stable)), 2)
    ]
    # Stearns: 2^(P-1) stable parts hold a transitive chain of at least P.
    chain_local = stearns_transitive(from_edges(len(stable), t_hat_edges))
    chain = tuple(stable[i] for i in chain_local[:p_target])

    # Each chain pair has d > 1 - Lambda on the chain's side, so by Markov
    # fewer than |W|/(2P) vertices miss more than 2P*Lambda of the other part:
    # |Q| > |W|(1 - 1/(2P)), and F, missing fewer than (P-1)|W|/(2P), keeps
    # more than |W|/2.  Q^i_j is chain part i less the vertices the strong
    # check at slack 2P*Lambda lists as missing part j; F_i is their meet.
    chain_sets = [part_sets[w] for w in chain]
    misses = Counter()
    dropped = [0] * len(chain)
    for violation in verify_structure(host, chain_sets, 0, 2 * p_target * big_lam).violations:
        if violation.check != "pair-density":
            i, j = violation.detail["i"], violation.detail["j"]
            misses[i, j] += 1
            dropped[i] |= 1 << violation.detail["vertex"]
    q_sizes = {(i, j): len(chain_sets[i]) - misses[i, j]
               for i, j in permutations(range(len(chain)), 2)}
    f_sets = [mask_vertices(vertex_mask(s) & ~d) for s, d in zip(chain_sets, dropped)]
    half = -(-len(part_sets[chain[0]]) // 2)
    finals = tuple(tuple(f[:half]) for f in f_sets)

    # A final vertex misses at most 2P*Lambda|W| = lambda|W|/2 of another final
    # set, which holds ceil(|W|/2) vertices, so the finals form a strong
    # (c, lambda)-structure; the check below re-derives it.
    c = Fraction(len(finals[0]), host.n)
    cert = verify_structure(host, finals, c, lam_f)
    if not cert.passed:
        raise InvariantError(f"final sets fail the strong structure: {cert.violations[:3]}")
    return PipelineReport(
        stable_parts=stable,
        t_hat_edges=tuple(t_hat_edges),
        chain=chain,
        q_sizes=q_sizes,
        f_sizes=tuple(len(f) for f in f_sets),
        finals=finals,
        c=c,
    )

