import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nebulab
from helpers import forward_block_host, set_density, structure_oracle, sweep_pair_exact
from nebulab import core, regularity
from nebulab.containment import contains_in_parts
from nebulab.core import cyclic_triangle, density, random_tournament, vertex_mask
from nebulab.errors import BudgetError
from nebulab.regularity import (
    PairVerdict,
    PipelineReport,
    StageFailure,
    ViolatingPair,
    _can_deviate,
    regular_pair_exact,
    regular_pair_sampled,
    stearns_transitive,
    strong_structure_pipeline,
    to_fraction,
    verify_regular_partition,
)


def brute_force_pair(host, a, b, eps):
    """Definition-level oracle, plain loops and exact fractions."""
    eps = to_fraction(eps)
    a, b = sorted(a), sorted(b)
    d_ab = density(host, a, b)
    for xmask in range(1, 1 << len(a)):
        x = [a[i] for i in range(len(a)) if xmask >> i & 1]
        if len(x) < eps * len(a):
            continue
        for ymask in range(1, 1 << len(b)):
            y = [b[i] for i in range(len(b)) if ymask >> i & 1]
            if len(y) < eps * len(b):
                continue
            if abs(density(host, x, y) - d_ab) > eps:
                return False
    return True


def assert_valid_violator(host, a, b, eps, verdict):
    """The violator is a pair of large enough subsets whose density strays."""
    eps = to_fraction(eps)
    v = verdict.violator
    assert v.x and v.y and v.x <= set(a) and v.y <= set(b)
    assert len(v.x) >= eps * len(a) and len(v.y) >= eps * len(b)
    assert v.d_xy == density(host, v.x, v.y) and v.d_ab == density(host, a, b)
    assert abs(v.d_xy - v.d_ab) > eps


PAIR_EPSILONS = [
    Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(1), Fraction(3, 2), 0.25,
]


@st.composite
def pair_hosts(draw, max_side):
    """A random host with disjoint sides A and B of 1..max_side vertices.  The
    A-B edges point from A with probability 1/2 (random), with a skewed
    probability, or at 1/2 with a planted corner: a block of A that beats, or
    loses to, all of a block of B."""
    na, nb = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    shape = draw(st.sampled_from(["random", "skewed", "corner"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    host = random_tournament(na + nb + rng.randint(0, 2), rng)
    vertices = rng.sample(range(host.n), na + nb)
    a, b = vertices[:na], vertices[na:]
    p = rng.choice([0.05, 0.2, 0.8, 0.95]) if shape == "skewed" else 0.5
    forward = {(u, v) for u in a for v in b if rng.random() < p}
    if shape == "corner":
        block = {(u, v) for u in rng.sample(a, rng.randint(1, na))
                 for v in rng.sample(b, rng.randint(1, nb))}
        forward = forward | block if rng.random() < 0.5 else forward - block
    rows = list(host.rows)
    for u in a:
        for v in b:
            rows[u] = rows[u] | 1 << v if (u, v) in forward else rows[u] & ~(1 << v)
            rows[v] = rows[v] & ~(1 << u) if (u, v) in forward else rows[v] | 1 << u
    return core.Tournament(host.n, tuple(rows)), a, b


class TestRegularPairExact:
    @given(pair_hosts(12), st.sampled_from(PAIR_EPSILONS))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sweep(self, host, eps):
        # the whole verdict, so also the first violator in combinations order
        t, a, b = host
        assert regular_pair_exact(t, a, b, eps) == sweep_pair_exact(t, a, b, eps)

    @given(pair_hosts(7), st.sampled_from(PAIR_EPSILONS))
    @settings(max_examples=150, deadline=None)
    def test_bound_skips_only_branches_without_violators(self, host, eps):
        # walk the search tree: a branch picks the rows of a prefix of an
        # x-set of A in combinations order; every branch the bound skips has
        # no completion X with a y-set Y of B that the definition calls a
        # violator
        t, a, b = host
        a, b, eps = sorted(a), sorted(b), to_fraction(eps)
        x_size, y = max(1, math.ceil(eps * len(a))), max(1, math.ceil(eps * len(b)))
        if x_size > len(a) or y > len(b):
            return
        d_ab = set_density(t, a, b)
        violators = {
            xs for xs in itertools.combinations(range(len(a)), x_size)
            if any(abs(set_density(t, [a[i] for i in xs], ys) - d_ab) > eps
                   for ys in itertools.combinations(b, y))
        }
        low_max = math.ceil(x_size * y * (d_ab - eps)) - 1
        high_min = math.floor(x_size * y * (d_ab + eps)) + 1
        for depth in range(x_size):
            for prefix in itertools.combinations(range(len(a)), depth):
                later = a[prefix[-1] + 1 :] if prefix else a
                counts = [sum(t.has_edge(a[i], v) for i in prefix) for v in b]
                ones = [sum(t.has_edge(u, v) for u in later) for v in b]
                r = x_size - depth
                if len(later) < r or _can_deviate(counts, ones, r, len(later), y,
                                                  low_max, high_min):
                    continue
                assert not any(xs[:depth] == prefix for xs in violators), (prefix, eps)

    def test_complete_pair_always_regular(self):
        host = forward_block_host(2, 6, seed=0)
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
            assert regular_pair_exact(host, range(6), range(6, 12), eps).passed

    def test_planted_dense_corner_found(self):
        # random half-density pair with an all-forward 3x3 corner
        rng = random.Random(1)
        n = 12
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
        for u in range(3):
            for v in range(6, 9):
                rows[u] |= 1 << v
                rows[v] &= ~(1 << u)
        host = core.Tournament(n, tuple(rows))
        verdict = regular_pair_exact(host, range(6), range(6, 12), Fraction(1, 4))
        if not verdict.passed:
            v = verdict.violator
            assert abs(v.d_xy - v.d_ab) > Fraction(1, 4)

    def test_epsilon_one_vacuous(self):
        host = random_tournament(10, random.Random(2))
        assert regular_pair_exact(host, range(5), range(5, 10), 1).passed

    def test_brute_force_agreement(self):
        rng = random.Random(3)
        for _ in range(15):
            host = random_tournament(12, rng)
            a = rng.sample(range(12), 5)
            b = [v for v in range(12) if v not in a][:5]
            for eps in (Fraction(1, 4), Fraction(1, 2)):
                fast = regular_pair_exact(host, a, b, eps)
                assert fast.passed == brute_force_pair(host, a, b, eps)

    @given(
        st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6),
        st.sampled_from(PAIR_EPSILONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_brute_force_agreement_random_sides(self, na, nb, seed, eps):
        """The verdict is the definition's, and a violator has exactly the
        witness sizes max(1, ceil(eps|A|)) and max(1, ceil(eps|B|))."""
        rng = random.Random(seed)
        host = random_tournament(na + nb + rng.randint(0, 2), rng)
        vertices = rng.sample(range(host.n), na + nb)
        a, b = vertices[:na], vertices[na:]
        verdict = regular_pair_exact(host, a, b, eps)
        assert verdict.passed == brute_force_pair(host, a, b, eps)
        if not verdict.passed:
            assert_valid_violator(host, a, b, eps, verdict)
            eps = to_fraction(eps)
            assert len(verdict.violator.x) == max(1, math.ceil(eps * na))
            assert len(verdict.violator.y) == max(1, math.ceil(eps * nb))

    def test_violator_is_exact(self):
        rng = random.Random(4)
        failed = 0
        for _ in range(10):
            host = random_tournament(14, rng)
            a, b = list(range(7)), list(range(7, 14))
            verdict = regular_pair_exact(host, a, b, Fraction(1, 10))
            if not verdict.passed:
                failed += 1
                assert_valid_violator(host, a, b, Fraction(1, 10), verdict)
        assert failed

    def test_budget(self):
        host = random_tournament(30, random.Random(5))
        with pytest.raises(BudgetError):
            regular_pair_exact(host, range(14), range(14, 28), Fraction(1, 4))


def test_imports_without_numpy():
    src = str(Path(nebulab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, nebulab.cli, nebulab.regularity; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def fraction_sampled(host, a, b, eps, trials, seed):
    """Reference sampled check on exact fractions, with the same draws: the
    verdict and every drawn pair's deviation |d(X,Y) - d(A,B)|."""
    a, b = sorted(set(a)), sorted(set(b))
    rng = random.Random(seed)
    min_x, min_y = max(1, math.ceil(eps * len(a))), max(1, math.ceil(eps * len(b)))
    d_ab = set_density(host, a, b)
    deviations = []
    for drawn in range(1, trials + 1):
        x = frozenset(rng.sample(a, rng.randint(min_x, len(a))))
        y = frozenset(rng.sample(b, rng.randint(min_y, len(b))))
        d_xy = set_density(host, x, y)
        deviations.append(abs(d_xy - d_ab))
        if deviations[-1] > eps:
            return PairVerdict(False, ViolatingPair(x, y, d_xy, d_ab), drawn), deviations
    return PairVerdict(True, None, trials), deviations


EPSILONS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)]


class TestRegularPairSampled:
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_matches_fraction_formula(self, eps):
        rng = random.Random(eps.denominator)
        for seed in range(40):
            n = rng.randint(4, 24)
            host = random_tournament(n, rng)
            verts = rng.sample(range(n), n)
            cut = rng.randint(1, n - 1)
            a, b = verts[:cut], verts[cut : rng.randint(cut + 1, n)]
            expected, _ = fraction_sampled(host, a, b, eps, 60, seed)
            assert regular_pair_sampled(host, a, b, eps, trials=60, seed=seed) == expected

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_deviation_equal_to_eps_passes(self, eps):
        # |A| = k(k-1) for eps = 1/k, B = {b}, and b beats only a_0: a drawn X
        # of the least size k-1 holding a_0 deviates by 1/(k-1) - 1/(k(k-1)) =
        # eps exactly, and every other X by less
        k = eps.denominator
        na = k * (k - 1)
        rows = list(core.transitive_tournament(na + 1).rows)
        rows[0] ^= 1 << na
        rows[na] |= 1
        host = core.Tournament(na + 1, tuple(rows))
        a, b = range(na), [na]
        expected, deviations = fraction_sampled(host, a, b, eps, 2000, 0)
        assert eps in deviations and max(deviations) == eps
        assert regular_pair_sampled(host, a, b, eps, trials=2000, seed=0) == expected
        assert expected.passed

    def test_fail_implies_exact_fail(self):
        rng = random.Random(6)
        for seed in range(15):
            host = random_tournament(12, rng)
            a, b = list(range(6)), list(range(6, 12))
            verdict = regular_pair_sampled(host, a, b, Fraction(1, 10), trials=100, seed=seed)
            if not verdict.passed:
                v = verdict.violator
                assert abs(v.d_xy - v.d_ab) > Fraction(1, 10)
                exact = regular_pair_exact(host, a, b, Fraction(1, 10))
                assert not exact.passed

    def test_complete_pair_passes(self):
        host = forward_block_host(2, 8, seed=7)
        verdict = regular_pair_sampled(host, range(8), range(8, 16), Fraction(1, 4), seed=1)
        assert verdict.passed and verdict.trials == 200

    def test_failing_verdict_counts_draws_made(self):
        # half of A beats all of B and half loses to it, so most draws deviate
        edges = [(u, v) for u in range(16) for v in range(u + 1, 16) if not 4 <= u < 8 <= v]
        host = core.from_edges(16, edges + [(v, u) for u in range(4, 8) for v in range(8, 16)])
        a, b = range(8), range(8, 16)
        verdict = regular_pair_sampled(host, a, b, Fraction(1, 10), seed=3)
        assert not verdict.passed and 1 < verdict.trials < 200
        again = regular_pair_sampled(host, a, b, Fraction(1, 10), trials=verdict.trials, seed=3)
        assert again == verdict
        fewer = regular_pair_sampled(host, a, b, Fraction(1, 10), trials=verdict.trials - 1, seed=3)
        assert fewer.passed

    def test_epsilon_one_passes(self):
        host = random_tournament(12, random.Random(8))
        assert regular_pair_sampled(host, range(6), range(6, 12), 1, seed=2).passed

    @pytest.mark.parametrize(
        "a, b, eps",
        [
            (range(4), range(4, 8), Fraction(3, 2)),  # x = 6 > |A| = 4
            ([], range(4, 8), Fraction(1, 4)),
            (range(4), [], Fraction(1, 4)),
        ],
    )
    def test_no_qualifying_subset_passes(self, a, b, eps):
        # as in the exact check, no pair qualifies, so nothing is drawn
        host = random_tournament(8, random.Random(13))
        assert regular_pair_sampled(host, a, b, eps, seed=1) == PairVerdict(True, None, trials=0)
        assert regular_pair_exact(host, a, b, eps).passed

    @pytest.mark.parametrize("check", [regular_pair_exact, regular_pair_sampled])
    def test_overlapping_sides_rejected(self, check):
        # one input rule for both checks, before the witness sizes pass the pair
        host = random_tournament(4, random.Random(13))
        with pytest.raises(ValueError, match="pair sets must be disjoint"):
            check(host, [0, 1], [1, 2], Fraction(3, 2))

    def test_epsilon_above_one_partition(self):
        host = random_tournament(8, random.Random(13))
        parts = [range(4), range(4, 8)]
        exact = verify_regular_partition(host, [], parts, Fraction(3, 2))
        sampled = verify_regular_partition(host, [], parts, Fraction(3, 2), method="sampled")
        assert sampled.passed and sampled.irregular_pairs == exact.irregular_pairs == ()


class TestVerifyPartition:
    def test_forward_blocks_certificate(self):
        host = forward_block_host(3, 6, seed=9)
        cert = verify_regular_partition(
            host, [], [range(6), range(6, 12), range(12, 18)], Fraction(1, 4)
        )
        assert cert.equal_sizes and cert.exceptional_ok
        # at most floor(eps k^2) irregular pairs among k = 3 parts
        assert cert.passed == (len(cert.irregular_pairs) <= math.floor(Fraction(1, 4) * 3 * 3))

    def test_single_part_degenerate_pass(self):
        host = random_tournament(8, random.Random(10))
        cert = verify_regular_partition(host, [], [range(8)], Fraction(1, 2))
        assert cert.passed

    def test_oversized_exceptional_fails(self):
        host = random_tournament(10, random.Random(11))
        cert = verify_regular_partition(
            host, range(6), [range(6, 8), range(8, 10)], Fraction(1, 10)
        )
        assert not cert.exceptional_ok and not cert.passed

    def test_malformed_rejected(self):
        host = random_tournament(6, random.Random(12))
        with pytest.raises(ValueError):
            verify_regular_partition(host, [0], [range(3), range(2, 6)], Fraction(1, 2))

    def test_uncovered_vertex_rejected(self):
        host = random_tournament(6, random.Random(12))
        with pytest.raises(ValueError, match="partition does not cover the vertex set"):
            verify_regular_partition(host, [0], [range(1, 3), range(3, 5)], Fraction(1, 2))

    def test_unknown_method_rejected(self):
        host = forward_block_host(2, 4, seed=9)
        with pytest.raises(ValueError, match="'sampeld'"):
            verify_regular_partition(host, [], [range(4), range(4, 8)], Fraction(1, 4), "sampeld")

    @staticmethod
    def random_partition(seed, max_part):
        """A random host split into an exceptional set and 2-4 parts of 1 to
        ``max_part`` vertices, in shuffled vertex order."""
        rng = random.Random(seed)
        sizes = [rng.randint(1, max_part) for _ in range(rng.randint(2, 4))]
        exceptional = rng.randint(0, 2)
        host = random_tournament(exceptional + sum(sizes), rng)
        order = rng.sample(range(host.n), host.n)
        parts, start = [], exceptional
        for size in sizes:
            parts.append(order[start : start + size])
            start += size
        return host, order[:exceptional], parts

    @pytest.mark.parametrize(
        "eps", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]
    )
    def test_sampled_is_exact_within_the_budget(self, eps):
        # every pair fits EXACT_PAIR_BUDGET, so both methods run the exact check
        listed = 0
        for seed in range(12):
            host, exceptional, parts = self.random_partition(seed, 12)
            exact = verify_regular_partition(host, exceptional, parts, eps)
            sampled = verify_regular_partition(
                host, exceptional, parts, eps, method="sampled", seed=seed
            )
            assert sampled == exact
            listed += len(exact.irregular_pairs)
        assert listed

    def test_sampled_check_not_called_within_the_budget(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled check called within the budget")

        monkeypatch.setattr(regularity, "regular_pair_sampled", refuse)
        for seed in range(6):
            host, exceptional, parts = self.random_partition(seed, 12)
            verify_regular_partition(
                host, exceptional, parts, Fraction(1, 4), method="sampled", seed=seed
            )

    def test_part_above_the_budget(self):
        # a 13-vertex part: "exact" refuses it, "sampled" draws only its pairs
        # and lists true violators, every one within the budget
        rng = random.Random(21)
        host = random_tournament(31, rng)
        big, mid, small = list(range(13)), list(range(13, 25)), list(range(25, 31))
        rows = list(host.rows)
        for u in big:
            for v in mid:  # the last 3 of the big part lose to the whole mid part
                if u < 10:
                    rows[u], rows[v] = rows[u] | 1 << v, rows[v] & ~(1 << u)
                else:
                    rows[u], rows[v] = rows[u] & ~(1 << v), rows[v] | 1 << u
        host = core.Tournament(host.n, tuple(rows))
        parts, eps = [big, mid, small], Fraction(1, 4)
        with pytest.raises(BudgetError):
            verify_regular_partition(host, [], parts, eps)
        cert = verify_regular_partition(host, [], parts, eps, method="sampled", seed=3)
        truth = {
            (i, j) for i, j in itertools.combinations(range(3), 2)
            if not sweep_pair_exact(host, parts[i], parts[j], eps).passed
        }
        assert set(cert.irregular_pairs) <= truth
        assert ((1, 2) in cert.irregular_pairs) == ((1, 2) in truth)
        assert (0, 1) in cert.irregular_pairs


class TestEmbedding:
    """The pipeline's found-h search: one pattern vertex per regular part."""

    def test_half_density_triangle(self):
        parts = [vertex_mask(range(8)), vertex_mask(range(8, 16)), vertex_mask(range(16, 24))]
        for seed in range(10):
            host = random_tournament(24, random.Random(seed))
            emb = contains_in_parts(host, cyclic_triangle(), parts)
            assert emb is not None and emb.validate(host, cyclic_triangle())
            assert all(part >> v & 1 for part, v in zip(parts, emb.mapping))

    def test_single_vertex(self):
        host = random_tournament(4, random.Random(13))
        emb = contains_in_parts(host, core.Tournament(1, (0,)), [vertex_mask(range(4))])
        assert emb is not None and emb.mapping == (0,)


class TestStearns:
    def test_single_vertex(self):
        assert stearns_transitive(core.Tournament(1, (0,))) == [0]

    def test_all_classes_up_to_seven(self):
        for n in range(2, 8):
            bound = math.floor(math.log2(n)) + 1
            for t in core.enumerate_tournaments(n):
                chain = stearns_transitive(t)
                assert len(chain) >= bound
                assert core.is_transitive(core.induced(t, chain))

    def test_log_bound_random(self):
        rng = random.Random(15)
        for n in (10, 50, 200, 2000):
            t = random_tournament(n, rng)
            chain = stearns_transitive(t)
            assert len(chain) >= math.floor(math.log2(n)) + 1
            assert core.is_transitive(core.induced(t, chain))

    def test_chain_order_is_forward(self):
        rng = random.Random(16)
        t = random_tournament(40, rng)
        chain = stearns_transitive(t)
        for i, u in enumerate(chain):
            for v in chain[i + 1 :]:
                assert t.has_edge(u, v)


class TestPipeline:
    def test_engineered_two_part_instance(self):
        host = forward_block_host(4, 8, seed=17)
        parts = [range(i * 8, (i + 1) * 8) for i in range(4)]
        report = strong_structure_pipeline(
            host, [], parts, cyclic_triangle(), p_target=2,
            lam=Fraction(1, 4), eta=Fraction(1, 4),
        )
        assert isinstance(report, PipelineReport)
        assert len(report.finals) == 2
        assert not structure_oracle(host, report.finals, report.c, Fraction(1, 4))
        a1, a2 = report.finals
        assert len(a1) == len(a2) == 4
        for v in a1:
            assert density(host, [v], a2) >= 1 - Fraction(1, 4)
        assert report.c > 0

    def test_planted_pattern_flagged(self):
        # half-density parts make every pair good; the pattern embeds
        rng = random.Random(18)
        host = random_tournament(24, rng)
        parts = [range(8), range(8, 16), range(16, 24)]
        result = strong_structure_pipeline(
            host, [], parts, cyclic_triangle(), p_target=2,
            lam=Fraction(1, 2), eta=Fraction(1, 2),
        )
        assert isinstance(result, StageFailure)
        assert result.stage in ("found-h", "h-absent-from-good-parts", "partition")
        if result.stage == "found-h":
            assert result.detail.validate(host, cyclic_triangle())

    def test_absent_pattern_is_definite(self):
        # every pair of parts has density 1/2, so all are good; the first half
        # of part 0 loses to parts 1 and 2 and the second half beats them, so
        # no triangle with one vertex per part is cyclic
        rng = random.Random(20)
        edges = []
        for u, v in itertools.combinations(range(24), 2):
            if u // 8 == v // 8 or (u // 8, v // 8) == (1, 2):
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
            else:
                edges.append((v, u) if u % 8 < 4 else (u, v))
        host = core.from_edges(24, edges)
        parts = [range(8), range(8, 16), range(16, 24)]
        result = strong_structure_pipeline(
            host, [], parts, cyclic_triangle(), p_target=2,
            lam=Fraction(1, 2), eta=Fraction(1, 2),
        )
        assert isinstance(result, StageFailure)
        assert result.stage == "h-absent-from-good-parts"
        assert all(
            core.is_transitive(core.induced(host, triple))
            for triple in itertools.product(*parts)
        )

    @pytest.mark.parametrize("p_target", [0, -1])
    def test_target_below_one_rejected(self, p_target):
        host = forward_block_host(2, 6, seed=19)
        with pytest.raises(ValueError, match=f"got {p_target}"):
            strong_structure_pipeline(
                host, [], [range(6), range(6, 12)], cyclic_triangle(),
                p_target=p_target, lam=Fraction(1, 5), eta=Fraction(1, 4),
            )

    def test_all_bad_reaches_final_stages(self):
        host = forward_block_host(2, 10, seed=19)
        result = strong_structure_pipeline(
            host, [], [range(10), range(10, 20)], cyclic_triangle(),
            p_target=2, lam=Fraction(1, 5), eta=Fraction(1, 4),
        )
        assert isinstance(result, PipelineReport)
        assert result.stable_parts == (0, 1)
        assert result.chain == (0, 1)
        assert all(size >= 5 for size in result.f_sizes)

    def test_three_part_target(self):
        # 2^(P-1) = 4 stable parts distilled down to P = 3 finals
        host = forward_block_host(5, 8, seed=30)
        parts = [range(i * 8, (i + 1) * 8) for i in range(5)]
        report = strong_structure_pipeline(
            host, [], parts, cyclic_triangle(), p_target=3,
            lam=Fraction(1, 4), eta=Fraction(1, 4),
        )
        assert isinstance(report, PipelineReport)
        assert len(report.finals) == 3
        assert not structure_oracle(host, report.finals, report.c, Fraction(1, 4))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(6, 9),
        st.lists(st.tuples(st.integers(0, 35), st.integers(0, 35)), max_size=30),
        st.sets(st.sampled_from(list(itertools.combinations(range(4), 2)))),
        st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )
    # blocks 0 and 1 reversed: the stable pair is oriented backward
    @example(0, 6, [], {(0, 1)}, Fraction(1, 4))
    # vertex 0 meets 5/6 of block 1, below the Q bound 7/8: Q^0_1 drops it
    @example(0, 6, [(0, 6)], set(), Fraction(1, 4))
    def test_finals_pass_the_oracle(self, seed, size, flips, reversed_blocks, lam):
        # forward blocks with whole block pairs and some cross edges reversed
        rows = list(forward_block_host(4, size, seed).rows)
        n = 4 * size
        for a, b in reversed_blocks:
            for u in range(a * size, (a + 1) * size):
                for v in range(b * size, (b + 1) * size):
                    rows[u] ^= 1 << v
                    rows[v] ^= 1 << u
        for u, v in flips:
            u, v = u % n, v % n
            if u // size != v // size:
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
        host = core.Tournament(n, tuple(rows))
        parts = [range(i * size, (i + 1) * size) for i in range(4)]
        result = strong_structure_pipeline(
            host, [], parts, cyclic_triangle(), p_target=2, lam=lam, eta=Fraction(1, 4)
        )
        if isinstance(result, StageFailure):
            return
        # the lemmas that replace the late stage checks: each derived edge has
        # density above 1 - lam/(4P), the chain has P parts, and Markov bounds
        # Q (the vertices meeting a 1 - lam/2 share of the other chain part on
        # the chain's side) and F (here the one Q of each part)
        big_lam = lam / 8
        for a, b in result.t_hat_edges:
            pa, pb = parts[result.stable_parts[a]], parts[result.stable_parts[b]]
            assert set_density(host, pa, pb) > 1 - big_lam
        assert len(result.chain) == 2
        for (i, j), q in result.q_sizes.items():
            part, other = parts[result.chain[i]], parts[result.chain[j]]
            dense = [
                v for v in part
                if (set_density(host, {v}, other) if i < j else set_density(host, other, {v}))
                >= 1 - lam / 2
            ]
            assert q == len(dense) > size * (1 - Fraction(1, 4))
            assert result.f_sizes[i] == q and 2 * q > size
        finals = [set(f) for f in result.finals]
        c = Fraction(len(finals[0]), n)
        assert result.c == c
        assert len({len(f) for f in finals}) == 1
        checks = {check for check, _ in structure_oracle(host, finals, c, lam)}
        assert not checks & {"strong-out", "strong-in"}

    def test_partition_failure_reported(self):
        host = random_tournament(12, random.Random(20))
        result = strong_structure_pipeline(
            host, range(6), [range(6, 9), range(9, 12)], cyclic_triangle(),
            p_target=2, lam=Fraction(1, 4), eta=Fraction(1, 100),
        )
        assert isinstance(result, StageFailure)
        assert result.stage == "partition"

    @staticmethod
    def half_density_host():
        """Two parts of four whose cross edges point forward exactly when
        u + v is even: density 1/2, and every pair is 1/2-regular."""
        edges = [(u, v) if u // 4 == v // 4 or (u + v) % 2 == 0 else (v, u)
                 for u, v in itertools.combinations(range(8), 2)]
        return core.from_edges(8, edges), [range(4), range(4, 8)]

    @pytest.mark.parametrize("stage", ["turan-selection", "ramsey-dichotomy", "lambda-range"])
    def test_stage_failure_before_the_chain(self, stage):
        forward = forward_block_host(2, 6, seed=19), [range(6), range(6, 12)]
        host, parts, p_target, lam, eta, inequality = {
            # two pairwise-regular parts, where P = 3 needs 2^(P-1) = 4
            "turan-selection": (*forward, 3, Fraction(1, 4), Fraction(1, 4),
                                "largest pairwise-regular family has 2 parts, need at least 4"),
            # the one pair is good, and the triangle needs three good parts
            "ramsey-dichotomy": (*self.half_density_host(), 2, Fraction(1, 2), Fraction(1, 2),
                                 "no 2 pairwise-bad parts and no 3 pairwise-good parts"),
            # lambda = 4 puts lambda/(4P) at 1/2, the first value the range check refuses
            "lambda-range": (*forward, 2, Fraction(4), Fraction(1, 4),
                             "lambda/(4P) = 1/2 must be below 1/2"),
        }[stage]
        result = strong_structure_pipeline(
            host, [], parts, cyclic_triangle(), p_target=p_target, lam=lam, eta=eta)
        assert result == StageFailure(stage, inequality)
