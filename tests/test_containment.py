import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import definition_contains, is_free
from nebulab import containment, core, examples
from nebulab.containment import (
    Embedding,
    brute_force_contains,
    contains,
    contains_in_parts,
    empirical_eh_exponent,
    random_free_tournament,
)
from nebulab.core import cyclic_triangle, random_tournament, transitive_tournament
from nebulab.errors import BudgetError
from nebulab.product import build_nebula, small_central_star
from nebulab.stars import StarKind

LEFT6 = build_nebula(StarKind.LEFT, [(1, 3, 5), (2, 4, 6)])[1]


class TestContains:
    def test_self_containment(self):
        t = random_tournament(6, random.Random(0))
        emb = contains(t, t)
        assert emb is not None and emb.validate(t, t)

    def test_transitive_is_triangle_free(self):
        assert contains(transitive_tournament(5), cyclic_triangle()) is None

    def test_left_example_contains_central_star(self):
        star, _ = small_central_star()
        emb = contains(examples.left_example(), star)
        brute = brute_force_contains(examples.left_example(), star)
        assert (emb is None) == (brute is None)
        assert emb is not None and emb.validate(examples.left_example(), star)

    @pytest.mark.parametrize(
        "mapping",
        [(0, 1, 5), (-1, 1, 2), (0, 1), (0, 0, 1)],
        ids=["vertex past the host", "negative vertex", "too short", "repeated vertex"],
    )
    def test_malformed_embedding_fails(self, mapping):
        host = transitive_tournament(5)
        pattern = transitive_tournament(3)
        assert Embedding((0, 1, 2)).validate(host, pattern)
        assert Embedding(mapping).validate(host, pattern) is False

    def test_pattern_larger_than_host(self):
        assert contains(cyclic_triangle(), transitive_tournament(4)) is None

    def test_embeddings_revalidate(self):
        rng = random.Random(1)
        for _ in range(50):
            host = random_tournament(rng.randint(5, 9), rng)
            pattern = random_tournament(rng.randint(2, 4), rng)
            emb = contains(host, pattern)
            if emb is not None:
                assert emb.validate(host, pattern)

    def test_oracle_equivalence_classes(self):
        for hn in range(1, 6):
            for host in core.enumerate_tournaments(hn):
                for pn in range(1, min(hn, 4) + 1):
                    for pattern in core.enumerate_tournaments(pn):
                        fast = contains(host, pattern)
                        brute = brute_force_contains(host, pattern)
                        assert (fast is None) == (brute is None)

    def test_monotone_under_extension(self):
        rng = random.Random(2)
        for _ in range(30):
            big = random_tournament(8, rng)
            small_set = rng.sample(range(8), 6)
            small = core.induced(big, small_set)
            pattern = random_tournament(3, rng)
            if contains(small, pattern) is not None:
                assert contains(big, pattern) is not None

    def test_complement_equivariance(self):
        rng = random.Random(3)
        for _ in range(30):
            host = random_tournament(7, rng)
            pattern = random_tournament(3, rng)
            lhs = contains(host, pattern) is not None
            rhs = contains(core.complement(host), core.complement(pattern)) is not None
            assert lhs == rhs

    def test_mappings_pinned(self):
        # the first embedding found follows the search-order contract of
        # ``contains``; these tuples are the parent search's answers
        pattern5 = random_tournament(5, random.Random(99))
        patterns = (LEFT6, core.complement(LEFT6), pattern5)
        pinned = {
            (0, 10): [(3, 1, 0, 6, 8, 4), (2, 8, 1, 4, 6, 3), (0, 6, 3, 9, 8)],
            (1, 12): [(1, 11, 0, 10, 6, 5), (8, 10, 4, 5, 0, 3), (0, 4, 1, 6, 9)],
            (2, 14): [(10, 4, 1, 11, 9, 0), (2, 3, 0, 10, 9, 1), (0, 8, 13, 3, 4)],
            (3, 16): [(3, 8, 0, 7, 9, 1), (13, 14, 0, 15, 8, 2), (0, 12, 1, 3, 6)],
        }
        for (seed, n), mappings in pinned.items():
            host = random_tournament(n, random.Random(seed))
            assert [contains(host, p).mapping for p in patterns] == mappings

    def test_differential_large_hosts(self, monkeypatch):
        # hosts of 10-16 vertices, a third of them LEFT6-free samples, against
        # the brute-force oracle; its budget unit overcounts the score-filtered
        # scan, so it is lifted here
        monkeypatch.setattr(containment, "BRUTE_FORCE_BUDGET", math.inf)
        rng = random.Random(12)
        patterns = [LEFT6, core.complement(LEFT6)]
        patterns += [random_tournament(rng.randint(5, 7), rng) for _ in range(6)]
        for case in range(72):
            n = rng.randint(10, 16)
            if case % 3 == 0:
                host = random_free_tournament(n, [LEFT6], seed=case)
                if host is None:
                    host = random_tournament(n, rng)
            else:
                host = random_tournament(n, rng)
            pattern = patterns[case % len(patterns)]
            emb = contains(host, pattern)
            brute = brute_force_contains(host, pattern)
            assert (emb is None) == (brute is None), (case, n)
            assert emb is None or emb.validate(host, pattern)

    def test_brute_budget(self):
        with pytest.raises(BudgetError):
            brute_force_contains(
                random_tournament(30, random.Random(0)),
                random_tournament(10, random.Random(1)),
            )


def tournaments(min_n: int, max_n: int):
    return st.builds(
        lambda n, seed: random_tournament(n, random.Random(seed)),
        st.integers(min_n, max_n),
        st.integers(0, 2**32),
    )


@st.composite
def host_pattern_pairs(draw, patterns):
    """A pattern drawn from ``patterns`` and a random host of at most 8
    vertices, sometimes with a relabelled copy of the pattern planted on
    random vertices."""
    pattern = draw(patterns)
    host = draw(tournaments(1, 8))
    h = pattern.n
    if h > host.n or not draw(st.booleans()):
        return host, pattern
    place = draw(st.permutations(range(host.n)))[:h]
    rows = list(host.rows)
    for a in range(h):
        for b in range(h):
            if a != b:
                rows[place[a]] &= ~(1 << place[b])
                if pattern.has_edge(a, b):
                    rows[place[a]] |= 1 << place[b]
    return core.Tournament(host.n, tuple(rows)), pattern


REGULAR_PATTERNS = [cyclic_triangle()] + [
    t for t in core.enumerate_tournaments(5) if all(r.bit_count() == 2 for r in t.rows)
]


def assert_agrees_with_definition(host, pattern):
    emb = brute_force_contains(host, pattern)
    assert (emb is None) == (definition_contains(host, pattern) is None)
    assert emb is None or emb.validate(host, pattern)


class TestBruteForce:
    """The score-filtered scan against the definition: every subset, every
    bijection, Embedding.validate."""

    @given(host_pattern_pairs(tournaments(1, 5)))
    @settings(max_examples=300, deadline=None)
    def test_random_and_planted_hosts(self, case):
        assert_agrees_with_definition(*case)

    @given(host_pattern_pairs(st.sampled_from(REGULAR_PATTERNS)))
    @settings(max_examples=100, deadline=None)
    def test_regular_patterns(self, case):
        # every score is equal, so no bijection of a passing subset is skipped
        assert_agrees_with_definition(*case)

    @given(host_pattern_pairs(st.integers(1, 5).map(transitive_tournament)))
    @settings(max_examples=100, deadline=None)
    def test_transitive_patterns(self, case):
        # every score is distinct, so a passing subset has one candidate bijection
        assert_agrees_with_definition(*case)

    def test_every_class_pair(self):
        patterns = [p for h in range(1, 5) for p in core.enumerate_tournaments(h)]
        for n in range(1, 7):
            for host in core.enumerate_tournaments(n):
                for pattern in patterns:
                    assert_agrees_with_definition(host, pattern)


def parts_oracle(host, pattern, parts):
    """Definition-level oracle for ``contains_in_parts``: the first mapping,
    over the product of the parts in lex order, that passes validate."""
    for image in itertools.product(*(core.mask_vertices(part) for part in parts)):
        if Embedding(image).validate(host, pattern):
            return Embedding(image)
    return None


@st.composite
def host_pattern_parts(draw):
    """A host of at most 9 vertices, a pattern of at most 4 and one random
    vertex mask per pattern vertex (masks may overlap or be empty)."""
    host = draw(tournaments(1, 9))
    pattern = draw(tournaments(1, 4))
    full = (1 << host.n) - 1
    parts = [draw(st.integers(0, full)) for _ in range(pattern.n)]
    return host, pattern, parts


class TestContainsInParts:
    @given(host_pattern_parts())
    @settings(max_examples=400, deadline=None)
    def test_lex_first_against_product_oracle(self, case):
        host, pattern, parts = case
        assert contains_in_parts(host, pattern, parts) == parts_oracle(host, pattern, parts)

    def test_part_count_must_match(self):
        with pytest.raises(ValueError, match="one part per pattern vertex"):
            contains_in_parts(cyclic_triangle(), cyclic_triangle(), [7, 7])


class TestIsFree:
    def test_triangle_freeness_is_transitivity(self):
        rng = random.Random(4)
        for _ in range(40):
            t = random_tournament(6, rng)
            assert is_free(t, [cyclic_triangle()]) == core.is_transitive(t)

    def test_self_complementary_family_invariant(self):
        rng = random.Random(5)
        h = random_tournament(4, rng)
        family = [h, core.complement(h)]
        for _ in range(20):
            t = random_tournament(7, rng)
            assert is_free(t, family) == is_free(core.complement(t), family)

    def test_oversized_member_trivially_free(self):
        t = random_tournament(5, random.Random(6))
        assert is_free(t, [examples.left_example()])


class TestRandomFree:
    def test_triangle_family_gives_transitive(self):
        t = random_free_tournament(8, [cyclic_triangle()], seed=1)
        assert t is not None and core.is_transitive(t)

    def test_empty_family_returns_first_sample(self):
        t = random_free_tournament(10, [], seed=2)
        assert t is not None and t.n == 10

    def test_deterministic(self):
        family = [cyclic_triangle()]
        assert random_free_tournament(9, family, seed=3) == random_free_tournament(
            9, family, seed=3
        )

    def test_sample_rows_pinned(self, monkeypatch):
        # this walk needs between 300 and 400 repairs, past the sampler's
        # limit; lifting the limit pins the repair walk itself
        assert random_free_tournament(16, [LEFT6], seed=0) is None
        monkeypatch.setattr(containment, "SAMPLER_TRIES", 500)
        t = random_free_tournament(16, [LEFT6], seed=0)
        assert t.rows == (
            0, 21, 1, 6247, 24813, 4359, 14375, 12399,
            12511, 32255, 14847, 20919, 23, 6191, 46575, 16383,
        )
        assert is_free(t, [LEFT6])

    def test_result_verifies_free(self):
        family = [examples.left_example(), core.complement(examples.left_example())]
        t = random_free_tournament(15, family, seed=4)
        assert t is not None and is_free(t, family)


class TestExponent:
    def test_triangle_family_slope_one(self):
        rep = empirical_eh_exponent([cyclic_triangle()], [6, 9, 12], 4, seed=7)
        assert abs(rep.slope - 1.0) < 1e-9
        assert not rep.flagged_sizes

    def test_empty_family_slope_small(self):
        rep = empirical_eh_exponent([], [8, 12, 16], 6, seed=7)
        assert 0 < rep.slope < 0.7
        assert rep.band[0] <= rep.slope <= rep.band[1]

    def test_reproducible(self):
        a = empirical_eh_exponent([cyclic_triangle()], [6, 8], 3, seed=9)
        b = empirical_eh_exponent([cyclic_triangle()], [6, 8], 3, seed=9)
        assert a == b

    def test_high_failure_rate_flagged(self, monkeypatch):
        # with the repair step capped at five tries, triangle-free generation
        # at size 14 essentially never succeeds; the report must flag the
        # size, not hide it
        monkeypatch.setattr(containment, "SAMPLER_TRIES", 5)
        rep = empirical_eh_exponent([cyclic_triangle()], [3, 4, 14], 6, seed=11)
        assert rep.flagged_sizes == (14,)
        rates = dict(rep.failure_rates)
        assert rates[14] > 0.5
        assert rates[3] == 0.0

    def test_budget(self):
        with pytest.raises(BudgetError):
            empirical_eh_exponent([], [40], 2, seed=0)
