import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    WITNESS_SIDES,
    definition_classify_triple,
    definition_dense_vertices,
    definition_witness_pair,
    forward_block_host,
    make_triple,
    neighborhood,
    pattern_triple,
    set_density,
    structure_oracle,
    triple_set,
)
from nebulab import core
from nebulab.core import from_backward_edges, random_tournament
from nebulab.errors import CoverageTieError, LambdaTooLargeError
from nebulab.containment import contains_in_parts
from nebulab.product import SMALL_STARS
from nebulab.stars import StarKind
from nebulab.structures import (
    CompletePair,
    NormalPart,
    TripleClass,
    WitnessTriple,
    classify_triple,
    extract_product,
    is_normal,
    turan_clique,
    ugraph_from_edges,
    verify_structure,
    witness,
)


class TestVerifyStructure:
    def test_single_part_size_pass(self):
        host = random_tournament(10, random.Random(0))
        cert = verify_structure(host, [frozenset(range(5))], Fraction(1, 2), Fraction(1, 10))
        assert cert.passed

    def test_float_lambda_read_as_decimal(self):
        # 1..10 transitive; vertex 0 beats 1..7 and loses to 8..10, so the
        # pair density and vertex 0's out-density are exactly 7/10 = 1 - 0.3
        host = core.from_edges(
            11,
            [(u, v) for u in range(1, 11) for v in range(u + 1, 11)]
            + [(0, v) for v in range(1, 8)] + [(v, 0) for v in range(8, 11)],
        )
        parts = [frozenset({0}), frozenset(range(1, 11))]
        exact = verify_structure(host, parts, 0, Fraction(3, 10))
        assert [(v.check, v.detail["vertex"]) for v in exact.violations] == [
            ("strong-in", 8), ("strong-in", 9), ("strong-in", 10)
        ]
        read = verify_structure(host, parts, 0, 0.3)
        assert read.violations == exact.violations
        assert read.under[2] == Fraction(3, 10)

    def test_complete_pair_passes_any_lambda(self):
        host = forward_block_host(2, 5, seed=1)
        parts = [frozenset(range(5)), frozenset(range(5, 10))]
        cert = verify_structure(host, parts, Fraction(1, 2), Fraction(0))
        assert cert.passed

    def test_wrong_direction_fails(self):
        host = forward_block_host(2, 5, seed=1)
        parts = [frozenset(range(5, 10)), frozenset(range(5))]  # reversed order
        cert = verify_structure(host, parts, Fraction(1, 2), Fraction(1, 2))
        assert not cert.passed
        assert any(
            v.check == "pair-density" and (v.detail["i"], v.detail["j"]) == (0, 1)
            for v in cert.violations
        )

    def test_small_part_fails_size(self):
        host = random_tournament(10, random.Random(2))
        cert = verify_structure(host, [frozenset({0})], Fraction(1, 2), Fraction(1, 10))
        assert not cert.passed
        assert cert.violations[0].check == "size"

    def test_overlap_rejected(self):
        host = random_tournament(6, random.Random(4))
        with pytest.raises(ValueError):
            verify_structure(host, [frozenset({0, 1}), frozenset({1, 2})], 0, 0)


@st.composite
def structure_cases(draw):
    """A random host, 1-4 disjoint parts of unequal sizes, and c, lambda with
    lambda often set so that some density lands exactly on 1 - lambda."""
    n = draw(st.integers(2, 12))
    host = random_tournament(n, random.Random(draw(st.integers(0, 2**32))))
    order = draw(st.permutations(range(n)))
    count = draw(st.integers(1, min(4, n)))
    used = draw(st.integers(count, n))
    cuts = draw(st.sets(st.integers(1, max(used - 1, 1)), min_size=count - 1, max_size=count - 1))
    bounds = [0, *sorted(cuts), used]
    parts = [frozenset(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    densities = all_densities(host, parts)
    exact = st.sampled_from(sorted({1 - d for d in densities})) if densities else st.nothing()
    lam = draw(st.one_of(exact, st.fractions(0, 1, max_denominator=12)))
    c = Fraction(draw(st.integers(0, 2 * n)), 2 * n)
    return host, parts, c, lam


def all_densities(host, parts):
    """Every pair density and per-vertex density a strong check looks at."""
    out = []
    for i, j in itertools.permutations(range(len(parts)), 2):
        if i < j:
            out.append(set_density(host, parts[i], parts[j]))
        for v in parts[i]:
            pair = ({v}, parts[j]) if i < j else (parts[j], {v})
            out.append(set_density(host, *pair))
    return out


class TestVerifyStructureOracle:
    @settings(max_examples=300, deadline=None)
    @given(structure_cases())
    def test_matches_definition(self, case):
        host, parts, c, lam = case
        cert = verify_structure(host, parts, c, lam)
        want = structure_oracle(host, parts, c, lam)
        assert [(v.check, v.detail) for v in cert.violations] == want
        assert cert.passed == (not want)

    @settings(max_examples=100, deadline=None)
    @given(structure_cases())
    def test_density_on_the_bound_passes(self, case):
        host, parts, _, _ = case
        densities = all_densities(host, parts)
        lam = 1 - min(densities, default=Fraction(1))
        assert verify_structure(host, parts, Fraction(0), lam).passed

    @settings(max_examples=100, deadline=None)
    @given(structure_cases(), st.data())
    def test_overlap_raises(self, case, data):
        host, parts, c, lam = case
        shared = data.draw(st.sampled_from(sorted(parts[0])))
        parts = [*parts, frozenset({shared})]
        with pytest.raises(ValueError):
            structure_oracle(host, parts, c, lam)
        with pytest.raises(ValueError):
            verify_structure(host, parts, c, lam)

    def test_random_partitions_match_definition(self):
        # whole-host partitions into equal parts, as the phase algorithm
        # checks them, with lambda on some vertex's exact density
        rng = random.Random(11)
        passed = 0
        for _ in range(60):
            t, w = rng.randint(2, 5), rng.randint(2, 6)
            host = random_tournament(t * w, rng)
            order = rng.sample(range(t * w), t * w)
            parts = [frozenset(order[p * w:(p + 1) * w]) for p in range(t)]
            lam = 1 - rng.choice(all_densities(host, parts))
            cert = verify_structure(host, parts, Fraction(1, t), lam)
            want = structure_oracle(host, parts, Fraction(1, t), lam)
            assert [(v.check, v.detail) for v in cert.violations] == want
            passed += cert.passed
        assert 0 < passed < 60


@st.composite
def dense_cases(draw):
    """A random host, disjoint nonempty ``part`` and ``other``, a side, and a
    slack often set so that some vertex's density is exactly 1 - slack."""
    n = draw(st.integers(2, 12))
    host = random_tournament(n, random.Random(draw(st.integers(0, 2**32))))
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    end = draw(st.integers(cut + 1, n))
    part, other = frozenset(order[:cut]), frozenset(order[cut:end])
    later = draw(st.booleans())
    densities = sorted(
        set_density(host, {v}, other) if later else set_density(host, other, {v}) for v in part
    )
    exact = st.sampled_from([1 - d for d in densities])
    slack = draw(st.one_of(exact, st.fractions(0, 1, max_denominator=12)))
    return host, part, other, later, slack


def listed_dense(host, part, other, later, slack):
    """``part`` less the vertices that ``verify_structure`` at (0, slack)
    lists as missing ``other``, which comes after ``part`` when ``later``."""
    parts, i = ([part, other], 0) if later else ([other, part], 1)
    kind = "strong-out" if later else "strong-in"
    missed = {
        v.detail["vertex"] for v in verify_structure(host, parts, 0, slack).violations
        if v.check == kind and v.detail["i"] == i
    }
    return frozenset(part) - missed


class TestDenseVertices:
    """The per-vertex listing of ``verify_structure``, as the regularity
    pipeline's Q/F filter reads it."""

    @settings(max_examples=300, deadline=None)
    @given(dense_cases())
    def test_matches_definition(self, case):
        host, part, other, later, slack = case
        assert listed_dense(host, part, other, later, slack) == definition_dense_vertices(
            host, part, other, later, slack)

    @pytest.mark.parametrize("later, part, other", [(True, {0}, {1, 2, 3}),
                                                    (False, {3}, {0, 1, 2})])
    def test_density_on_the_bound_is_dense(self, later, part, other):
        # 0 -> 1, 0 -> 2 and 3 -> 0: vertex 0 beats 2 of {1, 2, 3}, and
        # vertex 3 is beaten by 2 of {0, 1, 2}, a density of exactly 2/3
        host = from_backward_edges(4, (0, 1, 2, 3), [(3, 0)])
        assert listed_dense(host, part, other, later, Fraction(1, 3)) == part
        assert listed_dense(host, part, other, later, Fraction(1, 3) - Fraction(1, 100)) == set()


class TestNeighborhood:
    """Checks of the test oracle helpers.neighborhood."""

    def test_forward_blocks_empty_in_neighbourhood(self):
        host = forward_block_host(3, 3, seed=5)
        sigma = make_triple(range(3), range(3, 6), range(6, 9))
        for v in range(3):
            assert neighborhood(host, sigma, v, 2) == frozenset()
            assert neighborhood(host, sigma, v, 3) == frozenset()

    def test_reversed_blocks_full(self):
        host = core.complement(forward_block_host(3, 3, seed=5))
        sigma = make_triple(range(3), range(3, 6), range(6, 9))
        for v in range(3):
            assert neighborhood(host, sigma, v, 2) == frozenset(range(3, 6))

    def test_edge_scan_oracle(self):
        rng = random.Random(6)
        for _ in range(40):
            host = random_tournament(9, rng)
            verts = rng.sample(range(9), 6)
            sigma = make_triple(verts[:2], verts[2:4], verts[4:6])
            for i, j in itertools.permutations((1, 2, 3), 2):
                for v in triple_set(sigma, i):
                    got = neighborhood(host, sigma, v, j)
                    if j > i:
                        want = {w for w in triple_set(sigma, j) if host.has_edge(w, v)}
                    else:
                        want = {w for w in triple_set(sigma, j) if host.has_edge(v, w)}
                    assert got == frozenset(want)


def adversarial_no_pattern_host():
    """Three 8-blocks forming a strict (2,1)-triple with no left-star pattern.

    S_2's bigs cover S_1's victim half at step 2; S_3's diffuse vertices cover
    half of themselves only at step 4; the S_3 -> S_1 backward targets avoid
    every vertex of S_1 beaten by S_2, so no pattern triple exists.
    """
    back = [
        # pair (S1,S2): bigs 8,9 cover victims {4,6} and {5,7}
        (8, 4), (8, 6), (9, 5), (9, 7),
        # pair (S1,S2): diffuse 10..13 target positions 0,1
        (10, 0), (11, 1), (12, 0), (13, 1),
        # pair (S2,S3): bigs 16,17 cover victims 12..15
        (16, 12), (16, 14), (17, 13), (17, 15),
        # pair (S2,S3): diffuse 18..21 target S_2 positions 0..3
        (18, 8), (19, 9), (20, 10), (21, 11),
        # pair (S1,S3): only positions 2,3 of S_1 are ever beaten by S_3
        (20, 2), (21, 3),
    ]
    return from_backward_edges(24, tuple(range(24)), back)


# shares of a cross pair's edges drawn backward (the later set's vertex
# beating the earlier set's): 0 leaves the coverage empty, a complete pair,
# and 1 covers both targets at the first step, a k_j == k_l tie
BACKWARD_SHARES = (0, 0.1, 0.5, 0.9, 1)
QUERIES = list(itertools.permutations((1, 2, 3), 2))


def planted_triple(rng, sizes, shares, extra):
    """A host holding three sets of ``sizes`` among ``extra`` further vertices,
    each cross pair (a, b) of sets backward at the share ``shares[a, b]``."""
    n = sum(sizes) + extra
    order = rng.sample(range(n), n)
    sets = [order[sum(sizes[:m]):sum(sizes[:m + 1])] for m in range(3)]
    set_of = {v: m for m, members in enumerate(sets) for v in members}
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        a, b = set_of.get(u), set_of.get(v)
        if a is not None and b is not None and a != b:
            earlier, later = (u, v) if a < b else (v, u)
            backward = rng.random() < shares[min(a, b), max(a, b)]
            winner, loser = (later, earlier) if backward else (earlier, later)
        else:
            winner, loser = (u, v) if rng.random() < 0.5 else (v, u)
        rows[winner] |= 1 << loser
    return core.Tournament(n, tuple(rows)), make_triple(*sets)


@st.composite
def planted_triples(draw):
    sizes = [draw(st.integers(1, 6)) for _ in range(3)]
    shares = {pair: draw(st.sampled_from(BACKWARD_SHARES))
              for pair in itertools.combinations(range(3), 2)}
    rng = random.Random(draw(st.integers(0, 2**32)))
    return planted_triple(rng, sizes, shares, draw(st.integers(0, 3)))


class _ReadLog(tuple):
    """Host rows that record which vertices' rows were read."""

    def __getitem__(self, index):
        self.read.append(index)
        return super().__getitem__(index)


class TestClassifyTripleOracle:
    """The early-stopping walk against the whole-profile definition."""

    @settings(max_examples=300, deadline=None)
    @given(planted_triples())
    def test_matches_definition(self, case):
        host, sigma = case
        for i, j in QUERIES:
            assert classify_triple(host, sigma, i, j) == definition_classify_triple(
                host, sigma, i, j)

    def test_every_verdict_kind_agrees(self):
        rng = random.Random(12)
        seen = {"pair-j": 0, "pair-l": 0, "tie": 0, "strict": 0, "swapped": 0}
        for _ in range(400):
            sizes = [rng.randint(1, 6) for _ in range(3)]
            shares = {pair: rng.choice(BACKWARD_SHARES)
                      for pair in itertools.combinations(range(3), 2)}
            host, sigma = planted_triple(rng, sizes, shares, rng.randint(0, 3))
            for i, j in QUERIES:
                got = classify_triple(host, sigma, i, j)
                assert got == definition_classify_triple(host, sigma, i, j)
                if isinstance(got, CompletePair):
                    untouched = got.b if got.a == triple_set(sigma, i) else got.a
                    seen["pair-j" if untouched <= triple_set(sigma, j) else "pair-l"] += 1
                elif got.k_j == got.k_l:
                    seen["tie"] += 1
                else:
                    seen["swapped" if got.j != j else "strict"] += 1
        assert all(seen.values()), seen

    @settings(max_examples=100, deadline=None)
    @given(planted_triples())
    def test_walk_stops_at_half(self, case):
        host, sigma = case
        for i, j in QUERIES:
            rows = _ReadLog(host.rows)
            rows.read = []
            verdict = classify_triple(type("Host", (), {"rows": rows})(), sigma, i, j)
            walked = core.mask_vertices(sigma[i - 1])
            if isinstance(verdict, TripleClass):
                walked = walked[:verdict.k_l]
            assert rows.read == walked


class TestClassifyTriple:
    def test_empty_coverage_gives_complete_pair(self):
        host = forward_block_host(3, 4, seed=8)
        sigma = make_triple(range(4), range(4, 8), range(8, 12))
        verdict = classify_triple(host, sigma, 2, 1)
        assert isinstance(verdict, CompletePair)
        assert verdict.validate(host)
        # the untouched side covers at least half of its set
        assert 2 * len(verdict.a) >= 4 or 2 * len(verdict.b) >= 4

    def test_tie_goes_to_queried_j(self):
        back = [(2, 0), (2, 1), (3, 0), (3, 1), (4, 2), (4, 3), (5, 2), (5, 3)]
        host = from_backward_edges(6, tuple(range(6)), back)
        sigma = make_triple([0, 1], [2, 3], [4, 5])
        verdict = classify_triple(host, sigma, 2, 1)
        assert isinstance(verdict, TripleClass)
        assert (verdict.i, verdict.j) == (2, 1)
        assert verdict.k_j == verdict.k_l == 1

    def test_adversarial_strict_classification(self):
        host = adversarial_no_pattern_host()
        sigma = make_triple(range(8), range(8, 16), range(16, 24))
        verdict = classify_triple(host, sigma, 2, 1)
        assert isinstance(verdict, TripleClass)
        assert (verdict.i, verdict.j) == (2, 1)
        assert verdict.k_j == 2 and verdict.k_l == 4

    def test_existential_oracle_strict_verdicts(self):
        rng = random.Random(9)

        def brute(host, sigma, i, j):
            l = 6 - i - j
            for perm in itertools.permutations(sorted(triple_set(sigma, i))):
                uj, ul = set(), set()
                for v in perm:
                    uj |= neighborhood(host, sigma, v, j)
                    ul |= neighborhood(host, sigma, v, l)
                    if (2 * len(uj) >= len(triple_set(sigma, j))
                            and 2 * len(ul) <= len(triple_set(sigma, l))):
                        return True
            return False

        checked = 0
        for _ in range(200):
            n = rng.randint(7, 11)
            host = random_tournament(n, rng)
            verts = rng.sample(range(n), 7)
            sigma = make_triple(verts[:3], verts[3:5], verts[5:7])
            i, j = rng.choice([(2, 1), (3, 1), (2, 3), (1, 3), (1, 2), (3, 2)])
            verdict = classify_triple(host, sigma, i, j)
            if isinstance(verdict, TripleClass) and verdict.k_j < verdict.k_l:
                assert brute(host, sigma, verdict.i, verdict.j)
                checked += 1
        assert checked > 30

    def test_invalid_indices(self):
        host = random_tournament(6, random.Random(10))
        sigma = make_triple([0], [1], [2])
        with pytest.raises(ValueError):
            classify_triple(host, sigma, 2, 2)


class TestCompletePair:
    @pytest.mark.parametrize(
        "a, b",
        [(set(), {5, 6}), ({0, 1}, set()), ({0, 1}, {1, 5})],
        ids=["empty A", "empty B", "overlapping sides"],
    )
    def test_malformed_pair_fails(self, a, b):
        host = forward_block_host(2, 5, seed=1)
        assert CompletePair(frozenset({0, 1}), frozenset({5, 6})).validate(host)
        assert CompletePair(frozenset(a), frozenset(b)).validate(host) is False

    @pytest.mark.parametrize("a, b", [({-1}, {0}), ({0}, {-1}), ({3}, {0}), ({0}, {3})])
    def test_vertex_outside_the_host_fails(self, a, b):
        # vertex 2 beats 0, so a -1 read as the last vertex would pass
        host = from_backward_edges(3, (0, 1, 2), [(2, 0)])
        assert CompletePair(frozenset({2}), frozenset({0})).validate(host)
        assert CompletePair(frozenset(a), frozenset(b)).validate(host) is False


class TestWitness:
    def test_immediate_pattern_triple(self):
        # S_2 and S_3 beat S_1 entirely; S_3 beats only the later vertex of
        # S_2, so both coverages are finite, the verdict is a strict (2,1),
        # and the left pattern (e.g. 2->0, 4->0, 2->4) is present
        back = [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1),
                (4, 3), (5, 3)]
        host = from_backward_edges(6, tuple(range(6)), back)
        sigma = make_triple([0, 1], [2, 3], [4, 5])
        verdict = classify_triple(host, sigma, 2, 1)
        assert isinstance(verdict, TripleClass)
        assert (verdict.i, verdict.j) == (2, 1)
        result = witness(host, sigma, verdict)
        assert isinstance(result, WitnessTriple)
        assert result.pattern is StarKind.LEFT
        assert result.validate(host, sigma)

    @pytest.mark.parametrize("vertices", [(-1, 1, 2), (0, -1, 2), (0, 1, -1), (3, 1, 2), (0, 1, 3)])
    def test_vertex_outside_the_host_fails(self, vertices):
        host = SMALL_STARS[StarKind.LEFT]
        sigma = make_triple([0], [1], [2])
        assert WitnessTriple((0, 1, 2), StarKind.LEFT).validate(host, sigma)
        assert WitnessTriple(vertices, StarKind.LEFT).validate(host, sigma) is False

    def test_adversarial_fallback_pair(self):
        host = adversarial_no_pattern_host()
        sigma = make_triple(range(8), range(8, 16), range(16, 24))
        verdict = classify_triple(host, sigma, 2, 1)
        result = witness(host, sigma, verdict)
        assert isinstance(result, CompletePair)
        assert result.validate(host)
        assert 2 * len(result.a) >= len(triple_set(sigma, 1))
        assert 2 * len(result.b) >= len(triple_set(sigma, 3))

    def test_tie_without_pattern_raises(self):
        back = [(2, 0), (2, 1), (3, 0), (3, 1), (4, 2), (4, 3), (5, 2), (5, 3)]
        host = from_backward_edges(6, tuple(range(6)), back)
        sigma = make_triple([0, 1], [2, 3], [4, 5])
        verdict = classify_triple(host, sigma, 2, 1)
        with pytest.raises(CoverageTieError):
            witness(host, sigma, verdict)

    def test_fallback_matches_the_all_steps_scan(self):
        # sparse hosts: few backward edges, so patterns are often missing and
        # both fallback pairs and coverage ties occur
        rng = random.Random(32)
        pairs = ties = 0
        for _ in range(2000):
            n = rng.randint(3, 12)
            back = [(w, u) for w in range(n) for u in range(w) if rng.random() < 0.15]
            host = from_backward_edges(n, tuple(range(n)), back)
            verts = rng.sample(range(n), n)
            a = rng.randint(1, n - 2)
            b = rng.randint(1, n - 1 - a)
            c = rng.randint(1, n - a - b)
            sigma = make_triple(verts[:a], verts[a : a + b], verts[a + b : a + b + c])
            verdict = classify_triple(host, sigma, *rng.choice(list(WITNESS_SIDES)))
            if not isinstance(verdict, TripleClass):
                continue
            try:
                result = witness(host, sigma, verdict)
            except CoverageTieError:
                result = None
                assert verdict.k_j == verdict.k_l
            if isinstance(result, WitnessTriple):
                continue
            assert result == definition_witness_pair(host, sigma, verdict)
            pairs += result is not None
            ties += result is None
        assert pairs > 100 and ties > 100

    # labelled by the pattern each pair of queries promises
    @pytest.mark.parametrize(
        "label,queries",
        [
            ("witness_left", [(2, 1), (3, 1)]),
            ("witness_right", [(2, 3), (1, 3)]),
            ("witness_central", [(1, 2), (3, 2)]),
        ],
    )
    def test_random_postconditions(self, label, queries):
        pattern = StarKind(label.removeprefix("witness_"))
        rng = random.Random(hash(queries[0]) & 0xFFFF)
        validated = 0
        for _ in range(250):
            n = rng.randint(16, 22)
            host = random_tournament(n, rng)
            verts = rng.sample(range(n), 15)
            sigma = make_triple(verts[:5], verts[5:10], verts[10:15])
            verdict = classify_triple(host, sigma, *rng.choice(queries))
            if isinstance(verdict, CompletePair):
                assert verdict.validate(host)
                continue
            if (verdict.i, verdict.j) not in dict.fromkeys(queries):
                continue  # sibling verdict belongs to the other pattern
            result = witness(host, sigma, verdict)
            expected = pattern_triple(host, sigma, pattern)
            if isinstance(result, WitnessTriple):
                assert result.pattern is pattern
                assert result.validate(host, sigma)
                assert result.vertices == expected
            else:
                assert result.validate(host)
                assert expected is None
            validated += 1
        assert validated > 100

    @pytest.mark.parametrize("kind", [StarKind.LEFT, StarKind.RIGHT, StarKind.CENTRAL])
    def test_lex_first_triple_matches_unrolled_oracle(self, kind):
        # small random parts, so that both found and absent triples occur
        rng = random.Random(kind.value)
        star = SMALL_STARS[kind]
        absent = 0
        for _ in range(300):
            n = rng.randint(3, 40)
            host = random_tournament(n, rng)
            a, b, c = (rng.randint(1, n // 3) for _ in range(3))
            verts = rng.sample(range(n), a + b + c)
            sigma = make_triple(verts[:a], verts[a : a + b], verts[a + b :])
            expected = pattern_triple(host, sigma, kind)
            found = contains_in_parts(host, star, sigma)
            assert (None if found is None else found.mapping) == expected
            absent += expected is None
            if expected is not None:
                assert WitnessTriple(expected, kind).validate(host, sigma)
        assert 0 < absent < 300


class TestNormality:
    def _stacked_host(self, pattern, rows, seed):
        """Parts P_0..P_{h-1}; row r across parts induces the pattern; all
        cross-row and within-part pairs are forward by global index."""
        h = pattern.n
        n = h * rows
        adj = [0] * n

        def vid(part, row):
            return part * rows + row

        for u in range(n):
            for v in range(u + 1, n):
                pu, ru = divmod(u, rows)
                pv, rv = divmod(v, rows)
                if pu != pv and ru == rv:
                    if pattern.has_edge(pu, pv):
                        adj[u] |= 1 << v
                    else:
                        adj[v] |= 1 << u
                else:
                    adj[u] |= 1 << v
        host = core.Tournament(n, tuple(adj))
        parts = [frozenset(range(p * rows, (p + 1) * rows)) for p in range(h)]
        orderings = {p: tuple(sorted(parts[p])) for p in range(h)}
        return host, parts, orderings

    def test_single_vertex_pattern_always_normal(self):
        host = random_tournament(6, random.Random(11))
        parts = [frozenset({0, 1, 2})]
        single = core.Tournament(1, (0,))
        assert is_normal(host, parts, single, {0: 0}, {0: (0, 1, 2)})

    def test_stacked_copies_normal(self):
        pattern = SMALL_STARS[StarKind.CENTRAL]
        host, parts, orderings = self._stacked_host(pattern, rows=4, seed=0)
        phi = {v: v for v in range(3)}
        assert is_normal(host, parts, pattern, phi, orderings)

    def test_row_mutation_breaks_normality(self):
        pattern = SMALL_STARS[StarKind.CENTRAL]
        host, parts, orderings = self._stacked_host(pattern, rows=4, seed=0)
        phi = {v: v for v in range(3)}
        broken = dict(orderings)
        swapped = list(broken[1])
        swapped[0], swapped[1] = swapped[1], swapped[0]
        broken[1] = tuple(swapped)
        assert not is_normal(host, parts, pattern, phi, broken)

    @pytest.mark.parametrize(
        "fault",
        ["phi not injective", "ordering missing", "ordering of another part",
         "ordering one vertex short"],
    )
    def test_refusals(self, fault):
        pattern = SMALL_STARS[StarKind.CENTRAL]
        host, parts, orderings = self._stacked_host(pattern, rows=4, seed=0)
        phi = {v: v for v in range(3)}
        if fault == "phi not injective":
            with pytest.raises(ValueError, match="phi must be injective"):
                is_normal(host, parts, pattern, {0: 0, 1: 0, 2: 1}, orderings)
            return
        changed = dict(orderings)
        if fault == "ordering missing":
            del changed[1]
        elif fault == "ordering of another part":
            changed[1] = orderings[0]
        else:
            changed[1] = orderings[1][:-1]
        assert is_normal(host, parts, pattern, phi, changed) is False

    def test_unequal_sizes_rejected(self):
        host = random_tournament(5, random.Random(12))
        with pytest.raises(ValueError):
            is_normal(
                host,
                [frozenset({0, 1}), frozenset({2})],
                core.Tournament(1, (0,)),
                {0: 0},
                {0: (0, 1)},
            )


class TestExtractProduct:
    def _lambda_zero_instance(self, rows, seed):
        rng = random.Random(seed)
        n = 6 * rows
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if u // rows == v // rows:
                    if rng.random() < 0.5:
                        adj[u] |= 1 << v
                    else:
                        adj[v] |= 1 << u
                else:
                    adj[u] |= 1 << v
        host = core.Tournament(n, tuple(adj))
        parts = [frozenset(range(p * rows, (p + 1) * rows)) for p in range(6)]
        orderings = {p: tuple(sorted(parts[p])) for p in range(6)}
        left = SMALL_STARS[StarKind.LEFT]
        right = SMALL_STARS[StarKind.RIGHT]
        comp1 = NormalPart(left, {1: 0, 2: 1, 0: 2}, {p: orderings[p] for p in (0, 1, 2)})
        comp2 = NormalPart(right, {2: 3, 0: 4, 1: 5}, {p: orderings[p] for p in (3, 4, 5)})
        return host, parts, [comp1, comp2]

    def test_single_part_any_row(self):
        pattern = SMALL_STARS[StarKind.CENTRAL]
        host, parts, orderings = TestNormality()._stacked_host(pattern, rows=3, seed=1)
        comp = NormalPart(pattern, {v: v for v in range(3)}, orderings)
        res = extract_product(host, parts, [comp], lam=Fraction(0))
        assert res.embedding.validate(host, res.product)

    def test_two_stars_lambda_zero(self):
        host, parts, comps = self._lambda_zero_instance(rows=4, seed=13)
        res = extract_product(host, parts, comps, lam=Fraction(0))
        assert res.product.n == 6
        assert res.embedding.validate(host, res.product)

    def test_turan_gate_holds(self):
        host, parts, comps = self._lambda_zero_instance(rows=5, seed=14)
        res = extract_product(host, parts, comps, lam=Fraction(0))
        gate = res.turan_gate
        assert gate["edges"] >= gate["bound"]
        assert gate["epsilon"] < Fraction(1, 1)  # below 1/(p-1)^2 for p=2

    def test_lambda_too_large_reported(self):
        # break cross relations so no compatible row pair exists
        host, parts, comps = self._lambda_zero_instance(rows=2, seed=15)
        adj = list(host.rows)
        # reverse one edge in every cross-row combination between parts 0 and 3
        for r1 in range(2):
            for r2 in range(2):
                u = 0 * 2 + r1
                v = 3 * 2 + r2
                adj[u] &= ~(1 << v)
                adj[v] |= 1 << u
        broken = core.Tournament(host.n, tuple(adj))
        if is_normal(broken, parts, comps[0].pattern, comps[0].phi, comps[0].orderings):
            with pytest.raises(LambdaTooLargeError):
                extract_product(broken, parts, comps, lam=Fraction(1, 2))

    @pytest.mark.parametrize(
        "fault, message",
        [("no components", "needs at least one component"),
         ("not normal", "structure is not normal for a component")],
    )
    def test_refusals(self, fault, message):
        host, parts, comps = self._lambda_zero_instance(rows=3, seed=16)
        if fault == "no components":
            comps = []
        else:
            # the left star's center in the first part: its leaves would have
            # to beat it, but every edge between parts points forward
            left = comps[0]
            comps = [NormalPart(left.pattern, {0: 0, 1: 1, 2: 2}, left.orderings), comps[1]]
        with pytest.raises(ValueError, match=message):
            extract_product(host, parts, comps, lam=Fraction(0))

    def test_overlapping_phi_rejected(self):
        host, parts, comps = self._lambda_zero_instance(rows=3, seed=16)
        bad = [comps[0], NormalPart(comps[1].pattern, comps[0].phi, comps[0].orderings)]
        with pytest.raises(ValueError):
            extract_product(host, parts, bad, lam=Fraction(0))


def random_normal_instance(rng, p, t, forward):
    """p small-star components on 3p parts of t vertices.  Row s of each
    component induces its star; every other pair of vertices in distinct
    parts points from the lower part to the higher with probability
    ``forward``, and pairs inside a part are random."""
    stars = tuple(SMALL_STARS[kind] for kind in (StarKind.LEFT, StarKind.RIGHT, StarKind.CENTRAL))
    patterns = [rng.choice(stars) for _ in range(p)]
    part_ids = rng.sample(range(3 * p), 3 * p)
    phis = [{h: part_ids[3 * m + h] for h in range(3)} for m in range(p)]
    orderings = {q: tuple(rng.sample(range(q * t, (q + 1) * t), t)) for q in range(3 * p)}
    place = {}  # vertex -> (component, pattern vertex, row)
    for m, phi in enumerate(phis):
        for h, q in phi.items():
            for s, v in enumerate(orderings[q]):
                place[v] = (m, h, s)
    n = 3 * p * t
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            (mu, hu, su), (mv, hv, sv) = place[u], place[v]
            if u // t == v // t:
                forward_edge = rng.random() < 0.5
            elif mu == mv and su == sv:
                forward_edge = patterns[mu].has_edge(hu, hv)
            else:
                forward_edge = rng.random() < forward
            if forward_edge:
                adj[u] |= 1 << v
            else:
                adj[v] |= 1 << u
    host = core.Tournament(n, tuple(adj))
    parts = [frozenset(range(q * t, (q + 1) * t)) for q in range(3 * p)]
    comps = [
        NormalPart(patterns[m], phis[m], {q: orderings[q] for q in phis[m].values()})
        for m in range(p)
    ]
    return host, parts, comps


def compatible_rows(host, comps, m1, s1, m2, s2):
    """Every cross pair of the two rows points from the lower part to the higher."""
    row1 = [(q, comps[m1].orderings[q][s1]) for q in comps[m1].phi.values()]
    row2 = [(q, comps[m2].orderings[q][s2]) for q in comps[m2].phi.values()]
    return all(
        host.has_edge(*((v1, v2) if q1 < q2 else (v2, v1)))
        for q1, v1 in row1
        for q2, v2 in row2
    )


class TestExtractProductLexFirst:
    @given(
        st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 5),
        st.sampled_from([0.6, 0.8, 0.95, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_lex_first_oracle(self, seed, p, t, forward):
        host, parts, comps = random_normal_instance(random.Random(seed), p, t, forward)
        pairs = list(itertools.combinations(range(p), 2))
        first = next(
            (
                rows
                for rows in itertools.product(range(t), repeat=p)
                if all(compatible_rows(host, comps, a, rows[a], b, rows[b]) for a, b in pairs)
            ),
            None,
        )
        edges = sum(
            compatible_rows(host, comps, a, s1, b, s2)
            for a, b in pairs
            for s1 in range(t)
            for s2 in range(t)
        )
        if first is None:
            with pytest.raises(LambdaTooLargeError):
                extract_product(host, parts, comps, lam=Fraction(0))
            return
        res = extract_product(host, parts, comps, lam=Fraction(0))
        # the copy of the oracle's rows: each used part's vertex in its
        # component's row, parts ascending
        row_vertex = {q: comp.orderings[q][s] for comp, s in zip(comps, first)
                      for q in comp.phi.values()}
        assert res.embedding.mapping == tuple(row_vertex[q] for q in sorted(row_vertex))
        assert res.turan_gate["edges"] == edges
        assert res.embedding.validate(host, res.product)

    def test_no_compatible_rows_raises(self):
        host, parts, comps = random_normal_instance(random.Random(3), 2, 3, 0.0)
        with pytest.raises(LambdaTooLargeError,
                           match="lambda 0 is below the guarantee threshold 1/9$"):
            extract_product(host, parts, comps, lam=Fraction(0))

    @pytest.mark.parametrize("lam", [Fraction(1, 9), Fraction(1, 2)])
    def test_lambda_from_the_threshold_up_is_not_below(self, lam):
        # two 3-vertex components: the threshold is 1/((2-1)^2 * 3^2) = 1/9
        host, parts, comps = random_normal_instance(random.Random(3), 2, 3, 0.0)
        with pytest.raises(LambdaTooLargeError) as caught:
            extract_product(host, parts, comps, lam=lam)
        assert str(caught.value) == (
            f"no clique found: lambda {lam} is not below the guarantee threshold 1/9")
        assert (caught.value.lam, caught.value.threshold) == (lam, Fraction(1, 9))


class TestTuranClique:
    def test_complete_graph(self):
        g = ugraph_from_edges(5, itertools.combinations(range(5), 2))
        assert turan_clique(g, 5) == (0, 1, 2, 3, 4)

    def test_turan_graph_extremal(self):
        # complete 3-partite balanced graph on 9 vertices has no K_4
        classes = [range(0, 3), range(3, 6), range(6, 9)]
        edges = [
            (u, v)
            for a in range(3)
            for b in range(a + 1, 3)
            for u in classes[a]
            for v in classes[b]
        ]
        g = ugraph_from_edges(9, edges)
        assert turan_clique(g, 4) is None
        assert turan_clique(g, 3) is not None

    def test_random_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(5, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.9
            ]
            g = ugraph_from_edges(n, edges)
            p = 4
            brute = None
            for combo in itertools.combinations(range(n), p):
                if all(
                    g[a] >> b & 1 for a, b in itertools.combinations(combo, 2)
                ):
                    brute = combo
                    break
            assert (turan_clique(g, p) is None) == (brute is None)
            if brute is not None:
                assert turan_clique(g, p) == brute  # both lexicographically least
