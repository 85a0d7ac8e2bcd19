import hashlib
import random
from fractions import Fraction
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_labeled_tournaments,
    definition_module,
    is_module,
    isomorphic,
    loop_pair_check,
    relabel,
    tr_sweep,
    tuple_refine,
)
from nebulab import core, examples
from nebulab.core import (
    Tournament,
    canonical_form,
    complement,
    cyclic_triangle,
    density,
    enumerate_tournaments,
    find_module,
    find_module_exhaustive,
    from_backward_edges,
    induced,
    is_prime,
    is_transitive,
    largest_transitive,
    random_tournament,
    transitive_tournament,
)
from nebulab.errors import BudgetError
from nebulab.product import SMALL_STARS, build_nebula

def rand_t(n, seed):
    return random_tournament(n, random.Random(seed))


class TestConstruction:
    def test_backward_single_edge_closes_triangle(self):
        t = from_backward_edges(3, (0, 1, 2), [(2, 0)])
        assert t == cyclic_triangle()

    def test_no_backward_edges_is_transitive(self):
        t = from_backward_edges(4, (0, 1, 2, 3), [])
        assert t == transitive_tournament(4)
        assert is_transitive(t)

    def test_left_example_edge_list(self):
        t = examples.left_example()
        # backward edges present, 0-based translation of the bundled list
        for w, u in examples.LEFT_EXAMPLE_BACK_EDGES:
            assert t.has_edge(w, u)
        # all other pairs point forward
        back = set(examples.LEFT_EXAMPLE_BACK_EDGES)
        for u in range(12):
            for v in range(u + 1, 12):
                if (v, u) not in back:
                    assert t.has_edge(u, v)

    def test_forward_pair_rejected(self):
        with pytest.raises(ValueError, match="forward"):
            from_backward_edges(3, (0, 1, 2), [(0, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_backward_edges(3, (0, 1, 2), [(5, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_backward_edges(3, (0, 1, 2), [(2, 0), (2, 0)])

    def test_antisymmetry_validated(self):
        message = r"^pair \(0,1\) is not oriented exactly once$"
        with pytest.raises(ValueError, match=message):
            Tournament(2, (1 << 1, 1 << 0))  # both directions
        with pytest.raises(ValueError, match=message):
            Tournament(2, (0, 0))  # neither

    @pytest.mark.parametrize("n", [*range(1, 41), 210])
    def test_pair_check_matches_loop(self, n):
        # 0-3 pairs set both ways or neither way; the first bad pair is named
        rng = random.Random(n)
        for _ in range(4 if n > 40 else 12):
            rows = list(rand_t(n, rng.randrange(10**6)).rows)
            for _ in range(rng.randint(0, 3) if n > 1 else 0):
                u, v = rng.sample(range(n), 2)
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                else:
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
            try:
                Tournament(n, tuple(rows))
                message = None
            except ValueError as exc:
                message = str(exc)
            assert message == loop_pair_check(n, rows)

    @given(st.integers(1, 16), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_tournament_is_valid(self, n, seed):
        t = rand_t(n, seed)
        assert sum(t.rows[u].bit_count() for u in range(n)) == n * (n - 1) // 2

    @given(st.integers(2, 10), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_backward_round_trip(self, n, seed):
        rng = random.Random(seed)
        t = random_tournament(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        order = tuple(order)
        back = core.backward_edges(t, order)
        assert from_backward_edges(n, order, back) == t


class TestComplement:
    def test_involution_exact_equality(self):
        for seed in range(10):
            t = rand_t(9, seed)
            assert complement(complement(t)) == t

    def test_cyclic_triangle_self_complementary(self):
        assert isomorphic(cyclic_triangle(), complement(cyclic_triangle()))

    def test_transitive_complement_isomorphic(self):
        t = transitive_tournament(5)
        assert isomorphic(t, complement(t))

    def test_left_example_complement_components(self):
        # two 3-vertex right stars and three 2-vertex stars under reversal
        from nebulab.stars import StarKind, backward_graph, classify_components

        comp = complement(examples.left_example())
        rev = tuple(reversed(range(12)))
        comps = classify_components(backward_graph(comp, rev), rev)
        shapes = sorted((len(c.vertices), c.kind.value) for c in comps)
        assert shapes == [
            (2, "general"),
            (2, "general"),
            (2, "general"),
            (3, "right"),
            (3, "right"),
        ]


class TestInduced:
    def test_full_set_identity(self):
        t = rand_t(7, 3)
        assert induced(t, range(7)) == t

    def test_triangle_pair(self):
        assert sorted(induced(cyclic_triangle(), [0, 1]).edges()) == [(0, 1)]

    def test_left_example_inner_star(self):
        sub = induced(examples.left_example(), [0, 4, 8])
        # local labels 0,1,2 for originals 0,4,8: edges 4->0, 8->0, 4->8
        assert sorted(sub.edges()) == [(1, 0), (1, 2), (2, 0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced(cyclic_triangle(), [])


class TestTransitivity:
    def test_transitive_chain(self):
        assert is_transitive(transitive_tournament(6))

    def test_triangle_not_transitive(self):
        assert not is_transitive(cyclic_triangle())

    def test_left_example_has_cycle(self):
        t = examples.left_example()
        assert t.has_edge(0, 3) and t.has_edge(3, 4) and t.has_edge(4, 0)
        assert not is_transitive(t)

    def test_score_sequence_characterization(self):
        # oracle: transitive iff out-degrees are a permutation of 0..n-1
        for seed in range(40):
            t = rand_t(6, seed)
            scores = sorted(t.rows[u].bit_count() for u in range(6))
            assert is_transitive(t) == (scores == list(range(6)))


class TestLargestTransitive:
    def test_transitive_full(self):
        assert len(largest_transitive(transitive_tournament(8))) == 8

    def test_triangle_two(self):
        assert len(largest_transitive(cyclic_triangle())) == 2

    def test_bundled_examples_exact(self):
        assert len(largest_transitive(examples.left_example())) == 8
        assert len(largest_transitive(examples.central_example())) == 8

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            largest_transitive(rand_t(30, 0))

    def test_returned_set_is_transitive(self):
        for seed in range(20):
            t = rand_t(10, seed)
            assert is_transitive(induced(t, largest_transitive(t)))

    def test_sweep_oracle_agreement(self):
        for n in range(1, 8):
            for t in enumerate_tournaments(n):
                assert len(largest_transitive(t)) == tr_sweep(t)


class TestDensity:
    def test_complete_direction(self):
        t = transitive_tournament(6)
        assert density(t, [0, 1], [4, 5]) == 1
        assert density(t, [4, 5], [0, 1]) == 0

    def test_triangle_half(self):
        assert density(cyclic_triangle(), [0], [1, 2]) == Fraction(1, 2)

    def test_sum_to_one(self):
        for seed in range(20):
            t = rand_t(9, seed)
            a, b = [0, 2, 5], [1, 3, 8]
            assert density(t, a, b) + density(t, b, a) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            density(cyclic_triangle(), [0, 1], [1, 2])


class TestCanonicalForms:
    def test_relabelled_triangle(self):
        assert isomorphic(cyclic_triangle(), relabel(cyclic_triangle(), [2, 0, 1]))

    def test_triangle_vs_chain(self):
        assert not isomorphic(cyclic_triangle(), transitive_tournament(3))

    def test_four_vertex_class_count(self):
        forms = {canonical_form(t) for t in all_labeled_tournaments(4)}
        assert len(forms) == 4

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_relabelling_invariance(self, n, seed):
        rng = random.Random(seed)
        t = random_tournament(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(t) == canonical_form(relabel(t, perm))

    def test_budget(self):
        with pytest.raises(BudgetError):
            canonical_form(rand_t(13, 0))

    @pytest.mark.parametrize("t, encoding", [
        (cyclic_triangle(), "0305"),
        (transitive_tournament(4), "0400"),
        (examples.left_example(), "0c004418840041202803"),
        (examples.central_example(), "0c02a111010100404004"),
        (rand_t(9, 2014), "090cd507190b"),
    ])
    def test_bytes_pinned(self, t, encoding):
        # the encoding orders enumerate's classes, so it picks which class
        # lands in which enumerate --out file
        assert canonical_form(t) == bytes.fromhex(encoding)


def _circulant(n, rng):
    steps = [s if rng.random() < 0.5 else n - s for s in range(1, (n - 1) // 2 + 1)]
    return Tournament(n, tuple(sum(1 << (i + s) % n for s in steps) for i in range(n)))


def _product_nebula(stars, rng):
    slots = list(range(1, 3 * stars + 1))
    rng.shuffle(slots)
    placements = [tuple(sorted(slots[3 * i : 3 * i + 3])) for i in range(stars)]
    kind = rng.choice(sorted(SMALL_STARS, key=lambda k: k.value))
    return build_nebula(kind, sorted(placements))[1]


def _flip(t, u, v):
    rows = list(t.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Tournament(t.n, tuple(rows))


def _regular_asymmetric(n, rng):
    """A circulant with one directed triangle reversed: every score stays
    (n-1)/2, so refinement alone cannot split the vertices."""
    t = _circulant(n, rng)
    while True:
        u, v, w = rng.sample(range(n), 3)
        if t.has_edge(u, v) and t.has_edge(v, w) and t.has_edge(w, u):
            return _flip(_flip(_flip(t, u, v), v, w), w, u)


class TestIsomorphismOracle:
    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def digraph(t):
            g = nx.DiGraph()
            g.add_nodes_from(range(t.n))
            g.add_edges_from(t.edges())
            return g

        rng = random.Random(2014)
        hosts = [random_tournament(n, rng) for n in (9, 10, 11, 12) for _ in range(10)]
        hosts += [_product_nebula(stars, rng) for stars in (3, 4) for _ in range(5)]
        hosts += [_circulant(n, rng) for n in (9, 11) for _ in range(5)]
        hosts += [_regular_asymmetric(n, rng) for n in (9, 11) for _ in range(5)]
        for a in hosts:
            perm = list(range(a.n))
            rng.shuffle(perm)
            relabelled = relabel(a, perm)
            u, v = rng.sample(range(a.n), 2)
            for b in (relabelled, _flip(relabelled, u, v)):
                same_form = canonical_form(a) == canonical_form(b)
                assert same_form == nx.is_isomorphic(digraph(a), digraph(b))


def _random_cells(n, rng):
    """A random ordered partition of range(n), as cell bitmasks."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
    bounds = [0, *cuts, n]
    return [core.vertex_mask(vertices[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestRefinementOracle:
    def test_packed_signatures_agree_with_tuples(self):
        rng = random.Random(2014)
        hosts = [random_tournament(n, rng) for n in range(1, 13) for _ in range(20)]
        hosts += [_circulant(n, rng) for n in (5, 7, 9, 11) for _ in range(5)]
        hosts += [_regular_asymmetric(n, rng) for n in (5, 7, 9, 11) for _ in range(5)]
        for t in hosts:
            for cells in ([(1 << t.n) - 1], *(_random_cells(t.n, rng) for _ in range(5))):
                assert core._refine(t.rows, cells) == tuple_refine(t.rows, cells)


class TestEnumeration:
    def test_class_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_tournaments(n)) == count

    def test_brute_force_counts_small(self):
        for n in range(2, 6):
            brute = {canonical_form(t) for t in all_labeled_tournaments(n)}
            assert sum(1 for _ in enumerate_tournaments(n)) == len(brute)

    def test_brute_force_count_six(self):
        # all 2^15 labeled tournaments on six vertices, ~6 s
        brute = {canonical_form(t) for t in all_labeled_tournaments(6)}
        assert len(brute) == 56
        assert sum(1 for _ in enumerate_tournaments(6)) == 56

    def test_representatives_pairwise_distinct(self):
        reps = list(enumerate_tournaments(5))
        forms = [canonical_form(t) for t in reps]
        assert len(set(forms)) == len(forms)

    def test_seven_vertex_count(self):
        assert sum(1 for _ in enumerate_tournaments(7)) == 456

    def test_seven_vertex_forms_invariant_and_distinct(self):
        rng = random.Random(7)
        forms = set()
        for t in enumerate_tournaments(7):
            form = canonical_form(t)
            for _ in range(3):
                perm = list(range(7))
                rng.shuffle(perm)
                assert canonical_form(relabel(t, perm)) == form
            forms.add(form)
        assert len(forms) == 456

    @pytest.mark.parametrize("n, digest", [
        (7, "ef6ba19566eea1671ae4c4692371aa331b12f1078da66bdf6ef873928e1be581"),
        (8, "35925ba3f8bf04f5f59040b28271ddddace9bd3ed7a26d36567a0901cb5f74f6"),
    ])
    def test_stream_digest(self, n, digest):
        # pins which classes come out and in what order, hence each class_NNNNN.txt
        stream = b"".join(canonical_form(t) for t in enumerate_tournaments(n))
        assert hashlib.sha256(stream).hexdigest() == digest

    def test_regular_classes_kept(self):
        # every vertex of a regular class ties for top score
        for n, count in ((5, 1), (7, 3)):
            regular = [t for t in enumerate_tournaments(n)
                       if all(row.bit_count() == (n - 1) // 2 for row in t.rows)]
            assert len(regular) == count

    def test_only_top_score_extensions_searched(self, monkeypatch):
        searched = []
        real = core._canonical_columns
        monkeypatch.setattr(core, "_canonical_columns", lambda rows: searched.append(1) or real(rows))
        assert sum(1 for _ in enumerate_tournaments(7)) == 456
        # searching every one-vertex extension of the classes on 1..6 vertices takes 4,054,
        # the top-score extensions alone 956; n = 8 takes 8,411 searches
        assert len(searched) == 643

    def test_budget(self):
        with pytest.raises(BudgetError):
            next(enumerate_tournaments(9))


class TestModules:
    def test_transitive_triple_has_module(self):
        module = find_module(transitive_tournament(3))
        assert module in (frozenset({0, 1}), frozenset({1, 2}))
        assert not is_prime(transitive_tournament(3))

    def test_bundled_examples_prime(self):
        for t in (examples.left_example(), examples.central_example()):
            assert is_prime(t)
            assert find_module_exhaustive(t) is None

    def test_module_is_homogeneous(self):
        for seed in range(30):
            t = rand_t(8, seed)
            module = find_module(t)
            if module is None:
                continue
            outside = set(range(8)) - module
            for w in outside:
                to_all = all(t.has_edge(w, v) for v in module)
                from_all = all(t.has_edge(v, w) for v in module)
                assert to_all or from_all

    def test_closure_matches_exhaustive(self):
        # each pair's closure is the smallest module holding it, the full set included
        for n in range(2, 7):
            for t in enumerate_tournaments(n):
                modules = [mask for mask in range(1, 1 << n) if is_module(t, mask)]
                for u in range(n):
                    for v in range(u + 1, n):
                        pair = 1 << u | 1 << v
                        smallest = min((m for m in modules if m & pair == pair), key=int.bit_count)
                        assert core._module_closure(t, u, v) == smallest
                assert (find_module(t) is None) == (find_module_exhaustive(t) is None)
        for seed in range(40):
            t = rand_t(8, seed)
            assert (find_module(t) is None) == (find_module_exhaustive(t) is None)


def planted_module(n: int, block: int, seed: int) -> Tournament:
    """A random host on n - block + 1 vertices with one vertex substituted by a
    transitive block of ``block`` vertices, relabelled at random: the block is a
    module.  A block of two is a duplicated vertex."""
    rng = random.Random(seed)
    host = random_tournament(n - block + 1, rng)
    # the block is host vertex 0 and the new vertices host.n..n-1
    image = [0 if v >= host.n else v for v in range(n)]
    rows = [0] * n
    for a in range(n):
        for b in range(n):
            in_block = image[a] == image[b] == 0
            if a != b and (a < b if in_block else host.has_edge(image[a], image[b])):
                rows[a] |= 1 << b
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Tournament(n, tuple(rows)), perm)


class TestExhaustiveModuleOracle:
    """find_module_exhaustive returns the same set as the per-subset scan."""

    def test_every_small_class(self):
        for n in range(1, 7):
            for t in enumerate_tournaments(n):
                assert find_module_exhaustive(t) == definition_module(t)

    def test_random_hosts(self):
        rng = random.Random(23)
        for _ in range(200):
            t = random_tournament(rng.randint(2, 12), rng)
            assert find_module_exhaustive(t) == definition_module(t)

    def test_planted_modules(self):
        for n in range(4, 13):
            for block in range(2, n):
                t = planted_module(n, block, seed=100 * n + block)
                module = find_module_exhaustive(t)
                assert module is not None and module == definition_module(t)

    def test_budget_edge(self):
        t = rand_t(core.MODULE_SEARCH_BUDGET, 16)
        assert find_module_exhaustive(t) == definition_module(t)
