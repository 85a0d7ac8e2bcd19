import random

import pytest

from helpers import isomorphic
from nebulab import core, examples
from nebulab.core import backward_edges, cyclic_triangle, from_backward_edges
from nebulab.containment import Embedding
from nebulab.product import SMALL_STARS, build_nebula, extend_to_product_form, product
from nebulab.stars import (
    StarKind,
    backward_graph,
    classify_components,
    is_central_nebula_ordering,
    is_left_nebula_ordering,
    is_right_nebula_ordering,
)


class TestSmallStars:
    @pytest.mark.parametrize("kind, back", [
        (StarKind.LEFT, {(1, 0), (2, 0)}),
        (StarKind.RIGHT, {(2, 0), (2, 1)}),
        (StarKind.CENTRAL, {(1, 0), (2, 1)}),
    ])
    def test_backward_edges_under_default_order(self, kind, back):
        assert backward_edges(SMALL_STARS[kind], (0, 1, 2)) == back

    def test_left_edges(self):
        t = SMALL_STARS[StarKind.LEFT]
        assert sorted(t.edges()) == [(1, 0), (1, 2), (2, 0)]
        assert core.is_transitive(t)

    def test_right_edges(self):
        t = SMALL_STARS[StarKind.RIGHT]
        assert sorted(t.edges()) == [(0, 1), (2, 0), (2, 1)]
        assert core.is_transitive(t)

    def test_central_is_cyclic(self):
        t = SMALL_STARS[StarKind.CENTRAL]
        assert sorted(t.edges()) == [(0, 2), (1, 0), (2, 1)]
        assert not core.is_transitive(t)
        assert isomorphic(t, cyclic_triangle())

    def test_right_is_complement_reverse_of_left(self):
        left = SMALL_STARS[StarKind.LEFT]
        right = SMALL_STARS[StarKind.RIGHT]
        assert isomorphic(core.complement(left), right)
        # reversed ordering of the complement satisfies the right-star shape
        comp = core.complement(left)
        assert is_right_nebula_ordering(comp, (2, 1, 0))


class TestProduct:
    def test_single_part_identity(self):
        star = SMALL_STARS[StarKind.LEFT]
        assert product([(star, {0: 1, 1: 2, 2: 3})]) == star

    def test_two_left_stars_interleaved(self):
        star = SMALL_STARS[StarKind.LEFT]
        result = product(
            [(star, {0: 1, 1: 3, 2: 5}), (star, {0: 2, 1: 4, 2: 6})]
        )
        identity = tuple(range(result.n))
        comps = classify_components(backward_graph(result, identity), identity)
        assert sorted(
            (sorted(c.vertices), c.kind.value) for c in comps
        ) == [([0, 2, 4], "left"), ([1, 3, 5], "left")]

    def test_commutative_and_associative(self):
        star = SMALL_STARS[StarKind.LEFT]
        cstar = SMALL_STARS[StarKind.CENTRAL]
        parts = [
            (star, {0: 1, 1: 4, 2: 7}),
            (cstar, {0: 2, 1: 5, 2: 8}),
            (star, {0: 3, 1: 6, 2: 9}),
        ]
        base = product(parts)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert product(shuffled) == base

    def test_backward_union_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            star_count = rng.randint(1, 4)
            kind = rng.choice([StarKind.LEFT, StarKind.RIGHT, StarKind.CENTRAL])
            slots = list(range(1, 3 * star_count + 1))
            rng.shuffle(slots)
            placements = [
                tuple(sorted(slots[3 * i : 3 * i + 3])) for i in range(star_count)
            ]
            _, t = build_nebula(kind, placements)
            identity = tuple(range(t.n))
            back = backward_edges(t, identity)
            # one star per placement contributes exactly two backward edges
            assert len(back) == 2 * star_count
            assert from_backward_edges(t.n, identity, back) == t

    def test_slot_reuse_rejected(self):
        star = SMALL_STARS[StarKind.LEFT]
        with pytest.raises(ValueError, match="reused"):
            product([(star, {0: 1, 1: 2, 2: 3}), (star, {0: 3, 1: 4, 2: 5})])

    def test_non_injective_rejected(self):
        star = SMALL_STARS[StarKind.LEFT]
        with pytest.raises(ValueError):
            product([(star, {0: 1, 1: 1, 2: 2})])


class TestBuildNebula:
    def test_single_left_star(self):
        nebula, t = build_nebula(StarKind.LEFT, [(1, 2, 3)])
        assert t.n == 3
        assert is_left_nebula_ordering(t, (0, 1, 2))

    def test_interleaved_central(self):
        _, t = build_nebula(StarKind.CENTRAL, [(1, 3, 5), (2, 4, 6)])
        assert is_central_nebula_ordering(t, tuple(range(6)))

    def test_decreasing_slots_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            build_nebula(StarKind.LEFT, [(3, 2, 1)])

    def test_slot_reuse_rejected(self):
        with pytest.raises(ValueError, match="reuses"):
            build_nebula(StarKind.LEFT, [(1, 2, 3), (3, 4, 5)])


class TestExtendToProductForm:
    def test_left_example(self):
        t = examples.left_example()
        nebula, embedding = extend_to_product_form(
            t, examples.IDENTITY_12, StarKind.LEFT
        )
        big = nebula.build()
        assert big.n >= 15
        assert is_left_nebula_ordering(big, tuple(range(big.n)))
        m = embedding.mapping
        for u in range(12):
            for v in range(12):
                if u != v:
                    assert t.has_edge(u, v) == big.has_edge(m[u], m[v])

    def test_already_product_form_identity(self):
        _, t = build_nebula(StarKind.LEFT, [(1, 2, 3), (4, 5, 6)])
        nebula, embedding = extend_to_product_form(
            t, tuple(range(6)), StarKind.LEFT
        )
        assert nebula.build() == t
        assert embedding == Embedding(tuple(range(6)))

    def test_singleton_completion(self):
        t = core.transitive_tournament(3)
        for kind in (StarKind.LEFT, StarKind.RIGHT, StarKind.CENTRAL):
            nebula, embedding = extend_to_product_form(t, (0, 1, 2), kind)
            big = nebula.build()
            assert big.n == 9 and nebula.star_count == 3
            m = embedding.mapping
            for u in range(3):
                for v in range(3):
                    if u != v:
                        assert t.has_edge(u, v) == big.has_edge(m[u], m[v])

    def test_two_vertex_completion_right(self):
        t = from_backward_edges(2, (0, 1), [(1, 0)])
        nebula, embedding = extend_to_product_form(t, (0, 1), StarKind.RIGHT)
        big = nebula.build()
        assert is_right_nebula_ordering(big, tuple(range(big.n)))
        assert big.has_edge(embedding.mapping[1], embedding.mapping[0])

    # (kind, case) -> (placements, width, embedding of vertices 0, 1, ...):
    # every template, and a pair enclosing a singleton under a reversed ordering
    TEMPLATE_CASES = {
        ("left", "singleton"): (((1, 2, 3),), 3, (0,)),
        ("left", "pair"): (((1, 2, 3),), 3, (0, 1)),
        ("left", "star"): (((1, 2, 3),), 3, (0, 1, 2)),
        ("left", "mixed"): (((1, 5, 6), (2, 3, 4)), 6, (4, 1, 0)),
        ("right", "singleton"): (((1, 2, 3),), 3, (2,)),
        ("right", "pair"): (((1, 2, 3),), 3, (0, 2)),
        ("right", "star"): (((1, 2, 3),), 3, (0, 1, 2)),
        ("right", "mixed"): (((1, 5, 6), (2, 3, 4)), 6, (5, 3, 0)),
        ("central", "singleton"): (((1, 2, 3),), 3, (1,)),
        ("central", "pair"): (((1, 2, 3),), 3, (0, 1)),
        ("central", "star"): (((1, 2, 3),), 3, (0, 1, 2)),
        ("central", "mixed"): (((1, 5, 6), (2, 3, 4)), 6, (4, 2, 0)),
    }

    @pytest.mark.parametrize("kind,case", list(TEMPLATE_CASES))
    def test_template_placements(self, kind, case):
        kind = StarKind(kind)
        t, order = {
            "singleton": (core.transitive_tournament(1), (0,)),
            "pair": (from_backward_edges(2, (0, 1), [(1, 0)]), (0, 1)),
            "star": (SMALL_STARS[kind], (0, 1, 2)),
            "mixed": (from_backward_edges(3, (2, 1, 0), [(0, 2)]), (2, 1, 0)),
        }[case]
        nebula, embedding = extend_to_product_form(t, order, kind)
        placements, width, expected = self.TEMPLATE_CASES[kind.value, case]
        assert (nebula.kind, nebula.placements, nebula.width) == (kind, placements, width)
        assert embedding.mapping == expected
        assert embedding.validate(nebula.build(), t)

    def test_incompatible_component_rejected(self):
        t = examples.central_example()
        with pytest.raises(ValueError, match="incompatible"):
            extend_to_product_form(t, examples.IDENTITY_12, StarKind.LEFT)

    def test_oversize_star_rejected(self):
        # K_{1,3} left star cannot sit inside 3-vertex components
        t = from_backward_edges(4, tuple(range(4)), [(1, 0), (2, 0), (3, 0)])
        with pytest.raises(ValueError, match="incompatible"):
            extend_to_product_form(t, tuple(range(4)), StarKind.LEFT)

    def test_containment_via_search(self):
        from nebulab.containment import contains

        t = examples.left_example()
        nebula, _ = extend_to_product_form(t, examples.IDENTITY_12, StarKind.LEFT)
        big = nebula.build()
        assert contains(big, t) is not None
