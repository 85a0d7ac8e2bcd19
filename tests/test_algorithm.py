import itertools
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    blocks,
    definition_monochromatic_clique,
    extraction_columns,
    forward_block_host,
    matching_host,
    noise_host,
    random_speed_tables,
    relabel,
    single_star_config,
    victim_host,
)
from nebulab import algorithm, core
from nebulab.algorithm import (
    CASES,
    AlgorithmConfig,
    CompletePairOutcome,
    ForbiddenCopyOutcome,
    NoCliqueOutcome,
    check_state,
    color_hyperedges,
    find_monochromatic_clique,
    find_strong_structure,
    initial_state,
    nonsaturation_extract,
    run,
    run_phase,
    subset_rank,
)
from nebulab.containment import Embedding, contains_in_parts
from nebulab.errors import InvariantError, NebulabError, ParseError
from nebulab.product import SMALL_STARS, PlacementNebula
from nebulab.stars import StarKind
from nebulab.structures import CENTERED_IN, classify_triple, verify_structure

LAM = Fraction(3, 10)


def uniform_tables(t_parts, b, d):
    table_b = {(a, bb): b for a in range(t_parts) for bb in range(a + 1, t_parts)}
    table_d = {(a, bb): d for a in range(t_parts) for bb in range(a + 1, t_parts)}
    return table_b, table_d


class TestConfig:
    def test_capacity_and_bound(self):
        cfg = single_star_config("LR", 7, 30, LAM)
        assert cfg.capacity == 1
        assert cfg.phase_bound() == 2 * 3 * 35

    def test_subset_rank_is_lex_index(self):
        # trace records name a clique by its index among all C(t, k) subsets
        for t in range(1, 10):
            for k in range(t + 1):
                subsets = list(itertools.combinations(range(t), k))
                for s in subsets:
                    assert subset_rank(s, t) == subsets.index(s)

    def test_case_nebula_kinds_enforced(self):
        neb = {
            StarKind.LEFT: PlacementNebula(StarKind.LEFT, ((1, 2, 3),), 3),
            StarKind.CENTRAL: PlacementNebula(StarKind.CENTRAL, ((1, 2, 3),), 3),
        }
        with pytest.raises(ValueError):
            AlgorithmConfig("LR", neb, 3, 7, 30, Fraction(1, 7), LAM)

    def test_slots_must_fit_width(self):
        spec = CASES["LR"]
        neb = {
            spec.white: PlacementNebula(spec.white, ((1, 2, 4),), 4),
            spec.black: PlacementNebula(spec.black, ((1, 2, 3),), 3),
        }
        with pytest.raises(ValueError):
            AlgorithmConfig("LR", neb, 3, 7, 30, Fraction(1, 7), LAM)

    def test_lambda_warning_only_for_multi_star(self):
        cfg = single_star_config("LR", 7, 30, LAM)
        assert cfg.lambda_warning() is None

    def test_tables_follow_the_centered_in_rule(self):
        # an (i,j)-verdict promises the star centered in S_j: the query's own
        # j is white, its sibling l = 6 - i - j black
        for spec in CASES.values():
            i, j = spec.query
            assert (spec.white, spec.black) == (CENTERED_IN[j], CENTERED_IN[6 - i - j])
        # that star's backward edges under (0, 1, 2) both meet vertex j - 1
        for j, kind in CENTERED_IN.items():
            edges = core.backward_edges(SMALL_STARS[kind], (0, 1, 2))
            assert len(edges) == 2 and all(j - 1 in edge for edge in edges)


def _run_on_forward_blocks(parts):
    run(forward_block_host(3, 4, seed=5), parts, single_star_config("LR", 3, 4, LAM))


FORWARD_BLOCKS = blocks(3, 4)


class TestInputRules:
    """Each input rule has one home in the library and raises ParseError,
    which the CLI maps to exit 2."""

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: PlacementNebula(StarKind.LEFT, ((1, 2, 3, 4),), 4), "three slots"),
            (lambda: PlacementNebula(StarKind.LEFT, ((2, 1, 3),), 3), "increasing"),
            (lambda: PlacementNebula(StarKind.LEFT, ((1, 2, 3), (3, 4, 5)), 5), "reuses"),
            (lambda: PlacementNebula(StarKind.LEFT, ((1, 2, 9),), 3), "slot universe 1..3"),
            (lambda: single_star_config("LR", 2, 30, LAM), "k <= t"),
            (lambda: single_star_config("LR", 7, 30, 1), "0 <= lambda < 1"),
            (lambda: single_star_config("LR", 7, 30, Fraction(-1, 10)), "0 <= lambda < 1"),
            (lambda: _run_on_forward_blocks(FORWARD_BLOCKS[:2]), "2 parts, not t = 3"),
            (
                lambda: _run_on_forward_blocks(FORWARD_BLOCKS[:2] + [frozenset({8, 9, 10})]),
                "W = 4",
            ),
            (
                lambda: _run_on_forward_blocks(FORWARD_BLOCKS[:2] + [frozenset({7, 8, 9, 10})]),
                "disjoint",
            ),
            (
                lambda: _run_on_forward_blocks(FORWARD_BLOCKS[::-1]),
                r"strong verification: pair-density \(i=0, j=1, d=0\)",
            ),
        ],
    )
    def test_rule_raises_parse_error(self, build, match):
        with pytest.raises(ParseError, match=match) as info:
            build()
        assert isinstance(info.value, NebulabError)
        assert isinstance(info.value, ValueError)


class TestColoring:
    def test_uniform_white(self):
        b, d = uniform_tables(4, 2, 5)
        host = victim_host(4, 30, b, d, seed=0)
        cfg = single_star_config("LR", 4, 30, LAM, c=Fraction(1, 4))
        coloring = color_hyperedges(host, [core.vertex_mask(p) for p in blocks(4, 30)], cfg)
        assert all(entry[0] == "white" for entry in coloring.values())

    def test_uniform_black(self):
        b, d = uniform_tables(4, 3, 2)
        host = victim_host(4, 30, b, d, seed=0)
        cfg = single_star_config("LR", 4, 30, LAM, c=Fraction(1, 4))
        coloring = color_hyperedges(host, [core.vertex_mask(p) for p in blocks(4, 30)], cfg)
        assert all(entry[0] == "black" for entry in coloring.values())

    def test_uncolored_carries_valid_pair(self):
        host = noise_host(3, 10, span=3, seed=1)
        cfg = single_star_config("LR", 3, 10, LAM, c=Fraction(1, 3))
        coloring = color_hyperedges(host, [core.vertex_mask(p) for p in blocks(3, 10)], cfg)
        label, payload = coloring[(0, 1, 2)]
        assert label == "uncolored"
        assert payload.validate(host)

    def test_stops_at_first_uncolored(self, monkeypatch):
        # every part 3 -> part 4 edge forward: no vertex of part 4 covers part
        # 3, so (0, 3, 4) is the lex-first uncolored triple
        b, d = uniform_tables(5, 2, 5)
        rows = list(victim_host(5, 30, b, d, seed=0).rows)
        for u in range(90, 120):
            for v in range(120, 150):
                rows[u] |= 1 << v
                rows[v] &= ~(1 << u)
        host = core.Tournament(150, tuple(rows))
        cfg = single_star_config("LR", 5, 30, LAM, c=Fraction(1, 5))
        sets = [core.vertex_mask(p) for p in blocks(5, 30)]
        full = {
            edge: classify_triple(host, tuple(sets[p] for p in edge), *CASES["LR"].query)
            for edge in itertools.combinations(range(5), 3)
        }
        calls = []

        def counting(*args):
            calls.append(args)
            return classify_triple(*args)

        monkeypatch.setattr(algorithm, "classify_triple", counting)
        coloring = color_hyperedges(host, sets, cfg)
        prefix = list(itertools.combinations(range(5), 3))[:6]
        assert list(coloring) == prefix and prefix[-1] == (0, 3, 4)
        assert len(calls) == 6
        assert [entry[1] for entry in coloring.values()] == [full[e] for e in prefix]
        assert [entry[0] for entry in coloring.values()] == ["white"] * 5 + ["uncolored"]
        outcome, record = run_phase(host, initial_state(blocks(5, 30)), cfg)
        assert record == {"phase": 0, "action": "state-0", "edge": [0, 3, 4]}
        assert outcome.pair == full[(0, 3, 4)]

    @pytest.mark.parametrize("emptied, named", [({4}, 4), ({2, 5}, 2)])
    def test_emptied_part_named(self, monkeypatch, emptied, named):
        host = noise_host(7, 30, span=10, seed=5)
        cfg = single_star_config("LR", 7, 30, LAM)
        sets = [0 if p in emptied else core.vertex_mask(part)
                for p, part in enumerate(blocks(7, 30))]
        monkeypatch.setattr(algorithm, "classify_triple", None)  # checked before any triple
        with pytest.raises(InvariantError, match=f"part {named} emptied"):
            color_hyperedges(host, sets, cfg)


class TestMonochromaticClique:
    def test_all_white_first_subset(self):
        coloring = {e: ("white", None) for e in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]}
        assert find_monochromatic_clique(coloring, 4, 3) == ((0, 1, 2), "white")

    def test_k3_any_edge(self):
        coloring = {(0, 1, 2): ("black", None)}
        assert find_monochromatic_clique(coloring, 3, 3) == ((0, 1, 2), "black")

    def test_prefers_white(self):
        coloring = {
            (0, 1, 2): ("black", None),
            (0, 1, 3): ("white", None),
            (0, 2, 3): ("white", None),
            (1, 2, 3): ("white", None),
        }
        # k=3: first white edge wins even though a black edge is lex-earlier
        assert find_monochromatic_clique(coloring, 4, 3) == ((0, 1, 3), "white")

    def test_brute_force_agreement(self):
        rng = random.Random(7)
        for _ in range(30):
            coloring = {
                e: (rng.choice(["white", "black"]), None)
                for e in itertools.combinations(range(7), 3)
            }
            got = find_monochromatic_clique(coloring, 7, 4)
            assert got == definition_monochromatic_clique(coloring, 7, 4)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_definition(self, data):
        t = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(1, min(t, 6)))
        white_share = data.draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        coloring = {
            e: ("white" if rng.random() < white_share else "black", None)
            for e in itertools.combinations(range(t), 3)
        }
        got = find_monochromatic_clique(coloring, t, k)
        assert got == definition_monochromatic_clique(coloring, t, k)
        if k <= 2:  # no triple inside: the first subset qualifies
            assert got == (tuple(range(k)), "white")

    def test_none_when_mixed(self):
        coloring = {
            (0, 1, 2): ("white", None),
            (0, 1, 3): ("black", None),
            (0, 2, 3): ("black", None),
            (1, 2, 3): ("white", None),
        }
        assert find_monochromatic_clique(coloring, 4, 4) is None


class TestRunPhase:
    def test_single_step_appends_and_shrinks(self):
        b, d = uniform_tables(7, 2, 5)
        host = victim_host(7, 30, b, d, seed=3)
        cfg = single_star_config("LR", 7, 30, LAM)
        state = initial_state(blocks(7, 30))
        before = sum(s.bit_count() for s in state.sets)
        outcome, record = run_phase(host, state, cfg)
        assert outcome is None
        assert record["action"] == "append"
        assert sum(s.bit_count() for s in state.sets) == before - 3
        assert state.used.bit_count() == 3
        check_state(host, state, cfg)

    def test_append_stores_one_vector(self):
        b, d = uniform_tables(7, 2, 5)
        host = victim_host(7, 30, b, d, seed=3)
        cfg = single_star_config("LR", 7, 30, LAM)
        state = initial_state(blocks(7, 30))
        assert state.vectors == {}
        _, record = run_phase(host, state, cfg)
        assert record["action"] == "append"
        kind, clique = StarKind(record["kind"]), tuple(record["clique"])
        assert list(state.vectors) == [(kind, clique)]
        assert state.vectors[kind, clique] == [[tuple(record["witness"])]]
        assert record["entry"] == [kind.value, subset_rank(clique, 7), 0]

    def test_all_uncolored_state_zero(self):
        host = noise_host(3, 10, span=3, seed=2)
        cfg = single_star_config("LR", 3, 10, LAM, c=Fraction(1, 3))
        state = initial_state(blocks(3, 10))
        outcome, record = run_phase(host, state, cfg)
        assert isinstance(outcome, CompletePairOutcome)
        assert outcome.state_label == 0
        assert outcome.pair.validate(host)

    def test_saturated_vector_hands_off_to_extraction(self):
        # B=3, D=15 keeps every coverage union far enough above half that the
        # first append's deletions do not un-color any edge
        b, d = uniform_tables(7, 3, 15)
        host = victim_host(7, 30, b, d, seed=4)
        cfg = single_star_config("LR", 7, 30, LAM)
        state = initial_state(blocks(7, 30))
        outcome, _ = run_phase(host, state, cfg)
        assert outcome is None
        outcome, record = run_phase(host, state, cfg)
        assert record["action"] == "saturated"
        assert isinstance(outcome, ForbiddenCopyOutcome)
        assert outcome.pattern == cfg.nebulae[outcome.kind].build()
        assert outcome.embedding.validate(host, outcome.pattern)


class TestNonsaturationExtract:
    def _planted_state(self, star_kind, star_count, cap):
        """Stacked star copies with all-forward cross relations, loaded into
        a saturated vector by hand."""
        k = 3 * star_count
        t_parts = k
        rows_per_slot = cap
        w = rows_per_slot + 2
        n = t_parts * w
        star = SMALL_STARS[star_kind]
        adj = [0] * n

        def vid(part, pos):
            return part * w + pos

        for u in range(n):
            for v in range(u + 1, n):
                pu, ru = divmod(u, w)
                pv, rv = divmod(v, w)
                if pu == pv or ru != rv or ru >= cap:
                    adj[u] |= 1 << v
                    continue
                slot_u, star_u = pu % 3, pu // 3
                slot_v, star_v = pv % 3, pv // 3
                if star_u != star_v or star.has_edge(slot_u, slot_v):
                    adj[u] |= 1 << v
                else:
                    adj[v] |= 1 << u

        host = core.Tournament(n, tuple(adj))
        parts = blocks(t_parts, w)
        spec = CASES["LR"]
        other = spec.black if star_kind is spec.white else spec.white
        placements = tuple(
            (3 * z + 1, 3 * z + 2, 3 * z + 3) for z in range(star_count)
        )
        nebulae = {
            star_kind: PlacementNebula(star_kind, placements, k),
            other: PlacementNebula(other, ((1, 2, 3),), 3),
        }
        cfg = AlgorithmConfig(
            "LR", nebulae, k, t_parts, w, Fraction(1, t_parts + 1), Fraction(1, 2)
        )
        assert cfg.capacity == cap or cfg.capacity >= 1
        state = initial_state(parts)
        subset = tuple(range(k))
        vec = state.vectors[star_kind, subset] = [[] for _ in placements]
        for z in range(star_count):
            for r in range(cfg.capacity):
                triple = tuple(vid(3 * z + m, r) for m in range(3))
                vec[z].append(triple)
                for v in triple:
                    state.used |= 1 << v
        return host, cfg, state, subset

    def test_planted_two_star_extraction(self):
        host, cfg, state, subset = self._planted_state(StarKind.LEFT, 2, cap=1)
        outcome = nonsaturation_extract(host, state, cfg, subset, StarKind.LEFT)
        assert isinstance(outcome, ForbiddenCopyOutcome)
        assert outcome.pattern.n == 6
        assert outcome.pattern == cfg.nebulae[outcome.kind].build()
        assert outcome.embedding.validate(host, outcome.pattern)

    def test_capacity_one_minimal(self):
        host, cfg, state, subset = self._planted_state(StarKind.RIGHT, 1, cap=1)
        outcome = nonsaturation_extract(host, state, cfg, subset, StarKind.RIGHT)
        assert outcome.pattern.n == 3
        assert outcome.pattern == cfg.nebulae[outcome.kind].build()
        assert outcome.embedding.validate(host, outcome.pattern)

    def test_unsaturated_rejected(self):
        host, cfg, state, subset = self._planted_state(StarKind.LEFT, 2, cap=1)
        state.vectors[StarKind.LEFT, subset][0].pop()
        with pytest.raises(ValueError):
            nonsaturation_extract(host, state, cfg, subset, StarKind.LEFT)

    @staticmethod
    def checked_columns(monkeypatch):
        """Record, for each extraction that runs, lambda/theta and whether its
        columns pass verify_structure at (c*theta, lambda/theta)."""
        checked = []
        real = algorithm.nonsaturation_extract

        def checking(host, state, config, subset, kind):
            theta = Fraction(1, 9 * config.k * math.comb(config.t, config.k))
            columns = extraction_columns(state, config, subset, kind)
            cert = verify_structure(host, columns, config.c * theta, config.lam / theta)
            checked.append((config.lam / theta, cert.passed))
            return real(host, state, config, subset, kind)

        monkeypatch.setattr(algorithm, "nonsaturation_extract", checking)
        return checked

    def test_tight_columns_form_the_strong_structure(self, monkeypatch):
        # t = k = 3 and W = 30: theta = 1/27 and lambda = 1/30, so
        # lambda/theta = 9/10 < 1 and the check is not vacuous
        checked = self.checked_columns(monkeypatch)
        lam = Fraction(1, 30)
        for seed, share, case in itertools.product(range(3), (0.8, 1.0), CASES):
            host = matching_host(3, 30, share, seed)
            cfg = single_star_config(case, 3, 30, lam, c=Fraction(1, 3))
            run(host, blocks(3, 30), cfg)
        assert checked == [(Fraction(9, 10), True)] * 18  # every run extracts

    def test_run_columns_form_the_strong_structure(self, monkeypatch):
        checked = self.checked_columns(monkeypatch)
        hosts = [victim_host(7, 30, *random_speed_tables(7, random.Random(seed)), seed=seed)
                 for seed in range(1, 5)]
        hosts += [noise_host(7, 30, span=10, seed=seed) for seed in (1, 2)]
        for host, case in itertools.product(hosts, CASES):
            run(host, blocks(7, 30), single_star_config(case, 7, 30, LAM))
        assert checked and all(passed for _, passed in checked)


class TestRun:
    def test_block_structure_reaches_state_zero(self):
        host = noise_host(7, 30, span=10, seed=5)
        parts = blocks(7, 30)
        cfg = single_star_config("LR", 7, 30, LAM)
        result = run(host, parts, cfg)
        assert isinstance(result.outcome, CompletePairOutcome)
        assert result.outcome.state_label == 0
        assert result.outcome.pair.validate(host)

    def test_victim_host_reaches_forbidden_copy(self):
        rng = random.Random(6)
        b, d = random_speed_tables(7, rng)
        host = victim_host(7, 30, b, d, seed=6)
        parts = blocks(7, 30)
        cfg = single_star_config("LR", 7, 30, LAM)
        result = run(host, parts, cfg)
        assert result.phases <= cfg.phase_bound()
        assert isinstance(result.outcome, (CompletePairOutcome, ForbiddenCopyOutcome))

    def test_engineered_no_clique(self):
        b = {(0, 1): 3, (0, 2): 2, (0, 3): 2, (1, 2): 2, (1, 3): 2, (2, 3): 2}
        d = {(0, 1): 5, (0, 2): 5, (0, 3): 5, (1, 2): 5, (1, 3): 2, (2, 3): 5}
        host = victim_host(4, 30, b, d, seed=7)
        parts = blocks(4, 30)
        spec = CASES["LR"]
        neb = {
            spec.white: PlacementNebula(spec.white, ((1, 2, 3),), 3),
            spec.black: PlacementNebula(spec.black, ((1, 2, 3),), 3),
        }
        cfg = AlgorithmConfig("LR", neb, 4, 4, 30, Fraction(1, 4), LAM)
        result = run(host, parts, cfg)
        assert isinstance(result.outcome, NoCliqueOutcome)

    def test_all_cases_terminate_validated(self):
        rng = random.Random(8)
        b, d = random_speed_tables(7, rng)
        host = victim_host(7, 30, b, d, seed=8)
        parts = blocks(7, 30)
        for case in ("LR", "LC", "RC"):
            result = run(host, parts, single_star_config(case, 7, 30, LAM))
            assert result.phases <= 210

    def test_rc_case_forbidden_copy(self):
        b, d = uniform_tables(7, 2, 15)
        host = victim_host(7, 30, b, d, seed=40)
        cfg = single_star_config("RC", 7, 30, LAM)
        result = run(host, blocks(7, 30), cfg)
        assert isinstance(result.outcome, ForbiddenCopyOutcome)
        assert result.outcome.kind is StarKind.CENTRAL
        assert result.outcome.pattern == cfg.nebulae[StarKind.CENTRAL].build()
        assert result.outcome.embedding.validate(host, result.outcome.pattern)

    def test_multi_star_saturation_reports_honestly(self):
        # victim hosts cannot host a two-star product (stored copies are not
        # mutually forward), so the saturated extraction must surface the
        # clique failure rather than fabricate a copy
        from nebulab.errors import LambdaTooLargeError

        b, d = uniform_tables(7, 2, 15)
        host = victim_host(7, 30, b, d, seed=40)
        spec = CASES["LR"]
        nebulae = {
            spec.white: PlacementNebula(spec.white, ((1, 2, 3), (4, 5, 6)), 6),
            spec.black: PlacementNebula(spec.black, ((1, 2, 3),), 3),
        }
        cfg = AlgorithmConfig("LR", nebulae, 6, 7, 30, Fraction(1, 7), LAM)
        with pytest.raises(LambdaTooLargeError):
            run(host, blocks(7, 30), cfg)

    def test_determinism(self):
        rng = random.Random(9)
        b, d = random_speed_tables(7, rng)
        host = victim_host(7, 30, b, d, seed=9)
        parts = blocks(7, 30)
        cfg = single_star_config("LR", 7, 30, LAM)
        r1 = run(host, parts, cfg)
        r2 = run(host, parts, cfg)
        assert r1.trace == r2.trace
        assert type(r1.outcome) is type(r2.outcome)

    def test_invalid_structure_rejected(self):
        host = core.random_tournament(20, random.Random(10))
        parts = [frozenset(range(5 * i, 5 * i + 5)) for i in range(4)]
        cfg = single_star_config("LR", 4, 5, Fraction(1, 100), c=Fraction(1, 4))
        with pytest.raises(ValueError):
            run(host, parts, cfg)

    @staticmethod
    def one_append():
        """A victim host, its config, and the state after one phase that
        stored a witness triple."""
        b, d = uniform_tables(7, 2, 5)
        host = victim_host(7, 30, b, d, seed=11)
        cfg = single_star_config("LR", 7, 30, LAM)
        state = initial_state(blocks(7, 30))
        outcome, _ = run_phase(host, state, cfg)
        assert outcome is None
        return host, cfg, state

    def test_stored_vertex_outside_slot_part_enforced(self):
        host, cfg, state = self.one_append()
        ((kind, _), vec), = state.vectors.items()
        a, b, c = vec[0][0]
        vec[0][0] = (b, a, c)  # two slots' vertices swapped across parts
        with pytest.raises(InvariantError, match=re.escape(
                f"stored triple {(b, a, c)} is not a {kind.value} witness in its slot parts")):
            check_state(host, state, cfg)

    def test_stored_triple_not_inducing_star_enforced(self):
        host, cfg, state = self.one_append()
        ((kind, subset), vec), = state.vectors.items()
        a, b, c = vec[0][0]
        star = SMALL_STARS[kind]
        part = state.initial_sets[subset[cfg.nebulae[kind].placements[0][0] - 1]]
        # another vertex of the first slot's part that breaks the star
        triple = next((v, b, c) for v in core.mask_vertices(part)
                      if not Embedding((v, b, c)).validate(host, star))
        vec[0][0] = triple
        with pytest.raises(InvariantError, match=re.escape(
                f"stored triple {triple} is not a {kind.value} witness in its slot parts")):
            check_state(host, state, cfg)

    @pytest.mark.parametrize(
        "fault, message",
        [
            (None, None),
            ("stored three times", "entry (left,0,0) exceeds capacity"),
            ("stored twice", "stored triples are not vertex-disjoint"),
            ("extra used vertex", "used-vertex ledger out of sync"),
        ],
    )
    def test_state_faults_enforced(self, fault, message):
        host = core.random_tournament(90, random.Random(0))
        cfg = single_star_config("LR", 3, 30, LAM)
        assert cfg.capacity == 2
        state = initial_state(blocks(3, 30))
        triple = contains_in_parts(host, SMALL_STARS[StarKind.LEFT], state.initial_sets).mapping
        copies = {"stored three times": 3, "stored twice": 2}.get(fault, 1)
        state.vectors[StarKind.LEFT, (0, 1, 2)] = [[triple] * copies]
        state.used = core.vertex_mask(triple)
        if fault == "extra used vertex":
            state.used |= 1 << next(v for v in range(host.n) if v not in triple)
        if message is None:
            check_state(host, state, cfg)
        else:
            with pytest.raises(InvariantError, match=re.escape(message)):
                check_state(host, state, cfg)


class TestStructureFinder:
    def test_contiguous_blocks_found(self):
        host = noise_host(4, 10, span=4, seed=12)
        cert = find_strong_structure(
            host, 4, 10, Fraction(1, 4), LAM, seed=0
        )
        assert cert is not None and cert.passed
        assert verify_structure(host, cert.parts, Fraction(1, 4), LAM).passed

    def test_infeasible_returns_none(self):
        host = core.random_tournament(12, random.Random(13))
        assert find_strong_structure(host, 4, 10, Fraction(1, 4), LAM) is None

    def test_certificate_stands_in_only_for_its_own_check(self, monkeypatch):
        # run skips its strong check for a passed certificate of the same
        # parts, c and lambda on the same host, and repeats it otherwise
        host = noise_host(7, 30, span=10, seed=0)
        parts, c = blocks(7, 30), Fraction(1, 7)
        cfg = single_star_config("LR", 7, 30, LAM, c=c)
        checked = []

        def counting(host, subsets, c, lam):
            if list(subsets) == parts:
                checked.append(lam)
            return verify_structure(host, subsets, c, lam)

        monkeypatch.setattr(algorithm, "verify_structure", counting)
        cert = find_strong_structure(host, 7, 30, c, LAM)
        assert list(cert.parts) == parts and checked == [LAM]
        run(host, parts, cfg, cert)
        assert checked == [LAM]
        looser = verify_structure(host, parts, c, Fraction(2, 5))
        other = verify_structure(noise_host(7, 30, span=10, seed=2), parts, c, LAM)
        for stranger in (looser, other):
            assert stranger.passed
            run(host, parts, cfg, stranger)
        assert checked == [LAM] * 3

    @pytest.fixture
    def draws(self, monkeypatch):
        """The partitions find_strong_structure draws, in order."""
        drawn = []

        class CountingRandom(random.Random):
            def sample(self, population, k):
                drawn.append(super().sample(population, k))
                return drawn[-1]

        monkeypatch.setattr(algorithm, "random", SimpleNamespace(Random=CountingRandom))
        return drawn

    def test_no_draw_when_blocks_pass(self, draws):
        host = noise_host(4, 10, span=4, seed=12)
        parts = list(find_strong_structure(host, 3, 10, Fraction(1, 4), LAM, seed=5).parts)
        assert parts == blocks(3, 10)
        assert draws == []

    def test_kth_random_partition_returned(self, draws):
        # relabel so the structure sits on the third draw: the blocks and the
        # first two draws fail, and only three partitions are drawn
        rng = random.Random(5)
        third = [rng.sample(range(40), 30) for _ in range(3)][-1]
        perm = third + sorted(set(range(40)) - set(third))
        host = relabel(noise_host(4, 10, span=4, seed=12), perm)
        assert not verify_structure(host, blocks(3, 10), Fraction(1, 4), LAM).passed
        parts = list(find_strong_structure(host, 3, 10, Fraction(1, 4), LAM, seed=5).parts)
        assert parts == [frozenset(third[i * 10 : (i + 1) * 10]) for i in range(3)]
        assert len(draws) == 3 and draws[-1] == third
