"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` (``-s`` lets the
per-criterion lines through pytest's capture); the budgets asserted here are
wall-clock ceilings for the whole criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    blocks,
    noise_host,
    random_speed_tables,
    single_star_config,
    victim_host,
)
from nebulab import cli, core, examples, files
from nebulab.algorithm import CompletePairOutcome, ForbiddenCopyOutcome, run
from nebulab.containment import brute_force_contains, contains
from nebulab.core import (
    enumerate_tournaments,
    from_backward_edges,
    largest_transitive,
    random_tournament,
)
from nebulab.product import build_nebula, small_left_star, small_right_star
from nebulab.regularity import (
    PipelineReport,
    regular_pair_exact,
    regular_pair_sampled,
    stearns_transitive,
    strong_structure_pipeline,
    to_fraction,
)
from nebulab.stars import StarKind, is_left_nebula_ordering, is_right_nebula_ordering
from nebulab.structures import (
    CompletePair,
    NormalPart,
    TripleClass,
    WitnessTriple,
    classify_triple,
    extract_product,
    make_triple,
    verify_structure,
    witness,
)


def line(text: str) -> None:
    print(text, flush=True)


class Clock:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line(f"ACCEPTANCE {self.label}: {status} ({self.elapsed:.1f}s / {self.limit:.0f}s)")
        if exc_type is None:
            assert self.elapsed < self.limit, f"{self.label} exceeded {self.limit}s"
        return False


def test_criterion_1_bundled_example_suite():
    with Clock(60, "1 bundled-example suite"):
        checks = cli.example_checklist()
        failed = [c["check"] for c in checks if not c["passed"]]
        assert not failed, failed
        by_name = {c["check"]: c for c in checks}
        left_detail = {
            (tuple(d["vertices"]), d["kind"])
            for d in by_name["left-example-components"]["detail"]
        }
        assert left_detail == {
            ((1, 5, 9), "left"),
            ((6, 8, 11), "left"),
            ((2, 4), "general"),
            ((3, 10), "general"),
            ((7, 12), "general"),
        }
        central_detail = {
            (tuple(d["vertices"]), d["center"])
            for d in by_name["central-example-components"]["detail"]
        }
        assert central_detail == {
            ((1, 4, 8), 4),
            ((3, 5, 9), 5),
            ((2, 6, 11), 6),
            ((7, 10, 12), 10),
        }


def test_criterion_2_complement_duality():
    with Clock(30, "2 complement duality 200/200"):
        passed = 0
        for seed in range(200):
            rng = random.Random(seed)
            star_count = rng.randint(1, 5)
            slots = list(range(1, 3 * star_count + 1))
            rng.shuffle(slots)
            placements = [
                tuple(sorted(slots[3 * i : 3 * i + 3])) for i in range(star_count)
            ]
            _, t = build_nebula(StarKind.LEFT, placements)
            assert t.n <= 15
            assert is_left_nebula_ordering(t, tuple(range(t.n)))
            comp = core.complement(t)
            assert is_right_nebula_ordering(comp, tuple(reversed(range(t.n))))
            passed += 1
        assert passed == 200


def test_criterion_3_containment_oracle_equivalence():
    with Clock(300, "3 containment oracle equivalence"):
        patterns = [
            t for pn in range(1, 5) for t in enumerate_tournaments(pn)
        ]
        disagreements = 0
        checked = 0
        for hn in range(1, 7):
            for host in enumerate_tournaments(hn):
                for pattern in patterns:
                    fast = contains(host, pattern)
                    brute = brute_force_contains(host, pattern)
                    if (fast is None) != (brute is None):
                        disagreements += 1
                    if fast is not None:
                        assert fast.validate(host, pattern)
                    checked += 1
        assert disagreements == 0
        assert checked == 76 * 8


def test_criterion_4_stearns_bound_all_8_vertex_classes():
    from helpers import tr_sweep

    with Clock(300, "4 stearns bound on 6880 classes"):
        count = 0
        for t in enumerate_tournaments(8):
            count += 1
            exact = largest_transitive(t)
            assert len(exact) >= 4
            assert len(exact) == tr_sweep(t)  # subset-sweep oracle equivalence
            chain = stearns_transitive(t)
            assert len(chain) >= 4
            assert core.is_transitive(core.induced(t, chain))
        assert count == 6880


def central_pair_instance():
    """Strict (1,2)-triple with no central pattern: four S_2 vertices beat
    vertex 0 of S_1, four S_3 vertices beat vertex 1, S_2 is complete to S_3."""
    back = [(8, 0), (9, 0), (10, 0), (11, 0), (16, 1), (17, 1), (18, 1), (19, 1)]
    host = from_backward_edges(24, tuple(range(24)), back)
    return host, make_triple(range(8), range(8, 16), range(16, 24))


def left_pair_instance():
    back = [
        (8, 4), (8, 6), (9, 5), (9, 7),
        (10, 0), (11, 1), (12, 0), (13, 1),
        (16, 12), (16, 14), (17, 13), (17, 15),
        (18, 8), (19, 9), (20, 10), (21, 11),
        (20, 2), (21, 3),
    ]
    host = from_backward_edges(24, tuple(range(24)), back)
    return host, make_triple(range(8), range(8, 16), range(16, 24))


def right_pair_instance():
    """Strict (2,3)-triple with no right pattern: four S_3 vertices beat the
    first S_2 vertex, the second S_2 vertex beats four S_1 vertices, and no
    S_3 vertex beats any S_1 vertex."""
    back = [(16, 8), (17, 8), (18, 8), (19, 8), (9, 0), (9, 1), (9, 2), (9, 3)]
    host = from_backward_edges(24, tuple(range(24)), back)
    return host, make_triple(range(8), range(8, 16), range(16, 24))


KIND_QUERIES = {
    StarKind.LEFT: [(2, 1), (3, 1)],
    StarKind.RIGHT: [(2, 3), (1, 3)],
    StarKind.CENTRAL: [(1, 2), (3, 2)],
}

PAIR_INSTANCES = {
    StarKind.LEFT: (left_pair_instance, (2, 1)),
    StarKind.RIGHT: (right_pair_instance, (2, 3)),
    StarKind.CENTRAL: (central_pair_instance, (1, 2)),
}


def test_criterion_5_trichotomy_and_witness_suite():
    with Clock(120, "5 trichotomy/witness 1000 per kind"):
        for kind, queries in KIND_QUERIES.items():
            rng = random.Random(sum(map(ord, kind.value)))
            validated = 0
            pair_count = 0
            while validated < 990:
                n = rng.randint(16, 24)
                host = random_tournament(n, rng)
                verts = rng.sample(range(n), 15)
                sigma = make_triple(verts[:5], verts[5:10], verts[10:15])
                verdict = classify_triple(host, sigma, *rng.choice(queries))
                if isinstance(verdict, CompletePair):
                    assert verdict.validate(host)
                    validated += 1
                    continue
                if (verdict.i, verdict.j) not in queries:
                    # sibling verdict: still exercise its own witness pattern
                    continue
                result = witness(host, sigma, verdict)
                if isinstance(result, WitnessTriple):
                    assert result.validate(host, sigma)
                else:
                    assert result.validate(host)
                    assert 2 * len(result.a) >= min(
                        len(sigma.get(verdict.j)), len(sigma.get(verdict.l))
                    )
                    pair_count += 1
                validated += 1
            # structured instances exercising the guaranteed pair branch
            builder, query = PAIR_INSTANCES[kind]
            for _ in range(10):
                host, sigma = builder()
                verdict = classify_triple(host, sigma, *query)
                assert isinstance(verdict, TripleClass)
                assert (verdict.i, verdict.j) == query
                result = witness(host, sigma, verdict)
                assert isinstance(result, CompletePair)
                assert result.validate(host)
                assert 2 * len(result.a) >= len(sigma.get(verdict.j))
                assert 2 * len(result.b) >= len(sigma.get(verdict.l))
                validated += 1
                pair_count += 1
            assert validated >= 1000
            assert pair_count >= 10


def lambda_zero_instance(rows, seed):
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
    left, _ = small_left_star()
    right, _ = small_right_star()
    comp1 = NormalPart(left, {1: 0, 2: 1, 0: 2}, {p: orderings[p] for p in (0, 1, 2)})
    comp2 = NormalPart(right, {2: 3, 0: 4, 1: 5}, {p: orderings[p] for p in (3, 4, 5)})
    return host, parts, [comp1, comp2]


def test_criterion_6_product_extraction_lambda_zero():
    with Clock(60, "6 product extraction 50/50"):
        for seed in range(50):
            rows = 3 + seed % 4
            host, parts, comps = lambda_zero_instance(rows, seed)
            cert = verify_structure(host, parts, Fraction(1, 6), Fraction(0))
            assert cert.passed
            res = extract_product(host, parts, comps, lam=Fraction(0))
            assert res.product.tournament.n == 6
            assert res.embedding.validate(host, res.product.tournament)
            gate = res.turan_gate
            assert gate["edges"] >= gate["bound"]
            assert gate["epsilon"] < Fraction(1, (2 - 1) ** 2)


def test_criterion_7_main_algorithm_runs():
    with Clock(300, "7 main algorithm 50 seeded runs"):
        lam = Fraction(3, 10)
        for seed in range(50):
            if seed % 2 == 0:
                host = noise_host(7, 30, span=10, seed=seed)
            else:
                rng = random.Random(seed)
                b, d = random_speed_tables(7, rng)
                host = victim_host(7, 30, b, d, seed=seed)
            parts = blocks(7, 30)
            config = single_star_config("LR", 7, 30, lam)
            result = run(host, parts, config)
            assert result.phases <= config.phase_bound() == 2 * 3 * 35 * config.capacity
            if isinstance(result.outcome, CompletePairOutcome):
                assert result.outcome.pair.validate(host)
            elif isinstance(result.outcome, ForbiddenCopyOutcome):
                assert result.outcome.embedding.validate(host, result.outcome.pattern)
            else:
                pytest.fail(f"unexpected outcome {result.outcome}")


def brute_force_pair_check(host, a, b, eps) -> bool:
    eps = to_fraction(eps)
    num, den = eps.numerator, eps.denominator
    a, b = sorted(a), sorted(b)
    na, nb = len(a), len(b)
    ab = na * nb
    e0 = sum(1 for u in a for v in b if host.has_edge(u, v))
    rows = [[1 if host.has_edge(u, v) else 0 for v in b] for u in a]
    for xmask in range(1, 1 << na):
        xs = [i for i in range(na) if xmask >> i & 1]
        if len(xs) * den < num * na:
            continue
        counts = [sum(rows[i][j] for i in xs) for j in range(nb)]
        x = len(xs)
        for ymask in range(1, 1 << nb):
            ys = [j for j in range(nb) if ymask >> j & 1]
            if len(ys) * den < num * nb:
                continue
            e1 = sum(counts[j] for j in ys)
            y = len(ys)
            if abs(e1 * ab - e0 * x * y) * den > num * x * y * ab:
                return False
    return True


def test_criterion_8_regularity_suite():
    with Clock(300, "8 regularity suite"):
        rng = random.Random(88)
        for trial in range(100):
            host = random_tournament(16, rng)
            a = rng.sample(range(16), 8)
            b = [v for v in range(16) if v not in a][:8]
            for eps in (Fraction(1, 4), Fraction(1, 2)):
                fast = regular_pair_exact(host, a, b, eps)
                assert fast.passed == brute_force_pair_check(host, a, b, eps)
                sampled = regular_pair_sampled(host, a, b, eps, trials=60, seed=trial)
                if not sampled.passed:
                    assert not fast.passed  # no false Fail
        # engineered P=2 pipeline instance
        host = random.Random(5)
        from helpers import forward_block_host

        host = forward_block_host(4, 8, seed=5)
        report = strong_structure_pipeline(
            host, [], [range(i * 8, (i + 1) * 8) for i in range(4)],
            core.cyclic_triangle(), p_target=2,
            lam=Fraction(1, 4), eta=Fraction(1, 4),
        )
        assert isinstance(report, PipelineReport)
        finals = report.finals
        assert len({len(f) for f in finals}) == 1  # equal final sizes
        keep = 1 - Fraction(1, 4)
        for i, first in enumerate(finals):
            for second in finals[i + 1:]:
                for v in first:  # per-vertex forward density
                    assert sum(host.has_edge(v, u) for u in second) >= keep * len(second)
                for v in second:  # per-vertex backward density
                    assert sum(host.has_edge(u, v) for u in first) >= keep * len(first)
        assert report.c >= Fraction(1, 8)


def test_criterion_9_byte_determinism(tmp_path, capsys):
    with Clock(120, "9 byte determinism"):
        left = tmp_path / "left.txt"
        left.write_text(files.write_matrix(examples.left_example()))
        c3 = tmp_path / "c3.txt"
        c3.write_text(files.write_matrix(core.cyclic_triangle()))
        rng = random.Random(1)
        b, d = random_speed_tables(7, rng)
        victim = tmp_path / "victim.txt"
        victim.write_text(files.write_matrix(victim_host(7, 30, b, d, seed=1)))
        out_dir = tmp_path / "enum"
        invocations = [
            ["classify", str(left), "--kind", "nebula"],
            ["classify", str(c3), "--ordering", "search", "--kind", "nebula"],
            ["verify-examples"],
            ["free", str(left), str(c3)],
            ["tr", str(c3)],
            ["product", "--kind", "right", "--slots", "1,3,5;2,4,6"],
            ["complement", str(c3)],
            ["enumerate", "--n", "4", "--out", str(out_dir)],
            ["exponent", "--sizes", "6,8", "--samples", "2", "--seed", "7"],
            ["run-algorithm", str(victim), "--case", "LR", "--t", "7",
             "--part-size", "30", "--c", "1/7", "--lam", "3/10", "--seed", "3"],
        ]
        for argv in invocations:
            code1 = cli.main(list(argv))
            first = capsys.readouterr().out
            code2 = cli.main(list(argv))
            second = capsys.readouterr().out
            assert code1 == code2
            assert first == second, argv
            json.loads(first)  # schema-parsable
