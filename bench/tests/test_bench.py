"""Tests of the benchmark itself: inputs, re-checks, tracing, contract.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nebulab import core, regularity, stars  # noqa: E402


def build_files(workload: str, seed: int, work: Path) -> tuple[list[str], dict[str, str]]:
    work.mkdir()
    cycle = workloads.build(workload, seed, work)
    files = {p.name: p.read_text() for p in sorted(work.iterdir())}
    return [job.kind for job in cycle], files


@pytest.mark.parametrize("workload", ["search", "extraction"])
def test_one_seed_gives_identical_inputs(tmp_path, workload):
    first = build_files(workload, inputs.DEFAULT_SEED, tmp_path / "a")
    second = build_files(workload, inputs.DEFAULT_SEED, tmp_path / "b")
    held_out = build_files(workload, inputs.HELD_OUT_SEED, tmp_path / "c")
    assert first == second
    assert first[1] != held_out[1]


def test_generators_repeat_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        return (
            inputs.random_rows(9, rng),
            inputs.circulant_rows(11, rng),
            inputs.random_relabel(
                inputs.product_nebula_rows("central", inputs.random_placements(3, rng)), rng),
            inputs.victim_host(7, 30, rng),
            inputs.noise_host(7, 30, 10, rng),
            inputs.forward_block_host(4, 8, rng),
        )

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    assert all(oracles.is_tournament(rows) for rows in draw(5))


def test_product_nebula_matches_library():
    from nebulab import examples, product
    from nebulab.stars import StarKind

    for kind in ("left", "right", "central"):
        placements = [(1, 3, 5), (2, 4, 6)]
        _, t = product.build_nebula(StarKind(kind), placements)
        assert inputs.product_nebula_rows(kind, placements) == t.rows
    assert inputs.example_rows("left") == examples.left_example().rows
    assert inputs.example_rows("central") == examples.central_example().rows


def test_ordering_oracle_agrees_with_library_predicates():
    rng = random.Random(3)
    for _ in range(60):
        rows = inputs.random_rows(7, rng) if rng.random() < 0.5 else inputs.random_relabel(
            inputs.product_nebula_rows(rng.choice(("left", "right", "central")),
                                       inputs.random_placements(2, rng)), rng)
        t = core.Tournament(len(rows), rows)
        order = list(range(len(rows)))
        rng.shuffle(order)
        for kind, predicate in stars.PREDICATES.items():
            assert oracles.ordering_satisfies(rows, order, kind) == predicate(t, tuple(order))


def test_min_backward_edges_by_brute_force():
    rng = random.Random(4)
    for _ in range(10):
        rows = inputs.random_rows(6, rng)
        brute = min(
            sum(oracles.has_edge(rows, o[q], o[p]) for p, q in combinations(range(6), 2))
            for o in permutations(range(6))
        )
        assert oracles.min_backward_edges(rows) == brute
        assert oracles.score_order_backward_edges(rows) >= brute


def test_regular_pair_oracle_agrees_with_library():
    rng = random.Random(5)
    for _ in range(20):
        rows = inputs.random_rows(14, rng)
        a, b = list(range(7)), list(range(7, 14))
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            verdict = regularity.regular_pair_exact(core.Tournament(14, rows), a, b, eps)
            assert oracles.regular_pair(rows, a, b, eps) == verdict.passed


def small_jobs(work: Path) -> list[workloads.Job]:
    """A few cheap jobs covering every layer, for the tracing tests."""
    rng = random.Random(7)
    members = workloads.search_members(work)
    host = workloads.negative_host(7, "right", rng)
    host_path = inputs.write_matrix(work / "host.txt", host)
    victim = inputs.victim_host(7, 30, rng)
    victim_path = inputs.write_matrix(work / "victim.txt", victim)
    enumerate5 = workloads.Job(
        "enumerate5", lambda: len(list(core.enumerate_tournaments(5))),
        lambda count: workloads.require(count == 12, "12 classes at n=5"))
    return [
        enumerate5,
        workloads.isomorphism_job("random9", inputs.random_rows(9, rng), rng),
        workloads.classify_job(host_path, host, "right", False),
        workloads.free_job(host_path, host, members, "any"),
        workloads.verify_examples_job(),
        workloads.run_algorithm_job(victim_path, victim, "LC"),
        workloads.pipeline_job(inputs.forward_block_host(4, 8, rng), 8),
        workloads.partition_job(inputs.random_rows(24, rng), 8, 3, Fraction(1, 2), "exact"),
        workloads.exponent_job(members[-1][0], [6, 8], 3),
    ]


def test_injected_wrong_answer_is_counted(tmp_path, monkeypatch):
    """A dropped class passes the report's own checks (the class-count check
    is vacuous without --filter) but not the benchmark's."""
    written: list[str] = []
    jobs = [workloads.enumerate_out_job(tmp_path / "classes", written),
            workloads.tr_job(written, 0)]
    original = core.enumerate_tournaments
    monkeypatch.setattr(core, "enumerate_tournaments",
                        lambda n, budget=8: list(original(n, budget))[1:])
    outcomes = run.closed_loop(jobs, 0.001)
    assert outcomes.failed == 2  # the wrong count, then tr without files
    assert len(outcomes.latencies) == 2

    monkeypatch.setattr(core, "canonical_form", lambda t, budget=12: 1 / 0)
    rng = random.Random(2)
    outcomes = run.Outcomes()
    for _ in range(3):
        outcomes.run(workloads.isomorphism_job("x", inputs.random_rows(9, rng), rng))
    assert outcomes.failed == 3 and len(outcomes.latencies) == 3


def test_traced_run_is_faithful_and_counts_repeat(tmp_path):
    import nebulab.containment
    import nebulab.product
    import nebulab.structures

    originals = {
        (m, name): getattr(__import__(f"nebulab.{m}", fromlist=[name]), name)
        for m, names in tracing.LAYERS.items() for name in names
    }
    imported = (nebulab.product.backward_graph, nebulab.structures.product,
                nebulab.containment.largest_transitive)
    jobs = small_jobs(tmp_path)
    passes, first, faithful = run.traced_passes(jobs)
    assert faithful and not any(p.failed for p in passes)
    assert all(p.speed.samples for p in passes)
    _, second, faithful_again = run.traced_passes(jobs)
    assert faithful_again

    names = dict(tracing.metric_names())
    assert set(first) == set(names)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    assert first["core.enumerate_tournaments.classes"][0] == 12
    assert first["stars.find_ordering.calls"][0] == 1
    assert first["cli.main.calls"][0] == 5
    assert first["algorithm.run.phases"][0] >= 1
    assert first["containment.contains.calls"][0] >= 3
    assert 0 < first["core.share"][0] < 1

    for (m, name), fn in originals.items():
        assert getattr(__import__(f"nebulab.{m}", fromlist=[name]), name) is fn
    assert (nebulab.product.backward_graph, nebulab.structures.product,
            nebulab.containment.largest_transitive) == imported
    assert stars.find_ordering(core.cyclic_triangle(), stars.is_right_nebula_ordering) is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == {name for name, _ in tracing.metric_names()}
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(tracing.metric_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.ROUNDS)
