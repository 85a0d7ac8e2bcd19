import dataclasses
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import console_checks
from helpers import (
    blocks,
    forward_block_host,
    loop_write_matrix,
    no_child_left,
    pretend_cpus,
    random_speed_tables,
    tr_sweep,
    victim_host,
    write_backedges,
)
from nebulab import algorithm, cli, containment, core, examples, regularity, stars, structures
from nebulab.errors import BudgetError
from nebulab.files import ParseError, parse_tournament, write_matrix
from nebulab.structures import CompletePair, verify_structure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


@pytest.fixture
def left_file(tmp_path):
    path = tmp_path / "left.txt"
    path.write_text(write_matrix(examples.left_example()))
    return str(path)


@pytest.fixture
def central_file(tmp_path):
    path = tmp_path / "central.txt"
    path.write_text(write_matrix(examples.central_example()))
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(write_backedges(core.cyclic_triangle(), (0, 1, 2)))
    return str(path)


class TestFiles:
    def test_matrix_round_trip(self):
        rng = random.Random(0)
        for _ in range(20):
            t = core.random_tournament(rng.randint(1, 12), rng)
            text = write_matrix(t)
            assert parse_tournament(text) == t
            assert write_matrix(parse_tournament(text)) == text

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_matrix_bytes_match_loop_writer(self, n, seed):
        t = core.random_tournament(n, random.Random(seed))
        text = write_matrix(t)
        assert text == loop_write_matrix(t)
        assert parse_tournament(text) == t

    def test_backedges_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 10)
            t = core.random_tournament(n, rng)
            order = tuple(rng.sample(range(n), n))
            text = write_backedges(t, order)
            assert parse_tournament(text) == t
            assert write_backedges(parse_tournament(text), order) == text

    def test_one_based_labels(self):
        text = "tournament 3 backedges\n1 2 3\n3 1\n"
        assert parse_tournament(text) == core.cyclic_triangle()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "tournament x matrix\n",
            "tournament 2 matrix\n01\n",
            "tournament 2 matrix\n01\n01\n",
            "tournament 2 sideways\n01\n00\n",
            "tournament 3 backedges\n1 2 3\n1 3\n",  # forward pair
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_tournament(text)


# Each body differs from the cyclic triangle's 010/001/100 in one row that
# int(row[::-1], 2) would read as the right row value, or that it would
# reject with a plain ValueError; only the row check turns it into exit 2.
MALFORMED_MATRIX_BODIES = [
    "0_1\n001\n100",
    "01+\n001\n100",
    "0 1\n001\n100",
    "01\n001\n100",
    "0100\n001\n100",
]


@pytest.mark.parametrize("bad", ["0120", "01 0", "01_0", "01\uff110"])
def test_first_non_binary_row_named(capsys, tmp_path, bad):
    # rows 2 and 4 hold a 2, an inner space, an underscore or a full-width
    # one; int(row, 2) would read the last two as binary
    text = f"tournament 4 matrix\n0111\n{bad}\n0001\n{bad[::-1]}\n"
    with pytest.raises(ParseError, match="row 2 is not 4 binary digits"):
        parse_tournament(text)
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    err = assert_clean_exit(capsys, ["tr", str(path)], 2)
    assert "row 2 is not 4 binary digits" in err


@pytest.mark.parametrize("body", MALFORMED_MATRIX_BODIES)
def test_malformed_matrix_row_exits_2(capsys, tmp_path, body):
    text = f"tournament 3 matrix\n{body}\n"
    with pytest.raises(ParseError, match="row 1 is not 3 binary digits"):
        parse_tournament(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert_clean_exit(capsys, ["tr", str(path)], 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("tournament 3 backedges\n", "backedges body needs an ordering line"),
        ("tournament 3 backedges\n1 x 3\n", "bad ordering line: '1 x 3'"),
        ("tournament 3 backedges\n1 2 3\n3\n", "bad backward edge line: '3'"),
        ("tournament 3 backedges\n1 2 3\n3 y\n", "bad backward edge line: '3 y'"),
        ("tournament -1 matrix\n", "vertex count must be positive"),
    ],
)
def test_malformed_backedges_or_count_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    err = assert_clean_exit(capsys, ["tr", str(path)], 2)
    assert err == f"parse error: {message}\n"


class TestClassifyCommand:
    def test_left_example_components(self, capsys, left_file):
        code, report = run_cli(capsys, "classify", left_file, "--kind", "nebula")
        assert code == 0
        assert report["results"]["verdict"] is True
        comps = {
            (tuple(c["vertices"]), c["kind"]) for c in report["results"]["components"]
        }
        assert ((1, 5, 9), "left") in comps
        assert ((6, 8, 11), "left") in comps
        assert ((2, 4), "general") in comps
        assert all(v["passed"] for v in report["validation"])

    def test_central_example_kind(self, capsys, central_file):
        code, report = run_cli(
            capsys, "classify", central_file, "--kind", "central"
        )
        assert code == 0 and report["results"]["verdict"] is True

    @pytest.mark.parametrize("kind", ["left", "right"])
    def test_search_without_ordering(self, capsys, c3_file, kind):
        # every ordering of C3 leaves a two-vertex or a central component
        code, report = run_cli(
            capsys, "classify", c3_file, "--ordering", "search", "--kind", kind
        )
        assert code == 0
        assert report["results"]["verdict"] is False
        assert report["results"]["ordering"] is None
        assert report["results"]["components"] == []

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a tournament\n")
        code = cli.main(["classify", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_wrong_component_kind_fails_a_check(self, capsys, monkeypatch, left_file):
        verdict = stars.nebula_verdict

        def mislabelled(*args, **kwargs):
            found = verdict(*args, **kwargs)
            first, *rest = found.components
            wrong = dataclasses.replace(first, kind=stars.StarKind.NON_STAR)
            return dataclasses.replace(found, components=(wrong, *rest))

        monkeypatch.setattr(stars, "nebula_verdict", mislabelled)
        code, report = run_cli(capsys, "classify", left_file, "--kind", "nebula")
        passed = {v["check"]: v["passed"] for v in report["validation"]}
        assert code == 1 and passed["components-rederived"] is False

    def test_galaxy_rule_matches_predicate(self):
        # random hosts and transitive hosts with a few pairs reversed, each
        # under a random ordering: the raw-edge galaxy rule is the predicate
        rng = random.Random(4)
        holds = 0
        for trial in range(4800):
            n = rng.randint(1, 10)
            if trial % 2:
                t = core.random_tournament(n, rng)
            else:
                rows = list(core.transitive_tournament(n).rows)
                for _ in range(rng.randint(0, 3) if n > 1 else 0):
                    u, v = rng.sample(range(n), 2)
                    rows[u] ^= 1 << v
                    rows[v] ^= 1 << u
                t = core.Tournament(n, tuple(rows))
            order = tuple(rng.sample(range(n), n))
            comps = stars.classify_components(stars.backward_graph(t, order), order)
            check, galaxy = cli._independent_component_check(t, order, comps)
            assert check["passed"]
            assert galaxy == stars.is_galaxy_ordering(t, order), (t.rows, order)
            holds += galaxy
        assert 1000 < holds < 3800

    def test_wrong_galaxy_verdict_fails_a_check(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "t5.txt"
        path.write_text(write_matrix(core.transitive_tournament(5)))
        verdict = stars.nebula_verdict

        def flipped(*args, **kwargs):
            found = verdict(*args, **kwargs)
            return dataclasses.replace(found, holds=not found.holds)

        monkeypatch.setattr(stars, "nebula_verdict", flipped)
        code, report = run_cli(capsys, "classify", str(path), "--kind", "galaxy")
        passed = {v["check"]: v["passed"] for v in report["validation"]}
        assert code == 1 and report["results"]["verdict"] is False
        assert passed == {"components-rederived": True, "verdict-vs-components": False}

    @pytest.mark.parametrize("kind", ["nebula", "galaxy"])
    def test_backward_path_is_no_star(self, capsys, tmp_path, kind):
        # under the identity the backward graph is the path 1-2-3-4
        t = core.from_backward_edges(4, (0, 1, 2, 3), [(1, 0), (2, 1), (3, 2)])
        path = tmp_path / "path4.txt"
        path.write_text(write_matrix(t))
        code, report = run_cli(capsys, "classify", str(path), "--kind", kind)
        assert code == 0 and report["results"]["verdict"] is False
        assert report["results"]["components"] == [
            {"vertices": [1, 2, 3, 4], "center": None, "kind": "non-star"}
        ]
        assert [v["check"] for v in report["validation"]] == [
            "components-rederived", "verdict-vs-components"]
        assert all(v["passed"] for v in report["validation"])

    def test_right_star_relabelled_central_fails_a_check(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "right6.txt"
        assert run_cli(capsys, "product", "--kind", "right", "--slots", "1,3,5;2,4,6",
                       "--out", str(path))[0] == 0
        verdict = stars.nebula_verdict

        def mislabelled(*args, **kwargs):
            found = verdict(*args, **kwargs)
            first, *rest = found.components
            assert first.kind is stars.StarKind.RIGHT
            wrong = dataclasses.replace(first, kind=stars.StarKind.CENTRAL)
            return dataclasses.replace(found, components=(wrong, *rest))

        monkeypatch.setattr(stars, "nebula_verdict", mislabelled)
        code, report = run_cli(capsys, "classify", str(path), "--kind", "right")
        passed = {v["check"]: v["passed"] for v in report["validation"]}
        assert code == 1 and passed["components-rederived"] is False


class TestVerifyExamples:
    @pytest.mark.parametrize("search", ["find_module_exhaustive", "find_module"])
    def test_reported_module_fails_primality(self, capsys, monkeypatch, search):
        # either module search alone reporting a 2-vertex module fails both entries
        monkeypatch.setattr(core, search, lambda t: frozenset({0, 1}))
        code, report = run_cli(capsys, "verify-examples")
        passed = {v["check"]: v["passed"] for v in report["validation"]}
        assert code == 1 and report["results"]["passed"] is False
        assert passed["left-example-prime"] is False and passed["central-example-prime"] is False

    def test_corrupted_example_named(self, monkeypatch):
        # flip one backward edge: the component table no longer matches
        broken = core.from_backward_edges(
            12, examples.IDENTITY_12, examples.LEFT_EXAMPLE_BACK_EDGES[:-1] + ((11, 5),)
        )
        monkeypatch.setattr(cli.examples, "left_example", lambda: broken)
        checks = cli.example_checklist()
        failed = [c["check"] for c in checks if not c["passed"]]
        assert "left-example-components" in failed


class TestOtherCommands:
    def test_tr_triangle(self, capsys, c3_file):
        code, report = run_cli(capsys, "tr", c3_file)
        assert code == 0 and report["results"]["tr"] == 2
        assert all(v["passed"] for v in report["validation"])

    def test_tr_budget_exit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "TR_BUDGET", 4)
        path = tmp_path / "t6.txt"
        path.write_text(write_matrix(core.random_tournament(6, random.Random(3))))
        code = cli.main(["tr", str(path)])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("n, caught_by", [(12, "chain-dp-agrees"), (7, "subset-sweep-agrees")])
    def test_tr_smaller_set_fails_a_check(self, capsys, tmp_path, monkeypatch, n, caught_by):
        solver = core.largest_transitive
        # drop one vertex: the set stays transitive but is no longer maximum
        monkeypatch.setattr(core, "largest_transitive",
                            lambda t: frozenset(sorted(solver(t))[1:]))
        path = tmp_path / "t.txt"
        path.write_text(write_matrix(core.random_tournament(n, random.Random(n))))
        code, report = run_cli(capsys, "tr", str(path))
        passed = {v["check"]: v["passed"] for v in report["validation"]}
        # a failing entry is the one exit rule's exit 1
        assert code == 1 and passed["set-is-transitive"] is True
        assert passed[caught_by] is False and passed["chain-dp-agrees"] is False

    def test_tr_rederivations_match_definition(self):
        rng = random.Random(4)
        for n in range(1, 10):
            for _ in range(12):
                t = core.random_tournament(n, rng)
                assert cli._sweep_tr(t.rows) == cli._chain_dp_tr(t) == tr_sweep(t)

    def test_free_transitive_vs_triangle(self, capsys, tmp_path, c3_file):
        path = tmp_path / "t5.txt"
        path.write_text(write_matrix(core.transitive_tournament(5)))
        code, report = run_cli(capsys, "free", str(path), c3_file)
        assert code == 0 and report["results"]["free"] is True

    def test_complement_twice_identity(self, capsys, tmp_path, left_file):
        out1 = tmp_path / "c1.txt"
        out2 = tmp_path / "c2.txt"
        code, _ = run_cli(capsys, "complement", left_file, "--out", str(out1))
        assert code == 0
        code, _ = run_cli(capsys, "complement", str(out1), "--out", str(out2))
        assert code == 0
        assert out2.read_text() == write_matrix(examples.left_example())

    def test_enumerate_renders_each_class_once(self, capsys, tmp_path, monkeypatch):
        # the round trip parses the very text that is written
        rendered = []
        monkeypatch.setattr(cli.files, "write_matrix", lambda t: rendered.append(t) or write_matrix(t))
        code, report = run_cli(capsys, "enumerate", "--n", "5", "--out", str(tmp_path / "out"))
        assert code == 0
        assert rendered == list(core.enumerate_tournaments(5))
        assert [Path(p).read_text() for p in report["results"]["files"]] == [
            write_matrix(t) for t in rendered
        ]

    def test_enumerate_round_trip_sees_a_wrong_render(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.files, "write_matrix", lambda t: write_matrix(core.complement(t)))
        code, report = run_cli(capsys, "enumerate", "--n", "5", "--out", str(tmp_path / "out"))
        assert code == 1
        assert {v["check"]: v["passed"] for v in report["validation"]}["round-trip"] is False

    def test_out_file_replaced_whole(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        out.write_text("x" * 1000)
        assert run_cli(capsys, "product", "--kind", "left", "--slots", "1,3,5;2,4,6",
                       "--out", str(out))[0] == 0
        assert parse_tournament(out.read_text()).n == 6
        err = assert_clean_exit(capsys, ["product", "--kind", "left", "--slots", "1,3,5;2,4,6",
                                         "--out", str(tmp_path / "missing" / "t.txt")], 2)
        assert err.startswith(f"parse error: cannot write {tmp_path / 'missing' / 't.txt'}: ")

    def test_enumerate_refuses_stale_class_files(self, capsys, tmp_path):
        out = tmp_path / "out"
        assert run_cli(capsys, "enumerate", "--n", "5", "--out", str(out))[0] == 0
        before = {p.name: p.read_text() for p in out.iterdir()}
        err = assert_clean_exit(capsys, ["enumerate", "--n", "4", "--out", str(out)], 2)
        assert "class_00004.txt" in err
        assert len(before) == 12
        assert {p.name: p.read_text() for p in out.iterdir()} == before
        # a rerun writes the same names, so it replaces its own files
        for _ in range(2):
            assert run_cli(capsys, "enumerate", "--n", "4", "--out", str(tmp_path / "n4"))[0] == 0

    def test_enumerate_prime_filter(self, capsys):
        code, report = run_cli(capsys, "enumerate", "--n", "5", "--filter", "prime")
        assert code == 0
        brute = sum(
            1
            for t in core.enumerate_tournaments(5)
            if core.find_module_exhaustive(t) is None
        )
        assert report["results"]["kept"] == brute == 3

    def test_enumerate_nebula_orderable_filter(self, capsys):
        code, report = run_cli(
            capsys, "enumerate", "--n", "5", "--filter", "nebula-orderable"
        )
        assert code == 0
        brute = sum(
            1
            for t in core.enumerate_tournaments(5)
            if any(
                stars.is_nebula_ordering(t, order) for order in itertools.permutations(range(5))
            )
        )
        assert report["results"]["total"] == 12
        assert report["results"]["kept"] == brute == 11

    def test_enumerate_count_check_sees_missing_class(self, capsys, monkeypatch):
        real = core.enumerate_tournaments
        monkeypatch.setattr(
            cli.core, "enumerate_tournaments", lambda n, budget: list(real(n, budget))[1:]
        )
        code, report = run_cli(capsys, "enumerate", "--n", "5")
        assert code == 1
        checks = {v["check"]: v for v in report["validation"]}
        assert checks["class-count-table"]["passed"] is False
        assert checks["class-count-table"]["detail"]["total_classes"] == 11

    def test_enumerate_refuses_n_above_class_table(self, capsys, monkeypatch):
        # the class table's largest n is the enumeration's budget, which
        # refuses n = 10 on the first step, before any class is extended
        calls = []
        real = core.enumerate_tournaments

        def recording(n, budget):
            calls.append((n, budget))
            return real(n, budget)

        def never(size, cols):
            pytest.fail(f"extended a class of size {size}, though n = 10 has no known class count")

        monkeypatch.setattr(cli.core, "enumerate_tournaments", recording)
        monkeypatch.setattr(core, "_rows_from_columns", never)
        err = assert_clean_exit(capsys, ["enumerate", "--n", "10"], 3)
        assert err == "budget exceeded: enumeration limited to n <= 9, got 10\n"
        assert calls == [(10, 9)]

    def test_exponent_triangle_slope(self, capsys, c3_file):
        code, report = run_cli(
            capsys, "exponent", "--family", c3_file, "--sizes", "6,9",
            "--samples", "3", "--seed", "5",
        )
        assert code == 0
        assert abs(report["results"]["slope"] - 1.0) < 1e-9


class TestExponentFailureFlags:
    """failure-flags re-derives the flagged sizes and each size's sample
    count from the failure rates, so a report that drops either fails it."""

    @pytest.fixture
    def eight_fails(self, monkeypatch):
        # every draw at n = 8 fails: rate 1, flagged, no sample kept
        real = containment.random_free_tournament

        def fail_at_eight(n, family, seed):
            return None if n == 8 else real(n, family, seed=seed)

        monkeypatch.setattr(containment, "random_free_tournament", fail_at_eight)

    def run_with(self, capsys, monkeypatch, edit):
        real = containment.empirical_eh_exponent
        monkeypatch.setattr(
            cli.containment, "empirical_eh_exponent", lambda *args: edit(real(*args))
        )
        return run_cli(capsys, "exponent", "--sizes", "6,7,8", "--samples", "3", "--seed", "2")

    def test_true_report_passes(self, capsys, monkeypatch, eight_fails):
        code, report = self.run_with(capsys, monkeypatch, lambda rep: rep)
        assert code == 0 and report["results"]["flagged_sizes"] == [8]
        assert all(c["passed"] for c in report["validation"])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rep: dataclasses.replace(rep, flagged_sizes=()),
            lambda rep: dataclasses.replace(rep, flagged_sizes=(6, 8)),
            lambda rep: dataclasses.replace(rep, samples=rep.samples[1:]),
            lambda rep: dataclasses.replace(rep, failure_rates=rep.failure_rates[:2]),
        ],
        ids=["dropped-flag", "extra-flag", "missing-sample", "missing-rate"],
    )
    def test_wrong_report_fails(self, capsys, monkeypatch, eight_fails, edit):
        code, report = self.run_with(capsys, monkeypatch, edit)
        assert code == 1
        assert {"check": "failure-flags", "passed": False} in report["validation"]

    @pytest.mark.parametrize("cpus", [2, 3, 16])
    def test_report_independent_of_cpu_count(self, capsys, monkeypatch, eight_fails, cpus):
        # the forked workers inherit the patched sampler
        argv = ["exponent", "--sizes", "6,7,8", "--samples", "3", "--seed", "2"]
        outputs = []
        for usable in (1, cpus):
            pretend_cpus(monkeypatch, usable)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["results"]["flagged_sizes"] == [8]
        assert no_child_left()


# a valid run-algorithm invocation on the cyclic triangle: three one-vertex parts
RUN_C3 = ["run-algorithm", "C3", "--case", "LR", "--t", "3", "--part-size", "1"]
# a structure file that parses but fails strong verification on C3
STRONG_FAILURE = '{"parts": [[1], [2], [3]]}'
# a run-algorithm invocation that completes: the transitive triangle, auto structure
RUN_T3 = ["run-algorithm", "T3", "--case", "LR", "--t", "3", "--part-size", "1"]


def assert_clean_exit(capsys, argv, expected):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


class TestSizeLimits:
    """Each exact solver reads its size limit from one module constant when
    it is called, so patching the constant moves the refusal."""

    @pytest.mark.parametrize(
        "module, name, argv, message",
        [
            (core, "TR_BUDGET", ["tr", "T6"],
             "exact transitive solver limited to n <= 4, got 6"),
            (core, "TR_BUDGET", ["exponent", "--sizes", "4,6", "--samples", "2"],
             "sizes exceed the exact transitive budget 4"),
            (stars, "ORDERING_SEARCH_BUDGET", ["classify", "T6", "--ordering", "search"],
             "ordering search limited to n <= 4, got 6"),
        ],
    )
    def test_command_refuses_above_constant(self, capsys, monkeypatch, tmp_path,
                                            module, name, argv, message):
        path = tmp_path / "t6.txt"
        path.write_text(write_matrix(core.random_tournament(6, random.Random(6))))
        monkeypatch.setattr(module, name, 4)
        argv = [str(path) if arg == "T6" else arg for arg in argv]
        assert assert_clean_exit(capsys, argv, 3) == f"budget exceeded: {message}\n"

    @pytest.mark.parametrize(
        "module, name, call",
        [
            (core, "TR_BUDGET", core.largest_transitive),
            (core, "CANONICAL_BUDGET", core.canonical_form),
            (core, "MODULE_SEARCH_BUDGET", core.find_module_exhaustive),
            (stars, "ORDERING_SEARCH_BUDGET",
             lambda t: stars.find_ordering(t, stars.is_nebula_ordering)),
            (stars, "ORDERING_SEARCH_BUDGET", lambda t: stars.nebula_verdict(t, "nebula")),
            (regularity, "EXACT_PAIR_BUDGET",
             lambda t: regularity.regular_pair_exact(t, range(5), range(5, 6), 1)),
            (core, "TR_BUDGET", lambda t: containment.empirical_eh_exponent([], [5, 6], 2, seed=0)),
            (containment, "BRUTE_FORCE_BUDGET",
             lambda t: containment.brute_force_contains(t, core.cyclic_triangle())),
        ],
        ids=["largest_transitive", "canonical_form", "find_module_exhaustive", "find_ordering",
             "nebula_verdict", "regular_pair_exact", "empirical_eh_exponent",
             "brute_force_contains"],
    )
    def test_solver_refuses_above_constant(self, monkeypatch, module, name, call):
        t = core.random_tournament(6, random.Random(6))
        call(t)
        monkeypatch.setattr(module, name, 4)
        with pytest.raises(BudgetError):
            call(t)


class TestCachedParser:
    """main reuses one parser; argparse's messages and defaults must not
    depend on what earlier calls in the process did."""

    def test_usage_error_after_success(self, capsys, c3_file):
        assert run_cli(capsys, "tr", c3_file)[0] == 0
        err = assert_clean_exit(capsys, ["tr"], 2)
        assert err.startswith("usage: nebulab tr [-h] [--timing] file\n")

    def test_unknown_command_lists_every_choice(self, capsys, c3_file):
        assert run_cli(capsys, "tr", c3_file)[0] == 0
        err = assert_clean_exit(capsys, ["nope"], 2)
        listed = re.search(r"choose from (.*)\)", err).group(1)
        assert {name.strip("'") for name in listed.split(", ")} == {
            "classify", "verify-examples", "free", "tr", "product", "complement",
            "run-algorithm", "exponent", "enumerate",
        }

    def test_help_repeats(self, capsys):
        pages = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["tr", "--help"])
            assert exc.value.code == 0
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[1] and pages[0].startswith("usage: nebulab tr")

    def test_family_default_not_shared(self, capsys, c3_file):
        argv = ["exponent", "--sizes", "6,8", "--samples", "2", "--seed", "3"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(capsys, *argv, "--family", c3_file)[0] == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert cli.build_parser().parse_args(argv).family == []


class TestFreeCommand:
    @pytest.fixture
    def workdir(self, capsys, tmp_path, monkeypatch):
        # relative paths, so that the report bytes do not depend on tmp_path
        monkeypatch.chdir(tmp_path)
        for n in (4, 9, 13):
            (tmp_path / f"t{n}.txt").write_text(write_matrix(core.transitive_tournament(n)))
        (tmp_path / "c3.txt").write_text(write_backedges(core.cyclic_triangle(), (0, 1, 2)))
        code, _ = run_cli(
            capsys, "product", "--kind", "left", "--slots", "1,3,5;2,4,6", "--out", "left6.txt"
        )
        assert code == 0
        return tmp_path

    @pytest.mark.parametrize(
        "host, member, check",
        [
            ("left6.txt", "c3.txt", "embedding-validates"),
            # C(9,6) * 6! = 60,480 bijections, below the 200,000 threshold
            ("t9.txt", "left6.txt", "brute-force-agrees"),
            # C(13,6) * 6! = 1,235,520, above it
            ("t13.txt", "left6.txt", "absence-noted"),
        ],
    )
    def test_validation_branch(self, capsys, workdir, host, member, check):
        code, report = run_cli(capsys, "free", host, member)
        assert code == 0
        checks = [(v["check"], v["passed"]) for v in report["validation"]]
        assert checks == [(f"{check}:{member}", True)]
        assert report["results"]["free"] is (check != "embedding-validates")

    def test_report_bytes_pinned(self, capsys, workdir):
        assert cli.main(["free", "t13.txt", "t4.txt", "c3.txt", "left6.txt"]) == 0
        pinned = (
            '{"command": "free", "config": {"host": "t13.txt", '
            '"members": ["t4.txt", "c3.txt", "left6.txt"]}, '
            '"results": {"findings": ['
            '{"contained": true, "embedding": [1, 2, 3, 4], "member": "t4.txt"}, '
            '{"contained": false, "embedding": null, "member": "c3.txt"}, '
            '{"contained": false, "embedding": null, "member": "left6.txt"}], "free": false}, '
            '"schema": "nebulab-report/1", "seed": null, "timing": null, '
            '"validation": [{"check": "embedding-validates:t4.txt", "passed": true}, '
            '{"check": "brute-force-agrees:c3.txt", "passed": true}, '
            '{"check": "absence-noted:left6.txt", '
            '"detail": "brute-force oracle above budget; exact backtracking trusted", '
            '"passed": true}]}'
        )
        expected = json.dumps(json.loads(pinned), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, env",
        [
            (["enumerate", "--n", "0"], {}),
            (["enumerate", "--n", "-1"], {}),
            (["product", "--kind", "left", "--slots", "1,2,x"], {}),
            (["product", "--kind", "left", "--slots", "1,2,3;"], {}),
            (["product", "--kind", "left", "--slots", "3,2,1"], {}),
            (["product", "--kind", "left", "--slots", "0,1,2"], {}),
            (["product", "--kind", "left", "--slots", "1,2,3;3,4,5"], {}),
            (RUN_C3 + ["--k", "0"], {}),
            (RUN_C3 + ["--t", "0"], {}),
            (RUN_C3 + ["--part-size", "0"], {}),
            (RUN_C3 + ["--lam", "abc"], {}),
            (RUN_C3 + ["--c", "abc"], {}),
            (RUN_C3 + ["--nebula-white", "1,2,9", "--k", "3"], {}),
            (RUN_C3 + ["--nebula-white", "1,2,3,4"], {}),
            (RUN_C3 + ["--nebula-white", "2,1,3"], {}),
            (RUN_C3 + ["--nebula-white", ""], {}),
            (RUN_C3 + ["--nebula-black", ""], {}),
            (RUN_C3 + ["--k", "2"], {}),
            (RUN_C3 + ["--k", "4"], {}),
            (["exponent", "--sizes", "a,b"], {}),
            (["exponent", "--sizes", "4,6", "--samples", "0"], {}),
        ],
    )
    def test_parse_exit_without_traceback(self, capsys, monkeypatch, c3_file, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = [c3_file if arg == "C3" else arg for arg in argv]
        assert_clean_exit(capsys, argv, 2)

    @pytest.mark.parametrize(
        "content",
        [
            None,  # missing file
            "not json",
            '{"blocks": [[1], [2], [3]]}',
            "[[1], [2], [3]]",
            '{"parts": [[1], [2], ["3"]]}',
            '{"parts": [[1], [2], [4]]}',
            '{"parts": [[1], [2], [0]]}',
            '{"parts": [[1], [2], []]}',
            '{"parts": [[1], [2], [2]]}',
            '{"parts": [[1], [2]]}',
            '{"parts": [[1], [2, 3], []]}',  # unequal part sizes
            STRONG_FAILURE,
        ],
    )
    def test_structure_file_parse_exit(self, capsys, tmp_path, c3_file, content):
        path = tmp_path / "structure.json"
        if content is not None:
            path.write_text(content)
        argv = [c3_file if arg == "C3" else arg for arg in RUN_C3]
        err = assert_clean_exit(capsys, argv + ["--structure", str(path)], 2)
        if content == STRONG_FAILURE:
            # the first violation: parts 1 and 3 of the cyclic triangle point backward
            assert err == ("parse error: the structure fails strong verification: "
                           "pair-density (i=0, j=2, d=0)\n")

    @pytest.mark.parametrize(
        "content", ['{"parts": [1, 2, 3]}', '{"parts": "123"}', '{"parts": [[1], 2, [3]]}']
    )
    def test_structure_parts_not_vertex_lists_exit(self, capsys, tmp_path, c3_file, content):
        path = tmp_path / "structure.json"
        path.write_text(content)
        argv = [c3_file if arg == "C3" else arg for arg in RUN_C3]
        err = assert_clean_exit(capsys, argv + ["--structure", str(path)], 2)
        assert err == f"parse error: {path} must hold a list of vertex lists under 'parts'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            RUN_T3 + ["--replay", "MISSING/trace.jsonl"],
            RUN_T3 + ["--replay", "BAD"],  # a malformed JSON line
            RUN_T3 + ["--trace", "MISSING/trace.jsonl"],
            ["product", "--kind", "left", "--slots", "1,2,3", "--out", "MISSING/p.txt"],
            ["complement", "C3", "--out", "MISSING/c.txt"],
            ["enumerate", "--n", "3", "--out", "C3"],  # names an existing file
        ],
    )
    def test_file_error_exit(self, capsys, monkeypatch, tmp_path, c3_file, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"phase": 0}\n{"phase": \n')
        t3 = tmp_path / "t3.txt"
        t3.write_text(write_matrix(core.transitive_tournament(3)))
        names = {"C3": c3_file, "T3": str(t3), "BAD": str(bad)}
        argv = [names.get(arg, arg.replace("MISSING", str(tmp_path / "none"))) for arg in argv]
        if "--replay" in argv:
            # the replay file is read before any phase runs
            monkeypatch.setattr(algorithm, "run", lambda *args: pytest.fail("phases ran"))
        err = assert_clean_exit(capsys, argv, 2)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["tr", "BAD"], ["free", "C3", "BAD"],
                                      RUN_C3 + ["--structure", "BAD"], RUN_C3 + ["--replay", "BAD"]])
    def test_non_utf8_file_exit(self, capsys, tmp_path, c3_file, argv):
        # a host, member, structure or trace file whose bytes do not decode
        # as UTF-8 cannot be read, whatever the locale
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00tournament 3 matrix\n")
        names = {"C3": c3_file, "BAD": str(bad)}
        err = assert_clean_exit(capsys, [names.get(arg, arg) for arg in argv], 2)
        assert err.startswith(f"parse error: cannot read {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["2", "1", "3/2", "-1/2"])
    def test_lambda_outside_unit_interval_exit(self, capsys, tmp_path, lam):
        # with lambda >= 1 every partition is vacuously strong, with
        # lambda < 0 none is
        host = tmp_path / "h21.txt"
        host.write_text(write_matrix(core.random_tournament(21, random.Random(0))))
        argv = ["run-algorithm", str(host), "--case", "LR", "--t", "7", "--part-size", "3",
                f"--lam={lam}"]
        err = assert_clean_exit(capsys, argv, 2)
        assert f"need 0 <= lambda < 1, got lambda = {lam}" in err

    def test_exponent_without_enough_samples_exit(self, capsys):
        assert_clean_exit(capsys, ["exponent", "--sizes", "4", "--samples", "1"], 3)

    def test_exponent_one_distinct_size_exit(self, capsys, tmp_path, monkeypatch):
        # no LEFT6-free sample is drawn at n = 24, so every sample has n = 8
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(
            capsys, "product", "--kind", "left", "--slots", "1,3,5;2,4,6", "--out", "left6.txt"
        )
        assert code == 0
        argv = ["exponent", "--family", "left6.txt", "--sizes", "8,24"]
        err = assert_clean_exit(capsys, argv, 3)
        assert err == "no data: need at least two distinct sizes\n"

    def test_auto_structure_not_found_exit(self, capsys, c3_file, monkeypatch):
        # every candidate partition of the cyclic triangle has a backward pair;
        # the 51 draws hold only 6 ordered partitions, each verified once
        checked = []
        real = algorithm.verify_structure
        monkeypatch.setattr(algorithm, "verify_structure",
                            lambda host, parts, c, lam: checked.append(tuple(parts))
                            or real(host, parts, c, lam))
        argv = ["run-algorithm", c3_file, "--case", "LR", "--t", "3", "--k", "3",
                "--part-size", "1", "--structure", "auto"]
        err = assert_clean_exit(capsys, argv, 3)
        assert err == "budget exceeded: no verifying strong structure found\n"
        assert len(checked) == len(set(checked)) <= 6


class TestRunAlgorithmCommand:
    @pytest.fixture
    def victim_file(self, tmp_path):
        rng = random.Random(12)
        b, d = random_speed_tables(7, rng)
        host = victim_host(7, 30, b, d, seed=12)
        path = tmp_path / "victim.txt"
        path.write_text(write_matrix(host))
        return str(path)

    def test_no_monochromatic_clique_payload(self, capsys, tmp_path):
        # the host of test_engineered_no_clique: every triple is colored, no
        # 4-subset is monochromatic
        b = {(0, 1): 3, (0, 2): 2, (0, 3): 2, (1, 2): 2, (1, 3): 2, (2, 3): 2}
        d = {(0, 1): 5, (0, 2): 5, (0, 3): 5, (1, 2): 5, (1, 3): 2, (2, 3): 5}
        path = tmp_path / "no-clique.txt"
        path.write_text(write_matrix(victim_host(4, 30, b, d, seed=7)))
        code, report = run_cli(
            capsys, "run-algorithm", str(path), "--case", "LR", "--k", "4", "--t", "4",
            "--part-size", "30", "--c", "1/4", "--lam", "3/10",
        )
        assert code == 0
        assert report["results"] == {
            "outcome": {"kind": "no-monochromatic-clique", "phase": 0, "white": 3, "black": 1},
            "phases": 0,
        }
        assert report["validation"] == [{"check": "phase-bound", "passed": True}]

    def test_structure_file(self, capsys, victim_file, tmp_path):
        structure = tmp_path / "structure.json"
        structure.write_text(
            json.dumps(
                {"parts": [[v + 1 for v in sorted(p)] for p in blocks(7, 30)]}
            )
        )
        code, report = run_cli(
            capsys, "run-algorithm", victim_file, "--case", "LC", "--t", "7",
            "--part-size", "30", "--c", "1/7", "--lam", "3/10",
            "--structure", str(structure),
        )
        assert code == 0

    def test_structure_file_checked_once(self, capsys, monkeypatch, victim_file, tmp_path):
        expected = blocks(7, 30)
        structure = tmp_path / "structure.json"
        structure.write_text(
            json.dumps({"parts": [[v + 1 for v in sorted(p)] for p in expected]})
        )
        checked = []

        def counting(host, subsets, c, lam):
            if [frozenset(s) for s in subsets] == expected:
                checked.append(lam)
            return verify_structure(host, subsets, c, lam)

        monkeypatch.setattr(structures, "verify_structure", counting)
        monkeypatch.setattr(algorithm, "verify_structure", counting)
        code, _ = run_cli(
            capsys, "run-algorithm", victim_file, "--case", "LR", "--t", "7",
            "--part-size", "30", "--c", "1/7", "--lam", "3/10",
            "--structure", str(structure),
        )
        assert code == 0
        assert len(checked) == 1

    def test_auto_structure_checked_once(self, capsys, monkeypatch, victim_file):
        # the search's passed certificate stands in for run's input check
        checked = []

        def counting(host, subsets, c, lam):
            if [frozenset(s) for s in subsets] == blocks(7, 30):
                checked.append(lam)
            return verify_structure(host, subsets, c, lam)

        monkeypatch.setattr(structures, "verify_structure", counting)
        monkeypatch.setattr(algorithm, "verify_structure", counting)
        code, _ = run_cli(
            capsys, "run-algorithm", victim_file, "--case", "LR", "--t", "7",
            "--part-size", "30", "--c", "1/7", "--lam", "3/10",
        )
        assert code == 0
        assert len(checked) == 1

    def test_wrong_complete_pair_fails_a_check(self, capsys, monkeypatch, tmp_path):
        # forward blocks with the cross edge 1 -> 5 reversed: the state-0 pair
        # leaves vertex 1 out, and a classifier that puts it back reports a
        # pair with that one edge pointing the wrong way
        rows = list(forward_block_host(3, 4, seed=0).rows)
        rows[0] ^= 1 << 4
        rows[4] ^= 1 << 0
        host = core.Tournament(12, tuple(rows))
        path = tmp_path / "flipped.txt"
        path.write_text(write_matrix(host))
        real = algorithm.classify_triple

        def whole_parts(host, sigma, i, j):
            verdict = real(host, sigma, i, j)
            if isinstance(verdict, CompletePair):
                parts = [frozenset(core.mask_vertices(m)) for m in sigma]
                verdict = CompletePair(*(next(p for p in parts if side <= p)
                                         for side in (verdict.a, verdict.b)))
                assert sum(host.has_edge(v, u) for u in verdict.a for v in verdict.b) == 1
            return verdict

        monkeypatch.setattr(algorithm, "classify_triple", whole_parts)
        code, report = run_cli(
            capsys, "run-algorithm", str(path), "--case", "LR", "--t", "3", "--part-size", "4",
        )
        assert code == 1
        assert report["results"]["outcome"]["kind"] == "complete-pair"
        assert {"check": "pair-complete", "passed": False} in report["validation"]

    @pytest.mark.parametrize("outside", ["n", "-1"])
    def test_pair_outside_the_host_fails_a_check(self, capsys, monkeypatch, tmp_path, outside):
        # a classifier whose state-0 pair holds a vertex outside 0..n-1: vertex
        # n has no row, and -1 read as the last vertex would beat the other side
        host = forward_block_host(3, 4, seed=0)
        path = tmp_path / "blocks.txt"
        path.write_text(write_matrix(host))
        last = host.n - 1
        beaten = next(v for v in range(host.n) if host.has_edge(last, v))
        vertex = host.n if outside == "n" else -1
        pair = CompletePair(frozenset({vertex}), frozenset({beaten}))
        monkeypatch.setattr(algorithm, "classify_triple", lambda *args: pair)
        code, report = run_cli(
            capsys, "run-algorithm", str(path), "--case", "LR", "--t", "3", "--part-size", "4",
        )
        assert code == 1
        assert report["results"]["outcome"]["kind"] == "complete-pair"
        assert {"check": "pair-complete", "passed": False} in report["validation"]

    def test_wrong_state_two_pair_fails_a_check(self, capsys, monkeypatch, tmp_path):
        # witness's lemma makes its pair complete; the CLI entry is the one check
        console_checks.make_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        real = algorithm.witness

        def reversed_pair(host, sigma, verdict):
            pair = real(host, sigma, verdict)
            assert isinstance(pair, CompletePair)
            return CompletePair(pair.b, pair.a)

        monkeypatch.setattr(algorithm, "witness", reversed_pair)
        code, report = run_cli(capsys, *shlex.split(console_checks.RUN_STATE_TWO))
        assert code == 1
        assert report["results"]["outcome"]["state"] == 2
        assert {"check": "pair-complete", "passed": False} in report["validation"]

    def test_wrong_forbidden_copy_fails_a_check(self, capsys, monkeypatch, victim_file):
        real = algorithm.run
        host = parse_tournament(Path(victim_file).read_text())
        moved = []

        def one_vertex_moved(*args):
            result = real(*args)
            outcome = result.outcome
            assert isinstance(outcome, algorithm.ForbiddenCopyOutcome)
            mapping = outcome.embedding.mapping
            spare = min(set(range(host.n)) - set(mapping))
            embedding = containment.Embedding((spare, *mapping[1:]))
            assert not embedding.validate(host, outcome.pattern)
            moved.append(spare)
            return dataclasses.replace(
                result, outcome=dataclasses.replace(outcome, embedding=embedding))

        monkeypatch.setattr(algorithm, "run", one_vertex_moved)
        code, report = run_cli(
            capsys, "run-algorithm", victim_file, "--case", "LC", "--t", "7",
            "--part-size", "30", "--c", "1/7", "--lam", "3/10",
        )
        assert code == 1 and moved
        assert {"check": "copy-validates", "passed": False} in report["validation"]

    def test_two_star_saturation_exit(self, capsys, tmp_path):
        # the host of test_multi_star_saturation_reports_honestly: the saturated
        # two-star vector has no compatible rows, and extraction ran at
        # lambda/theta = (3/10) * 378, not below the threshold 1/9
        b = {(a, c): 2 for a in range(7) for c in range(a + 1, 7)}
        d = {(a, c): 15 for a in range(7) for c in range(a + 1, 7)}
        path = tmp_path / "victim40.txt"
        path.write_text(write_matrix(victim_host(7, 30, b, d, seed=40)))
        argv = ["run-algorithm", str(path), "--case", "LR", "--k", "6", "--t", "7",
                "--part-size", "30", "--c", "1/7", "--lam", "3/10", "--seed", "3",
                "--nebula-white", "1,2,3;4,5,6", "--nebula-black", "1,2,3;4,5,6"]
        err = assert_clean_exit(capsys, argv, 4)
        assert err == ("diagnostic failure: no clique found: lambda 567/5 is not below"
                       " the guarantee threshold 1/9\n")

    def test_no_structure_exit(self, capsys, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text(write_matrix(core.random_tournament(30, random.Random(6))))
        code = cli.main(
            ["run-algorithm", str(path), "--case", "LR", "--t", "7",
             "--part-size", "30", "--c", "1/7", "--lam", "3/10"]
        )
        capsys.readouterr()
        assert code == 3


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, left_file, c3_file):
        invocations = [
            ("classify", left_file),
            ("tr", c3_file),
            ("free", left_file, c3_file),
            ("verify-examples",),
            ("enumerate", "--n", "4"),
            ("exponent", "--sizes", "6,8", "--samples", "2", "--seed", "3"),
        ]
        for argv in invocations:
            cli.main(list(argv))
            first = capsys.readouterr().out
            cli.main(list(argv))
            second = capsys.readouterr().out
            assert first == second, argv

    def test_exponent_bytes_pinned(self, capsys):
        # criterion 9's exponent invocation; each sample is seeded with
        # (seed << 64) + (n << 32) + index, not with the interpreter's tuple hash
        assert cli.main(["exponent", "--sizes", "6,8", "--samples", "2", "--seed", "7"]) == 0
        pinned = (
            '{"command": "exponent", "config": {"family": [], "samples": 2, "sizes": [6, 8]}, '
            '"results": {"band": [0.40862650285052204, 2.7764545974941544], '
            '"failure_rates": [[6, 0.0], [8, 0.0]], "flagged_sizes": [], '
            '"samples": [[6, 4], [6, 3], [8, 5], [8, 6]], "slope": 1.5925405501723382}, '
            '"schema": "nebulab-report/1", "seed": 7, "timing": null, '
            '"validation": [{"check": "slope-refit", "passed": true}, '
            '{"check": "failure-flags", "passed": true}]}'
        )
        expected = json.dumps(json.loads(pinned), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_exponent_left6_bytes_pinned(self, capsys, tmp_path, monkeypatch):
        # a family that reaches contains and the sampler's repair step
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(
            capsys, "product", "--kind", "left", "--slots", "1,3,5;2,4,6", "--out", "left6.txt"
        )
        assert code == 0
        argv = ["exponent", "--family", "left6.txt", "--sizes", "8,12,16",
                "--samples", "5", "--seed", "1"]
        assert cli.main(argv) == 0
        pinned = (
            '{"command": "exponent", "config": {"family": ["left6.txt"], "samples": 5, '
            '"sizes": [8, 12, 16]}, "results": {"band": [0.7927600319390552, 1.1929704057235084], '
            '"failure_rates": [[8, 0.0], [12, 0.0], [16, 0.8]], "flagged_sizes": [16], '
            '"samples": [[8, 5], [8, 6], [8, 6], [8, 6], [8, 5], [12, 8], [12, 9], [12, 9], '
            '[12, 8], [12, 8], [16, 11]], "slope": 0.9928652188312818}, '
            '"schema": "nebulab-report/1", "seed": 1, "timing": null, '
            '"validation": [{"check": "slope-refit", "passed": true}, '
            '{"check": "failure-flags", "passed": true}]}'
        )
        expected = json.dumps(json.loads(pinned), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected


class TestExponentWorkers:
    """exponent draws its samples on the usable CPUs.  Its report, exit code
    and stderr text are those of a serial run for any CPU count, and no
    worker outlives the call."""

    LEFT6_EXPONENT = ["exponent", "--family", "left6.txt", "--sizes", "8,12",
                      "--samples", "2", "--seed", "1"]

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked while the test runs."""
        pids = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        return pids

    @pytest.fixture
    def left6(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(
            capsys, "product", "--kind", "left", "--slots", "1,3,5;2,4,6", "--out", "left6.txt"
        )
        assert code == 0

    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    def test_pinned_bytes(self, capsys, tmp_path, monkeypatch, forks, cpus):
        # 16 is more than either invocation's 4 and 15 draws
        pretend_cpus(monkeypatch, cpus)
        pinned = TestDeterminism()
        pinned.test_exponent_bytes_pinned(capsys)
        pinned.test_exponent_left6_bytes_pinned(capsys, tmp_path, monkeypatch)
        assert len(forks) == min(cpus, 4) - 1 + min(cpus, 15) - 1
        assert no_child_left()

    def test_one_report_on_stdout(self, capsys):
        # a worker that returned into the caller would print a second report,
        # and one that flushed the caller's stdio a second copy of its line
        argv = ["exponent", "--sizes", "6,8", "--samples", "2", "--seed", "7"]
        assert cli.main(argv) == 0
        report = capsys.readouterr().out
        script = ("import os, sys; from nebulab import cli;"
                  " os.sched_getaffinity = lambda pid: set(range(4));"
                  " print('unflushed'); sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "unflushed\n" + report

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_worker_error_exits_like_serial(self, capsys, monkeypatch, left6, forks, cpus):
        # draws 2 and 3 are at n = 12; on 4 CPUs two children draw them
        real = containment.largest_transitive

        def refuse_twelve(t):
            if t.n == 12:
                raise BudgetError("no transitive search at n = 12")
            return real(t)

        monkeypatch.setattr(containment, "largest_transitive", refuse_twelve)
        pretend_cpus(monkeypatch, cpus)
        family = [parse_tournament(Path("left6.txt").read_text())]
        with pytest.raises(BudgetError, match="at n = 12"):
            containment.empirical_eh_exponent(family, [8, 12], 2, seed=1)
        err = assert_clean_exit(capsys, self.LEFT6_EXPONENT, 3)
        assert err == "budget exceeded: no transitive search at n = 12\n"
        assert len(forks) == 2 * (min(cpus, 4) - 1)
        assert no_child_left()

    def test_worker_that_dies_exits_4(self, capsys, monkeypatch, left6, forks):
        parent = os.getpid()
        real = containment.largest_transitive

        def die_in_worker(t):
            if os.getpid() != parent:
                os._exit(7)
            return real(t)

        monkeypatch.setattr(containment, "largest_transitive", die_in_worker)
        pretend_cpus(monkeypatch, 2)
        err = assert_clean_exit(capsys, self.LEFT6_EXPONENT, 4)
        assert err == f"invariant violation: worker process {forks[0]} ended with exit code 7\n"
        assert no_child_left()


@pytest.fixture
def criterion_9_invocations(tmp_path, left_file):
    """The ten invocations of criterion 9 in tests/test_acceptance.py."""
    c3 = tmp_path / "c3.txt"
    c3.write_text(write_matrix(core.cyclic_triangle()))
    b, d = random_speed_tables(7, random.Random(1))
    victim = tmp_path / "victim.txt"
    victim.write_text(write_matrix(victim_host(7, 30, b, d, seed=1)))
    return [
        ["classify", left_file, "--kind", "nebula"],
        ["classify", str(c3), "--ordering", "search", "--kind", "nebula"],
        ["verify-examples"],
        ["free", left_file, str(c3)],
        ["tr", str(c3)],
        ["product", "--kind", "right", "--slots", "1,3,5;2,4,6"],
        ["complement", str(c3)],
        ["enumerate", "--n", "4", "--out", str(tmp_path / "enum")],
        ["exponent", "--sizes", "6,8", "--samples", "2", "--seed", "7"],
        ["run-algorithm", str(victim), "--case", "LR", "--t", "7",
         "--part-size", "30", "--c", "1/7", "--lam", "3/10", "--seed", "3"],
    ]


class TestReportEnvelope:
    def test_reports_match_schema(self, capsys, criterion_9_invocations):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).parents[1] / "docs" / "report.schema.json").read_text()
        )
        for argv in criterion_9_invocations:
            code, report = run_cli(capsys, *argv)
            assert code == 0, argv
            jsonschema.validate(report, schema)
            assert report["command"] == argv[0]

    def test_timing_sets_only_the_timing_field(self, capsys, criterion_9_invocations):
        for argv in criterion_9_invocations:
            assert cli.main(list(argv)) == 0
            plain = capsys.readouterr().out
            assert cli.main([*argv, "--timing"]) == 0
            timed = json.loads(capsys.readouterr().out)
            assert isinstance(timed["timing"], float) and timed["timing"] >= 0, argv
            timed["timing"] = None
            assert json.dumps(timed, indent=2, sort_keys=True) + "\n" == plain, argv


class TestConsoleChecks:
    """The console-check table of tests/console_checks.py, run in-process."""

    def test_every_row_passes(self, tmp_path):
        assert console_checks.run(tmp_path) == []

    def test_every_subcommand_has_a_passing_row(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        covered = {shlex.split(row.argv)[0] for row in console_checks.ROWS if row.exit == 0}
        assert set(sub.choices) <= covered

    def test_smaller_transitive_set_fails_the_tr_rows(self, tmp_path, monkeypatch):
        # drop one vertex: every tr row that exits 0 sees it, no other row does
        solver = core.largest_transitive
        monkeypatch.setattr(core, "largest_transitive",
                            lambda t: frozenset(sorted(solver(t))[1:]))
        failures = console_checks.run(tmp_path)
        assert [f.split(":")[0] for f in failures] == [
            "nebulab tr t9.txt", "nebulab tr t12.txt", "nebulab tr t24.txt"]
