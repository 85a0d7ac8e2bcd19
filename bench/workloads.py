"""The three workloads: seeded job lists and the re-check of every answer.

A job is one user request: one CLI command run in-process through
``nebulab.cli.main(argv)`` with its standard output captured, or, where no
command exists, one library call.  ``call`` is the timed part; ``check``
re-derives the answer with ``oracles`` and raises ``WrongAnswer`` when it
is wrong.  Jobs come in rounds of fixed composition, so every run measures
the same mix whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import inputs
import oracles
from nebulab import cli, core, regularity

ROUNDS = {"census": 5, "search": 6, "extraction": 9}  # rounds of distinct inputs per cycle

# Known class counts: tournaments on 7 vertices up to isomorphism, and the
# prime ones among them (re-derived from the classes in every run).
CLASSES_7 = 456
PRIME_CLASSES_7 = 197

PHASE_ALGORITHM = {"t": 7, "part_size": 30, "k": 3}
SINGLE_KINDS = ("left", "right", "central")
KINDS = ("nebula",) + SINGLE_KINDS + ("galaxy",)


class WrongAnswer(Exception):
    """The program's answer failed a re-check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class CliOutput:
    code: int
    stdout: str


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def run_cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return CliOutput(code, buf.getvalue())


def fingerprint(output: Any) -> str:
    """What must not change when tracing is on."""
    if isinstance(output, CliOutput):
        return f"{output.code}\n{output.stdout}"
    return repr(output)


def cli_report(out: CliOutput, code: int = 0) -> dict:
    """Exit code and every validation entry of the report, then the report."""
    require(out.code == code, f"exit code {out.code}, expected {code}")
    report = json.loads(out.stdout)
    failing = [v.get("check") for v in report["validation"] if not v.get("passed")]
    require(not failing, f"failing validation entries {failing}")
    return report


def tournament(rows: inputs.Rows) -> core.Tournament:
    return core.Tournament(len(rows), rows)


# ---------------------------------------------------------------------------
# census: enumeration, transitive subtournaments, canonical forms
# ---------------------------------------------------------------------------


def enumerate_out_job(out_dir: Path, written: list[str]) -> Job:
    """``enumerate --out``; the verified class files go into ``written``."""

    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        require(results["total"] == CLASSES_7, f"{results['total']} classes at n=7")
        paths = results["files"]
        require(len(paths) == CLASSES_7 == results["kept"], "one file per class")
        classes = [oracles.parse_matrix(Path(p).read_text()) for p in paths]
        require(all(len(r) == 7 and oracles.is_tournament(r) for r in classes),
                "class files hold 7-vertex tournaments")
        require(oracles.pairwise_non_isomorphic(classes), "two class files are isomorphic")
        primes = sum(oracles.is_prime(r) for r in classes)
        require(primes == PRIME_CLASSES_7, f"{primes} prime classes")
        written[:] = paths

    argv = ["enumerate", "--n", "7", "--out", str(out_dir)]
    return Job("enumerate-out", lambda: run_cli(argv), check)


def enumerate_prime_job() -> Job:
    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        require(results["total"] == CLASSES_7, f"{results['total']} classes at n=7")
        require(results["kept"] == PRIME_CLASSES_7, f"{results['kept']} prime classes kept")

    argv = ["enumerate", "--n", "7", "--filter", "prime"]
    return Job("enumerate-prime", lambda: run_cli(argv), check)


def tr_job(written: list[str], index: int) -> Job:
    """``tr`` on one class file, chosen when the job runs: the files exist
    only after the round's first job has written them."""
    state = {}

    def call() -> CliOutput:
        require(bool(written), "no class files were written")
        state["path"] = written[index % len(written)]
        return run_cli(["tr", state["path"]])

    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        rows = oracles.parse_matrix(Path(state["path"]).read_text())
        chosen = [v - 1 for v in results["vertices"]]
        require(len(chosen) == results["tr"], "tr disagrees with its vertex list")
        require(oracles.is_transitive_set(rows, chosen), "reported set is not transitive")
        require(results["tr"] == oracles.largest_transitive_size(rows), "tr is not maximum")

    return Job("tr", call, check)


def score_changing_flip(rows: inputs.Rows):
    """Reverse one edge u -> v so that the score multiset changes, which makes
    the result non-isomorphic to ``rows``; None if no edge qualifies."""
    scores = [bin(r).count("1") for r in rows]
    for u, row in enumerate(rows):
        for v in range(len(rows)):
            if row >> v & 1 and scores[u] != scores[v] + 1:
                out = list(rows)
                out[u] &= ~(1 << v)
                out[v] |= 1 << u
                return tuple(out)
    return None


def isomorphism_job(label: str, rows: inputs.Rows, rng: random.Random) -> Job:
    """canonical_form must agree on a tournament and a random relabelling of
    it, and differ on a tournament with another score multiset."""
    relabelled = inputs.random_relabel(rows, rng)
    flipped = score_changing_flip(rows)
    variants = [tournament(rows), tournament(relabelled)]
    if flipped is not None:
        variants.append(tournament(flipped))

    def check(forms) -> None:
        require(forms[0] == forms[1], "canonical forms of isomorphic tournaments differ")
        require(len(forms) == 2 or forms[0] != forms[2],
                "canonical forms of non-isomorphic tournaments agree")

    return Job(f"iso-{label}", lambda: [core.canonical_form(t) for t in variants], check)


def census_round(rng: random.Random, work: Path, written: list[str]) -> list[Job]:
    """Two 1-s enumerations, 100 cheap ``tr`` jobs (parse, validate, render)
    and 35 isomorphism jobs from 1 ms random tournaments to the 0.3 s
    transitive worst case.  The median falls among the ``tr`` jobs and the
    90th percentile among the 12 random 12-vertex isomorphism jobs."""
    jobs = [enumerate_prime_job()]
    jobs += [tr_job(written, rng.randrange(CLASSES_7)) for _ in range(100)]
    for n, count in ((9, 4), (10, 4), (11, 4), (12, 12)):
        for _ in range(count):
            jobs.append(isomorphism_job(f"random{n}", inputs.random_rows(n, rng), rng))
    for kind in ("left", "right", "central"):
        for stars in (3, 4):
            rows = inputs.product_nebula_rows(kind, inputs.random_placements(stars, rng))
            relabelled = inputs.random_relabel(rows, rng)
            jobs.append(isomorphism_job(f"product{3 * stars}", relabelled, rng))
    for name in ("left", "central"):
        jobs.append(isomorphism_job("example", inputs.example_rows(name), rng))
    for n in (9, 11):
        jobs.append(isomorphism_job(f"circulant{n}", inputs.circulant_rows(n, rng), rng))
    jobs.append(isomorphism_job("transitive12", inputs.transitive_rows(12), rng))
    rng.shuffle(jobs)
    # the round starts with the enumeration whose files the tr jobs read
    return [enumerate_out_job(work / "classes", written)] + jobs


# ---------------------------------------------------------------------------
# search: ordering searches, containment, the example checklist
# ---------------------------------------------------------------------------


def negative_host(n: int, kind: str, rng: random.Random) -> inputs.Rows:
    """A random tournament that provably has no ordering of ``kind``.

    Every accepted ordering has a star forest as its backward graph, so at
    most n - 1 backward edges, and only 2 per 3-vertex star for the
    single-kind nebulae.  A tournament whose minimum feedback arc set is
    larger has none; the search must exhaust.
    """
    most = n - 1 if kind in ("nebula", "galaxy") else 2 * (n // 3)
    while True:
        rows = inputs.random_rows(n, rng)
        # the score ordering bounds the minimum from above: a cheap rejection
        if (oracles.score_order_backward_edges(rows) > most
                and oracles.min_backward_edges(rows) > most):
            return rows


def positive_host(star: str, rng: random.Random) -> inputs.Rows:
    """A randomly relabelled 9-vertex product nebula of ``star`` stars: its
    slot ordering is an ordering of the star's kind."""
    placements = inputs.random_placements(3, rng)
    return inputs.random_relabel(inputs.product_nebula_rows(star, placements), rng)


def classify_job(path: str, rows: inputs.Rows, kind: str, expected: bool) -> Job:
    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        require(results["verdict"] is expected, f"verdict {results['verdict']} for {kind}")
        if expected:
            order = [v - 1 for v in results["ordering"]]
            require(oracles.ordering_satisfies(rows, order, kind), f"ordering is not {kind}")
        else:
            require(results["ordering"] is None, "negative verdict carries an ordering")

    label = "positive" if expected else "negative"
    argv = ["classify", path, "--ordering", "search", "--kind", kind]
    return Job(f"classify-{label}", lambda: run_cli(argv), check)


def free_job(host_path: str, host: inputs.Rows, members: list[tuple[str, inputs.Rows]],
             label: str) -> Job:
    truth: list[list[bool]] = []  # the oracle's answers, computed at the first check

    def check(out: CliOutput) -> None:
        if not truth:
            truth.append([oracles.contains(host, rows) for _, rows in members])
        contained = truth[0]
        results = cli_report(out)["results"]
        findings = results["findings"]
        require(len(findings) == len(members), "one finding per member")
        for finding, (_, rows), want in zip(findings, members, contained):
            require(finding["contained"] is want, f"containment of {finding['member']}")
            if want:
                mapping = [v - 1 for v in finding["embedding"]]
                require(oracles.embedding_ok(host, rows, mapping), "embedding is not a copy")
        require(results["free"] is not any(contained), "freeness verdict")

    argv = ["free", host_path] + [path for path, _ in members]
    return Job(f"free-{label}", lambda: run_cli(argv), check)


def verify_examples_job() -> Job:
    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        require(results["passed"] is True and results["failed_checks"] == [], "checklist")
        identity = list(range(12))
        require(oracles.ordering_satisfies(inputs.example_rows("left"), identity, "nebula"),
                "left example under the identity is a nebula ordering")
        require(oracles.ordering_satisfies(inputs.example_rows("central"), identity, "central"),
                "central example under the identity is a central nebula ordering")

    return Job("verify-examples", lambda: run_cli(["verify-examples"]), check)


def search_members(work: Path) -> list[tuple[str, inputs.Rows]]:
    members = [
        ("c3", inputs.cyclic_triangle_rows()),
        ("tt4", inputs.transitive_rows(4)),
        ("left6", inputs.product_nebula_rows("left", [(1, 3, 5), (2, 4, 6)])),
    ]
    return [(inputs.write_matrix(work / f"{name}.txt", rows), rows) for name, rows in members]


def search_round(rng: random.Random, work: Path, members, tag: str) -> list[Job]:
    """11 exhaustive searches on hosts that have no ordering of the kind
    asked for: every kind at n = 9, the three single kinds at n = 7 and 8.
    3 searches that stop at the first hit, on 9-vertex left, right and
    central product nebulae; their cost swings most with the relabelling, so
    they are few.  11 ``free`` jobs: 8 exhaustive absence proofs of the
    6-vertex member (4 at n = 8, where the median falls), 3 quick hits.
    The example checklist.  Every search has a host of its own, so that the
    hosts' differences average out."""
    jobs = []

    def host_file(name: str, rows: inputs.Rows) -> str:
        return inputs.write_matrix(work / f"{tag}-{name}.txt", rows)

    negatives = [(9, kind) for kind in KINDS]
    negatives += [(n, kind) for n in (7, 8) for kind in SINGLE_KINDS]
    for n, kind in negatives:
        rows = negative_host(n, kind, rng)
        jobs.append(classify_job(host_file(f"negative{n}-{kind}", rows), rows, kind, False))
    for kind in SINGLE_KINDS:
        rows = positive_host(kind, rng)
        jobs.append(classify_job(host_file(f"positive-{kind}", rows), rows, kind, True))
    left6 = members[-1][1]
    for n, absent in ((7, 2), (8, 4), (9, 2)):
        for want in [False] * absent + [True]:
            while True:
                rows = inputs.random_rows(n, rng)
                if oracles.contains(rows, left6) is want:
                    break
            path = host_file(f"free{len(jobs)}", rows)
            jobs.append(free_job(path, rows, members, "present" if want else "absent"))
    jobs.append(verify_examples_job())
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# extraction: the phase algorithm, the regularity pipeline, exponents
# ---------------------------------------------------------------------------


def run_algorithm_job(path: str, host: inputs.Rows, case: str) -> Job:
    white, black = {"LR": ("left", "right"), "LC": ("left", "central"),
                    "RC": ("central", "right")}[case]
    t, w, k = PHASE_ALGORITHM["t"], PHASE_ALGORITHM["part_size"], PHASE_ALGORITHM["k"]
    subsets = math.comb(t, k)
    phase_bound = 2 * k * subsets * -(-w // (9 * k * subsets))

    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        outcome = results["outcome"]
        require(results["phases"] <= phase_bound, "phase bound")
        if outcome["kind"] == "complete-pair":
            a = [v - 1 for v in outcome["a"]]
            b = [v - 1 for v in outcome["b"]]
            require(oracles.complete(host, a, b), "complete pair is not complete")
        elif outcome["kind"] == "forbidden-copy":
            require(outcome["nebula"] in (white, black), "copy of a nebula outside the case")
            pattern = inputs.product_nebula_rows(outcome["nebula"], [(1, 2, 3)])
            mapping = [v - 1 for v in outcome["embedding"]]
            require(oracles.embedding_ok(host, pattern, mapping), "copy is not induced")
        else:
            raise WrongAnswer(f"unexpected outcome {outcome['kind']}")

    argv = ["run-algorithm", path, "--case", case, "--t", str(t), "--part-size", str(w),
            "--k", str(k), "--structure", "auto"]
    return Job("run-algorithm", lambda: run_cli(argv), check)


def pipeline_job(rows: inputs.Rows, w: int) -> Job:
    """The P = 2 strong-structure pipeline on four forward blocks of size w."""
    host = tournament(rows)
    parts = [list(range(i * w, (i + 1) * w)) for i in range(4)]
    lam = Fraction(1, 4)

    def call():
        return regularity.strong_structure_pipeline(
            host, [], parts, core.cyclic_triangle(), p_target=2, lam=lam, eta=Fraction(1, 4)
        )

    def check(report) -> None:
        require(isinstance(report, regularity.PipelineReport), f"pipeline stopped: {report}")
        finals = [list(f) for f in report.finals]
        require(len(finals) == 2 and len({len(f) for f in finals}) == 1, "equal final sets")
        require(all(f and set(f) <= set(parts[c]) for f, c in zip(finals, report.chain)),
                "final sets inside their chain parts")
        first, second = finals
        require(all(oracles.density(rows, [v], second) >= 1 - lam for v in first),
                "per-vertex forward density")
        require(all(oracles.density(rows, first, [v]) >= 1 - lam for v in second),
                "per-vertex backward density")
        require(report.c == Fraction(len(first), len(rows)), "reported c")

    return Job("pipeline", call, check)


def partition_job(rows: inputs.Rows, w: int, parts_count: int, eps: Fraction, method: str) -> Job:
    host = tournament(rows)
    parts = [list(range(i * w, (i + 1) * w)) for i in range(parts_count)]
    pairs = [(i, j) for i in range(parts_count) for j in range(i + 1, parts_count)]
    irregular: list[set] = []  # the oracle's answer, computed at the first check

    def check(cert) -> None:
        if not irregular:
            irregular.append(
                {p for p in pairs if not oracles.regular_pair(rows, parts[p[0]], parts[p[1]], eps)}
            )
        truth = irregular[0]
        listed = set(cert.irregular_pairs)
        if method == "exact":
            require(listed == truth, f"irregular pairs {sorted(listed)}, expected {sorted(truth)}")
        else:
            require(listed <= truth, "a sampled violator is not a violator")
        bound_ok = len(listed) * eps.denominator <= eps.numerator * parts_count ** 2
        require(cert.passed is bound_ok and cert.equal_sizes and cert.exceptional_ok,
                "certificate verdict")

    def call():
        return regularity.verify_regular_partition(host, [], parts, eps, method=method, seed=w)

    return Job(f"partition-{method}", call, check)


def exponent_job(family_path: str, sizes: list[int], seed: int) -> Job:
    def check(out: CliOutput) -> None:
        results = cli_report(out)["results"]
        samples = results["samples"]
        rates = dict(results["failure_rates"])
        require(sorted(rates) == sorted(sizes), "one failure rate per size")
        for n in sizes:
            kept = sum(1 for m, _ in samples if m == n)
            require(kept == round(5 * (1 - rates[n])), f"sample count at n={n}")
        require(all(n.bit_length() <= tr <= n for n, tr in samples),
                "sample outside the Stearns bound")
        xs = [math.log(n) for n, _ in samples]
        ys = [math.log(tr) for _, tr in samples]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        require(abs(slope - results["slope"]) < 1e-9, "slope does not refit")

    argv = ["exponent", "--family", family_path, "--sizes", ",".join(map(str, sizes)),
            "--seed", str(seed)]
    return Job("exponent", lambda: run_cli(argv), check)


def extraction_round(rng: random.Random, work: Path, left6_path: str, tag: str) -> list[Job]:
    """6 phase-algorithm runs (the three cases on one victim and one noise
    host), 4 pipelines with parts of 8-11 vertices, 7 partition checks
    (exact: passing 10x10 pairs, two single passing 12x12 pairs, failing
    pairs; sampled) and an exponent report.  The median falls among the
    phase-algorithm runs and the 90th percentile among the passing 12x12
    pairs."""
    jobs = []
    t, w = PHASE_ALGORITHM["t"], PHASE_ALGORITHM["part_size"]
    for label in ("victim", "noise"):
        if label == "victim":
            rows = inputs.victim_host(t, w, rng)
        else:
            rows = inputs.noise_host(t, w, 10, rng)
        path = inputs.write_matrix(work / f"{tag}-{label}.txt", rows)
        jobs += [run_algorithm_job(path, rows, case) for case in ("LR", "LC", "RC")]
    for size in (8, 9, 10, 11):
        jobs.append(pipeline_job(inputs.forward_block_host(4, size, rng), size))
    for size, count, eps, method in (
        (10, 3, Fraction(1, 2), "exact"),
        (12, 2, Fraction(1, 2), "exact"),
        (12, 2, Fraction(1, 2), "exact"),
        (12, 3, Fraction(1, 4), "exact"),
        (12, 3, Fraction(1, 3), "exact"),
        (12, 3, Fraction(1, 2), "sampled"),
        (12, 3, Fraction(1, 4), "sampled"),
    ):
        jobs.append(partition_job(inputs.random_rows(size * count, rng), size, count, eps, method))
    jobs.append(exponent_job(left6_path, [8, 12, 16], rng.randrange(1 << 30)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """One cycle of distinct jobs for ``workload``, input files in ``work``.

    A cycle is ROUNDS[workload] rounds of fixed composition, about 14 s of
    jobs at the reference speed (see run.Speed) at the commit that defined the
    benchmark.  A run repeats whole cycles, so that its mix of jobs never
    depends on where the clock stops.
    """
    rng = random.Random(f"{workload}:{seed}")
    rounds = range(ROUNDS[workload])
    if workload == "census":
        written: list[str] = []
        return [job for _ in rounds for job in census_round(rng, work, written)]
    if workload == "search":
        members = search_members(work)
        return [job for r in rounds for job in search_round(rng, work, members, f"r{r}")]
    if workload == "extraction":
        left6 = inputs.product_nebula_rows("left", [(1, 3, 5), (2, 4, 6)])
        left6_path = inputs.write_matrix(work / "left6.txt", left6)
        return [job for r in rounds for job in extraction_round(rng, work, left6_path, f"r{r}")]
    raise ValueError(f"unknown workload {workload!r}")
