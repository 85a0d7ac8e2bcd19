"""The console checks: ``nebulab`` invocations and what each must show, one row each.

The rows run in order in one working directory, so a row may read what an
earlier row wrote.  Each states the exit code, the stderr text and the report
facts its invocation must show.  Tier-1 runs the table in-process through
``cli.main`` (``tests/test_cli.py``); any interpreter runs it without pytest:

    PYTHONPATH=src python tests/console_checks.py

which prints one line per failing row and exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from helpers import random_speed_tables, victim_host, write_backedges
from nebulab import cli, core, files


def make_inputs(workdir) -> None:
    """Write every host, structure and matrix file that no row writes."""
    def write(name: str, text: str) -> None:
        (Path(workdir) / name).write_text(text, encoding="utf-8")

    def write_host(name: str, t: core.Tournament) -> None:
        write(name, files.write_matrix(t))

    write_host("t9.txt", core.transitive_tournament(9))
    for n in (12, 13, 24, 25):
        write_host(f"t{n}.txt", core.random_tournament(n, random.Random(0)))
    # one left star whose leaf span encloses 30 two-vertex components
    m = 30
    n = 2 * m + 3
    write_host("pairs63.txt", core.from_backward_edges(
        n, range(n), [(1, 0), (n - 1, 0)] + [(2 * i + 3, 2 * i + 2) for i in range(m)]))
    # criterion 9's victim host, and its seven blocks of 30 in reverse order
    b, d = random_speed_tables(7, random.Random(1))
    write_host("victim.txt", victim_host(7, 30, b, d, seed=1))
    write("reversed.json", json.dumps(
        {"parts": [list(range(30 * p + 1, 30 * p + 31)) for p in reversed(range(7))]}))
    # criterion 5's central pair host under its three blocks of 8
    back = [(8, 0), (9, 0), (10, 0), (11, 0), (16, 1), (17, 1), (18, 1), (19, 1)]
    write_host("central24.txt", core.from_backward_edges(24, tuple(range(24)), back))
    write("blocks.json", json.dumps(
        {"parts": [list(range(8 * p + 1, 8 * p + 9)) for p in range(3)]}))
    write("c3.txt", write_backedges(core.cyclic_triangle(), (0, 1, 2)))
    write("both-ways.txt", "tournament 3 matrix\n011\n101\n000\n")
    write("neither-way.txt", "tournament 3 matrix\n010\n000\n100\n")


def cut_last_record() -> None:
    """Write the --trace file of the row before with its last record dropped."""
    records = Path("tr.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    Path("cut.jsonl").write_text("".join(records[:-1]), encoding="utf-8")


@dataclass(frozen=True)
class Row:
    """One invocation, ``nebulab <argv>``, and what it must show.

    ``stderr`` must occur in the invocation's stderr, or begin it when it
    starts with ``^``.  ``report`` is a predicate on the parsed report.  An
    exit-0 row also needs a non-empty validation list with every entry
    passing, and a row exiting 2 or more prints nothing to stdout.
    ``seconds`` bounds the wall-clock time of the invocation, and ``before``
    runs just before it."""

    argv: str
    exit: int = 0
    stderr: str | None = None
    report: Callable[[dict], bool] | None = None
    seconds: float | None = None
    before: Callable[[], None] | None = None


def verdict(value: bool) -> Callable[[dict], bool]:
    return lambda r: r["results"]["verdict"] is value


def names_check(name: str) -> Callable[[dict], bool]:
    return lambda r: any(c["check"] == name for c in r["validation"])


# the victim-host invocation of the trace and replay rows
RUN_LC = "run-algorithm victim.txt --case LC --t 7 --part-size 30 --c 1/7 --lam 3/10 --seed 3"
# RC's witness finds no central star on criterion 5's central pair host and
# falls back to a complete pair (state 2)
RUN_STATE_TWO = ("run-algorithm central24.txt --case RC --t 3 --k 3 --part-size 8 --c 1/3"
                 " --lam 1/2 --structure blocks.json")
# a run on the cyclic triangle, which the seed row extends by a negative seed
RUN_C3 = "run-algorithm c3.txt --case LR --t 3 --part-size 1"
# the example checklist entries that must be listed; both primality entries
# are among them, so a dropped entry cannot pass silently
EXAMPLE_CHECKS = {"left-example-components", "central-example-components", "left-example-prime",
                  "central-example-prime", "left-example-product-extension"}

ROWS = [
    Row("product --kind left --slots 3,2,1", 2),
    Row("verify-examples", report=lambda r: r["results"]["passed"] is True
        and EXAMPLE_CHECKS <= {c["check"] for c in r["validation"]}),
    # class files of another size in the --out directory stop enumerate before it writes
    Row("enumerate --n 5 --out cls",
        report=lambda r: r["results"]["total"] == len(r["results"]["files"]) == 12),
    Row("enumerate --n 4 --out cls", 2),
    Row("enumerate --n 5 --out cls"),
    # the census benchmark's figures: 456 classes on 7 vertices, 197 of them prime
    Row("enumerate --n 7 --filter prime",
        report=lambda r: r["results"]["total"] == 456 and r["results"]["kept"] == 197),
    # the edge-bounded ordering search over every class on 7 vertices
    Row("enumerate --n 7 --filter nebula-orderable",
        report=lambda r: r["results"]["total"] == 456 and r["results"]["kept"] == 281),
    # canonical deletion by (score, second score) at 8 vertices
    Row("enumerate --n 8", report=lambda r: r["results"]["total"] == 6880),
    # each solver's size limit is one constant; no environment sets it
    Row("enumerate --n 10", 3, "enumeration limited to n <= 9"),
    # the phase algorithm's part-subset budget holds without a subset table
    Row("run-algorithm t9.txt --case LR --t 40 --k 10 --part-size 1", 3,
        "exceed the enumeration budget 200000"),
    Row("product --kind left --slots '1,3,5;2,4,6' --out left6.txt",
        report=lambda r: r["results"] == {"order": 6, "stars": 2, "width": 6}),
    Row("complement left6.txt --out left6c.txt", report=lambda r: r["results"] == {"order": 6}
        and [c["check"] for c in r["validation"]] == ["involution", "edges-reversed"]),
    # the complement of a left nebula is a right nebula under the reversed order
    Row("classify left6c.txt --ordering search --kind right", report=lambda r:
        r["results"]["verdict"] is True and r["results"]["ordering"] == [6, 5, 4, 3, 2, 1]),
    Row("free t9.txt left6.txt", report=lambda r: r["validation"] == [
        {"check": "brute-force-agrees:left6.txt", "passed": True}]),
    # the identity ordering of the left product is a nebula, left and galaxy
    # ordering, not a right or central one
    *(Row(f"classify left6.txt --kind {kind}", report=verdict(kind in ("nebula", "left", "galaxy")))
      for kind in ("nebula", "left", "galaxy", "right", "central")),
    Row("tr both-ways.txt", 2),
    Row("tr neither-way.txt", 2, "not oriented exactly once"),
    Row("tr t9.txt"),
    # galaxy verdicts are re-derived from the raw-edge components
    Row("classify t9.txt --kind galaxy", report=lambda r: r["results"]["verdict"] is True
        and r["validation"] == [{"check": "components-rederived", "passed": True},
                                {"check": "verdict-vs-components", "passed": True}]),
    Row("product --kind right --slots '1,3,5;2,4,6' --out right6.txt"),
    Row("classify right6.txt --kind right", report=lambda r: r["results"]["verdict"] is True
        and {c["kind"] for c in r["results"]["components"]} == {"right"}),
    Row("product --kind central --slots '1,3,5;2,4,6' --out central6.txt"),
    Row("classify central6.txt --kind central", report=verdict(True)),
    # above the subset sweep's n <= 10, the chain DP re-derives tr's size
    Row("tr t12.txt", report=names_check("chain-dp-agrees")),
    # exhaustive ordering searches at the size cap; galaxy and right have the
    # most intricate prefix rules
    *(Row(f"classify t12.txt --ordering search --kind {kind}", report=verdict(False))
      for kind in ("nebula", "galaxy", "right")),
    Row("classify t13.txt --ordering search --kind nebula", 3),
    Row("tr t25.txt", 3, "limited to n <= 24"),
    # the exact transitive solver at its size limit
    Row("tr t24.txt", report=lambda r: r["results"]["tr"] == 9),
    # each two-vertex component picks its center alone
    Row("classify pairs63.txt --kind galaxy", report=verdict(False), seconds=60),
    Row("exponent --family left6.txt --sizes 8,12 --samples 2 --seed 1"),
    # a repeated size would fit the same samples twice
    Row("exponent --family left6.txt --sizes 6,6,8", 2, "repeated size 6"),
    # LC appends a witness triple, saturates and extracts a copy; the replay
    # matches, and with its last record dropped no longer does
    Row(f"{RUN_LC} --trace tr.jsonl",
        report=lambda r: r["results"]["outcome"]["kind"] == "forbidden-copy"),
    Row(f"{RUN_LC} --replay tr.jsonl", report=names_check("replay-matches")),
    Row(f"{RUN_LC} --replay cut.jsonl", 1, before=cut_last_record,
        report=lambda r: {"check": "replay-matches", "passed": False} in r["validation"]),
    Row(f"{RUN_LC} --replay missing.jsonl", 2),
    # the other two cases on the same host and structure
    *(Row(RUN_LC.replace("--case LC", f"--case {case}")) for case in ("LR", "RC")),
    Row(RUN_STATE_TWO, report=lambda r: r["results"] == {
        "outcome": {"kind": "complete-pair", "state": 2, "a": [9, 10, 11, 12],
                    "b": list(range(17, 25)), "phase": 0},
        "phases": 0,
    } and r["validation"] == [{"check": "phase-bound", "passed": True},
                              {"check": "pair-complete", "passed": True}]),
    # at lambda >= 1 every partition is vacuously strong, so the run is refused
    Row("run-algorithm victim.txt --case LR --t 7 --part-size 30 --lam 2", 2,
        "need 0 <= lambda < 1, got lambda = 2"),
    # the seven blocks in reverse order point backward
    Row("run-algorithm victim.txt --case LR --t 7 --part-size 30 --c 1/7 --lam 3/10"
        " --structure reversed.json", 2,
        "^parse error: the structure fails strong verification: pair-density (i=0, j=1,"),
    # Random(-s) draws what Random(s) draws, so a negative seed is refused
    Row(f"{RUN_C3} --seed -5", 2, "must be a non-negative integer, got -5"),
    Row("exponent --sizes 4,6 --seed -5", 2, "must be a non-negative integer, got -5"),
]


def _differences(row: Row) -> list[str]:
    if row.before:
        row.before()
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(shlex.split(row.argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    elapsed = time.monotonic() - started
    out, err = out.getvalue(), err.getvalue()
    if code != row.exit:
        return [f"exit {code}, expected {row.exit}; stderr {err[-300:]!r}"]
    found = []
    if row.stderr is not None:
        if not (err.startswith(row.stderr[1:]) if row.stderr[0] == "^" else row.stderr in err):
            found.append(f"stderr {err!r} does not match {row.stderr!r}")
    if row.seconds is not None and elapsed > row.seconds:
        found.append(f"took {elapsed:.1f} s, over its {row.seconds} s")
    if code >= 2:
        if out:
            found.append(f"printed {out[:200]!r} to stdout")
        return found
    report = json.loads(out)
    validation = report["validation"]
    if code == 0 and not (validation and all(c["passed"] for c in validation)):
        found.append(f"validation {validation}")
    if row.report is not None and not row.report(report):
        found.append(f"report {json.dumps(report['results'])[:300]} fails the row's check")
    return found


def run(workdir) -> list[str]:
    """Write the inputs into ``workdir``, then run every row there in order.

    Returns one message per failing row, naming the row and what differed."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        make_inputs(".")
        failures = []
        for row in ROWS:
            try:
                found = _differences(row)
            except Exception:
                found = [f"raised {traceback.format_exc()}"]
            if found:
                failures.append(f"nebulab {row.argv}: {'; '.join(found)}")
        return failures
    finally:
        os.chdir(home)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        failures = run(workdir)
    print("\n".join(failures) or f"{len(ROWS)} console checks passed")
    sys.exit(1 if failures else 0)
