"""Exact subtournament containment, freeness, and the experiment harness."""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import threading
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Callable, Optional, Sequence

from . import core
from .core import Tournament, largest_transitive, random_tournament
from .errors import BudgetError, InvariantError, NoDataError

BRUTE_FORCE_BUDGET = 200_000
SAMPLER_TRIES = 200


@dataclass(frozen=True)
class Embedding:
    """Injective orientation-preserving map; mapping[h] is the host vertex."""

    mapping: tuple[int, ...]

    def validate(self, host: Tournament, pattern: Tournament) -> bool:
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != pattern.n:
            return False
        if any(not 0 <= v < host.n for v in m):
            return False
        return all(
            host.has_edge(m[a], m[b]) == pattern.has_edge(a, b)
            for a in range(pattern.n)
            for b in range(pattern.n)
            if a != b
        )


def contains(host: Tournament, pattern: Tournament) -> Optional[Embedding]:
    """Search for an induced copy of ``pattern`` in ``host`` (exact).

    Backtracking over a static pattern-vertex order, with bitset candidate
    filtering; every pattern pair constrains the candidates because
    tournaments are complete.  Search-order contract, on which the first
    embedding found depends: pattern vertices are placed most
    degree-unbalanced first (largest |2 out - (h - 1)|, ties by index), and
    each one tries its host candidates in increasing vertex order.
    """
    mapping = _embed(host.rows, _prepare(pattern), _degree_masks(host.rows, pattern))
    return None if mapping is None else Embedding(mapping)


def contains_in_parts(
    host: Tournament, pattern: Tournament, parts: Sequence[int]
) -> Optional[Embedding]:
    """The lex-first induced copy of ``pattern`` with pattern vertex i in the
    host vertex mask ``parts[i]``, or None (exact).

    Pattern vertices are placed in index order, each trying its part's
    vertices in increasing order, so the first copy found is the lex-first.
    """
    if len(parts) != pattern.n:
        raise ValueError("need exactly one part per pattern vertex")
    mapping = _embed(host.rows, _prepare(pattern, range(pattern.n)), parts)
    return None if mapping is None else Embedding(mapping)


def _prepare(pattern: Tournament, order: Optional[Sequence[int]] = None):
    """A search order and, per level, the flip towards each later level: 0
    where the pattern edge points to the later vertex, -1 where it points
    back, so ``row ^ flip`` is a placed vertex's out- or in-neighbourhood.
    The default order is the one of ``contains``."""
    h = pattern.n
    if order is None:
        outs = [row.bit_count() for row in pattern.rows]
        order = sorted(range(h), key=lambda v: (-abs(2 * outs[v] - (h - 1)), v))
    flips = [
        [(pattern.rows[hv] >> hu & 1) - 1 for hu in order[i + 1 :]]
        for i, hv in enumerate(order)
    ]
    return tuple(order), flips


def _degree_masks(rows: Sequence[int], pattern: Tournament) -> list[int]:
    """Per pattern vertex, the host vertices with at least its out- and in-degree."""
    n, h = len(rows), pattern.n
    by_out = [0] * n
    for v, row in enumerate(rows):
        by_out[row.bit_count()] |= 1 << v
    outs = [row.bit_count() for row in pattern.rows]
    return [sum(by_out[out : max(out, n - (h - 1 - out))]) for out in outs]


def _embed(rows: Sequence[int], prepared, masks: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The first mapping found on raw host rows with pattern vertex v among
    the host vertices of ``masks[v]``, or None.

    Forward checking: placing a vertex narrows every later level's
    candidates, and a branch dies as soon as one of them runs out.
    """
    order, flips = prepared
    h = len(order)
    if h > len(rows):
        return None
    assignment = [0] * h

    def descend(level: int, cands: list[int], used: int) -> bool:
        # cands[k] holds the candidates of level + k
        if level == h:
            return True
        bits = cands[0] & ~used
        pairs = list(zip(cands[1:], flips[level]))
        while bits:
            low = bits & -bits
            bits ^= low
            tv = low.bit_length() - 1
            row = rows[tv]
            free = ~(used | low)
            later = []
            for cand, flip in pairs:
                cand &= row ^ flip
                if not cand & free:
                    break
                later.append(cand)
            else:
                assignment[order[level]] = tv
                if descend(level + 1, later, used | low):
                    return True
        return False

    return tuple(assignment) if descend(0, [masks[v] for v in order], 0) else None


def brute_force_contains(host: Tournament, pattern: Tournament) -> Optional[Embedding]:
    """Oracle for ``contains``: scan every vertex subset of the pattern's size.

    An isomorphism preserves each vertex's score in the induced
    subtournament. So a subset whose sorted induced scores differ from the
    pattern's is skipped, and on the rest only the bijections that map each
    pattern vertex to a subset vertex of equal score are tried, as a product
    of permutations within score classes, each tested on the row bits. The
    budget still counts all C(n, h) * h! bijections.
    """
    h, n = pattern.n, host.n
    if h > n:
        return None
    work = math.comb(n, h) * math.factorial(h)
    if work > BRUTE_FORCE_BUDGET:
        raise BudgetError(f"brute force needs {work} checks, budget is {BRUTE_FORCE_BUDGET}")
    pat_scores = [row.bit_count() for row in pattern.rows]
    target = sorted(pat_scores)
    classes = {s: [a for a in range(h) if pat_scores[a] == s] for s in target}
    pat_out = [[b for b in range(h) if row >> b & 1] for row in pattern.rows]
    for subset in combinations(range(n), h):
        mask = sum(1 << v for v in subset)
        scores = [(host.rows[v] & mask).bit_count() for v in subset]
        if sorted(scores) != target:
            continue
        choices = [permutations([v for v, sv in zip(subset, scores) if sv == s]) for s in classes]
        image = [0] * h
        for choice in product(*choices):
            for slot, perm in zip(classes.values(), choice):
                for a, v in zip(slot, perm):
                    image[a] = v
            if all(
                host.rows[image[a]] & mask == sum(1 << image[b] for b in pat_out[a])
                for a in range(h)
            ):
                return Embedding(tuple(image))
    return None


def random_free_tournament(
    n: int,
    family: Sequence[Tournament],
    seed: int,
) -> Optional[Tournament]:
    """Rejection sampling with a local repair step.

    When a forbidden copy is found, the edges among its image are
    re-randomized in place and the rows are retried; None after
    ``SAMPLER_TRIES`` tries.  Only the returned sample is built, and so
    checked, as a ``Tournament``.
    """
    rng = random.Random(seed)
    rows = list(random_tournament(n, rng).rows)
    prepared = [(member, _prepare(member)) for member in family]
    for _ in range(SAMPLER_TRIES):
        for member, p in prepared:
            found = _embed(rows, p, _degree_masks(rows, member))
            if found is not None:
                break
        else:
            return Tournament(n, tuple(rows))
        image = sorted(found)
        for i, u in enumerate(image):
            for v in image[i + 1 :]:
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
    return None


def _forked_map(fn: Callable, tasks: Sequence) -> list:
    """``[fn(task) for task in tasks]``, computed on the usable CPUs.

    Task i goes to worker i mod W.  W is the number of CPUs this process
    may run on, at most one per task, and 1 where the platform cannot tell
    or the process runs other threads (a forked child would inherit this
    thread alone, and any lock another one holds would stay held).  Worker
    0 is this process; each other worker is a child made by ``os.fork``,
    which starts at once with the caller's modules and patches, where a
    spawned interpreter would spend about as long importing the package as
    an ``exponent`` run spends drawing.  A child pickles its results, or
    the first exception of its share, into a pipe and leaves by
    ``os._exit``: it never returns into the caller's code or flushes the
    caller's stdio.  Every child is reaped before this returns or raises.
    The exception of the earliest failing task is then raised, as a serial
    run would raise it; a child that dies before it has sent its results
    raises ``InvariantError``.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = 1
    workers = max(min(cpus, len(tasks)), 1) if threading.active_count() == 1 else 1

    def run(share):
        """(True, the results of ``share``), or (False, (position, exception))
        of its first failing task."""
        results = []
        for task in share:
            try:
                results.append(fn(task))
            except Exception as exc:
                return False, (len(results), exc)
        return True, results

    pids: list[int] = []
    readers = []
    payloads: list[bytes] = []
    exit_codes: list[int] = []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            readers.append(os.fdopen(read_end, "rb"))
            with os.fdopen(write_end, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        writer.write(pickle.dumps(run(tasks[w::workers])))
                        writer.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        outcomes = [run(tasks[0::workers])]
        payloads = [reader.read() for reader in readers]
    finally:
        if len(payloads) < len(pids):  # interrupted before the results were read
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for reader in readers:
            reader.close()
        for pid in pids:
            exit_codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for pid, payload, code in zip(pids, payloads, exit_codes):
        if code != 0:
            raise InvariantError(f"worker process {pid} ended with exit code {code}")
        outcomes.append(pickle.loads(payload))
    failures = [
        (w + workers * value[0], value[1]) for w, (ok, value) in enumerate(outcomes) if not ok
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for w, (_, share) in enumerate(outcomes):
        results[w::workers] = share
    return results


@dataclass(frozen=True)
class ExponentReport:
    """Log-log fit of exact transitive sizes against host sizes."""

    samples: tuple[tuple[int, int], ...]  # (n, tr)
    slope: float
    band: tuple[float, float]  # slope +- 2 standard errors
    failure_rates: tuple[tuple[int, float], ...]
    flagged_sizes: tuple[int, ...]  # generation failure rate above one half


def empirical_eh_exponent(
    family: Sequence[Tournament],
    sizes: Sequence[int],
    samples_per_size: int,
    seed: int,
) -> ExponentReport:
    """Fit log tr against log n over ``samples_per_size`` free samples of each size.

    Sample ``index`` of size ``n`` is drawn by ``random_free_tournament``
    with the seed ``(seed << 64) + (n << 32) + index``, which does not
    depend on the interpreter's hash.  A draw that gives up adds no sample
    and counts toward its size's failure rate, the share of the size's
    draws that gave up; a size is flagged when its rate is above one half.
    The draws run on the usable CPUs (``_forked_map``), and the report is
    the same for any number of them.
    """
    if any(n > core.TR_BUDGET for n in sizes):
        raise BudgetError(f"sizes exceed the exact transitive budget {core.TR_BUDGET}")

    def transitive_size(task: tuple[int, int]) -> Optional[int]:
        n, sample_seed = task
        t = random_free_tournament(n, family, seed=sample_seed)
        return None if t is None else len(largest_transitive(t))

    tasks = [
        (n, (seed << 64) + (n << 32) + index) for n in sizes for index in range(samples_per_size)
    ]
    drawn = _forked_map(transitive_size, tasks)
    samples: list[tuple[int, int]] = []
    failure_rates: list[tuple[int, float]] = []
    flagged: list[int] = []
    for i, n in enumerate(sizes):
        trs = drawn[i * samples_per_size : (i + 1) * samples_per_size]
        samples += [(n, tr) for tr in trs if tr is not None]
        rate = trs.count(None) / samples_per_size
        failure_rates.append((n, rate))
        if rate > 0.5:
            flagged.append(n)
    if len(samples) < 2:
        raise NoDataError("not enough samples to fit a slope")
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(tr) for _, tr in samples]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise NoDataError("need at least two distinct sizes")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residuals = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    dof = max(len(samples) - 2, 1)
    se = math.sqrt(sum(r * r for r in residuals) / dof / sxx)
    return ExponentReport(
        samples=tuple(samples),
        slope=slope,
        band=(slope - 2 * se, slope + 2 * se),
        failure_rates=tuple(failure_rates),
        flagged_sizes=tuple(flagged),
    )
