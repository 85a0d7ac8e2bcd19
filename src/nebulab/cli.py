"""Command-line surface.

Every command returns its config, results and validation entries; ``main``
alone wraps them in the JSON report document it prints to stdout, and the
validation section re-derives the headline claims with independent
checkers.  Exit codes: 0 = every validation entry passed (a negative verdict
is data and still exits 0), 1 = some validation entry failed (a --replay
mismatch included), 2 = malformed file or argument, including one that
parses but breaks a library precondition (the library raises ParseError:
slot triples outside --k, --k above --t, a --lam outside [0, 1), where
every partition or none would be strong, or --structure parts that fail
strong verification), a --replay trace that cannot be read or parsed, an
output path that cannot be written, an enumerate --out directory holding
a class file this run would not write, or an exponent --sizes list that
repeats a size, 3 = search budget exceeded (also:
enumerate above n = 9, where no class count is known, C(t,k) part subsets
above the phase algorithm's budget, no structure found, or too few samples
to fit a slope), 4 = internal invariant violation.

Audit traces (run-algorithm --trace) are line-delimited JSON records with
sorted keys.  Every record carries "phase" and "action"; append records add
the clique, the chosen vector entry, and the stored witness triple, terminal
records name the outcome.  --replay re-runs the invocation and adds a
replay-matches entry, which fails (exit 1) unless the fresh trace equals the
file record for record.

``main`` can be called again and again in one process: every call parses
its argv with one parser, built on the first call and reused after that.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from . import algorithm, containment, core, examples, files, product, reports, stars
from .errors import BudgetError, InvariantError, NebulabError, NoDataError, ParseError
from .stars import StarKind


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    """A non-negative integer: Random(-s) draws what Random(s) draws."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a fraction like 3/10, got {text!r}") from None


def _positive_ints(text: str) -> list[int]:
    values = [_positive_int(x) for x in text.split(",")]
    repeated = [n for n, count in Counter(values).items() if count > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated size {repeated[0]}")
    return values


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, the encoding ``_write_text`` writes."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_tournament(path: str) -> core.Tournament:
    return files.parse_tournament(_read_text(path))


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` with one open and no text layer."""
    data = memoryview(text.encode())
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _one_based(vertices) -> list[int]:
    return sorted(v + 1 for v in vertices)


def _component_payload(comp: stars.StarComponent) -> dict:
    return {
        "vertices": _one_based(comp.vertices),
        "center": None if comp.center is None else comp.center + 1,
        "kind": comp.kind.value,
    }


def _independent_component_check(
    t: core.Tournament, order, comps: list[stars.StarComponent]
) -> tuple[dict, bool]:
    """Re-derive the backward components from a raw edge scan and compare.

    Also returns the galaxy rule on the raw components: every component of 3
    or more vertices is a left or right star, and each component can put its
    center outside every such star's leaf span (a 2-vertex component may pick
    either vertex, and with one leaf it constrains no other component)."""
    pos = {v: p for p, v in enumerate(order)}
    adj: dict[int, set[int]] = {v: set() for v in range(t.n)}
    for u, v in t.edges():
        if pos[u] > pos[v]:
            adj[u].add(v)
            adj[v].add(u)
    rebuilt: list[frozenset[int]] = []
    for v in range(t.n):
        if any(v in c for c in rebuilt):
            continue
        comp, frontier = {v}, [v]
        while frontier:
            new = adj[frontier.pop()] - comp
            comp |= new
            frontier += new
        rebuilt.append(frozenset(comp))
    expected = sorted((c.vertices for c in comps), key=min)
    passed = sorted(rebuilt, key=min) == expected
    kinds = {c.vertices: c.kind for c in comps}
    centers: list = []  # galaxy: each component's possible centers
    spans: list[tuple[int, int]] = []  # galaxy: leaf spans of the 3+-vertex stars
    galaxy = True
    for members in rebuilt:
        degs = {v: len(adj[v] & members) for v in members}
        if len(members) == 1:
            kind = stars.StarKind.SINGLETON
        elif len(members) == 2:
            kind = stars.StarKind.GENERAL
            centers.append(members)
        else:
            hubs = [v for v in members if degs[v] == len(members) - 1]
            leaves_ok = len(hubs) == 1 and all(
                degs[v] == 1 for v in members if v != hubs[0]
            )
            if not leaves_ok:
                kind = stars.StarKind.NON_STAR
            else:
                hub_pos = pos[hubs[0]]
                leaf_pos = [pos[v] for v in members if v != hubs[0]]
                lo, hi = min(leaf_pos), max(leaf_pos)
                if hub_pos < lo:
                    kind = stars.StarKind.LEFT
                elif hub_pos > hi:
                    kind = stars.StarKind.RIGHT
                else:
                    kind = stars.StarKind.CENTRAL
                centers.append(hubs)
                spans.append((lo, hi))
            galaxy = galaxy and kind in (stars.StarKind.LEFT, stars.StarKind.RIGHT)
        passed = passed and kinds.get(members) is kind
    # a left or right star's own center lies outside its own leaf span
    galaxy = galaxy and all(
        any(all(not lo < pos[v] < hi for lo, hi in spans) for v in options)
        for options in centers
    )
    return {"check": "components-rederived", "passed": passed}, galaxy


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, dict, list[dict]]:
    t = _read_tournament(args.file)
    given = tuple(range(t.n)) if args.ordering == "identity" else None
    found = stars.nebula_verdict(t, args.kind, given)
    order, verdict, comps = found.ordering, found.holds, found.components
    validation = []
    if order is not None:
        check, galaxy = _independent_component_check(t, order, comps)
        validation.append(check)
        if args.kind == "nebula":
            expected = all(c.kind is not stars.StarKind.NON_STAR for c in comps)
        elif args.kind == "galaxy":
            expected = galaxy
        else:
            want = StarKind(args.kind)
            expected = all(
                c.kind is stars.StarKind.SINGLETON
                or (c.kind is want and len(c.vertices) == 3)
                for c in comps
            )
        validation.append({"check": "verdict-vs-components", "passed": expected == verdict})
    else:
        validation.append(
            {"check": "exhaustive-search-exhausted", "passed": True,
             "detail": "no ordering satisfies the predicate within the budget"}
        )
    return (
        {"file": args.file, "ordering": args.ordering, "kind": args.kind},
        {
            "verdict": verdict,
            "ordering": None if order is None else [v + 1 for v in order],
            "components": [_component_payload(c) for c in comps],
        },
        validation,
    )


def example_checklist() -> list[dict]:
    """The bundled-example verification suite; each entry is one named check."""
    checks: list[dict] = []
    left = examples.left_example()
    central = examples.central_example()
    identity = examples.IDENTITY_12

    comps = stars.classify_components(stars.backward_graph(left, identity), identity)
    expected_left = {
        (frozenset({0, 4, 8}), 0, stars.StarKind.LEFT),
        (frozenset({5, 7, 10}), 5, stars.StarKind.LEFT),
        (frozenset({1, 3}), 1, stars.StarKind.GENERAL),
        (frozenset({2, 9}), 2, stars.StarKind.GENERAL),
        (frozenset({6, 11}), 6, stars.StarKind.GENERAL),
    }
    checks.append(
        {
            "check": "left-example-components",
            "passed": {(c.vertices, c.center, c.kind) for c in comps} == expected_left,
            "detail": [_component_payload(c) for c in comps],
        }
    )

    comps_c = stars.classify_components(stars.backward_graph(central, identity), identity)
    expected_central = {
        (frozenset({0, 3, 7}), 3),
        (frozenset({2, 4, 8}), 4),
        (frozenset({1, 5, 10}), 5),
        (frozenset({6, 9, 11}), 9),
    }
    checks.append(
        {
            "check": "central-example-components",
            "passed": all(c.kind is stars.StarKind.CENTRAL for c in comps_c)
            and {(c.vertices, c.center) for c in comps_c} == expected_central,
            "detail": [_component_payload(c) for c in comps_c],
        }
    )
    checks.append(
        {
            "check": "central-example-central-nebula-ordering",
            "passed": stars.is_central_nebula_ordering(central, identity),
        }
    )
    checks.append(
        {
            "check": "left-example-nebula-ordering",
            "passed": stars.is_nebula_ordering(left, identity),
        }
    )
    for name, t in (("left", left), ("central", central)):
        closure = core.find_module(t)
        exhaustive = core.find_module_exhaustive(t)
        checks.append(
            {
                "check": f"{name}-example-prime",
                "passed": closure is None and exhaustive is None,
                "detail": {
                    "closure": None if closure is None else _one_based(closure),
                    "exhaustive": None if exhaustive is None else _one_based(exhaustive),
                },
            }
        )
    try:
        nebula, embedding = product.extend_to_product_form(left, identity, StarKind.LEFT)
        big = nebula.build()
        checks.append(
            {
                "check": "left-example-product-extension",
                "passed": embedding.validate(big, left)
                and big.n >= 15
                and stars.is_left_nebula_ordering(big, tuple(range(big.n))),
                "detail": {"extension_order": big.n, "stars": nebula.star_count},
            }
        )
    except (NebulabError, ValueError) as exc:
        checks.append(
            {"check": "left-example-product-extension", "passed": False, "detail": str(exc)}
        )
    return checks


def cmd_verify_examples(args) -> tuple[dict, dict, list[dict]]:
    checks = example_checklist()
    failed = [c["check"] for c in checks if not c["passed"]]
    return {}, {"passed": not failed, "failed_checks": failed}, checks


def cmd_free(args) -> tuple[dict, dict, list[dict]]:
    t = _read_tournament(args.host)
    family = [_read_tournament(path) for path in args.members]
    findings = []
    validation = []
    free = True
    for path, member in zip(args.members, family):
        emb = containment.contains(t, member)
        findings.append(
            {"member": path, "contained": emb is not None,
             "embedding": None if emb is None else [v + 1 for v in emb.mapping]}
        )
        if emb is not None:
            free = False
            validation.append(
                {"check": f"embedding-validates:{path}", "passed": emb.validate(t, member)}
            )
        else:
            try:
                brute = containment.brute_force_contains(t, member)
            except BudgetError:
                validation.append(
                    {"check": f"absence-noted:{path}", "passed": True,
                     "detail": "brute-force oracle above budget; exact backtracking trusted"}
                )
            else:
                validation.append(
                    {"check": f"brute-force-agrees:{path}", "passed": brute is None}
                )
    return (
        {"host": args.host, "members": list(args.members)},
        {"free": free, "findings": findings},
        validation,
    )


def _sweep_tr(rows: tuple[int, ...]) -> int:
    """tr by brute force: the size of the first subset, in decreasing size,
    that holds no directed triangle u -> v -> w -> u."""
    n = len(rows)
    for r in range(n, 0, -1):
        for subset in itertools.combinations(range(n), r):
            mask = core.vertex_mask(subset)
            # a w in rows[v] & mask outside rows[u] beats u (w != u, as u beats v)
            if not any(rows[v] & mask & ~rows[u]
                       for u in subset for v in subset if rows[u] >> v & 1):
                return r


def _chain_dp_tr(t: core.Tournament) -> int:
    """tr by a sink-first chain DP: a transitive set's last vertex is beaten
    by all the others, so size(mask) = max over v in mask of
    1 + size(mask & in(v))."""
    into = [t.in_mask(v) for v in range(t.n)]
    memo = {0: 0}

    def size(mask: int) -> int:
        cached = memo.get(mask)
        if cached is None:
            cached = memo[mask] = max(1 + size(mask & into[v]) for v in core.mask_vertices(mask))
        return cached

    return size((1 << t.n) - 1)


def cmd_tr(args) -> tuple[dict, dict, list[dict]]:
    t = _read_tournament(args.file)
    best = core.largest_transitive(t)
    validation = [{"check": "set-is-transitive",
                   "passed": core.is_transitive(core.induced(t, best))}]
    tr = len(best)
    if t.n <= 10:
        validation.append({"check": "subset-sweep-agrees", "passed": _sweep_tr(t.rows) == tr})
    validation.append({"check": "chain-dp-agrees", "passed": _chain_dp_tr(t) == tr})
    return {"file": args.file}, {"tr": tr, "vertices": _one_based(best)}, validation


def _parse_slots(spec: str) -> tuple[tuple[int, ...], ...]:
    """Parse 'a,b,c;d,e,f' into integer tuples; PlacementNebula checks the rest."""
    try:
        return tuple(tuple(int(x) for x in chunk.split(",")) for chunk in spec.split(";"))
    except ValueError:
        raise ParseError(f"slot triples {spec!r} must hold integers") from None


def cmd_product(args) -> tuple[dict, dict, list[dict]]:
    kind = StarKind(args.kind)
    placements = _parse_slots(args.slots)
    nebula, t = product.build_nebula(kind, placements)
    identity = tuple(range(t.n))
    predicate = stars.PREDICATES[args.kind]
    validation = [
        {"check": "slot-ordering-satisfies-kind", "passed": predicate(t, identity)},
        {
            "check": "backward-edges-round-trip",
            "passed": len(core.backward_edges(t, identity)) == 2 * nebula.star_count,
        },
    ]
    if args.out:
        _write_text(args.out, files.write_matrix(t))
    return (
        {"kind": args.kind, "slots": args.slots, "out": args.out},
        {"order": t.n, "stars": nebula.star_count, "width": nebula.width},
        validation,
    )


def cmd_complement(args) -> tuple[dict, dict, list[dict]]:
    t = _read_tournament(args.file)
    comp = core.complement(t)
    validation = [
        {"check": "involution", "passed": core.complement(comp) == t},
        {
            "check": "edges-reversed",
            "passed": all(comp.has_edge(v, u) == t.has_edge(u, v)
                          for u in range(t.n) for v in range(t.n) if u != v),
        },
    ]
    if args.out:
        _write_text(args.out, files.write_matrix(comp))
    return {"file": args.file, "out": args.out}, {"order": comp.n}, validation


def _read_structure(path: str, n: int) -> list[frozenset[int]]:
    """Parse {"parts": [[v, ...], ...]} with 1-based vertices; algorithm.run
    checks the part count, sizes, disjointness and strong structure."""
    text = _read_text(path)  # outside the try: a ParseError is a ValueError
    try:
        blocks = json.loads(text)["parts"]
    except (ValueError, TypeError, KeyError):
        raise ParseError(f"{path} is not a JSON object with a 'parts' list") from None
    if not isinstance(blocks, list) or not all(isinstance(block, list) for block in blocks):
        raise ParseError(f"{path} must hold a list of vertex lists under 'parts'")
    if not all(type(v) is int and 1 <= v <= n for block in blocks for v in block):
        raise ParseError(f"structure vertices must be integers in 1..{n}")
    return [frozenset(v - 1 for v in block) for block in blocks]


def _read_trace(path: str) -> list:
    """The records of a --trace file, one JSON value per nonblank line."""
    text = _read_text(path)  # outside the try: a ParseError is a ValueError
    try:
        return [json.loads(line) for line in text.split("\n") if line.strip()]
    except ValueError as exc:
        raise ParseError(f"{path} is not a JSON-lines trace: {exc}") from None


def _outcome_payload(outcome, phase: int) -> dict:
    if isinstance(outcome, algorithm.CompletePairOutcome):
        return {
            "kind": "complete-pair",
            "state": outcome.state_label,
            "a": _one_based(outcome.pair.a),
            "b": _one_based(outcome.pair.b),
            "phase": phase,
        }
    if isinstance(outcome, algorithm.ForbiddenCopyOutcome):
        return {
            "kind": "forbidden-copy",
            "nebula": outcome.kind.value,
            "embedding": [v + 1 for v in outcome.embedding.mapping],
            "phase": phase,
        }
    return {
        "kind": "no-monochromatic-clique",
        "phase": phase,
        "white": outcome.white_edges,
        "black": outcome.black_edges,
    }


def cmd_run_algorithm(args) -> tuple[dict, dict, list[dict]]:
    host = _read_tournament(args.host)
    saved = _read_trace(args.replay) if args.replay else None
    spec = algorithm.CASES[args.case]
    nebulae = {
        spec.white: product.PlacementNebula(spec.white, _parse_slots(args.nebula_white), args.k),
        spec.black: product.PlacementNebula(spec.black, _parse_slots(args.nebula_black), args.k),
    }
    config = algorithm.AlgorithmConfig(
        args.case,
        nebulae,
        args.k,
        args.t,
        args.part_size,
        args.c,
        args.lam,
    )
    if args.structure == "auto":
        cert = algorithm.find_strong_structure(
            host, args.t, args.part_size, config.c, config.lam, seed=args.seed
        )
        if cert is None:
            raise BudgetError("no verifying strong structure found")
        parts = list(cert.parts)
    else:
        cert, parts = None, _read_structure(args.structure, host.n)
    result = algorithm.run(host, parts, config, cert)
    if args.trace:
        lines = [json.dumps(record, sort_keys=True) + "\n" for record in result.trace]
        _write_text(args.trace, "".join(lines))
    validation = [{"check": "phase-bound", "passed": result.phases <= config.phase_bound()}]
    if isinstance(result.outcome, algorithm.CompletePairOutcome):
        validation.append({"check": "pair-complete", "passed": result.outcome.pair.validate(host)})
    if isinstance(result.outcome, algorithm.ForbiddenCopyOutcome):
        validation.append({
            "check": "copy-validates",
            "passed": result.outcome.embedding.validate(host, result.outcome.pattern),
        })
    if saved is not None:
        current = [json.loads(json.dumps(r, sort_keys=True)) for r in result.trace]
        validation.append({"check": "replay-matches", "passed": saved == current})
    return (
        {
            "host": args.host,
            "case": args.case,
            "k": args.k,
            "t": args.t,
            "part_size": args.part_size,
            "lambda": str(config.lam),
            "c": str(config.c),
            "structure": args.structure,
        },
        {"outcome": _outcome_payload(result.outcome, result.phases), "phases": result.phases},
        validation,
    )


def cmd_exponent(args) -> tuple[dict, dict, list[dict]]:
    family = [_read_tournament(path) for path in args.family]
    rep = containment.empirical_eh_exponent(family, args.sizes, args.samples, args.seed)
    # independent slope refit from the reported samples
    xs = [math.log(n) for n, _ in rep.samples]
    ys = [math.log(v) for _, v in rep.samples]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    refit = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    # each size has a rate, is flagged iff its rate is above one half and
    # kept samples * (1 - rate) of its samples
    kept = Counter(n for n, _ in rep.samples)
    expected = Counter()
    for n, rate in rep.failure_rates:
        expected[n] += args.samples * (1 - rate)
    flags_ok = (
        [n for n, _ in rep.failure_rates] == args.sizes
        and [n for n, rate in rep.failure_rates if rate > 0.5] == list(rep.flagged_sizes)
        and all(abs(kept[n] - expected[n]) < 1e-9 for n in kept.keys() | expected.keys())
    )
    validation = [
        {"check": "slope-refit", "passed": abs(refit - rep.slope) < 1e-12},
        {"check": "failure-flags", "passed": flags_ok},
    ]
    return (
        {"family": list(args.family), "sizes": args.sizes, "samples": args.samples},
        {
            "slope": rep.slope,
            "band": list(rep.band),
            "samples": [list(s) for s in rep.samples],
            "failure_rates": [[n, r] for n, r in rep.failure_rates],
            "flagged_sizes": list(rep.flagged_sizes),
        },
        validation,
    )


KNOWN_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456, 8: 6880, 9: 191536}


def cmd_enumerate(args) -> tuple[dict, dict, list[dict]]:
    # the class-count check knows no count above n = 9
    reps_list = list(core.enumerate_tournaments(args.n, budget=max(KNOWN_CLASS_COUNTS)))
    kept = []
    for t in reps_list:
        if args.filter == "prime" and not core.is_prime(t):
            continue
        if args.filter == "nebula-orderable" and (
            stars.find_ordering(t, stars.is_nebula_ordering) is None
        ):
            continue
        kept.append(t)
    if args.out:
        out_dir = Path(args.out)
        names = [f"class_{idx:05d}.txt" for idx in range(len(kept))]
        # class files of another run would be read as classes of this one
        stale = sorted({p.name for p in out_dir.glob("class_*.txt") if p.name[6:-4].isdigit()}
                       - set(names))
        if stale:
            raise ParseError(f"{out_dir} holds {stale[0]}, a class file this run would not write")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParseError(f"cannot make the directory {out_dir}: {exc}") from exc
    # each class is rendered once: the round trip parses the text that is written
    written = []
    round_trip = True
    for idx, t in enumerate(kept):
        text = files.write_matrix(t)
        round_trip = round_trip and files.parse_tournament(text) == t
        if args.out:
            path = str(out_dir / names[idx])
            _write_text(path, text)
            written.append(path)
    validation = [
        {
            "check": "class-count-table",
            "passed": len(reps_list) == KNOWN_CLASS_COUNTS[args.n],
            "detail": {"total_classes": len(reps_list)},
        },
        {"check": "round-trip", "passed": round_trip},
    ]
    return (
        {"n": args.n, "filter": args.filter, "out": args.out},
        {"total": len(reps_list), "kept": len(kept), "files": written},
        validation,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(prog="nebulab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="star/nebula/galaxy classification")
    p.add_argument("file")
    p.add_argument("--ordering", choices=["identity", "search"], default="identity")
    p.add_argument("--kind", choices=sorted(stars.PREDICATES), default="nebula")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify-examples", help="run the bundled-example checklist")
    p.set_defaults(handler=cmd_verify_examples)

    p = sub.add_parser("free", help="check freeness from a family")
    p.add_argument("host")
    p.add_argument("members", nargs="+")
    p.set_defaults(handler=cmd_free)

    p = sub.add_parser("tr", help="largest transitive subtournament")
    p.add_argument("file")
    p.set_defaults(handler=cmd_tr)

    p = sub.add_parser("product", help="build a product-form nebula")
    p.add_argument("--kind", choices=["left", "right", "central"], required=True)
    p.add_argument("--slots", required=True, help="e.g. '1,2,3;4,5,6'")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("complement", help="reverse all edges")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_complement)

    p = sub.add_parser("run-algorithm", help="run the phase algorithm")
    p.add_argument("host")
    p.add_argument("--case", choices=sorted(algorithm.CASES), required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--part-size", type=int, required=True)
    p.add_argument("--lam", type=_fraction, default="3/10")
    p.add_argument("--c", type=_fraction, default="1/10")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--structure", default="auto")
    p.add_argument("--nebula-white", default="1,2,3")
    p.add_argument("--nebula-black", default="1,2,3")
    p.add_argument("--trace")
    p.add_argument("--replay")
    p.set_defaults(handler=cmd_run_algorithm)

    p = sub.add_parser("exponent", help="empirical transitive-size exponent")
    p.add_argument("--family", nargs="*", default=[])
    p.add_argument("--sizes", type=_positive_ints, required=True)
    p.add_argument("--samples", type=_positive_int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(handler=cmd_exponent)

    p = sub.add_parser("enumerate", help="one tournament per isomorphism class")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--filter", choices=["prime", "nebula-orderable"])
    p.add_argument("--out")
    p.set_defaults(handler=cmd_enumerate)

    for sp in sub.choices.values():
        sp.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte determinism)")
    return parser


# the stderr label and exit code of each library error; the first match wins
ERROR_EXITS = (
    (ParseError, "parse error", 2),
    (BudgetError, "budget exceeded", 3),
    (NoDataError, "no data", 3),
    (InvariantError, "invariant violation", 4),
    (NebulabError, "diagnostic failure", 4),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        config, results, validation = args.handler(args)
    except NebulabError as exc:
        label, code = next((label, code) for cls, label, code in ERROR_EXITS
                           if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    seed = getattr(args, "seed", None)  # only run-algorithm and exponent take --seed
    report = reports.make_report(args.command, config, seed, results, validation)
    if args.timing:
        report["timing"] = time.monotonic() - started
    sys.stdout.write(reports.render(report))
    return 0 if all(v["passed"] for v in validation) else 1


if __name__ == "__main__":
    sys.exit(main())
