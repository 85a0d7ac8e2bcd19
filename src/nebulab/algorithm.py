"""The phase algorithm: triple-classification coloring of part triples,
monochromatic clique selection, capacity-tracked star harvesting, and
forbidden-copy extraction from saturated vectors.

Parts are indexed 0..t-1 and held as vertex masks.  A k-subset of parts
chosen as a clique keeps, from its first witness on, one vector per forbidden
nebula with one entry per component star; entries collect vertex-disjoint
witness triples up to the capacity ceil(W / (9k * C(t,k))).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_
from typing import Optional, Sequence, Union

from .containment import Embedding
from .core import Tournament, vertex_mask
from .errors import BudgetError, InvariantError, ParseError
from .product import SMALL_STARS, PlacementNebula
from .stars import StarKind
from .structures import (
    CompletePair,
    NormalPart,
    StructureCertificate,
    TripleClass,
    WitnessTriple,
    classify_triple,
    extract_product,
    lex_first_clique,
    verify_structure,
    witness,
)


@dataclass(frozen=True)
class CaseSpec:
    query: tuple[int, int]  # classify_triple query; its own j means white
    white: StarKind
    black: StarKind


CASES = {
    "LR": CaseSpec((2, 1), StarKind.LEFT, StarKind.RIGHT),
    "LC": CaseSpec((3, 1), StarKind.LEFT, StarKind.CENTRAL),
    "RC": CaseSpec((1, 2), StarKind.CENTRAL, StarKind.RIGHT),
}

SUBSET_BUDGET = 200_000


@dataclass(frozen=True)
class AlgorithmConfig:
    case: str
    nebulae: dict[StarKind, PlacementNebula]
    k: int
    t: int
    part_size: int
    c: Fraction
    lam: Fraction

    def __post_init__(self) -> None:
        if self.case not in CASES:
            raise ParseError(f"unknown case {self.case}")
        spec = self.spec
        if set(self.nebulae) != {spec.white, spec.black}:
            raise ParseError(
                f"case {self.case} needs nebulae for {spec.white.value} and {spec.black.value}"
            )
        if not 1 <= self.k <= self.t:
            raise ParseError(f"need 1 <= k <= t, got k = {self.k} and t = {self.t}")
        for nebula in self.nebulae.values():
            if nebula.width > self.k:
                raise ParseError(f"nebula width {nebula.width} exceeds k = {self.k}")
        if not 0 <= self.lam < 1:
            raise ParseError(f"need 0 <= lambda < 1, got lambda = {self.lam}")
        if math.comb(self.t, self.k) > SUBSET_BUDGET:
            raise BudgetError(
                f"C({self.t},{self.k}) = {math.comb(self.t, self.k)} part subsets exceed "
                f"the enumeration budget {SUBSET_BUDGET}"
            )
        if self.part_size < 1:
            raise ParseError("part size must be positive")

    @property
    def spec(self) -> CaseSpec:
        return CASES[self.case]

    @property
    def capacity(self) -> int:
        denom = 9 * self.k * math.comb(self.t, self.k)
        return -(-self.part_size // denom)

    def phase_bound(self) -> int:
        return 2 * self.k * math.comb(self.t, self.k) * self.capacity

    def lambda_warning(self) -> Optional[str]:
        """The guarantee threshold from the saturation argument, when finite."""
        c1 = self.nebulae[self.spec.white].star_count
        c2 = self.nebulae[self.spec.black].star_count
        if c1 <= 1 or c2 <= 1:
            return None
        denom = (
            3 * self.k * math.comb(self.t, self.k) * (c1 - 1) ** 2 * (c2 - 1) ** 2 * 81
        )
        threshold = Fraction(1, denom)
        if self.lam >= threshold:
            return f"lambda {self.lam} is not below the guarantee threshold {threshold}"
        return None


def subset_rank(subset: Sequence[int], t: int) -> int:
    """The lex rank of the increasing ``subset`` among the subsets of 0..t-1
    of its size, by the combinatorial number system."""
    k = len(subset)
    return math.comb(t, k) - 1 - sum(math.comb(t - 1 - c, k - i) for i, c in enumerate(subset))


Vector = list[list[tuple[int, int, int]]]  # one entry of witness triples per star


@dataclass
class PhaseState:
    """Parts and the used-vertex ledger as vertex masks; vectors by (kind, subset)."""

    phase: int
    initial_sets: tuple[int, ...]
    vectors: dict[tuple[StarKind, tuple[int, ...]], Vector] = field(default_factory=dict)
    used: int = 0

    @property
    def sets(self) -> list[int]:
        """The current parts: each initial part less the ledger."""
        return [part & ~self.used for part in self.initial_sets]


def initial_state(parts: Sequence[frozenset[int]]) -> PhaseState:
    return PhaseState(phase=0, initial_sets=tuple(vertex_mask(p) for p in parts))


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletePairOutcome:
    pair: CompletePair
    state_label: int  # 0: uncolored edge, 2: witness fallback


@dataclass(frozen=True)
class ForbiddenCopyOutcome:
    kind: StarKind
    pattern: Tournament
    embedding: Embedding


@dataclass(frozen=True)
class NoCliqueOutcome:
    white_edges: int
    black_edges: int


Outcome = Union[CompletePairOutcome, ForbiddenCopyOutcome, NoCliqueOutcome]


@dataclass
class RunResult:
    outcome: Outcome
    phases: int  # phases that appended, and the terminal phase's number
    trace: list[dict]


# ---------------------------------------------------------------------------
# One phase
# ---------------------------------------------------------------------------


ColorEntry = Union[tuple[str, TripleClass], tuple[str, CompletePair]]


def color_hyperedges(
    host: Tournament, sets: Sequence[int], config: AlgorithmConfig
) -> dict[tuple[int, int, int], ColorEntry]:
    """Classify the 3-subsets of parts in lex order up to the first uncolored
    one; white when the case query's own j is emitted, black for the sibling
    verdict, uncolored with the complete pair otherwise."""
    if 0 in sets:
        raise InvariantError(
            f"part {sets.index(0)} emptied: parameters are outside the accounting regime")
    i_q, j_q = config.spec.query
    coloring: dict[tuple[int, int, int], ColorEntry] = {}
    for edge in combinations(range(config.t), 3):
        verdict = classify_triple(host, tuple(sets[part] for part in edge), i_q, j_q)
        if isinstance(verdict, CompletePair):
            coloring[edge] = ("uncolored", verdict)
            break
        coloring[edge] = ("white" if verdict.j == j_q else "black", verdict)
    return coloring


def find_monochromatic_clique(
    coloring: dict[tuple[int, int, int], ColorEntry], t: int, k: int
) -> Optional[tuple[tuple[int, ...], str]]:
    """First all-white k-subset in lex order, else first all-black, else None.

    After parts u < v are chosen, the later candidates are the parts c with
    (u, v, c) of the colour."""
    for want in ("white", "black"):
        later = [[0] * t for _ in range(t)]
        for (u, v, c), (label, _) in coloring.items():
            if label == want:
                later[u][v] |= 1 << c
        subset = lex_first_clique(
            t, k, lambda chosen, v: reduce(and_, (later[u][v] for u in chosen), -1))
        if subset is not None:
            return subset, want
    return None


def run_phase(
    host: Tournament, state: PhaseState, config: AlgorithmConfig
) -> tuple[Optional[Outcome], dict]:
    """Execute one phase; returns (terminal outcome or None, trace record)."""
    sets = state.sets
    coloring = color_hyperedges(host, sets, config)
    record: dict = {"phase": state.phase}
    edge, (label, payload) = next(reversed(coloring.items()))
    if label == "uncolored":
        record.update(action="state-0", edge=list(edge))
        return CompletePairOutcome(payload, 0), record
    record["white"] = sum(1 for v in coloring.values() if v[0] == "white")
    record["black"] = len(coloring) - record["white"]
    found = find_monochromatic_clique(coloring, config.t, config.k)
    if found is None:
        record.update(action="no-clique")
        return NoCliqueOutcome(record["white"], record["black"]), record
    subset, color = found
    kind = config.spec.white if color == "white" else config.spec.black
    record.update(clique=list(subset), color=color, kind=kind.value)
    nebula = config.nebulae[kind]
    vec = state.vectors.get((kind, subset), [[] for _ in nebula.placements])
    entry_index = next(
        (z for z, entry in enumerate(vec) if len(entry) < config.capacity), None
    )
    if entry_index is None:
        record.update(action="saturated")
        outcome = nonsaturation_extract(host, state, config, subset, kind)
        return outcome, record
    slots = nebula.placements[entry_index]
    x = tuple(subset[s - 1] for s in slots)
    sigma = tuple(sets[part] for part in x)
    verdict = coloring[x][1]
    assert isinstance(verdict, TripleClass)
    result = witness(host, sigma, verdict)
    if isinstance(result, CompletePair):
        record.update(action="state-2", edge=list(x))
        return CompletePairOutcome(result, 2), record
    assert isinstance(result, WitnessTriple)
    vec[entry_index].append(result.vertices)
    state.vectors[kind, subset] = vec
    state.used |= vertex_mask(result.vertices)
    record.update(
        action="append",
        entry=[kind.value, subset_rank(subset, config.t), entry_index],
        witness=list(result.vertices),
    )
    state.phase += 1
    return None, record


# ---------------------------------------------------------------------------
# Nonsaturation extraction
# ---------------------------------------------------------------------------


def nonsaturation_extract(
    host: Tournament,
    state: PhaseState,
    config: AlgorithmConfig,
    subset: tuple[int, ...],
    kind: StarKind,
) -> ForbiddenCopyOutcome:
    """Turn a saturated vector into a validated copy of its forbidden nebula.

    The stored triples of each star fill one column per slot, each row
    inducing the star.  ``check_state`` has confirmed that every stored
    vertex lies in its slot's part, so the columns form a strong
    (c*theta, lambda/theta)-structure with theta = 1/(9k*C(t,k)) and need no
    re-check: a column holds cap = ceil(theta*W) >= theta*W >= c*theta*n
    vertices of its part, and a vertex that misses at most lambda*W of a
    part misses at most a lambda/theta share of that part's column.
    extract_product raises unless its copy validates, so no copy is
    fabricated.
    """
    nebula = config.nebulae[kind]
    vec = state.vectors[kind, subset]
    cap = config.capacity
    if any(len(entry) != cap for entry in vec):
        raise ValueError("extraction requires every entry at capacity")
    # each used slot's column of stored vertices, one per row, in slot order;
    # the i-th used slot becomes structure part i
    columns = dict(sorted(
        (slot, tuple(entry[m] for entry in vec[z]))
        for z, slots in enumerate(nebula.placements)
        for m, slot in enumerate(slots)
    ))
    omega_sets = [frozenset(column) for column in columns.values()]
    theta = Fraction(1, 9 * config.k * math.comb(config.t, config.k))
    star = SMALL_STARS[kind]
    position = list(columns).index
    components = [
        NormalPart(star, {m: position(slot) for m, slot in enumerate(slots)},
                   {position(slot): columns[slot] for slot in slots})
        for slots in nebula.placements
    ]
    # extract_product raises unless its embedding induces the product, and the
    # components sit at the ranks of the nebula's slots, so that product is the
    # nebula's own.
    extraction = extract_product(host, omega_sets, components, lam=config.lam / theta)
    return ForbiddenCopyOutcome(kind, extraction.product, extraction.embedding)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def check_state(host: Tournament, state: PhaseState, config: AlgorithmConfig) -> None:
    """Raise InvariantError on any violated phase invariant.  Parts derived
    from the ledger need no check of their own beyond the size floor."""
    cap = config.capacity
    floor = Fraction(config.part_size, 3) - 6 * config.k * math.comb(config.t, config.k)
    stored = 0
    count = 0
    for (kind, subset), vec in state.vectors.items():
        for z, (entry, slots) in enumerate(zip(vec, config.nebulae[kind].placements)):
            if len(entry) > cap:
                raise InvariantError(
                    f"entry ({kind.value},{subset_rank(subset, config.t)},{z}) exceeds capacity"
                )
            sigma = tuple(state.initial_sets[subset[slot - 1]] for slot in slots)
            for triple in entry:
                stored |= vertex_mask(triple)
                count += len(triple)
                if not WitnessTriple(triple, kind).validate(host, sigma):
                    raise InvariantError(
                        f"stored triple {triple} is not a {kind.value} witness in its slot parts"
                    )
    if stored.bit_count() != count:
        raise InvariantError("stored triples are not vertex-disjoint")
    if stored != state.used:
        raise InvariantError("used-vertex ledger out of sync")
    for j, current in enumerate(state.sets):
        if floor > 0 and current.bit_count() < floor:
            raise InvariantError(f"part {j} fell below the size floor {floor}")


def run(
    host: Tournament,
    parts: Sequence[frozenset[int]],
    config: AlgorithmConfig,
    cert: Optional[StructureCertificate] = None,
) -> RunResult:
    """Run phases until a terminal outcome.  A state-0 pair is complete by
    classify_triple's construction, a state-2 pair by witness's lemma, and
    extract_product validates a forbidden copy.

    The run ends by its own accounting: each non-terminal phase appends one
    triple to an entry below capacity, and there are at most 2*C(t,k)
    vectors (two kinds, one per k-subset) of at most floor(k/3) entries (a
    nebula's width is at most k, three slots per star).  So at most
    2*C(t,k)*floor(k/3)*cap phases append, fewer than ``phase_bound()``.

    The parts must be t disjoint sets of W vertices forming a strong
    (c, lambda)-structure; ParseError names the first rule they break.  A
    passed ``cert`` of these parts under this host, c and lambda, as
    ``find_strong_structure`` returns, stands in for the strong check.
    """
    parts = [frozenset(p) for p in parts]
    if len(parts) != config.t:
        raise ParseError(f"the structure has {len(parts)} parts, not t = {config.t}")
    if any(len(p) != config.part_size for p in parts):
        raise ParseError(f"structure parts must all hold W = {config.part_size} vertices")
    if len(frozenset().union(*parts)) < config.t * config.part_size:
        raise ParseError("structure parts must be disjoint")
    if cert is None or (cert.passed, cert.parts, cert.under) != (
            True, tuple(parts), (host, config.c, config.lam)):
        cert = verify_structure(host, parts, config.c, config.lam)
    if not cert.passed:
        first = cert.violations[0]
        detail = ", ".join(f"{key}={value}" for key, value in first.detail.items())
        raise ParseError(f"the structure fails strong verification: {first.check} ({detail})")
    state = initial_state(parts)
    trace: list[dict] = []
    warning = config.lambda_warning()
    if warning:
        trace.append({"phase": -1, "action": "warning", "message": warning})
    outcome: Optional[Outcome] = None
    while outcome is None:
        outcome, record = run_phase(host, state, config)
        trace.append(record)
        check_state(host, state, config)
    trace.append({"phase": state.phase, "action": "terminal", "outcome": type(outcome).__name__})
    return RunResult(outcome, state.phase, trace)


def find_strong_structure(
    host: Tournament,
    t: int,
    part_size: int,
    c: Fraction,
    lam: Fraction,
    seed: int = 0,
) -> Optional[StructureCertificate]:
    """Sampled search for a verifying strong structure, returned as its passed
    certificate: contiguous blocks first, then up to 50 seeded random
    partitions, each drawn only once every candidate before it has failed.
    A drawn partition that was already refused is not verified again."""
    need = t * part_size
    if need > host.n:
        return None
    rng = random.Random(seed)
    refused = set()
    for attempt in range(51):
        vertices = rng.sample(range(host.n), need) if attempt else list(range(need))
        parts = tuple(
            frozenset(vertices[i * part_size : (i + 1) * part_size]) for i in range(t)
        )
        if parts in refused:
            continue
        cert = verify_structure(host, parts, c, lam)
        if cert.passed:
            return cert
        refused.add(parts)
    return None
