"""Tournament file format: a one-line header plus a matrix or backward-edge body.

Vertex labels in files are 1-based; the parsed Tournament is 0-based.

    tournament <n> matrix          tournament <n> backedges
    0110...                        2 3 1 ... (ordering, n labels)
    ...                            5 1      (edge v5 -> v1, one per line)

The canonical writer emits the matrix body; parse(write(t)) == t and
write(parse(s)) == s for canonical output.
"""

from __future__ import annotations

from .core import Tournament, from_backward_edges
from .errors import ParseError


def parse_tournament(text: str) -> Tournament:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "tournament":
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad vertex count: {header[1]!r}") from exc
    if n < 1:
        raise ParseError("vertex count must be positive")
    body = lines[1:]
    if header[2] == "matrix":
        return _parse_matrix(n, body)
    if header[2] == "backedges":
        return _parse_backedges(n, body)
    raise ParseError(f"unknown format {header[2]!r}")


def _parse_matrix(n: int, body: list[str]) -> Tournament:
    if len(body) != n:
        raise ParseError(f"expected {n} matrix rows, got {len(body)}")
    rows = []
    for i, line in enumerate(body):
        if len(line) != n or line.count("0") + line.count("1") != n:
            raise ParseError(f"row {i + 1} is not {n} binary digits")
        rows.append(int(line[::-1], 2))
    try:
        return Tournament(n, tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_backedges(n: int, body: list[str]) -> Tournament:
    if not body:
        raise ParseError("backedges body needs an ordering line")
    try:
        order = tuple(int(tok) - 1 for tok in body[0].split())
    except ValueError as exc:
        raise ParseError(f"bad ordering line: {body[0]!r}") from exc
    back = []
    for line in body[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"bad backward edge line: {line!r}")
        try:
            back.append((int(toks[0]) - 1, int(toks[1]) - 1))
        except ValueError as exc:
            raise ParseError(f"bad backward edge line: {line!r}") from exc
    try:
        return from_backward_edges(n, order, back)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_matrix(t: Tournament) -> str:
    lines = [f"tournament {t.n} matrix"]
    lines.extend(format(row, f"0{t.n}b")[::-1] for row in t.rows)
    return "\n".join(lines) + "\n"
