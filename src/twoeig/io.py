"""Plain-text formats for signed matrices, signed graphs, and triple systems.

Matrix format: a header line "rows cols", then exactly `rows` lines of
whitespace-separated entries from {-1, 0, 1}. After the data lines only
"key = value" annotations may follow (such as the "alpha = 5" line that
`twoeig gen --certify` writes); they are skipped, any other line is an error.

Graph format: a header line "n m", then exactly m lines "u v" or "u v sign"
with 1-based vertex labels; a missing sign means +1.

Triple format: a header line "n t", then exactly t lines "a b c" with
1-based labels. Blank lines are skipped; missing or extra lines raise ValueError.
"""

from __future__ import annotations

from .core import SignedGraph, SignedMatrix

__all__ = [
    "parse_matrix",
    "format_matrix",
    "parse_signed_graph",
    "format_signed_graph",
    "parse_triples",
    "format_triples",
]


def _data_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def _header(line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"{what} header must be two integers, got {line!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{what} header must be two integers, got {line!r}") from None
    return a, b


def parse_matrix(text: str) -> SignedMatrix:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty matrix text")
    rows, cols = _header(lines[0], "matrix")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(lines) < 1 + rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    for line in lines[1 + rows :]:
        key, eq, value = line.partition("=")
        if not (eq and key.strip().isidentifier() and value.strip()):
            raise ValueError(f"expected {rows} data rows, then only 'key = value' "
                             f"annotations, got {line!r}")
    data = []
    for i in range(rows):
        parts = lines[1 + i].split()
        if len(parts) != cols:
            raise ValueError(f"row {i + 1} has {len(parts)} entries, expected {cols}")
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"row {i + 1} has a non-integer entry") from None
        data.append(row)
    return SignedMatrix(data)


def format_matrix(m: SignedMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(f"{int(x):d}" for x in row))
    return "\n".join(lines) + "\n"


def parse_signed_graph(text: str) -> SignedGraph:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty graph text")
    n, m = _header(lines[0], "graph")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if len(lines) != 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    triples = []
    for i in range(m):
        parts = lines[1 + i].split()
        if len(parts) not in (2, 3):
            raise ValueError(f"edge line {i + 1} must be 'u v' or 'u v sign', got {lines[1 + i]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            s = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ValueError(f"edge line {i + 1} has a non-integer field") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge line {i + 1}: vertex out of range 1..{n}")
        triples.append((u - 1, v - 1, s))
    return SignedGraph.from_edges(n, triples)


def format_signed_graph(sg: SignedGraph) -> str:
    signs = sg.edge_signs()
    lines = [f"{sg.n} {len(signs)}"]
    for (u, v), s in sorted(signs.items()):
        lines.append(f"{u + 1} {v + 1} {s:d}")
    return "\n".join(lines) + "\n"


def parse_triples(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Read a triple system; returns (n, sorted 0-based triples)."""
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty triple text")
    n, t = _header(lines[0], "triple")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if t < 0:
        raise ValueError(f"triple count must be non-negative, got {t}")
    if len(lines) != 1 + t:
        raise ValueError(f"expected {t} triple lines, found {len(lines) - 1}")
    triples = set()
    for i in range(t):
        parts = lines[1 + i].split()
        if len(parts) != 3:
            raise ValueError(f"triple line {i + 1} must have three labels, got {lines[1 + i]!r}")
        try:
            vals = sorted(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"triple line {i + 1} has a non-integer label") from None
        a, b, c = vals
        if not (1 <= a and c <= n):
            raise ValueError(f"triple line {i + 1}: label out of range 1..{n}")
        if a == b or b == c:
            raise ValueError(f"triple line {i + 1}: labels must be distinct")
        key = (a - 1, b - 1, c - 1)
        if key in triples:
            raise ValueError(f"duplicate triple {{{a}, {b}, {c}}}")
        triples.add(key)
    return n, sorted(triples)


def format_triples(n: int, triples) -> str:
    rows = sorted(tuple(sorted(t)) for t in triples)
    lines = [f"{n} {len(rows)}"]
    for a, b, c in rows:
        lines.append(f"{a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"
