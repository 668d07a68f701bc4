"""Plain-text formats for signed matrices, signed graphs, and triple systems.

Matrix format: a header line "rows cols", then exactly `rows` lines of
whitespace-separated entries from {-1, 0, 1}. After the data lines only
"key = value" annotations may follow (such as the "alpha = 5" line that
`twoeig gen --certify` writes); they are skipped, any other line is an error.

Graph format: a header line "n m", then exactly m lines "u v" or "u v sign"
with 1-based vertex labels; a missing sign means +1. format_signed_graph
writes every sign, format_graph (an unsigned Graph) none.

Triple format: a header line "n t", then exactly t lines "a b c" with
1-based labels. Blank lines are skipped; missing or extra lines raise ValueError.

Every integer (header, entry, label, sign) is an ASCII token: an optional +
or - sign, then one or more digits 0-9. Tokens are separated by whitespace and
lines end at line breaks, both as str.split and str.splitlines see them. An
entry out of range is rejected, never wrapped into range.

No Python loop runs over entries, edges or triples. The reader (_Lines) finds
the lines, counts their tokens and checks the token grammar on the text's
bytes, then reads all data integers. It works on row blocks of about
_BLOCK_BYTES (256 KB), each ending after a "\n": every pass over a block
stays in cache, and a parse holds the text, its result and one block's
working arrays (at order 2048, 1.6 times the text's bytes). A long text's
integers are read block by block into one array: a block of one-digit tokens,
as in every trit matrix, is decoded from its digit bytes and the bytes before
them, any other (labels, or a "01") is read by np.fromstring, which saturates
instead of wrapping; a short text's by one np.fromstring call. Every check
is an array expression, an edge's in the one edge validator,
core._edge_array; triples are returned as a (t, 3) array. Python reads only
the header, the annotations, and on bad input the one line that the error
message names. The writer (_write_rows) lays each entry into a fixed-width
byte buffer by whole-column arithmetic and deletes the pad bytes with one
bytes.translate pass.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import (Graph, SignedGraph, SignedMatrix, _edge_array, _entries_within, _first,
                   _int_rows, _lex_order, _upper_pairs)

__all__ = [
    "parse_matrix",
    "format_matrix",
    "parse_signed_graph",
    "format_signed_graph",
    "format_graph",
    "parse_triples",
    "format_triples",
]

_SPACE, _BREAK, _DIGIT, _SIGN, _OTHER = range(5)
_BYTE_KIND = bytes(_SPACE if c in b"\t\x1f " else _BREAK if c in b"\n\v\f\r\x1c\x1d\x1e"
                   else _DIGIT if c in b"0123456789" else _SIGN if c in b"+-" else _OTHER
                   for c in range(256))
# the non-ASCII characters that str.splitlines breaks at and str.split separates at,
# each mapped to one ASCII character, so that character offsets stay the same
_ASCII_WHITESPACE = str.maketrans(
    dict.fromkeys("\x85\u2028\u2029", "\n")
    | dict.fromkeys("\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008"
                    "\u2009\u200a\u202f\u205f\u3000", " "))
# whitespace that str.split skips and np.fromstring does not
_FROMSTRING_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
# data regions shorter than this go to np.fromstring even when every token has one
# digit: the byte decode costs about 13 us more per call and 10 ns less per byte,
# and on trit rows it overtakes np.fromstring between 0.9 and 1.5 KB (timeit,
# 2-vCPU AVX-512 host)
_DECODE_MIN_BYTES = 1536
# text is classified and decoded one block of about this many bytes at a time
# (_block_cuts): at order 1024 (2.1 MB of text) 256 KB blocks parse in 9.6-10.5 ms
# and 1 MB blocks in 13.0-13.6 ms (timeit, 2-vCPU AVX-512 host)
_BLOCK_BYTES = 2**18
_UNSIGNED = {size: np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


def _window_table() -> bytes:
    """The byte-translation table over the kinds (previous, byte, next), coded
    25 p + 5 b + n: bit 0 is set where a token begins, bit 1 where a token byte
    breaks the grammar [+-]?[0-9]+."""
    flags = bytearray(256)
    for prev, kind, after in itertools.product(range(5), repeat=3):
        if kind in (_SPACE, _BREAK):
            continue
        opens = prev in (_SPACE, _BREAK)
        bad = kind == _OTHER or (kind == _SIGN and not (opens and after == _DIGIT))
        flags[25 * prev + 5 * kind + after] = opens | bad << 1
    return bytes(flags)


_WINDOW_FLAGS = _window_table()


def _block_cuts(raw: bytes) -> list[int]:
    """[0, ..., len(raw)]: block bounds, each block at least _BLOCK_BYTES long (but
    the last) and ending just after a "\n", so that no line spans two blocks."""
    cuts = [0]
    while cut := raw.find(b"\n", cuts[-1] + _BLOCK_BYTES - 1, len(raw) - 1) + 1:
        cuts.append(cut)
    cuts.append(len(raw))
    return cuts


class _Lines:
    """The non-blank lines of a text, located on its bytes.

    Per non-blank line: the byte span [begin, end) and the token count; for the
    whole text, the positions of bytes that break the token grammar. Non-ASCII
    whitespace is first mapped to ASCII, so lines and tokens are those of
    str.splitlines and str.split; other non-ASCII bytes break the grammar.

    The bytes are classified one block at a time (_block_cuts), so every pass
    stays in cache and holds a few bytes per block byte. A block ends just
    after a "\n", which no multi-byte UTF-8 sequence contains, so no line spans
    two blocks. Its kinds are padded with a space at each end, which flags as
    the text does: a space opens a token as the "\n" before the block does, and
    a "\n", the block's last byte, is no token byte whatever follows it. One
    translation of the window codes (_WINDOW_FLAGS) gives token starts in bit 0
    and grammar breaks in bit 1; one max finds that no byte has bit 1, as in
    any valid text, and the line counts are then sums of the flags themselves.
    Every array holds text positions, as a one-block read's would.
    """

    def __init__(self, text: str):
        self.text = text
        self.ascii = text.isascii()
        if not self.ascii:
            text = text.translate(_ASCII_WHITESPACE)
        self.raw = text.encode("utf-8", "surrogatepass")
        self.bytes = np.frombuffer(self.raw, dtype=np.uint8)
        self.cuts = _block_cuts(self.raw)
        parts = [self._classify(lo, hi) for lo, hi in zip(self.cuts, self.cuts[1:])]
        begin, count, self.bad = (np.concatenate(p) if len(p) > 1 else p[0] for p in zip(*parts))
        end = np.append(begin[1:] - 1, self.bytes.size)[: begin.size]
        count = count.astype(np.intp)
        blank = count == 0
        self.begin, self.end, self.count = begin[~blank], end[~blank], count[~blank]

    def _classify(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Of block [lo, hi): its line starts, their token counts, and its bytes that
        break the grammar, as text positions."""
        # byte kinds, padded with a space at each end, and the window code of each byte
        kind = np.frombuffer(b"".join((b"\0", self.raw[lo:hi].translate(_BYTE_KIND), b"\0")),
                             np.uint8)
        code = kind[:-2] * np.uint8(25)
        code += kind[1:-1] * np.uint8(5)
        code += kind[2:]
        begin = np.concatenate(([0], np.flatnonzero(kind[1:-1] == _BREAK) + 1))
        del kind
        flags = np.frombuffer(code.tobytes().translate(_WINDOW_FLAGS), np.uint8)
        del code
        begin = begin[begin < hi - lo]
        if flags.max(initial=0) < 2:
            bad = np.zeros(0, dtype=np.intp)
        else:
            bad = np.flatnonzero(flags >> 1) + lo
            flags = flags & 1
        # uint32 holds any line's count; a wider sum would copy the block as wider integers
        count = np.add.reduceat(flags, begin, dtype=np.uint32)
        return begin + lo, count, bad

    def __len__(self) -> int:
        return self.count.size

    def line(self, k: int) -> str:
        """Non-blank line k of the original text, stripped."""
        lo, hi = int(self.begin[k]), int(self.end[k])
        if not self.ascii:  # the translation kept character offsets, not byte offsets
            lo, hi = (len(self.raw[:at].decode("utf-8", "surrogatepass")) for at in (lo, hi))
        return self.text[lo:hi].strip()

    def first_bad(self, k0: int, k1: int) -> int:
        """The first line in [k0, k1) with a token outside the grammar, else k1."""
        if k0 >= k1:
            return k1
        i = np.searchsorted(self.bad, self.begin[k0])
        if i == self.bad.size or self.bad[i] >= self.end[k1 - 1]:
            return k1
        return int(np.searchsorted(self.begin, self.bad[i], side="right")) - 1

    def integers(self, k0: int, k1: int, dtype=np.int64) -> np.ndarray:
        """The tokens of lines [k0, k1), k0 >= 1 and all in the grammar, as one flat
        array: int64 by one np.fromstring call below _DECODE_MIN_BYTES bytes, else
        dtype, a block at a time, holding a few bytes per block byte beside it. A
        block of one-digit tokens is decoded (_digits), any other read by
        np.fromstring, whose int64 values saturate, and saturated into dtype, so an
        entry out of range stays out of range. An int8 read (entries, where "01" is
        rare) tries every block; a wider one (labels, where a two-digit one means
        more follow) decodes no block after its first np.fromstring block."""
        if k0 >= k1:
            return np.zeros(0, dtype=np.int64)
        lo, hi = int(self.begin[k0]), int(self.end[k1 - 1])
        if hi - lo < _DECODE_MIN_BYTES:
            return self._fromstring(lo, hi)
        bounds = [lo, *(c for c in self.cuts if lo < c < hi), hi]
        ends = np.concatenate(([0], np.cumsum(self.count[k0:k1])))
        starts = ends[np.searchsorted(self.begin[k0:k1], bounds)].tolist()
        values, info, decode = np.empty(starts[-1], dtype=dtype), np.iinfo(dtype), True
        for a, b, t0, t1 in zip(bounds, bounds[1:], starts, starts[1:]):
            if not (decode and self._digits(a, b, values[t0:t1])):
                decode = info.bits == 8
                np.clip(self._fromstring(a, b), info.min, info.max, values[t0:t1], casting="unsafe")
        return values

    @functools.cached_property
    def controls(self) -> bool:  # separators that np.fromstring does not skip, looked for once
        return any(c in self.raw for c in b"\x1c\x1d\x1e\x1f")

    def _fromstring(self, lo: int, hi: int) -> np.ndarray:
        body = self.raw[lo:hi].translate(_FROMSTRING_SPACE) if self.controls else self.bytes[lo:hi]
        return np.fromstring(body, dtype=np.int64, sep=" ")

    def _digits(self, lo: int, hi: int, out: np.ndarray) -> bool:
        """Decode the tokens of bytes [lo, hi), lo >= 1, into out if its digit bytes are as
        many as its tokens (out.size), so that each has one: its digit, negated after a
        "-", as Python int reads "+1" and "-0" ("01" has two and is not decoded)."""
        # each byte as a digit, negated after a "-"; the header line precedes lo
        digits = self.bytes[lo:hi] - np.uint8(ord("0"))
        at = np.flatnonzero(digits < 10)
        if at.size != out.size:
            return False
        digits = digits.view(np.int8)
        digits *= 1 - 2 * (self.bytes[lo - 1 : hi - 1] == ord("-")).view(np.int8)
        if out.dtype == np.int8:  # every position is in range, and "clip" needs no buffer
            digits.take(at, out=out, mode="clip")
        else:
            out[:] = digits[at]
        return True


def _integer(token: str) -> int:
    digits = token[1:] if token[0] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer token: {token!r}")
    return int(token)


def _header(line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"{what} header must be two integers, got {line!r}")
    try:
        a, b = _integer(parts[0]), _integer(parts[1])
    except ValueError:
        raise ValueError(f"{what} header must be two integers, got {line!r}") from None
    return a, b


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    # labels are read as int64, which saturates: only a count below the saturated
    # value keeps every label past int64 out of range
    if n >= np.iinfo(np.int64).max:
        raise ValueError(f"vertex count must be below {np.iinfo(np.int64).max}, got {n}")


def _write_rows(header: str, rows: np.ndarray) -> str:
    """The header line, then each row of a 2-D integer array as one line of
    space-separated decimal integers.

    Every entry fills width + 2 bytes of one zeroed buffer: a "-" or a pad
    byte, its digits right-aligned behind pad bytes, then a space or a
    newline. Each byte column is written whole, by arithmetic: no masked
    write, no "// 1", and no "% 10" on the leading digit, which is below 10.
    The pad bytes (0) are then deleted in one bytes.translate pass; deleting
    them by a boolean mask would hold the buffer, the mask and the result at
    once.
    """
    head = f"{header}\n".encode()
    if not rows.size:
        return head.decode()
    # as unsigned, the magnitude of the most negative integer is exact too
    mag = np.abs(rows).view(_UNSIGNED[rows.itemsize])
    top = int(mag.max())
    mag = mag.astype(np.min_scalar_type(top), copy=False)
    width = len(str(top))
    buf = bytearray(len(head) + rows.size * (width + 2))
    buf[: len(head)] = head
    cells = np.frombuffer(buf, dtype=np.uint8)[len(head) :].reshape(*rows.shape, width + 2)
    np.multiply(rows < 0, np.uint8(ord("-")), out=cells[..., 0])
    for k in range(width):
        lead = mag // 10 ** (width - 1 - k) if k < width - 1 else mag
        digit = cells[..., 1 + k]
        np.add(lead % 10 if k else lead, ord("0"), out=digit, casting="unsafe")
        if k < width - 1:
            digit *= lead > 0
    del mag, lead, digit
    cells[..., -1] = ord(" ")
    cells[:, -1, -1] = ord("\n")
    del cells
    text = buf.translate(None, b"\0")
    del buf
    return text.decode("ascii")


def parse_matrix(text: str) -> SignedMatrix:
    lines = _Lines(text)
    if not len(lines):
        raise ValueError("empty matrix text")
    rows, cols = _header(lines.line(0), "matrix")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(lines) < 1 + rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    for k in range(1 + rows, len(lines)):
        line = lines.line(k)
        key, eq, value = line.partition("=")
        if not (eq and key.strip().isidentifier() and value.strip()):
            raise ValueError(f"expected {rows} data rows, then only 'key = value' "
                             f"annotations, got {line!r}")
    count = lines.count[1 : 1 + rows]
    i = min(_first(count != cols), lines.first_bad(1, 1 + rows) - 1)
    if i < rows:
        if count[i] != cols:
            raise ValueError(f"row {i + 1} has {count[i]} entries, expected {cols}")
        raise ValueError(f"row {i + 1} has a non-integer entry")
    values = lines.integers(1, 1 + rows, np.int8)
    if not _entries_within(values, -1, 1):
        raise ValueError("entries must be -1, 0 or +1")
    return SignedMatrix._trusted(values.astype(np.int8, copy=False).reshape(rows, cols))


def format_matrix(m: SignedMatrix) -> str:
    return _write_rows(f"{m.rows} {m.cols}", m.data)


def parse_signed_graph(text: str) -> SignedGraph:
    """Read a signed graph: core._edge_array validates its edges, so they are not checked
    again. The array saturates, so a faulty edge's message reads its line's text."""
    lines = _Lines(text)
    if not len(lines):
        raise ValueError("empty graph text")
    n, m = _header(lines.line(0), "graph")
    _check_vertex_count(n)
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if len(lines) != 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    count = lines.count[1:]
    shape = (count < 2) | (count > 3)
    readable = min(_first(shape), lines.first_bad(1, 1 + m) - 1)
    values, count = lines.integers(1, 1 + readable), count[:readable]
    first = np.cumsum(count) - count
    u, v, s = values[first], values[first + 1], np.ones(readable, dtype=np.int64)
    s[count == 3] = values[first[count == 3] + 2]
    i = min(readable, _first((u < 1) | (u > n) | (v < 1) | (v > n)))
    if i < m:
        if shape[i]:
            raise ValueError(f"edge line {i + 1} must be 'u v' or 'u v sign', "
                             f"got {lines.line(1 + i)!r}")
        if i == readable:
            raise ValueError(f"edge line {i + 1} has a non-integer field")
        raise ValueError(f"edge line {i + 1}: vertex out of range 1..{n}")
    return SignedGraph._trusted(_edge_array(n, np.column_stack((u - 1, v - 1, s)), 3, lambda j: [
        int(x) - (k < 2) for k, x in enumerate(lines.line(1 + j).split())]))  # u - 1, v - 1, s


def format_signed_graph(sg: SignedGraph) -> str:
    a = sg.data
    iu, iv = _upper_pairs(a)
    return _write_rows(f"{sg.n} {iu.size}", np.column_stack((iu + 1, iv + 1, a[iu, iv])))


def format_graph(g: Graph) -> str:
    """An unsigned graph's edge list in the graph format, signs left out (+1)."""
    iu, iv = _upper_pairs(g.adjacency())
    return _write_rows(f"{g.n} {iu.size}", np.column_stack((iu + 1, iv + 1)))


def parse_triples(text: str) -> tuple[int, np.ndarray]:
    """Read a triple system: (n, its sorted 0-based triples as a lexicographic (t, 3) array)."""
    lines = _Lines(text)
    if not len(lines):
        raise ValueError("empty triple text")
    n, t = _header(lines.line(0), "triple")
    _check_vertex_count(n)
    if t < 0:
        raise ValueError(f"triple count must be non-negative, got {t}")
    if len(lines) != 1 + t:
        raise ValueError(f"expected {t} triple lines, found {len(lines) - 1}")
    count = lines.count[1:]
    readable = min(_first(count != 3), lines.first_bad(1, 1 + t) - 1)
    labels = np.sort(lines.integers(1, 1 + readable).reshape(readable, 3), axis=1)
    a, b, c = labels.T
    order, repeat = _lex_order(labels)
    i = min(readable, _first((a < 1) | (c > n) | (a == b) | (b == c) | repeat))
    if i < t:
        if count[i] != 3:
            raise ValueError(f"triple line {i + 1} must have three labels, "
                             f"got {lines.line(1 + i)!r}")
        if i == readable:
            raise ValueError(f"triple line {i + 1} has a non-integer label")
        a, b, c = labels[i].tolist()
        if not (1 <= a and c <= n):
            raise ValueError(f"triple line {i + 1}: label out of range 1..{n}")
        if a == b or b == c:
            raise ValueError(f"triple line {i + 1}: labels must be distinct")
        raise ValueError(f"duplicate triple {{{a}, {b}, {c}}}")
    return n, labels[order].astype(np.intp) - 1


def format_triples(n: int, triples) -> str:
    """Write a (t, 3) integer array or an iterable of triples of labels in 0..n-1."""
    rows = np.sort(_int_rows(triples, 3, "each triple must be three integer vertices"), axis=1)
    bad = (rows[:, 0] < 0) | (rows[:, 2] >= n)
    if bad.any():
        raise ValueError(f"triple {tuple(rows[bad.argmax()].tolist())} has a vertex out of "
                         f"range [0, {n})")
    return _write_rows(f"{n} {len(rows)}", rows[_lex_order(rows)[0]] + 1)
