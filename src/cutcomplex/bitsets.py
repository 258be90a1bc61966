"""Bitmask helpers for vertex sets.

Vertex sets are plain Python ints: bit ``i`` set means vertex ``i`` is in the
set. Python ints are unbounded, so one representation covers both the
single-word desk scale and anything larger.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: int | Iterable[int]) -> int:
    """The bitmask of a vertex set given as a bitmask (returned unchanged) or
    as an iterable of vertex indices."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# _BYTE_BITS[i][b]: the set bit positions of byte value b at byte offset i;
# _BYTE_TEXT[i][b]: the same positions as text, joined by ", ".
# Only the byte offsets that have held a set bit have a row, so memory follows
# the offsets in use, not the highest one; a lookup elsewhere raises KeyError
# and the row is built then. Each growth replaces the whole dict, so a
# concurrent reader sees either table, and both are correct.
_BYTE_BITS: dict[int, tuple[tuple[int, ...], ...]] = {}
_BYTE_TEXT: dict[int, tuple[str, ...]] = {}


def _grown(table: dict, mask: int, empty, add) -> dict:
    """A copy of ``table`` with a row for every byte offset that holds a set
    bit of ``mask``; each entry starts from ``empty`` and takes its bits v in
    increasing order through ``add(entry, v)``."""
    rows = dict(table)
    for i in {v >> 3 for v in bits(mask)} - rows.keys():
        row = [empty]
        for v in range(8 * i, 8 * i + 8):  # the values with bit v set follow those without
            row += [add(t, v) for t in row]
        rows[i] = tuple(row)
    return rows


def to_tuple(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order, one byte at a time."""
    global _BYTE_BITS
    rows = _BYTE_BITS
    out = ()
    rest = mask
    i = 0  # the byte offset of the low byte of rest
    try:
        while rest:
            if rest & 255:
                out += rows[i][rest & 255]
                rest >>= 8
                i += 1
            else:  # skip to the byte holding the lowest set bit
                skip = ((rest & -rest).bit_length() - 1) >> 3
                rest >>= skip << 3
                i += skip
    except KeyError:  # a byte offset without its row yet
        _BYTE_BITS = _grown(_BYTE_BITS, mask, (), lambda t, v: t + (v,))
        return to_tuple(mask)
    return out


def to_text(mask: int) -> str:
    """The set bit positions of ``mask`` in increasing order, joined by ", "
    one byte at a time: the text ``json.dumps`` writes inside their list."""
    global _BYTE_TEXT
    rows = _BYTE_TEXT
    parts = []
    rest = mask
    i = 0  # the byte offset of the low byte of rest
    try:
        while rest:
            if rest & 255:
                parts.append(rows[i][rest & 255])
                rest >>= 8
                i += 1
            else:  # skip to the byte holding the lowest set bit
                skip = ((rest & -rest).bit_length() - 1) >> 3
                rest >>= skip << 3
                i += skip
    except KeyError:  # a byte offset without its row yet
        _BYTE_TEXT = _grown(_BYTE_TEXT, mask, "", lambda t, v: f"{t}, {v}" if t else str(v))
        return to_text(mask)
    return ", ".join(parts)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def ksubset_masks(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as bitmasks, in increasing integer order.

    Uses Gosper's hack; the increasing-mask order is the enumeration order
    promised by the subset-enumeration operations built on top of this.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | (((m ^ ripple) // low) >> 2)
