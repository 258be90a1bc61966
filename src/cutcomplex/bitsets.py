"""Bitmask helpers for vertex sets.

Vertex sets are plain Python ints: bit ``i`` set means vertex ``i`` is in the
set. Python ints are unbounded, so one representation covers both the
single-word desk scale and anything larger.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
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


# _BYTE_BITS[i][b]: the set bit positions of byte value b at byte offset i.
# Only the byte offsets that have held a set bit have a row, so memory follows
# the offsets in use, not the highest one; a lookup elsewhere raises KeyError
# and the row is built then. Each growth replaces the whole dict, so a
# concurrent reader sees either table, and both are correct.
_BYTE_BITS: dict[int, tuple[tuple[int, ...], ...]] = {}


def _grown(table: dict, mask: int) -> dict:
    """A copy of ``table`` with a row for every byte offset that holds a set
    bit of ``mask``."""
    rows = dict(table)
    for i in {v >> 3 for v in bits(mask)} - rows.keys():
        row = [()]
        for v in range(8 * i, 8 * i + 8):  # the values with bit v set follow those without
            row += [t + (v,) for t in row]
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
        _BYTE_BITS = _grown(_BYTE_BITS, mask)
        return to_tuple(mask)
    return out


# Families of masks below a width w as bitmaps: one int whose bit m is set iff
# mask m is in the family. A family is first written one byte per mask, then
# read as the base-2 numeral of those bytes, highest mask first; both steps
# run in C, with no Python step per mask.
_NONZERO_DIGITS = b"0" + b"1" * 255  # bytes.translate table: byte value -> digit
_LOW_BITS = _grown({}, 255)[0]  # the set bit positions of each byte value


def mask_bytes(masks: list[int], width: int, values: Iterable[int] | None = None) -> bytearray:
    """One byte per mask in 0..width-1: the i-th value (1 when ``values`` is
    None) at the i-th mask of ``masks``, a later mask overwriting an earlier
    equal one, and 0 at every other mask. A mask outside 0..width-1 raises
    ValueError, since an index of -1 would wrap to the last byte."""
    if masks and not (0 <= min(masks) and max(masks) < width):
        raise ValueError(f"a mask is not in 0..{width - 1}")
    flags = bytearray(width)
    deque(map(flags.__setitem__, masks, repeat(1) if values is None else values), maxlen=0)
    return flags


def bytes_bitmap(flags: bytes | bytearray, value: int | None = None) -> int:
    """The bitmap of the masks m with ``flags[m] == value``, or with a nonzero
    ``flags[m]`` when ``value`` is None."""
    if value is None:
        digits = _NONZERO_DIGITS
    else:
        digits = bytearray(b"0" * 256)
        digits[value] = ord("1")
    return int(flags.translate(digits)[::-1] or b"0", 2)


def bitmap_masks(bitmap: int) -> list[int]:
    """The masks of a bitmap, in increasing order: its set bit positions,
    read a byte at a time from the bytes that are not 0."""
    data = bitmap.to_bytes((bitmap.bit_length() + 7) >> 3, "little")
    return [8 * i + v for i in compress(range(len(data)), data) for v in _LOW_BITS[data[i]]]


def lacking(v: int, width: int) -> int:
    """The bitmap of the masks in 0..width-1 that lack vertex ``v``: runs of
    2^v set bits and 2^v clear bits from mask 0 up, built by doubling."""
    run = 1 << v
    if run >= width:
        return (1 << width) - 1
    out = (1 << run) - 1
    period = run << 1
    while period < width:
        out |= out << period
        period <<= 1
    return out & ((1 << width) - 1)


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
