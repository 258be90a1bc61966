"""Bitmask helpers for vertex sets.

Vertex sets are plain Python ints: bit ``i`` set means vertex ``i`` is in the
set. Python ints are unbounded, so one representation covers both the
single-word desk scale and anything larger.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import compress, repeat
from operator import itemgetter, or_
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


def _grown(table: dict, offsets: Iterable[int], empty=(), unit=lambda v: (v,)) -> dict:
    """A copy of ``table`` with a row for every byte offset of ``offsets``:
    entry b of row i joins ``unit(v)`` for the set bits v = 8i + j of byte
    value b, in increasing order, onto ``empty``."""
    rows = dict(table)
    for i in set(offsets) - rows.keys():
        row = [empty]
        for v in range(8 * i, 8 * i + 8):  # the values with bit v set follow those without
            tail = unit(v)
            row += [t + tail for t in row]
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
        _BYTE_BITS = _grown(_BYTE_BITS, {v >> 3 for v in bits(mask)})
        return to_tuple(mask)
    return out


# _BYTE_TEXT[i][b]: the set bit positions of byte value b at byte offset i,
# each written ", v", so that a mask's JSON text joins one entry per byte.
# Rows are built for the byte offsets in use and swapped in as _BYTE_BITS's
# are; row 0 is built at import and is the same tuple from then on.
_BYTE_TEXT: dict[int, tuple[str, ...]] = _grown({}, [0], "", ", {}".format)
_LOW_TEXT = _BYTE_TEXT[0]
_NO_SEPARATOR = itemgetter(slice(2, None))  # a face's text without its leading ", "
# masks_json writes this many masks per run, so that no list holds a string
# per mask of a large record
_TEXT_RUN = 1024


def vertex_texts(masks: list[int] | tuple[int, ...]) -> Iterator[str]:
    """The vertices of each mask as JSON writes them between a list's
    brackets, such as "0, 3, 9", and "" for the empty mask.

    The masks are written as one buffer of equal-width little-endian bytes,
    and the column of byte offset i, one byte per mask, is looked up in row
    i of ``_BYTE_TEXT`` by one ``itemgetter`` call: only the offsets where
    some mask has a set bit have a column (offset 0 always does), and a
    mask's text joins its entries in these columns. No vertex tuple is made,
    and the work per mask runs in C."""
    global _BYTE_TEXT
    if not masks:
        return iter(())
    union = reduce(or_, masks)
    width = (union.bit_length() + 7) >> 3 or 1
    used = [0, *compress(range(1, width), union.to_bytes(width, "little")[1:])]
    if not _BYTE_TEXT.keys() >= set(used):
        _BYTE_TEXT = _grown(_BYTE_TEXT, used, "", ", {}".format)
    rows = _BYTE_TEXT
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    columns = [itemgetter(*data[i::width])(rows[i]) for i in used]
    if len(masks) == 1:  # an itemgetter of one index returns the entry, not a tuple
        columns = [[entry] for entry in columns]
    return map(_NO_SEPARATOR, map("".join, zip(*columns)))


# _BIT_DIGITS[i]: a bytes.translate table from byte value to the digit of its bit i
_BIT_DIGITS = [bytes(b"01"[b >> i & 1] for b in range(256)) for i in range(8)]


def vertex_holders(masks: list[int] | tuple[int, ...]) -> dict[int, int]:
    """For each vertex of some mask, the int whose bit j is set iff
    ``masks[j]`` holds that vertex.

    The masks are written as one buffer of equal-width little-endian bytes,
    as ``vertex_texts`` writes them, and the column of a vertex's byte
    offset is read through ``_BIT_DIGITS`` as a base-2 numeral, last mask
    first, so the work per mask runs in C."""
    if not masks:
        return {}
    union = reduce(or_, masks)
    width = (union.bit_length() + 7) >> 3 or 1
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    return {v: int(data[v >> 3::width].translate(_BIT_DIGITS[v & 7])[::-1], 2) for v in to_tuple(union)}


def masks_json(masks: list[int] | tuple[int, ...]) -> str:
    """The masks as JSON text: ``json.dumps([list(to_tuple(m)) for m in
    masks])``, written from ``vertex_texts``."""
    if not masks:
        return "[]"
    runs = range(0, len(masks), _TEXT_RUN)
    return "[[" + "], [".join(["], [".join(vertex_texts(masks[i:i + _TEXT_RUN])) for i in runs]) + "]]"


# Families of masks below a width w as bitmaps: one int whose bit m is set iff
# mask m is in the family. A family is first written one byte per mask, then
# read as the base-2 numeral of those bytes, highest mask first; both steps
# run in C, with no Python step per mask.
_NONZERO_DIGITS = b"0" + b"1" * 255  # bytes.translate table: byte value -> digit
_LOW_BITS = _grown({}, [0])[0]  # the set bit positions of each byte value
_DECREMENT = bytes([0, *range(255)])  # bytes.translate table: byte value x -> max(x - 1, 0)


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


def small_masks(n: int, top: int, without: Iterable[int] = ()) -> int:
    """The bitmap of the masks in 0..2^n - 1 with at most ``top`` set bits,
    0 <= top < 255, other than those of ``without``. Byte m of its table
    holds max(top + 1 - |m|, 0), filled by doubling: the masks with bit v
    follow those without, one bit larger. The table is allocated first, so
    a width too large to hold fails before any of it is filled, with a
    ValueError."""
    try:
        flags = bytearray(1 << n)
    except (MemoryError, OverflowError):  # a width past the address space or the free memory
        raise ValueError(f"cannot allocate a table of the 2^{n} masks on {n} vertices") from None
    flags[0] = top + 1
    for v in range(n):
        flags[1 << v:2 << v] = flags[:1 << v].translate(_DECREMENT)
    deque(map(flags.__setitem__, without, repeat(0)), maxlen=0)
    return bytes_bitmap(flags)


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
