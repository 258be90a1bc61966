import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplex import bits, family, mask_of, to_tuple
from cutcomplex import bitsets


# byte boundaries, one word and past it, and the 220 vertices of kneser:12,3
WIDE_MASKS = [
    0, 1, 0x7F, 0x80, 0xFF, 0x100, 0x1FF, 0xFFFF, 0x10000,
    (1 << 63) | 1, (1 << 64) - 1, 1 << 64, (1 << 65) | (1 << 8),
    1 << 200, (1 << 200) - 1, (1 << 219) | (1 << 7), (1 << 220) - 1,
    mask_of(range(0, 220, 7)),
]


def test_mask_of_takes_a_mask_or_vertices():
    assert mask_of(5) == 5
    assert mask_of((0, 2)) == 5


def test_to_tuple_grows_its_table_for_wide_masks(monkeypatch):
    monkeypatch.setattr(bitsets, "_BYTE_BITS", {})  # start from an empty table
    for m in WIDE_MASKS + WIDE_MASKS[::-1]:  # widening, then narrowing
        assert to_tuple(m) == tuple(bits(m))
    assert len(bitsets._BYTE_BITS) == 28  # 220 bits


def test_to_tuple_builds_rows_only_for_used_byte_offsets(monkeypatch):
    monkeypatch.setattr(bitsets, "_BYTE_BITS", {})  # start from an empty table
    sparse = [(1 << 20_003) | 1, 1 << 10_000, (1 << 20_007) | (1 << 9), 1 << 64]
    for m in sparse:
        assert to_tuple(m) == tuple(bits(m))
    # offsets 0, 1, 8, 1,250 and 2,500 of the 2,501 up to bit 20,007
    assert sorted(bitsets._BYTE_BITS) == [0, 1, 8, 1_250, 2_500]
    assert to_tuple(1 << 8_000_000) == (8_000_000,)  # one row more, not 997,500
    assert len(bitsets._BYTE_BITS) == 6
    for m in sparse + WIDE_MASKS:
        assert to_tuple(m) == tuple(bits(m))


def test_to_tuple_on_kneser_neighbourhoods():
    g = family("kneser:12,3")
    assert g.n == 220
    assert max(a.bit_length() for a in g.adj) > 200
    for a in g.adj:
        assert to_tuple(a) == tuple(bits(a))
        assert mask_of(to_tuple(a)) == a


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 300) - 1))
def test_to_tuple_matches_bits(m):
    assert to_tuple(m) == tuple(bits(m))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 600).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.tuples(st.integers(0, w - 1), st.integers(1, 3))), st.integers(0, 11))))
def test_bitmaps_match_their_masks(case):
    width, entries, v = case
    masks = [m for m, _ in entries]
    last = dict(entries)  # a later mask overwrites an earlier equal one
    flags = bitsets.mask_bytes(masks, width, [x for _, x in entries])
    assert bitsets.bytes_bitmap(flags) == sum(1 << m for m in last)
    for x in (1, 2, 3):
        bitmap = bitsets.bytes_bitmap(flags, x)
        assert bitmap == sum(1 << m for m, y in last.items() if y == x)
        assert bitsets.bitmap_masks(bitmap) == sorted(m for m, y in last.items() if y == x)
    assert bitsets.lacking(v, width) == sum(1 << m for m in range(width) if not m >> v & 1)


def test_mask_bytes_rejects_masks_outside_the_width():
    for masks in ([-1], [0, 8], [3, -8]):  # an index of -1 would wrap to the last byte
        with pytest.raises(ValueError, match="not in 0..7"):
            bitsets.mask_bytes(masks, 8)
    assert bitsets.mask_bytes([], 0) == bytearray()
    assert bitsets.bytes_bitmap(bytearray()) == 0 and bitsets.bitmap_masks(0) == []
