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


def test_to_text_builds_rows_only_for_used_byte_offsets(monkeypatch):
    monkeypatch.setattr(bitsets, "_BYTE_TEXT", {})  # start from an empty text table
    sparse = [(1 << 1_000_000) | 1, 1 << 20_003]
    for m in WIDE_MASKS + sparse:
        assert bitsets.to_text(m) == ", ".join(map(str, bits(m)))
    assert len(bitsets._BYTE_TEXT) == 28 + 2  # 220 bits, then offsets 2,500 and 125,000


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 300) - 1))
def test_to_text_matches_bits(m):
    assert bitsets.to_text(m) == ", ".join(map(str, bits(m)))
