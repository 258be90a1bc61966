import json
import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutcomplex import (
    MorseMatching,
    SimplicialComplex,
    bits,
    cut_complex,
    element_matching_sequence,
    family,
    from_edge_list,
    from_facets,
    mask_of,
    prism_matching_order,
    reduced_homology,
    restricted_matching,
    spanning_tree,
    to_tuple,
    tree_matching_order,
    verify_acyclic_and_critical,
)
from cutcomplex import bitsets
from conftest import brute_faces, random_graph, random_tree


def test_cone_apex_first_is_perfect():
    cx = from_facets([(0, 1), (1, 2)]).cone()  # apex is vertex 3
    mm = element_matching_sequence(cx, [3, 0, 1, 2])
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic and census == {}


def test_tree_matching_p4():
    t = family("path:4")
    mm = element_matching_sequence(cut_complex(t, 2), tree_matching_order(t, 0))
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic and census == {}


def test_tree_matching_star_and_random():
    star = family("star:4")
    mm = element_matching_sequence(cut_complex(star, 2), tree_matching_order(star, 0))
    assert verify_acyclic_and_critical(mm) == (True, {})
    rng = random.Random(13)
    for _ in range(8):
        t = random_tree(rng, rng.randint(3, 8))
        root = rng.randrange(t.n)
        order = tree_matching_order(t, root)
        assert order[0] == root and len(order) == t.n
        mm = element_matching_sequence(cut_complex(t, 2), order)
        assert verify_acyclic_and_critical(mm) == (True, {})


def test_tree_matching_order_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_matching_order(family("cycle:4"), 0)
    with pytest.raises(ValueError):
        tree_matching_order(family("edgeless:3"), 0)
    with pytest.raises(ValueError):
        tree_matching_order(family("path:3"), 5)


def test_element_matching_rejects_repeats():
    cx = cut_complex(family("path:4"), 2)
    with pytest.raises(ValueError):
        element_matching_sequence(cx, [0, 0, 1])


def test_element_matching_rejects_vertices_outside_the_ambient_range():
    cx = cut_complex(family("cycle:5"), 2)
    for order in ([0, -1], [0, 9]):
        with pytest.raises(ValueError, match="is not in 0..4"):
            element_matching_sequence(cx, order)


def test_empty_matching_everything_critical():
    cx = cut_complex(family("cycle:5"), 2)
    mm = MorseMatching(cx, ())
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic
    fvec = cx.f_vector()
    assert census == {d - 1: fvec[d] for d in range(len(fvec))}


def test_hand_built_cycle_detected():
    # boundary of a triangle with the three vertex-edge pairs arranged
    # in a single directed loop
    cx = from_facets([(0, 1), (1, 2), (0, 2)])
    pairs = (
        (mask_of([0]), mask_of([0, 1])),
        (mask_of([1]), mask_of([1, 2])),
        (mask_of([2]), mask_of([0, 2])),
    )
    assert cx.face_bitmap() is not None
    picked, on_sets = _on_both_paths(lambda: verify_acyclic_and_critical(MorseMatching(cx, pairs)))
    assert picked == on_sets and not picked[0]


def test_malformed_matchings_rejected():
    cx = from_facets([(0, 1)])
    with pytest.raises(ValueError):
        verify_acyclic_and_critical(MorseMatching(cx, ((1, 3), (1, 3))))
    with pytest.raises(ValueError):
        verify_acyclic_and_critical(MorseMatching(cx, ((1, 7),)))
    with pytest.raises(ValueError):
        verify_acyclic_and_critical(MorseMatching(cx, ((8, 9),)))
    triangle = from_facets([(0, 1, 2)])
    cases = [
        ("more than one pair", ((1, 3), (3, 7))),  # {0, 1} is lower in one pair and upper in another
        ("more than one pair", ((1, 3), (2, 3))),  # {0, 1} is upper in two pairs
        ("one vertex", ((3, 3),)),  # s == t
        ("one vertex", ((3, 1),)),  # the reversed pair ({0, 1}, {0})
        ("one vertex", ((1, 7),)),  # {0} and {0, 1, 2} differ by two vertices
        ("one vertex", ((1, 2),)),  # {0} and {1}: one bit each, not nested
        ("non-face", ((3, 11),)),
    ]
    for message, pairs in cases:
        with pytest.raises(ValueError, match=message):
            verify_acyclic_and_critical(MorseMatching(triangle, pairs))


def test_restricted_matching_c5():
    mm = restricted_matching(family("cycle:5"))
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic and census == {1: 1}


def test_restricted_matching_k33():
    mm = restricted_matching(family("complete_multipartite:3,3"))
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic and census == {2: 4}


def test_restricted_matching_petersen():
    mm = restricted_matching(family("petersen"))
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic and census == {6: 6}


def test_restricted_matching_rejections():
    with pytest.raises(ValueError):
        restricted_matching(family("complete:4"))
    with pytest.raises(ValueError):
        restricted_matching(family("path:4"))
    with pytest.raises(ValueError):
        restricted_matching(family("edgeless:4"))


def test_restricted_matching_cycle_rank():
    rng = random.Random(17)
    seen = 0
    while seen < 6:
        g = random_graph(rng, rng.randint(4, 8), 0.4)
        from cutcomplex import has_triangle

        if has_triangle(g) or not g.is_connected() or g.edge_count == g.n - 1:
            continue
        seen += 1
        mm = restricted_matching(g)
        acyclic, census = verify_acyclic_and_critical(mm)
        assert acyclic
        assert census == {g.n - 4: g.edge_count - g.n + 1}


def test_spanning_tree():
    t = spanning_tree(family("cycle:6"))
    assert t.edge_count == 5 and t.is_connected()
    with pytest.raises(ValueError):
        spanning_tree(family("edgeless:3"))


def test_prism_matching_small_cases():
    for n, k, dim in [(3, 2, 2), (4, 3, 3), (3, 3, 1)]:
        cx = cut_complex(family(f"prism:{n}"), k)
        mm = element_matching_sequence(cx, prism_matching_order(n, k))
        acyclic, census = verify_acyclic_and_critical(mm)
        assert acyclic
        assert census == {dim: comb(n - 1, k - 1)}


def test_prism_critical_cells_are_the_predicted_family():
    n, k = 4, 3
    cx = cut_complex(family(f"prism:{n}"), k)
    mm = element_matching_sequence(cx, prism_matching_order(n, k))
    full = (1 << (2 * n)) - 1
    expected = set()
    from itertools import combinations as icombs

    for idx in icombs(range(1, n), k - 1):
        removed = mask_of([0, idx[0], n + idx[0]] + [n + i for i in idx[1:]])
        expected.add(full ^ removed)
    assert mm.critical_faces() == expected


def test_prism_order_errors():
    with pytest.raises(ValueError):
        prism_matching_order(2, 3)
    with pytest.raises(ValueError):
        prism_matching_order(3, 1)


def test_morse_euler_identity_and_weak_inequality():
    rng = random.Random(19)
    for _ in range(8):
        g = random_graph(rng, rng.randint(4, 6), 0.5)
        for k in range(2, g.n):
            cx = cut_complex(g, k)
            if cx.is_void:
                continue
            order = list(range(g.n))
            rng.shuffle(order)
            mm = element_matching_sequence(cx, order)
            acyclic, census = verify_acyclic_and_critical(mm)
            assert acyclic
            signed = sum(c if d % 2 == 0 else -c for d, c in census.items())
            assert signed == cx.reduced_euler()
            rep = reduced_homology(cx)
            for d in rep.ranks:
                assert census.get(d, 0) >= rep.betti(d)


def _full_hasse_acyclic(m):
    """Reference check: depth-first search for a back edge over every face of
    the modified Hasse diagram (matched covers point up, all other covers
    point down), with no restriction to the faces matched upward."""
    face_set = m.complex.face_set()
    up = dict(m.pairs)

    def succ(f):
        out = [f & ~(1 << v) for v in bits(f) if up.get(f & ~(1 << v)) != f]
        return out + [up[f]] if f in up else out

    state = {}  # 1 while on the DFS path, 2 once finished
    for root in face_set:
        if root in state:
            continue
        state[root] = 1
        path = [(root, iter(succ(root)))]
        while path:
            f, it = path[-1]
            g = next(it, None)
            if g is None:
                state[f] = 2
                path.pop()
            elif state.get(g) == 1:
                return False
            elif g not in state:
                state[g] = 1
                path.append((g, iter(succ(g))))
    return True


def _reference_census(m):
    """Critical cells by dimension: the faces in no pair, counted directly."""
    matched = {f for pair in m.pairs for f in pair}
    census = {}
    for f in m.complex.face_set():
        if f not in matched:
            d = f.bit_count() - 1
            census[d] = census.get(d, 0) + 1
    return census


@st.composite
def random_matchings(draw):
    """A small complex with disjoint pairs σ ⊂ σ ∪ {v} drawn greedily from its
    shuffled faces; such pairings are often cyclic."""
    n = draw(st.integers(2, 6))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=5))
    cx = from_facets([tuple(sorted(f)) for f in facets], ambient=n)
    return _random_pairing(cx, draw(st.randoms(use_true_random=False)))


def _random_pairing(cx, rng):
    face_set = cx.face_set()
    faces = sorted(face_set)
    rng.shuffle(faces)
    matched = set()
    pairs = []
    for s in faces:
        ups = [t for t in (s | 1 << v for v in range(cx.ambient)) if t != s and t in face_set and t not in matched]
        if s in matched or not ups:
            continue
        t = rng.choice(ups)
        matched |= {s, t}
        pairs.append((s, t))
    return MorseMatching(cx, tuple(pairs))


def test_acyclicity_agrees_with_full_hasse_reference():
    outcomes = []

    @settings(max_examples=300, deadline=None)
    @given(random_matchings())
    def check(m):
        acyclic, census = verify_acyclic_and_critical(m)
        assert acyclic == _full_hasse_acyclic(m)
        assert census == _reference_census(m)
        outcomes.append(acyclic)

    check()
    assert outcomes.count(False) >= len(outcomes) // 20  # many draws are cyclic (about one in six)
    assert True in outcomes


def _full_list_matching(cx, order):
    """Reference: every pass scans the whole ascending face list."""
    face_set = {mask_of(f) for f in brute_faces(cx.facet_tuples())}
    faces = sorted(face_set)
    matched = set()
    pairs = []
    for a in order:
        bit = 1 << a
        for sigma in faces:
            if sigma & bit or sigma in matched:
                continue
            tau = sigma | bit
            if tau in face_set and tau not in matched:
                matched |= {sigma, tau}
                pairs.append((sigma, tau))
    return tuple(pairs)


@st.composite
def complexes_with_orders(draw):
    """A cut complex of a random graph on 3-9 vertices (often with a small
    Alexander dual) or a random complex, and a vertex order over a random
    subset of its ambient range."""
    n = draw(st.integers(3, 9))
    if draw(st.booleans()):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        cx = cut_complex(from_edge_list(n, edges), draw(st.integers(2, n - 1)))
    else:
        facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=6))
        cx = from_facets([tuple(sorted(f)) for f in facets], ambient=n)
    order = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return cx, order


@settings(max_examples=300, deadline=None)
@given(complexes_with_orders())
def test_element_matching_equals_the_full_list_loop(case):
    cx, order = case
    mm = element_matching_sequence(cx, order)
    assert mm.pairs == _full_list_matching(cx, order)
    acyclic, census = verify_acyclic_and_critical(mm)
    assert acyclic and census == mm.critical_census()
    assert mm.pairs_json() == _dumped(mm.pairs)


# faces for the pair-record text: the empty face, faces spanning up to six
# bytes, and sparse high vertices such as 1,000,000
_record_faces = st.one_of(
    st.just(0),
    st.sets(st.integers(0, 45)).map(mask_of),
    st.sets(st.sampled_from([0, 7, 8, 255, 256, 1_000, 65_536, 1_000_000])).map(mask_of),
)


def _dumped(pairs):
    return json.dumps([[list(to_tuple(s)), list(to_tuple(t))] for s, t in pairs])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_record_faces, _record_faces), max_size=8))
def test_pair_record_text_is_the_json_dumps_bytes(pairs):
    mm = MorseMatching(from_facets([]), tuple(pairs))
    assert mm.pairs_json() == _dumped(pairs)


# byte boundaries, one word and past it, and 220 vertices
_WIDE_FACES = [
    0, 1, 0x7F, 0x80, 0xFF, 0x100, 0x1FF, 0xFFFF, 0x10000,
    (1 << 63) | 1, (1 << 64) - 1, 1 << 64, (1 << 65) | (1 << 8),
    1 << 200, (1 << 200) - 1, (1 << 219) | (1 << 7), (1 << 220) - 1,
    mask_of(range(0, 220, 7)),
]


def test_pair_record_text_of_wide_and_sparse_faces(monkeypatch):
    monkeypatch.setattr(bitsets, "_BYTE_BITS", {})  # start from an empty bit table
    sparse = [(1 << 1_000_000) | 1, 1 << 20_003]
    faces = _WIDE_FACES + sparse
    pairs = tuple(zip(faces, faces[::-1]))
    text = MorseMatching(from_facets([]), pairs).pairs_json()
    # the text of a face's vertices from 8 up reads bit rows only for the byte
    # offsets in use: 1-27 of the 220 bits, then 2,500 and 125,000
    assert sorted(bitsets._BYTE_BITS) == list(range(1, 28)) + [2_500, 125_000]
    assert text == _dumped(pairs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, (1 << 300) - 1), st.integers(0, (1 << 300) - 1)), max_size=4))
def test_pair_record_text_matches_bits(pairs):
    text = MorseMatching(from_facets([]), tuple(pairs)).pairs_json()
    assert text == json.dumps([[list(bits(s)), list(bits(t))] for s, t in pairs])


def test_pair_record_text_of_an_element_matching_pairs_the_empty_face():
    mm = element_matching_sequence(from_facets([(0, 9, 17), (1_000_000,)]), [17, 1_000_000])
    assert mm.pairs_json().startswith("[[[], [17]], ")
    assert mm.pairs_json() == _dumped(mm.pairs)


# -- the bitmap path and the set path ------------------------------------------


def _outcome(run):
    """run()'s result, or the message of the ValueError it raised."""
    try:
        return run()
    except ValueError as e:
        return f"ValueError: {e}"


def _on_both_paths(run):
    """run()'s outcome as the library picks the path, then with every complex
    on the set path."""
    picked = _outcome(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialComplex, "face_bitmap", lambda self: None)
        return picked, _outcome(run)


@st.composite
def dense_and_sparse_complexes(draw):
    """A complex on 2-9 ambient vertices: a cut complex of a random graph, of
    a clique with an isolated vertex (a support with a gap there, unless it
    is the last vertex), or the Alexander dual of a small random complex."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["cut", "gap", "dual"]))
    if kind == "dual":
        facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), min_size=1, max_size=4))
        return from_facets([tuple(sorted(f)) for f in facets], ambient=n).alexander_dual()
    if kind == "gap":
        lone = draw(st.integers(0, n - 1))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if lone not in (u, v)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return cut_complex(from_edge_list(n, edges), draw(st.integers(2, max(2, n - 1))))


def test_bitmap_and_set_paths_give_the_same_matchings():
    dense = []

    @settings(max_examples=300, deadline=None)
    @given(dense_and_sparse_complexes(), st.data())
    def check(cx, data):
        order = data.draw(st.permutations(range(cx.ambient)))[: data.draw(st.integers(0, cx.ambient))]
        faces = cx.face_bitmap()
        if faces is not None:
            assert bitsets.bitmap_masks(faces) == sorted(cx.face_set())
        dense.append(faces is not None)

        def run():
            mm = element_matching_sequence(cx, order)
            return mm.pairs, verify_acyclic_and_critical(mm), mm.critical_faces()

        picked, on_sets = _on_both_paths(run)
        assert picked == on_sets
        assert picked[1][0]  # element matchings are acyclic

    check()
    assert dense.count(True) >= len(dense) // 4 and False in dense


def test_bad_pairings_raise_the_same_message_on_both_paths():
    boundary = from_facets([(0, 1), (1, 2), (0, 2)])  # 7 faces, a bitmap of 8 masks
    assert boundary.face_bitmap() == 0b01111111
    cases = [
        ("non-face", ((3, 7),)),  # {0, 1, 2} is no face
        ("non-face", ((-1, 0),)),  # -1 and 0 differ in one bit; -1 would wrap to the last mask
        ("non-face", ((-2, -1),)),
        ("non-face", ((3, 11),)),  # 11 is past the bitmap
        ("non-face", ((1 << 70, (1 << 70) | 1),)),
        ("more than one pair", ((1, 3), (1, 3))),
        ("more than one pair", ((1, 3), (2, 3))),  # {0, 1} is upper in two pairs
        ("more than one pair", ((0, 1), (1, 3))),  # {0} is upper in one pair and lower in another
        ("more than one pair", ((1, 5), (1, 3))),  # the dict of pairs keeps (1, 3) alone
        ("one vertex", ((3, 3),)),
        ("one vertex", ((3, 1),)),
        ("one vertex", ((0, 3),)),  # two vertices apart
        ("one vertex", ((1, 2),)),
    ]
    for message, pairs in cases:
        picked, on_sets = _on_both_paths(lambda: verify_acyclic_and_critical(MorseMatching(boundary, pairs)))
        assert picked == on_sets and message in picked, (pairs, picked)
    # {0, 1, 2} = 7 is no face, but a mask below the face {1, 2, 3} = 14
    cx = from_facets([(1, 2, 3), (0, 1), (0, 2)])
    assert cx.face_bitmap().bit_length() == 15
    for pairs in [((3, 7),), ((7, 15),)]:
        picked, on_sets = _on_both_paths(lambda: verify_acyclic_and_critical(MorseMatching(cx, pairs)))
        assert picked == on_sets and "non-face" in picked


@st.composite
def pairings_of_dense_complexes(draw):
    """A pairing on a complex with a face bitmap: a random greedy one (often
    cyclic), or an element matching with pairs dropped, repeated, bent to
    another vertex or moved outside the faces."""
    n = draw(st.integers(2, 7))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), min_size=1, max_size=4))
    cx = from_facets([tuple(sorted(f)) for f in facets], ambient=n).alexander_dual()
    assume(cx.face_bitmap() is not None)
    if draw(st.booleans()):
        return _random_pairing(cx, draw(st.randoms(use_true_random=False)))
    pairs = list(element_matching_sequence(cx, draw(st.permutations(range(n)))).pairs)
    faces = cx.face_set()
    masks = st.integers(-2, (1 << n) + 2)
    # a face below a non-face t that is a mask below a face
    below = [(t & ~(1 << v), t) for t in range(max(faces)) if t not in faces for v in bits(t) if t & ~(1 << v) in faces]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(pairs)))
        pair = draw(st.one_of(
            st.tuples(masks, st.integers(0, n)).map(lambda sv: (sv[0], sv[0] | 1 << sv[1])),
            st.tuples(masks, masks),
            st.sampled_from(pairs or [(0, 1)]),
            st.sampled_from(below or [(0, 1)]),
        ))
        pairs[i:i + draw(st.integers(0, 1))] = [pair]
    return MorseMatching(cx, tuple(pairs))


def test_bitmap_and_set_paths_agree_on_pairings():
    outcomes = []

    @settings(max_examples=300, deadline=None)
    @given(pairings_of_dense_complexes())
    def check(m):
        # a new matching for each path: a matching memoizes its bitmaps
        picked, on_sets = _on_both_paths(lambda: verify_acyclic_and_critical(MorseMatching(m.complex, m.pairs)))
        assert picked == on_sets
        if not isinstance(picked, str):
            assert picked[0] == _full_hasse_acyclic(m)
            assert picked[1] == _reference_census(m)
        outcomes.append(picked if isinstance(picked, str) else picked[0])

    check()
    for outcome in (True, False, "non-face", "more than one pair", "one vertex"):
        assert any(outcome is o if isinstance(outcome, bool) else outcome in str(o) for o in outcomes), outcome


def test_sparse_complexes_build_no_bitmap(monkeypatch):
    import cutcomplex.complexes as complexes
    import cutcomplex.morse as morse

    def refuse(*args):
        raise AssertionError("a bitmap was built")

    for module, name in [(morse, "mask_bytes"), (morse, "bytes_bitmap"), (morse, "bitmap_masks"),
                         (morse, "lacking"), (complexes, "mask_bytes"), (complexes, "bytes_bitmap")]:
        monkeypatch.setattr(module, name, refuse)
    # Δ_9(P_12) has few faces among 2^12 masks; K_6 plus an isolated vertex 0
    # has a small dual but a gap at 0
    lone = from_edge_list(7, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    for cx in (cut_complex(family("path:12"), 9), cut_complex(lone, 3)):
        assert cx.face_bitmap() is None
        mm = element_matching_sequence(cx, range(cx.ambient))
        acyclic, census = verify_acyclic_and_critical(mm)
        assert acyclic and census == mm.critical_census()
        assert mm.pairs_json() == _dumped(mm.pairs)
    assert cut_complex(lone, 3)._small_dual() is not None
