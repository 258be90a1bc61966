import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplex import (
    MorseMatching,
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
    acyclic, _ = verify_acyclic_and_critical(MorseMatching(cx, pairs))
    assert not acyclic


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
    rng = draw(st.randoms(use_true_random=False))
    face_set = cx.face_set()
    faces = sorted(face_set)
    rng.shuffle(faces)
    matched = set()
    pairs = []
    for s in faces:
        ups = [t for t in (s | 1 << v for v in range(n)) if t != s and t in face_set and t not in matched]
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
    assert mm.pairs_json() == json.dumps([[list(to_tuple(s)), list(to_tuple(t))] for s, t in mm.pairs])


# faces for the pair-record text: the empty face, faces spanning up to six
# bytes, and sparse high vertices such as 1,000,000
_record_faces = st.one_of(
    st.just(0),
    st.sets(st.integers(0, 45)).map(mask_of),
    st.sets(st.sampled_from([0, 7, 8, 255, 256, 1_000, 65_536, 1_000_000])).map(mask_of),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_record_faces, _record_faces), max_size=8))
def test_pair_record_text_is_the_json_dumps_bytes(pairs):
    mm = MorseMatching(from_facets([]), tuple(pairs))
    assert mm.pairs_json() == json.dumps([[list(to_tuple(s)), list(to_tuple(t))] for s, t in pairs])


def test_pair_record_text_of_an_element_matching_pairs_the_empty_face():
    mm = element_matching_sequence(from_facets([(0, 9, 17), (1_000_000,)]), [17, 1_000_000])
    assert mm.pairs_json().startswith("[[[], [17]], ")
    assert mm.pairs_json() == json.dumps([[list(to_tuple(s)), list(to_tuple(t))] for s, t in mm.pairs])
