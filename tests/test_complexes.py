import json
import time
from itertools import combinations
from unittest import mock
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutcomplex import (
    SimplicialComplex,
    cut_complex,
    family,
    from_facets,
    from_edge_list,
    full_simplex,
    mask_of,
    to_tuple,
)
from cutcomplex.bitsets import submasks
from cutcomplex.complexes import _normalize, relabel_densely
from cutcomplex.homology import HomologyReport, _primal_groups, reduced_homology
from conftest import brute_faces

NEG_INF = float("-inf")


@st.composite
def complexes(draw, max_vertices=6, max_facets=5):
    n = draw(st.integers(1, max_vertices))
    count = draw(st.integers(1, max_facets))
    facets = [
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
        for _ in range(count)
    ]
    return from_facets(facets, ambient=n)


def test_three_states():
    void = from_facets([])
    assert void.is_void and void.dim == NEG_INF
    empty = from_facets([()])
    assert not empty.is_void and empty.is_empty_complex and empty.dim == -1
    assert from_facets([(0, 1)]).dim == 1


def test_maximality_normalization():
    cx = from_facets([(1, 2), (1,), (3,)])
    assert set(cx.facet_tuples()) == {(3,), (1, 2)}
    assert not cx.is_pure
    # idempotent
    assert from_facets(cx.facets) == cx


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**7 - 1), max_size=16))
@example([])
@example([0])
@example([0, 0, 0])
@example([0b11, 0b11, 0b1, 0b100, 0])
@example([0b101, 0b110, 0b111, 0b1000, 0b1000])
def test_normalize_matches_brute_force_maximality(masks):
    # duplicates, {∅} and mixed sizes; a face is kept iff no other face contains it
    brute = {m for m in masks if not any(f != m and m & ~f == 0 for f in masks)}
    assert _normalize(masks) == tuple(sorted(brute))


def test_f_vector_examples():
    mobius = cut_complex(family("cycle:5"), 2)
    assert mobius.f_vector() == (1, 5, 10, 5)
    assert mobius.reduced_euler() == -1
    assert from_facets([()]).f_vector() == (1,)
    assert from_facets([()]).reduced_euler() == -1
    simplex = full_simplex(3)
    assert simplex.f_vector() == (1, 3, 3, 1)
    assert simplex.reduced_euler() == 0
    with pytest.raises(ValueError):
        from_facets([]).f_vector()


def test_link_star_deletion_conventions():
    cx = cut_complex(family("cycle:5"), 2)
    assert cx.link(0) == cx  # mask 0 is the empty face
    assert cx.star(0) == cx
    assert cx.deletion(0).is_void
    triangle_boundary = from_facets([(0, 1), (1, 2), (0, 2)])
    lk = triangle_boundary.link((0,))
    assert lk.facet_tuples() == ((1,), (2,))
    assert triangle_boundary.link((0, 1, 2)).is_void  # non-face


def test_link_of_nonface_is_void():
    cx = from_facets([(0, 1, 2)])
    assert cx.link((3,)).is_void
    assert cx.star((3,)).is_void


def _is_antichain(cx):
    facets = cx.facets
    return all(
        not (facets[i] & ~facets[j] == 0)
        for i in range(len(facets))
        for j in range(len(facets))
        if i != j
    )


@settings(max_examples=80, deadline=None)
@given(complexes())
def test_star_deletion_cover_and_link_intersection(cx):
    for v in cx.vertices():
        vbit = 1 << v
        star = cx.star(vbit)
        deleted = cx.deletion(vbit)
        link = cx.link(vbit)
        st_faces = star.face_set()
        del_faces = deleted.face_set()
        assert st_faces | del_faces == cx.face_set()
        assert st_faces & del_faces == link.face_set()
        for derived in (star, deleted, link, cx.skeleton(max(cx.dim - 1, -1))):
            assert _is_antichain(derived)


def test_skeleton_of_simplex_matches_edgeless_cut_complex():
    for n in (4, 5, 6):
        for k in range(2, n):
            skel = full_simplex(n).skeleton(n - k - 1)
            assert skel == cut_complex(family(f"edgeless:{n}"), k)


def test_skeleton_minus_one_and_join_identity():
    cx = from_facets([(0, 1, 2)])
    assert cx.skeleton(-1).is_empty_complex
    empty = from_facets([()])
    assert empty.join(cx) == cx
    assert cx.join(from_facets([])).is_void


def test_skeleton_at_or_above_the_dimension_is_the_complex_itself():
    for cx in (from_facets([]), from_facets([()]), from_facets([(0, 1), (2,)]), full_simplex(3)):
        for d in range(-1, 4):
            if d >= cx.dim:
                assert cx.skeleton(d) is cx


def test_degenerate_constructions_keep_the_ambient():
    # a non-face has an empty link, ∅ leaves nothing when deleted, a join with
    # the void complex is void, and so are the link, star and deletion of the
    # void complex: each over the ambient of the operands
    cx = from_facets([(0, 1)], ambient=4)
    empty = from_facets([()], ambient=2)
    void = from_facets([], ambient=3)
    for out, ambient in ((cx.link((2,)), 4), (cx.deletion(0), 4), (empty.link(1), 2), (empty.deletion(0), 2),
                         (cx.join(void), 7), (void.join(empty), 5), (void.join(void), 6),
                         (void.link(0), 3), (void.star((1,)), 3), (void.deletion(0), 3)):
        assert out.is_void and out.ambient == ambient
    assert empty.link(0) == empty and empty.deletion(1) == empty
    assert empty.join(empty).is_empty_complex and empty.join(empty).ambient == 4


def test_suspension_of_two_points_is_square():
    two_points = from_facets([(0,), (1,)])
    square = two_points.suspension()
    assert set(square.facet_tuples()) == {(0, 2), (0, 3), (1, 2), (1, 3)}


@settings(max_examples=50, deadline=None)
@given(complexes(max_vertices=4, max_facets=3), complexes(max_vertices=4, max_facets=3))
def test_join_euler_multiplicativity(a, b):
    j = a.join(b)
    assert j.reduced_euler() == -a.reduced_euler() * b.reduced_euler()


def test_purity_and_dim():
    assert cut_complex(family("cycle:5"), 2).is_pure
    assert from_facets([(0, 1), (2,)]).is_pure is False
    assert from_facets([(0, 1), (2, 3)]).is_pure


def test_complete_skeleton_dim():
    mobius = cut_complex(family("cycle:5"), 2)
    assert mobius.complete_skeleton_dim() == 1
    assert from_facets([]).complete_skeleton_dim() == -2
    assert from_facets([()]).complete_skeleton_dim() == -1
    # two disjoint edges miss some vertex pairs
    assert from_facets([(0, 1), (2, 3)]).complete_skeleton_dim() == 0


@st.composite
def ambient_complexes(draw):
    """Complexes on at most 9 ambient vertices, some of them possibly in no
    facet. Half the draws take facets that miss one or two vertices, so the
    dual is often the smaller side; {∅}, the full simplex and small facets
    (Σ 2^|F| <= 2^(n-1)) come from the other half."""
    used = draw(st.integers(1, 8))
    n = used + draw(st.sampled_from((0, 0, 0, 1)))
    full = (1 << used) - 1
    if draw(st.booleans()):
        holes = st.sets(st.integers(0, used - 1), min_size=1, max_size=2)
        masks = [full & ~mask_of(h) for h in draw(st.lists(holes, min_size=1, max_size=8))]
    else:
        masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
    return from_facets(masks, ambient=n)


SIDE_EXAMPLES = [
    from_facets([()]),
    from_facets([()], ambient=3),
    full_simplex(5),
    from_facets([(0, 1)], ambient=5),  # Σ 2^|F| <= 2^(n-1): decided without a walk
    from_facets([(0, 1, 2), (2, 3, 4), (0, 4)]),  # per-size bound 15 = |Δ| < 16: decided without a walk
    from_facets([(0, 1, 2), (0, 1, 3), (0, 2, 3), (4,)]),  # bound 18 > 16, so the walk runs and overflows: |Δ| = 15
    cut_complex(family("cycle:5"), 2),  # the dual has 11 faces, |Δ| = 21
    from_facets([(0, 1, 2, 3, 4, 5, 6, 7)], ambient=9),  # a vertex in no facet
    # Δ_3(K_16 ⊔ K_1): 65,519 faces on 16 vertices and a 17-face dual; the
    # isolated vertex is in no facet, at the top and then at index 0
    cut_complex(from_edge_list(17, list(combinations(range(16), 2))), 3),
    cut_complex(from_edge_list(17, list(combinations(range(1, 17), 2))), 3),
]


def side_examples(test):
    for cx in SIDE_EXAMPLES:
        test = example(cx)(test)
    return test


def _brute_skeleton_dim(cx):
    if cx.is_void:
        return -2
    d = -1
    for s in range(1, cx.ambient + 1):
        if not all(cx.has_face(c) for c in combinations(range(cx.ambient), s)):
            break
        d = s - 1
    return d


@settings(max_examples=200, deadline=None)
@given(ambient_complexes())
@example(from_facets([]))
@example(from_facets([], ambient=3))
@example(from_facets([(0, 1), (2, 3)]))
@side_examples
def test_complete_skeleton_dim_matches_brute_force(cx):
    assert cx.complete_skeleton_dim() == _brute_skeleton_dim(cx)


@settings(max_examples=300, deadline=None)
@given(ambient_complexes())
@side_examples
def test_f_vector_from_the_dual_matches_enumeration(cx):
    verts = cx.vertices()
    n = len(verts)  # duality is taken over the complex's own vertices
    faces = brute_faces(cx.facet_tuples())  # face_set() itself may read the dual
    enumerated = [0] * (cx.dim + 2)
    for f in faces:
        enumerated[len(f)] += 1
    dual = cx._dual_levels()
    # the dual is the chosen side iff it is nonempty and smaller than Δ
    assert (dual is not None) == (0 < 2**n - sum(enumerated) < sum(enumerated))
    assert cx.f_vector() == tuple(enumerated)
    if dual is not None:
        assert cx._faces is None  # the counts came from the dual
        # the dual faces are the complements within the support of the non-faces;
        # the memo counts those below the first incomplete size and lists the rest
        non_faces = [c for s in range(n + 1) for c in combinations(verts, s) if c not in faces]
        co_faces = {tuple(v for v in verts if v not in c) for c in non_faces}
        by_size = [sorted(t for t in co_faces if len(t) == s) for s in range(n + 1)]
        s0 = next(s for s in range(n + 1) if len(by_size[s]) < comb(n, s))
        while not by_size[-1]:
            by_size.pop()
        assert dual == (s0, [[mask_of(t) for t in level] for level in by_size[s0:]])


@settings(max_examples=200, deadline=None)
@given(ambient_complexes())
@side_examples
def test_counts_and_homology_match_the_relabelled_complex(cx):
    # both are taken over the complex's own vertices, so a vertex in no facet changes neither
    verts = cx.vertices()
    pos = {v: i for i, v in enumerate(verts)}
    dense = relabel_densely(cx)
    assert dense == from_facets([[pos[v] for v in f] for f in cx.facet_tuples()])
    assert dense.ambient == len(verts) and (dense is cx) == (len(verts) == cx.ambient)
    fresh = SimplicialComplex(dense.facets)  # nothing memoized yet
    assert cx.f_vector() == fresh.f_vector()
    assert reduced_homology(cx) == reduced_homology(fresh) == HomologyReport(*_primal_groups(cx))


def test_duality_over_the_support_needs_no_relabelling(monkeypatch):
    import cutcomplex.complexes as complexes
    import cutcomplex.homology as homology

    k5 = list(combinations(range(5), 2))
    cases = [
        cut_complex(from_edge_list(6, k5), 3),  # K_5 plus an isolated vertex 5
        cut_complex(from_edge_list(6, [(u + 1, v + 1) for u, v in k5]), 3),  # ... at index 0
        cut_complex(family("cycle:8"), 3).link((0,)),  # vertex 0 is in no facet of the link
    ]
    expected = []
    for cx in cases:
        dense = relabel_densely(cx)
        assert dense is not cx
        expected.append((dense.f_vector(), reduced_homology(dense), len(dense.face_set())))

    def refuse(*args):
        raise AssertionError("relabel_densely or submasks was called")

    monkeypatch.setattr(complexes, "relabel_densely", refuse)
    monkeypatch.setattr(homology, "relabel_densely", refuse, raising=False)
    monkeypatch.setattr(complexes, "submasks", refuse)  # the faces come from the dual
    for cx, (fvec, rep, count) in zip(cases, expected):
        cx = SimplicialComplex(cx.facets, ambient=cx.ambient)  # nothing memoized yet
        assert cx.f_vector() == fvec
        assert reduced_homology(cx) == rep and reduced_homology(cx).side == "dual"
        faces = cx.face_set()
        assert len(faces) == count and {to_tuple(f) for f in faces} == brute_faces(cx.facet_tuples())


def test_duality_over_a_sparse_support_skips_the_gaps():
    # vertices 0, 1 and 1,000,000: the dual walk tries only those three,
    # never the million numbers in between
    top = 1_000_000
    start = time.perf_counter()
    # paths with the one missing edge {1, top}, then {0, 1}; the dual is ∅
    # and the vertex that completes it
    for facets, dual_vertex in (([(0, 1), (0, top)], 0), ([(0, top), (1, top)], top)):
        cx = from_facets(facets)
        assert cx.f_vector() == (1, 3, 2)
        assert cx._dual_levels() == (1, [[1 << dual_vertex]])
        assert reduced_homology(cx).side == "dual" and reduced_homology(cx).nonzero_dims() == []
        assert {to_tuple(f) for f in cx.face_set()} == brute_faces(cx.facet_tuples())
    assert time.perf_counter() - start < 2


@settings(max_examples=80, deadline=None)
@given(complexes())
def test_face_enumeration_matches_brute_force(cx):
    mine = {to_tuple(f) for f in cx.face_set()}
    assert mine == brute_faces(cx.facet_tuples())


@st.composite
def random_cut_complexes(draw):
    """k-cut complexes of random graphs on 4-10 vertices; small k on a
    sparse graph leaves a small Alexander dual."""
    n = draw(st.integers(4, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    k = draw(st.integers(2, n - 1))
    return cut_complex(from_edge_list(n, edges), k)


def test_face_set_from_the_dual_matches_brute_force():
    branches = set()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_cut_complexes(), ambient_complexes()))
    @side_examples
    def check(cx):
        cx = SimplicialComplex(cx.facets, ambient=cx.ambient)  # nothing memoized yet
        walked = []

        def counting_submasks(mask):
            walked.append(mask)
            return submasks(mask)

        with mock.patch("cutcomplex.complexes.submasks", counting_submasks):
            faces = cx.face_set()
        dual = cx._dual_levels()
        # the dual is the producer exactly when it is set; no submask is walked then
        assert walked == ([] if dual is not None else list(cx.facets))
        assert {to_tuple(f) for f in faces} == brute_faces(cx.facet_tuples())
        branches.add(dual is not None)

    check()
    assert branches == {True, False}


def test_faces_by_dim_sorted():
    cx = cut_complex(family("cycle:6"), 3)
    by_dim = cx.faces_by_dim()
    for d, faces in by_dim.items():
        tuples = [to_tuple(f) for f in faces]
        assert tuples == sorted(tuples)
        assert all(len(t) == d + 1 for t in tuples)


def test_json_round_trip():
    cx = cut_complex(family("cycle:6"), 2)
    obj = json.loads(json.dumps(cx.to_json_obj()))
    back = SimplicialComplex.from_json_obj(obj)
    assert back == cx and back.ambient == cx.ambient
    void_obj = from_facets([]).to_json_obj()
    assert void_obj == {"state": "void"}
    assert SimplicialComplex.from_json_obj(void_obj).is_void


def test_ambient_validation():
    with pytest.raises(ValueError):
        from_facets([(0, 5)], ambient=3)


@settings(max_examples=80, deadline=None)
@given(complexes())
def test_alexander_dual_matches_definition(cx):
    n = cx.ambient
    full = (1 << n) - 1
    faces = cx.face_set()
    want = {full & ~s for s in range(1 << n) if s not in faces}
    dual = cx.alexander_dual()
    assert dual.face_set() == want
    assert dual == from_facets(want, ambient=n) and dual.ambient == n
    assert dual.alexander_dual() == cx


def test_alexander_dual_edge_cases():
    assert full_simplex(3).alexander_dual().is_void
    assert from_facets([()]).alexander_dual().is_void  # the simplex on no vertices
    assert from_facets([], ambient=3).alexander_dual() == full_simplex(3)
    boundary = from_facets([()], ambient=3).alexander_dual()
    assert set(boundary.facet_tuples()) == {(0, 1), (0, 2), (1, 2)}
    # for k = 2 the dual of a cut complex is the clique complex of the graph
    pentagon = cut_complex(family("cycle:5"), 2).alexander_dual()
    assert set(pentagon.facet_tuples()) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


@pytest.mark.parametrize("obj", [
    [1, 2], {"facets": [[0, 1]]}, {"ambient": 3}, {"facets": [["a"]], "ambient": 3},
    {"facets": [[0, -1]], "ambient": 3}, {"facets": [[0, 1]], "ambient": "3"},
    {"state": "void", "ambient": "3"},
])
def test_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        SimplicialComplex.from_json_obj(obj)
