import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplex import (
    IntMatrix,
    boundary_matrices,
    cut_complex,
    family,
    from_edge_list,
    from_facets,
    full_simplex,
    predicted_betti,
    realize_as_cut_complex,
    reduced_homology,
    smith_normal_form,
)
from cutcomplex import complexes, cuts, homology
from cutcomplex.complexes import SimplicialComplex, _walk_levels
from cutcomplex.graphs import connected_ksets
from cutcomplex.homology import (
    HomologyReport,
    _divisibility_chain,
    _dual_faces,
    _dual_groups,
    _primal_faces,
    _primal_groups,
    _shifted_groups,
)

from conftest import RP2_FACETS, brute_faces, matrix_from_rows, matrix_product, random_graph


def test_snf_identity():
    m = matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    diag, rank = smith_normal_form(m)
    assert diag == (1, 1, 1) and rank == 3


def test_snf_zero():
    m = matrix_from_rows([[0, 0, 0], [0, 0, 0]])
    diag, rank = smith_normal_form(m)
    assert diag == (0, 0) and rank == 0


def test_snf_known_divisors():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    m = matrix_from_rows([[2, 4], [6, 8]])
    diag, rank = smith_normal_form(m)
    assert diag == (2, 4) and rank == 2


def test_snf_torsion_three():
    m = matrix_from_rows([[3]])
    assert smith_normal_form(m) == ((3,), 1)


def test_divisibility_chain():
    assert _divisibility_chain([4, 6]) == [2, 12]
    assert _divisibility_chain([2, 3]) == [1, 6]
    assert _divisibility_chain([1, 1, 5]) == [1, 1, 5]


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = [
        [draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    return data


@settings(max_examples=80, deadline=None)
@given(small_matrices(), st.integers(0, 10_000))
def test_snf_invariant_under_shuffles(data, seed):
    rng = random.Random(seed)
    base = smith_normal_form(matrix_from_rows(data))
    shuffled = [row[:] for row in data]
    rng.shuffle(shuffled)
    cols = list(range(len(data[0])))
    rng.shuffle(cols)
    shuffled = [[row[c] for c in cols] for row in shuffled]
    assert smith_normal_form(matrix_from_rows(shuffled)) == base


def _minor_det(data, rows, cols):
    """Exact determinant of a square submatrix by cofactor expansion."""
    if len(rows) == 1:
        return data[rows[0]][cols[0]]
    total = 0
    for j, c in enumerate(cols):
        sub = _minor_det(data, rows[1:], cols[:j] + cols[j + 1 :])
        total += (-1) ** j * data[rows[0]][c] * sub
    return total


def _determinant_divisors(data):
    """gcd of all i x i minors for each i; the SNF diagonal is the ratio of
    consecutive determinant divisors."""
    from itertools import combinations
    from math import gcd

    nr, nc = len(data), len(data[0])
    divisors = []
    for size in range(1, min(nr, nc) + 1):
        g = 0
        for rows in combinations(range(nr), size):
            for cols in combinations(range(nc), size):
                g = gcd(g, _minor_det(data, rows, cols))
        divisors.append(g)
    return divisors


def _assert_matches_determinant_divisors(data):
    diag, rank = smith_normal_form(matrix_from_rows(data))
    divisors = _determinant_divisors(data)
    assert rank == sum(1 for g in divisors if g)
    prev = 1
    for i, d in enumerate(diag):
        want = divisors[i] // prev if prev and divisors[i] else 0
        assert d == want
        prev = divisors[i] if divisors[i] else prev


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=4), min_size=2, max_size=4).filter(
        lambda rows: len({len(r) for r in rows}) == 1
    )
)
def test_snf_against_determinant_divisor_oracle(data):
    _assert_matches_determinant_divisors(data)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=1, max_size=5)))
def test_snf_with_many_units_against_determinant_divisor_oracle(data):
    # entries in -2..2 make most pivots units, so the unit phase does most of the work
    _assert_matches_determinant_divisors(data)


@pytest.mark.parametrize("data, diag", [([[1, 2], [2, 1]], (1, 3)), ([[1, 1], [1, -1]], (1, 2))])
def test_snf_unit_pivot_leaves_fill_in_that_is_not_a_unit(data, diag):
    assert smith_normal_form(matrix_from_rows(data)) == (diag, 2)


def test_snf_skips_explicit_zero_entries():
    # IntMatrix accepts a stored 0, which the least-|v| pivot must never pick
    assert smith_normal_form(IntMatrix(2, 2, {(0, 0): 0, (0, 1): 2})) == ((2, 0), 1)


def test_snf_escalates_on_big_entries():
    # entries beyond int64 stay exact
    big = 1 << 70
    m = IntMatrix(2, 2, {(0, 0): big, (1, 1): 3})
    diag, rank = smith_normal_form(m)
    assert diag == (1, 3 * big) and rank == 2


def test_boundary_shapes_and_square_zero():
    cx = cut_complex(family("cycle:5"), 2)
    mats = boundary_matrices(cx)
    assert mats[2].nrows == 10 and mats[2].ncols == 5
    assert mats[0].nrows == 1 and mats[0].ncols == 5
    for lower, upper in zip(mats, mats[1:]):
        assert not matrix_product(lower, upper).entries


def test_boundary_of_empty_complex():
    assert boundary_matrices(from_facets([()])) == []
    with pytest.raises(ValueError):
        boundary_matrices(from_facets([]))


def test_homology_of_empty_complex():
    rep = reduced_homology(from_facets([()]))
    assert rep.betti(-1) == 1 and rep.euler() == -1


def test_homology_mobius():
    rep = reduced_homology(cut_complex(family("cycle:5"), 2))
    assert rep.free_concentrated(1, 1)
    assert not rep.free_concentrated(1, 2) and not rep.free_concentrated(0, 1)


def test_homology_sphere():
    # boundary of the 3-simplex is a 2-sphere
    sphere = full_simplex(4).skeleton(1 + 1)
    rep = reduced_homology(sphere)
    assert rep.free_concentrated(2, 1)


def test_homology_rp2_torsion():
    rep = reduced_homology(from_facets(RP2_FACETS))
    assert not rep.is_free()
    assert rep.torsion_at(1) == (2,)
    assert all(rep.betti(i) == 0 for i in rep.ranks)
    assert not rep.free_concentrated(1, 0)  # all ranks are zero, but ℤ/2 is not free


def test_homology_two_points():
    rep = reduced_homology(from_facets([(0,), (1,)]))
    assert rep.free_concentrated(0, 1)


@st.composite
def small_pure_complexes(draw):
    n = draw(st.integers(1, 5))
    size = draw(st.integers(1, min(3, n)))
    count = draw(st.integers(1, 4))
    facets = [
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
        for _ in range(count)
    ]
    return from_facets(facets, ambient=n)


@settings(max_examples=60, deadline=None)
@given(small_pure_complexes())
def test_euler_poincare(cx):
    rep = reduced_homology(cx)
    assert rep.euler() == cx.reduced_euler()


@settings(max_examples=40, deadline=None)
@given(small_pure_complexes())
def test_suspension_shift(cx):
    base = reduced_homology(cx)
    susp = reduced_homology(cx.suspension())
    for i in range(-1, cx.dim + 2):
        assert susp.betti(i + 1) == base.betti(i)


@settings(max_examples=30, deadline=None)
@given(small_pure_complexes(), small_pure_complexes())
def test_join_homology_ranks(a, b):
    ra, rb = reduced_homology(a), reduced_homology(b)
    if not (ra.is_free() and rb.is_free()):
        return
    rj = reduced_homology(a.join(b))
    top = a.dim + b.dim + 2
    for r in range(-1, top + 2):
        expect = sum(ra.betti(p) * rb.betti(r - 1 - p) for p in range(-1, r + 1))
        assert rj.betti(r) == expect


def test_report_json_shape():
    rep = reduced_homology(from_facets(RP2_FACETS))
    obj = rep.to_json_obj()
    assert obj[0]["dim"] == -1
    entry = [row for row in obj if row["dim"] == 1][0]
    assert entry == {"dim": 1, "rank": 0, "torsion": [2]}


# -- Alexander duality: the dual side must agree with the primal ----------


def _groups_over_ambient(cx):
    """H~(Δ) read off the dual over the whole ambient set of n vertices:
    duality holds over any vertex set that holds Δ's, so the free rank of
    H~_i(Δ) is β_(n-i-3) of that dual and its torsion that of H~_(n-i-4)."""
    n = cx.ambient
    ranks, torsion = _primal_groups(cx.alexander_dual())
    dims = range(-1, cx.dim + 1)
    return HomologyReport({i: ranks.get(n - i - 3, 0) for i in dims}, {i: torsion.get(n - i - 4, ()) for i in dims})


def _both_sides(cx):
    primal = HomologyReport(*_primal_groups(cx))
    assert _groups_over_ambient(cx) == primal
    n = cx._support.bit_count()  # the dual over the complex's own vertices, past the side rule
    s0 = n - 1 - cx.dim
    if s0 > 0:  # else Δ is the full simplex on its vertices
        levels = cx._walk_dual(cx._support, 1 << n)
        assert HomologyReport(*_shifted_groups(n, cx.dim, _dual_groups(n, s0, levels))) == primal
    assert reduced_homology(cx) == primal
    return primal


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_dual_and_primal_homology_agree(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for k in range(1, n + 1):
        cx = cut_complex(g, k)
        if not cx.is_void:
            _both_sides(cx)


@pytest.mark.parametrize("ambient", [6, 7, 8, 9])
def test_dual_and_primal_agree_on_rp2(ambient):
    rp2 = from_facets(RP2_FACETS, ambient=ambient)
    assert _both_sides(rp2).torsion_at(1) == (2,)
    assert _both_sides(rp2.cone()).nonzero_dims() == []
    assert _both_sides(rp2.suspension()).torsion_at(2) == (2,)


# -- clearing: each map loses the rows at the unit pivots of the map below --


def _nonzero_diagonals(snfs):
    return [(tuple(d for d in diag if d), rank) for diag, rank in snfs]


def _assert_clearing_keeps_the_chain(faces):
    """Chain reduction with clearing gives each map the rank and the
    nonzero Smith diagonal of the full boundary map, torsion included."""
    plain = [smith_normal_form(homology._boundary(rows, cols)) for rows, cols in zip(faces, faces[1:])]
    cleared = homology._chain_snfs(faces)
    assert _nonzero_diagonals(cleared) == _nonzero_diagonals(plain)
    return cleared


@st.composite
def complexes_on_at_most_8_vertices(draw):
    n = draw(st.integers(1, 8))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=8))
    return from_facets([tuple(sorted(f)) for f in facets], ambient=n)


@settings(max_examples=80, deadline=None)
@given(complexes_on_at_most_8_vertices())
def test_clearing_keeps_the_chain_of_a_complex_and_its_dual(cx):
    _assert_clearing_keeps_the_chain(_primal_faces(cx))
    n = cx._support.bit_count()
    if n - 1 - cx.dim > 0:  # else the dual over the support is void
        _assert_clearing_keeps_the_chain(_dual_faces(cx._walk_dual(cx._support, 1 << n)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_clearing_keeps_the_chain_of_a_cut_complex_and_its_dual(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for k in range(1, n + 1):
        cx = cut_complex(g, k)
        if cx.is_void:
            continue
        _assert_clearing_keeps_the_chain(_primal_faces(cx))
        levels = _walk_levels(connected_ksets(g, k), 1 << g.n, ())
        if levels:
            _assert_clearing_keeps_the_chain(_dual_faces(levels))


@pytest.mark.parametrize("case", ["rp2", "suspension", "realized"])
def test_clearing_keeps_the_torsion_of_rp2(case, monkeypatch):
    cx = from_facets(RP2_FACETS)
    if case == "suspension":
        cx = cx.suspension()
    if case == "realized":
        g, k = realize_as_cut_complex(cx)
        cx = cut_complex(g, k)
        levels = _walk_levels(connected_ksets(g, k), 1 << g.n, ())
    else:
        levels = cx._walk_dual(cx._support, 1 << cx._support.bit_count())
    real = homology.smith_normal_form
    reduced_rows = []

    def recording(m, units=None):
        reduced_rows.append(m.nrows)
        return real(m, units)

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    for faces in (_primal_faces(cx), _dual_faces(levels)):
        reduced_rows.clear()
        cleared = _assert_clearing_keeps_the_chain(faces)
        assert [d for diag, _ in cleared for d in diag if d > 1] == [2]
        # every map still goes through smith_normal_form; all above the first lose rows
        assert len(reduced_rows) == len(faces) - 1
        assert all(r < len(f) for r, f in zip(reduced_rows[1:], faces[1:]))


def test_side_picker_on_the_empty_face_complex():
    assert reduced_homology(from_facets([()])).side == "primal"  # dual is void
    empty = from_facets([()], ambient=3)
    assert reduced_homology(empty).side == "primal"
    assert _both_sides(empty).ranks == {-1: 1}


def test_side_picker_keeps_the_full_simplex_primal():
    cx = full_simplex(4)
    rep = reduced_homology(cx)
    assert rep.side == "primal" and rep.nonzero_dims() == []
    assert cx._dual_levels() is None  # its dual is void


def test_side_picker_with_vertices_in_no_facet():
    # over the ambient set a dual holds every set missing such a vertex, so
    # the side is picked over the complex's own vertices; RP² on 6 is a tie
    rep = _both_sides(from_facets(RP2_FACETS, ambient=8))
    assert reduced_homology(from_facets(RP2_FACETS, ambient=8)).side == "primal"
    assert rep.torsion_at(1) == (2,)
    # K_5 plus an isolated vertex 5: the disconnected 3-sets are those holding 5
    cx = cut_complex(from_edge_list(6, list(combinations(range(5), 2))), 3)
    assert cx.vertices() == (0, 1, 2, 3, 4)
    assert reduced_homology(cx).side == "dual"  # 26 faces on 5 vertices, 6 dual faces
    assert _both_sides(cx).free_concentrated(2, 4)  # 2-skeleton of a 4-simplex


def test_side_picker_rejects_the_void_complex():
    with pytest.raises(ValueError):
        reduced_homology(from_facets([]))
    with pytest.raises(ValueError):
        reduced_homology(from_facets([], ambient=3))


def test_side_picker_choices():
    rep = reduced_homology(cut_complex(family("complete_multipartite:6,6"), 2))
    assert rep.side == "connected" and rep.nonzero_dims() == [8] and rep.betti(8) == 25
    g, k = realize_as_cut_complex(from_facets(RP2_FACETS))
    assert (g.n, k) == (16, 13)
    rep = reduced_homology(cut_complex(g, k))
    assert rep.side == "primal" and rep.torsion_at(1) == (2,)


def test_counts_and_homology_never_list_the_larger_side(monkeypatch):
    # Δ_3(C_20) has 1,048,345 faces and a 231-face dual
    cx = cut_complex(family("cycle:20"), 3)

    def refuse(mask):
        raise AssertionError("the primal faces were enumerated")

    monkeypatch.setattr(complexes, "submasks", refuse)
    assert sum(cx.f_vector()) == 2**20 - 231
    rep = reduced_homology(cx)
    assert rep.side == "connected" and cx._faces is None
    assert rep.euler() == cx.reduced_euler()
    assert predicted_betti("cycle:20", 3).matches(cx, rep)


@pytest.mark.parametrize("spec, k", [("path:18", 5), ("prism:10", 4)])
def test_large_dual_matches_the_closed_form(spec, k):
    # thousands of dual faces: Δ_5(P_18) has 4,062 and H~_12 = Z^2366; Δ_4(prism_10) has H~_14 = Z^84
    cx = cut_complex(family(spec), k)
    rep = reduced_homology(cx)
    assert rep.side == "connected"
    assert predicted_betti(spec, k).matches(cx, rep)


# -- the connected-set route: a cut complex's dual from its connected k-sets ---


def _connected_route(g, k, cx):
    """The route called directly, past the side rule, with duality over all
    of V(g): correct even when the facets miss a vertex, as D is then a cone."""
    levels = _walk_levels(connected_ksets(g, k), 1 << g.n, ())
    return HomologyReport(*_shifted_groups(g.n, cx.dim, _dual_groups(g.n, k, levels)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_connected_route_matches_the_primal(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for k in range(1, n + 1):
        cx = cut_complex(g, k)
        if cx.is_void:
            continue
        primal = HomologyReport(*_primal_groups(cx))
        assert _connected_route(g, k, cx) == primal
        rep = reduced_homology(cx)
        assert rep == primal
        sizes = Counter(map(len, brute_faces(cx.facet_tuples())))
        assert cx.f_vector() == tuple(sizes[s] for s in range(cx.dim + 2))
        # a covered complex takes the route exactly where the dual walk of a
        # plain copy finds the smaller side, and both starts fill the same memo
        plain = SimplicialComplex(cx.facets, ambient=cx.ambient)
        if cuts._covers_every_vertex(g, k):
            assert (rep.side, reduced_homology(plain).side) in (("connected", "dual"), ("primal", "primal"))
        else:
            assert rep.side == reduced_homology(plain).side
        assert plain._dual_levels() == cx._dual_levels()


@pytest.mark.parametrize("suspensions", [0, 1])
def test_connected_route_finds_the_torsion_of_realized_rp2(suspensions):
    # the realized graphs' apex vertices are in no facet, so homology stays
    # primal; past the side rule the route over all n vertices agrees
    cx = from_facets(RP2_FACETS)
    for _ in range(suspensions):
        cx = cx.suspension()
    g, k = realize_as_cut_complex(cx)
    assert (g.n, k) == ((16, 13), (28, 24))[suspensions]
    cx = cut_complex(g, k)
    rep = reduced_homology(cx)
    assert rep.side == "primal"
    assert rep.nonzero_dims() == [1 + suspensions] and rep.torsion_at(1 + suspensions) == (2,)
    assert _connected_route(g, k, cx) == rep


def test_a_cut_complex_missing_a_vertex_lists_no_connected_kset(monkeypatch):
    # K_20 plus an isolated vertex 20: every facet misses vertex 20, and over
    # all 21 vertices the dual would hold the 2^20 subsets of K_20
    def refuse(*args):
        raise AssertionError("connected k-sets were listed")

    monkeypatch.setattr(cuts, "connected_ksets", refuse)
    cx = cut_complex(from_edge_list(21, list(combinations(range(20), 2))), 5)
    assert cx.vertices() == tuple(range(20))
    rep = reduced_homology(cx)
    assert rep.side == "dual" and rep.free_concentrated(15, comb(19, 3))  # the 15-skeleton of a 19-simplex
    assert cx.f_vector() == tuple(comb(20, s) for s in range(17))


def test_connected_route_runs_no_dual_walk_and_no_full_boundary(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dual walk or the full boundary assembly ran")

    monkeypatch.setattr(SimplicialComplex, "_walk_dual", refuse)
    monkeypatch.setattr(homology, "boundary_matrices", refuse)
    cx = cut_complex(family("path:22"), 6)
    rep = reduced_homology(cx)
    assert rep.side == "connected" and cx._faces is None
    assert rep.euler() == cx.reduced_euler()
    assert predicted_betti("path:22", 6).matches(cx, rep)


def test_only_cut_complex_grows_its_dual_from_the_connected_ksets():
    g = family("cycle:6")
    cx = cut_complex(g, 3)
    assert reduced_homology(cx).side == "connected"
    plain = SimplicialComplex(cx.facets, ambient=cx.ambient)
    assert plain == cx and hash(plain) == hash(cx) and reduced_homology(plain).side == "dual"
    for derived in (cx.link((0,)), cx.star((0,)), cx.deletion((0,)), cx.join(cx), cx.cone()):
        assert reduced_homology(derived).side != "connected"
    assert reduced_homology(plain) == reduced_homology(cx)
    assert plain._dual_levels() == cx._dual_levels()
