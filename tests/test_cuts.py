import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutcomplex import (
    BettiPrediction,
    FamilySpecError,
    NotCoveredError,
    SimplicialComplex,
    cartesian_product,
    connected_kset_census,
    cut_complex,
    disconnected_ksets,
    facets_via_ridges,
    family,
    forest_betti,
    from_edge_list,
    from_facets,
    graph_join,
    induced_subgraph,
    is_chordal,
    predicted_betti,
    realize_as_cut_complex,
    reduced_homology,
    skeleton_condition_euler,
    to_tuple,
    triangle_free_delta2_betti,
    wedge_anchor_count,
)
from cutcomplex import complexes, cuts, graphs
from cutcomplex.complexes import relabel_densely
from conftest import RP2_FACETS, brute_connected, brute_girth, random_forest, random_graph

FIG2 = from_edge_list(5, [(0, 2), (0, 1), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)])


def tuples(masks):
    return [to_tuple(m) for m in masks]


def test_disconnected_ksets_basics():
    g = family("cycle:5")
    assert disconnected_ksets(g, 1) == []
    assert tuples(disconnected_ksets(g, 2)) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert disconnected_ksets(family("complete:5"), 3) == []
    assert disconnected_ksets(g, 9) == []
    with pytest.raises(ValueError):
        disconnected_ksets(g, 0)


def test_disconnected_ksets_ascending_masks():
    masks = disconnected_ksets(family("cycle:6"), 3)
    assert masks == sorted(masks)


def test_cut_complex_fig2():
    cx = cut_complex(FIG2, 2)
    assert set(cx.facet_tuples()) == {(1, 2, 3), (0, 3, 4), (0, 1, 3)}


def test_cut_complex_degenerate_states():
    # connected graph at k = n: void
    assert cut_complex(family("cycle:4"), 4).is_void
    # disconnected graph at k = n: the complex {∅}
    two = family("edgeless:2")
    cx = cut_complex(two, 2)
    assert cx.is_empty_complex
    assert cut_complex(family("complete:4"), 2).is_void
    assert cut_complex(family("cycle:4"), 1).is_void


def test_cut_complex_dimension():
    for k in (2, 3, 4):
        cx = cut_complex(family("cycle:7"), k)
        assert cx.dim == 7 - k - 1


def test_cut_complex_rejects_k_below_one_at_construction():
    # path:10 passes the cover test for 2 <= k <= 8; a k below 1 still
    # raises when the complex is built
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            cut_complex(family("path:10"), k)


# -- facets listed on first read -------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.floats(0.0, 1.0), st.integers(0, 3), st.integers(0, 10_000))
@example(0, 0.0, 0, 0)  # no vertex: every vertex is covered, yet there is no facet
@example(8, 0.0, 0, 0)  # edgeless: every k from 2 to 7 defers its facets
@example(9, 1.0, 1, 0)  # K_8 plus an isolated vertex: the cover test fails
def test_deferred_facets_match_the_eager_complex(n, p, isolated, seed):
    # the last ``isolated`` vertices have no edges; dense graphs and isolated
    # vertices are where the cover test fails and the facets are listed at once
    edges = [e for e in random_graph(random.Random(seed), n, p).edges() if max(e) < n - isolated]
    g = from_edge_list(n, edges)
    full = g.full_mask
    for k in range(1, n + 3):
        eager = SimplicialComplex([full ^ m for m in disconnected_ksets(g, k)], ambient=n)
        covers = cuts._covers_every_vertex(g, k)
        assert not covers or eager.vertices() == tuple(range(n)), k  # never a false claim
        cx = cut_complex(g, k)
        grown = covers and cx._dual_levels() is not None
        if grown:
            assert cx._facets is None
        assert (cx.dim, cx.is_void, cx.is_empty_complex, cx.vertices(), cx.ambient) == (
            eager.dim, eager.is_void, eager.is_empty_complex, eager.vertices(), eager.ambient)
        assert cx._dual_levels() == eager._dual_levels()
        if not eager.is_void:
            assert cx.f_vector() == eager.f_vector()
            assert cx.reduced_euler() == eager.reduced_euler()
            rep, eager_rep = reduced_homology(cx), reduced_homology(eager)
            assert rep == eager_rep
            assert rep.side == ("connected" if grown else eager_rep.side)
            assert eager_rep.side != "connected"
        assert cx.facets == eager.facets
        assert cx == eager and hash(cx) == hash(eager)


def test_homology_of_a_covered_cut_complex_lists_no_facet(monkeypatch):
    def refuse(*args):
        raise AssertionError("the disconnected k-sets were listed")

    monkeypatch.setattr(cuts, "disconnected_ksets", refuse)
    g = family("path:22")
    cx = cut_complex(g, 6)
    assert cx._facets is None
    assert (cx.dim, cx.vertices()) == (15, tuple(range(22)))
    rep = reduced_homology(cx)
    assert rep.side == "connected" and rep.nonzero_dims() == [15] and rep.betti(15) == 20332
    assert cx.reduced_euler() == -20332
    assert skeleton_condition_euler(g, cx) == (True, -20332)
    assert cx._facets is None
    # a 6-set of P_22 is connected iff it is an interval; the facets are the other sets' complements
    brute = sorted(g.full_mask ^ sum(1 << v for v in t) for t in combinations(range(22), 6) if t[-1] - t[0] > 5)
    assert cx.facets == tuple(brute)


def test_few_facets_are_listed_without_walking_the_dual(monkeypatch):
    # K_12 minus two disjoint edges: two facets of 10 vertices have at most
    # 2^11 faces, so the dual (its 2^8 * 9 cliques) is not the smaller side,
    # and the walk stops after the connected 2-sets
    n = 12
    g = from_edge_list(n, [e for e in combinations(range(n), 2) if e not in ((0, 1), (2, 3))])
    eager = from_facets([[v for v in range(n) if v not in e] for e in ((0, 1), (2, 3))])

    def refuse(*args):
        raise AssertionError("the walk went past the connected k-sets")

    monkeypatch.setattr(complexes, "_extensions", refuse)
    cx = cut_complex(g, 2)
    assert cx._facets is not None and cx._dual_levels() is None
    assert cx == eager and cx.f_vector() == eager.f_vector()
    assert reduced_homology(cx) == reduced_homology(eager)
    # Δ_9(Kneser(7, 2)): 945 facets, more than 2^8, but each of 12 of the 21
    # vertices, so at most Σ_s min(C(21, s), 945·C(12, s)) = 684,485 faces,
    # no more than 2^20; the walk stops after the connected 9-sets
    cx = cut_complex(family("kneser:7,2"), 9)
    assert cx._facets is not None and cx._dual_levels() is None and len(cx.facets) == 945


def test_a_covered_complex_whose_walk_gave_up_walks_no_more(monkeypatch):
    # Δ_3(figure_eight_{3,4}) is covered, but its 11 facets are the smaller
    # side; their sizes alone would not rule out a second walk, from the facets
    cx = cut_complex(family("figure_eight:3,4"), 3)

    def refuse(*args):
        raise AssertionError("the dual was walked again")

    monkeypatch.setattr(SimplicialComplex, "_walk_dual", refuse)
    assert cx._facets is not None and cx._dual_levels() is None
    assert reduced_homology(cx).side == "primal" and len(cx.facets) == 11


def test_realized_graphs_fail_the_cover_test():
    # an apex vertex of a realized graph is in no facet, so its facets are listed at once
    g, k = realize_as_cut_complex(from_facets(RP2_FACETS))
    assert not cuts._covers_every_vertex(g, k)
    assert cut_complex(g, k)._facets is not None


def test_nesting_inclusion():
    g = family("squared_cycle:7")
    for k in (2, 3, 4):
        outer = cut_complex(g, k).face_set()
        inner = cut_complex(g, k + 1).face_set()
        assert inner <= outer


def test_census_closed_forms():
    # paths: n-k+1 connected k-subsets; cycles: n of them when k < n
    for n in (4, 5, 6):
        for k in range(1, n + 1):
            assert connected_kset_census(family(f"path:{n}"), k) == n - k + 1
    for n in (4, 5, 7):
        for k in range(1, n):
            assert connected_kset_census(family(f"cycle:{n}"), k) == n
        assert connected_kset_census(family(f"cycle:{n}"), n) == 1


def test_census_anchored_closed_forms():
    # connected a-subsets of a cycle through a fixed vertex: a of them (a < n)
    for n in (5, 7):
        g = family(f"cycle:{n}")
        for a in range(1, n):
            assert connected_kset_census(g, a, anchor=0) == a
        assert connected_kset_census(g, n, anchor=0) == 1
    with pytest.raises(ValueError):
        connected_kset_census(family("cycle:5"), 0)
    with pytest.raises(ValueError):
        connected_kset_census(family("cycle:5"), 2, anchor=9)


def test_wedge_census_decomposition():
    # Z_k(G1 ∨ G2) = Z_k(G1) + Z_k(G2) + (mixed subsets through the hinge)
    c5, p4 = family("cycle:5"), family("path:4")
    g = family("balloon:5,4")
    for k in range(2, 8):
        z = connected_kset_census(g, k)
        z1 = connected_kset_census(c5, k) if k <= 5 else 0
        z2 = connected_kset_census(p4, k) if k <= 4 else 0
        mixed = wedge_anchor_count(c5, 0, p4, 0, k, min_size=2)
        assert z == z1 + z2 + mixed


def _brute_disconnected(g, k):
    """The disconnected k-sets as ascending masks, by path search on tuples."""
    return sorted(sum(1 << v for v in c) for c in combinations(range(g.n), k) if not brute_connected(g, c))


# n = 8 and 16 fill whole bytes of the mask, n = 9 and 17 reach one vertex
# into the next byte; k is kept where C(n, k) <= 1000 so the brute force
# stays fast
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 17), st.floats(0.1, 0.9), st.integers(0, 10_000), st.integers(0, 100), st.integers(0, 100))
@example(8, 0.3, 1, 3, 5)
@example(9, 0.3, 2, 4, 8)
@example(16, 0.2, 3, 2, 11)
@example(17, 0.15, 4, 3, 16)
@example(17, 0.5, 5, 4, 0)
def test_kset_sweeps_match_brute_force(n, p, seed, kpick, anchor):
    g = random_graph(random.Random(seed), n, p)
    ks = [k for k in range(1, n + 1) if comb(n, k) <= 1000]
    k = ks[kpick % len(ks)]
    anchor %= n
    brute = _brute_disconnected(g, k)
    assert disconnected_ksets(g, k) == brute
    assert connected_kset_census(g, k) == comb(n, k) - len(brute)
    assert connected_kset_census(g, k, anchor) == comb(n - 1, k - 1) - sum(m >> anchor & 1 for m in brute)


def test_realized_graphs_past_two_bytes_round_trip():
    cone = from_facets([f + (6,) for f in RP2_FACETS])
    g, k = realize_as_cut_complex(cone)
    assert (g.n, k) == (17, 13)
    assert disconnected_ksets(g, k) == _brute_disconnected(g, k)
    assert cut_complex(g, k) == cone
    suspension = from_facets([f + (v,) for f in RP2_FACETS for v in (6, 7)])
    g, k = realize_as_cut_complex(suspension)
    assert (g.n, k) == (28, 24)
    assert cut_complex(g, k) == suspension


def test_facets_via_ridges_matches_direct():
    cases = [
        ("cycle:6", 2), ("path:5", 2), ("cycle:7", 3), ("prism:3", 2),
        ("cycle:9", 3), ("squared_cycle:9", 4), ("petersen", 2),
    ]
    for spec, k in cases:
        g = family(spec)
        ridges = facets_via_ridges(cut_complex(g, k), k)
        assert ridges == list(cut_complex(g, k + 1).facets)


def test_facets_via_ridges_empty_cases():
    # K4 minus an edge: the 3-cut complex is void
    g = from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert disconnected_ksets(g, 3) == []
    assert facets_via_ridges(cut_complex(g, 2), 2) == []
    assert facets_via_ridges(from_facets([]), 2) == []
    assert facets_via_ridges(from_facets([()]), 2) == []


def test_skeleton_condition_examples():
    def condition(spec, k):
        return skeleton_condition_euler(family(spec), cut_complex(family(spec), k))

    holds, mu = condition("cycle:6", 3)
    assert holds and mu == comb(5, 2) - 6
    holds, mu = condition("complete_multipartite:3,3", 2)
    assert holds and mu == -(comb(5, 1) - 9)
    holds, mu = condition("cycle:4", 2)
    assert holds and mu == -(comb(3, 1) - 4) == 1
    # f-vector cross-check for the C4 case: two disjoint edges
    assert cut_complex(family("cycle:4"), 2).reduced_euler() == 1


def test_skeleton_condition_errors():
    g = family("complete:4")
    with pytest.raises(ValueError, match="void"):
        skeleton_condition_euler(g, cut_complex(g, 2))
    g = family("cycle:5")
    with pytest.raises(ValueError, match="void"):  # k = n on a connected graph
        skeleton_condition_euler(g, cut_complex(g, 5))
    g = family("edgeless:4")
    with pytest.raises(ValueError, match="2 <= k <= n-1"):  # k = n: the facet is the empty face
        skeleton_condition_euler(g, cut_complex(g, 4))


def _paper_condition(g, k) -> bool:
    """The condition as the paper states it: for every connected k-set A and
    every x outside A, some y in A leaves (A - y) + x disconnected."""
    for a in combinations(range(g.n), k):
        if not brute_connected(g, a):
            continue
        for x in set(range(g.n)) - set(a):
            if all(brute_connected(g, (set(a) - {y}) | {x}) for y in a):
                return False
    return True


@st.composite
def graphs_with_isolated_vertices(draw):
    """A graph on up to 8 vertices whose last zero to two vertices have no
    edge, with a k in 2..n-1."""
    n = draw(st.integers(3, 8))
    core = n - draw(st.integers(0, 2))
    edges = [e for e in combinations(range(core), 2) if draw(st.booleans())]
    return from_edge_list(n, edges), draw(st.integers(2, n - 1))


@settings(max_examples=300, deadline=None)
@given(graphs_with_isolated_vertices())
@example((from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4)]), 3))  # a triangle, an edge, a lone vertex
@example((from_edge_list(5, list(combinations(range(4), 2))), 2))  # every facet misses vertex 4
@example((family("figure_eight:3,4"), 3))
def test_skeleton_condition_is_the_paper_condition(case):
    g, k = case
    cx = cut_complex(g, k)
    if cx.is_void:
        return
    assert skeleton_condition_euler(g, cx)[0] == _paper_condition(g, k)


@st.composite
def graphs_of_girth_above_k_plus_one(draw):
    """A cycle of length 4 or more, or none, with trees hung on it, on up to
    8 vertices, and a k below the cycle length minus one."""
    n = draw(st.integers(3, 8))
    length = draw(st.sampled_from([0, *range(4, n + 1)]))
    edges = [(v, (v + 1) % length) for v in range(length)]
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(max(length, 1), n) if draw(st.booleans())]
    return from_edge_list(n, edges), draw(st.integers(2, length - 2 if length else n - 1))


@settings(max_examples=200, deadline=None)
@given(graphs_of_girth_above_k_plus_one())
@example((family("petersen"), 3))
def test_girth_above_k_plus_one_gives_the_skeleton_condition(case):
    g, k = case
    girth = brute_girth(g)
    assert girth is None or girth > k + 1
    cx = cut_complex(g, k)
    if not cx.is_void:
        assert skeleton_condition_euler(g, cx)[0]


def test_skeleton_condition_runs_no_sweep(monkeypatch):
    g = family("figure_eight:3,4")  # a triangle wedged with a 4-cycle
    complexes = {k: cut_complex(g, k) for k in (3, 4)}

    def refuse(*args):
        raise AssertionError("the condition swept the graph")

    monkeypatch.setattr(cuts, "ksubset_masks", refuse)
    monkeypatch.setattr(cuts, "shortest_cycle_length", refuse)
    assert skeleton_condition_euler(g, complexes[3]) == (False, None)
    assert skeleton_condition_euler(g, complexes[4]) == (True, -1)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.floats(0.2, 0.8), st.integers(0, 10_000), st.integers(2, 4))
def test_condition_formula_against_f_vector(n, p, seed, k):
    g = random_graph(random.Random(seed), n, p)
    if k > g.n - 1:
        return
    try:
        holds, mu = skeleton_condition_euler(g, cut_complex(g, k))
    except ValueError:
        return
    if holds:
        assert mu == cut_complex(g, k).reduced_euler()


def test_realize_fig4():
    cx = from_facets([(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)])
    g, k = realize_as_cut_complex(cx)
    assert g.n == 9 and k == 6
    assert cut_complex(g, k) == cx
    assert is_chordal(g)[0]


def test_realize_single_vertex_and_simplex():
    g, k = realize_as_cut_complex(from_facets([(0,)]))
    assert (g.n, k) == (3, 2)
    assert cut_complex(g, k) == from_facets([(0,)])
    simplex = from_facets([(0, 1, 2)])
    g, k = realize_as_cut_complex(simplex)
    assert (g.n, k) == (6, 3)
    assert cut_complex(g, k) == simplex


def test_realize_lone_facet_takes_the_general_construction():
    for nv in range(1, 9):
        simplex = from_facets([tuple(range(0, 3 * nv, 3))])  # gapped vertex numbers
        g, k = realize_as_cut_complex(simplex)
        apexes = max(nv, 2)
        edges = list(combinations(range(nv), 2)) + [(u, nv + j) for j in range(apexes) for u in range(nv)]
        assert (g, k) == (from_edge_list(nv + apexes, edges), apexes)
        assert cut_complex(g, k) == relabel_densely(simplex)
        assert is_chordal(g)[0]


def test_realize_rp2():
    cx = from_facets(RP2_FACETS)
    g, k = realize_as_cut_complex(cx)
    assert (g.n, k) == (16, 13)
    assert cut_complex(g, k) == cx
    assert is_chordal(g)[0]


def test_realize_errors():
    with pytest.raises(ValueError):
        realize_as_cut_complex(from_facets([]))
    with pytest.raises(ValueError):
        realize_as_cut_complex(from_facets([()]))
    with pytest.raises(ValueError):
        realize_as_cut_complex(from_facets([(0, 1), (2,)]))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(2, 4), st.integers(0, 10_000))
def test_realize_round_trip_random(n, size, count, seed):
    rng = random.Random(seed)
    size = min(size, n)
    facets = {tuple(sorted(rng.sample(range(n), size))) for _ in range(count)}
    cx = from_facets(facets)
    if set(cx.vertices()) != set(range(len(cx.vertices()))):
        return  # generator may skip a vertex index; realization needs dense labels
    g, k = realize_as_cut_complex(cx)
    assert cut_complex(g, k) == cx
    assert is_chordal(g)[0]


def test_predicted_betti_spot_values():
    p = predicted_betti("complete_multipartite:3,4", 2)
    assert (p.status, p.dim, p.count) == ("wedge", 3, 6)
    p = predicted_betti("prism:4", 3)
    assert (p.status, p.dim, p.count) == ("wedge", 3, 3)
    p = predicted_betti("path:6", 3)
    assert (p.status, p.dim, p.count) == ("wedge", 2, 6)
    assert predicted_betti("complete:6", 3).status == "void"
    assert predicted_betti("complete_multipartite:3,5", 4).status == "contractible"
    assert predicted_betti("path:6", 2).status == "contractible"
    p = predicted_betti("edgeless:4", 4)
    assert (p.status, p.dim, p.count) == ("wedge", -1, 1)
    p = predicted_betti("petersen", 2)
    assert (p.status, p.dim, p.count) == ("wedge", 6, 6)
    p = predicted_betti("squared_cycle:8", 4)
    assert (p.status, p.dim, p.count) == ("wedge", 1, 1)
    p = predicted_betti("complete_multipartite:2,2,2,2", 2)
    assert (p.status, p.dim, p.count) == ("wedge", 2, 1)


def test_predicted_betti_void_for_complete_cycles_and_squared_cycles():
    # cycle:3 and squared_cycle:3..5 are complete graphs; cycle:n has no
    # disconnected k-set at k >= n - 1
    for spec, n in [("cycle:3", 3), ("squared_cycle:3", 3), ("squared_cycle:4", 4), ("squared_cycle:5", 5)]:
        for k in range(1, n + 3):
            assert predicted_betti(spec, k).status == "void", (spec, k)
    for n in range(3, 10):
        for k in range(n - 1, n + 3):
            assert predicted_betti(f"cycle:{n}", k).status == "void", (n, k)


# one spec per family with a closed form, on at most 8 vertices except the
# three-part multipartite graph (Kneser graphs are covered only from n = 10)
CLOSED_FORM_SPECS = [
    "edgeless:1", "edgeless:4", "complete:4", "complete_multipartite:5", "complete_multipartite:3,4",
    "complete_multipartite:2,2,2", "complete_multipartite:2,3,4", "star:4", "path:5", "tree:0-1,1-2,1-3,3-4",
    *(f"cycle:{n}" for n in range(3, 9)), "prism:3", "prism:4", *(f"squared_cycle:{n}" for n in range(3, 9)),
    "balloon:4,3", "figure_eight:4,4",
]


def test_every_closed_form_matches_computed_homology():
    for spec in CLOSED_FORM_SPECS:
        g = family(spec)
        for k in range(1, g.n + 2):
            try:
                pred = predicted_betti(spec, k)
            except NotCoveredError:
                continue
            cx = cut_complex(g, k)
            rep = None if cx.is_void else reduced_homology(cx)
            assert pred.matches(cx, rep), (spec, k, pred)


def test_no_sphere_prediction_matches_the_void_complex():
    void = from_facets([], ambient=4)
    for pred in (BettiPrediction.wedge(1, 2), BettiPrediction.wedge(1, 0)):  # a wedge; contractible
        assert not pred.matches(void, None)


def test_forest_betti_at_k_equal_n():
    assert forest_betti(family("path:4"), 4).status == "void"
    p = forest_betti(from_edge_list(4, [(0, 1), (2, 3)]), 4)
    assert (p.status, p.dim, p.count) == ("wedge", -1, 1)


def test_predicted_betti_not_covered():
    with pytest.raises(NotCoveredError):
        predicted_betti("squared_cycle:8", 3)  # n = k+5: conjecture only
    with pytest.raises(NotCoveredError):
        predicted_betti("kayak:4", 4)
    with pytest.raises(NotCoveredError):
        predicted_betti("balloon:5,3", 4)  # k = n1 - 1 caveat
    with pytest.raises(NotCoveredError):
        predicted_betti("kneser:6,2", 2)  # has triangles
    with pytest.raises(NotCoveredError):
        predicted_betti("threshold:11", 2)
    for spec in ("kneser:4,2", "kneser:3,2", "kneser:2,1"):  # disconnected, edgeless, a tree
        with pytest.raises(NotCoveredError):
            predicted_betti(spec, 2)


@pytest.mark.parametrize("spec", ["cycle", "prism:abc", "star:", "tree:0-1,1", "cycle:2", "petersen:junk",
                                  "nonsense:3"])
def test_predicted_betti_malformed_spec(spec):
    with pytest.raises(FamilySpecError):
        predicted_betti(spec, 2)


def test_forest_betti_matches_homology():
    rng = random.Random(7)
    for _ in range(6):
        g = random_forest(rng, rng.randint(3, 7))
        for k in range(2, g.n):
            pred = forest_betti(g, k)
            cx = cut_complex(g, k)
            rep = None if cx.is_void else reduced_homology(cx)
            assert pred.matches(cx, rep)


def test_triangle_free_delta2_requirements():
    with pytest.raises(ValueError):
        triangle_free_delta2_betti(family("complete:3"))
    with pytest.raises(ValueError):
        triangle_free_delta2_betti(family("tree:0-1,1-2"))
    with pytest.raises(ValueError):
        triangle_free_delta2_betti(family("edgeless:4"))
    p = triangle_free_delta2_betti(family("cycle:6"))
    assert (p.status, p.dim, p.count) == ("wedge", 2, 1)


def test_disjoint_cycle_union_two_dimensional_homology():
    # unlike the single-family cases, homology here lives in two dimensions:
    # rank 1 on top, rank 2 one below, with mu = (-1)^(m+n)
    from cutcomplex import disjoint_union

    for m, n in [(4, 4), (4, 5), (5, 5)]:
        g = disjoint_union(family(f"cycle:{m}"), family(f"cycle:{n}"))
        cx = cut_complex(g, 2)
        rep = reduced_homology(cx)
        top = cx.dim
        assert rep.is_free()
        expected = {top: 1, top - 1: 2}
        assert {i: rep.betti(i) for i in rep.ranks if rep.betti(i)} == expected
        assert cx.reduced_euler() == (1 if (m + n) % 2 == 0 else -1)
        holds, mu = skeleton_condition_euler(g, cx)
        assert holds and mu == cx.reduced_euler()


def test_balloon_and_figure_eight_predictions_match_homology():
    cases = [("balloon:5,3", 3), ("balloon:5,4", 3), ("balloon:4,4", 4),
             ("figure_eight:4,4", 4), ("figure_eight:4,5", 5), ("figure_eight:5,5", 3)]
    for spec, k in cases:
        pred = predicted_betti(spec, k)
        cx = cut_complex(family(spec), k)
        rep = None if cx.is_void else reduced_homology(cx)
        assert pred.matches(cx, rep), (spec, k, pred)


def test_join_facet_decomposition():
    g1, g2 = family("path:3"), family("cycle:4")
    joined = graph_join(g1, g2)
    for k in (2, 3):
        cx = cut_complex(joined, k)
        f1 = cut_complex(g1, k).facets
        f2 = cut_complex(g2, k).facets
        v1 = g1.full_mask
        v2 = g2.full_mask << g1.n
        expected = {f | v2 for f in f1} | {(f << g1.n) | v1 for f in f2}
        assert set(cx.facets) == expected


def test_link_identity_on_small_graphs():
    rng = random.Random(3)
    for _ in range(5):
        g = random_graph(rng, rng.randint(4, 6), 0.5)
        for k in (2, 3):
            cx = cut_complex(g, k)
            if cx.is_void:
                continue
            for w in sorted(cx.face_set()):
                expected = cut_complex(induced_subgraph(g, g.full_mask ^ w), k)
                link = cx.link(w)
                keep = to_tuple(g.full_mask ^ w)
                pos = {v: i for i, v in enumerate(keep)}
                relabeled = from_facets(
                    [tuple(pos[v] for v in to_tuple(f)) for f in link.facets]
                )
                assert relabeled == expected
            # a vertex set that is not a face gives a void cut complex
            for w in range(g.n):
                if not cx.has_face(1 << w):
                    assert cut_complex(induced_subgraph(g, g.full_mask ^ (1 << w)), k).is_void


# -- the separator route of disconnected_ksets --------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10_000))
@example(12, 0.3, 0)
def test_disconnected_ksets_match_brute_force_at_every_k(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for k in range(1, n + 2):
        assert disconnected_ksets(g, k) == _brute_disconnected(g, k), k


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(2, 5), st.integers(0, 10_000))
def test_realized_disconnected_ksets_match_brute_force(nv, size, count, seed):
    rng = random.Random(seed)
    size = min(size, nv)
    cx = from_facets({tuple(sorted(rng.sample(range(nv), size))) for _ in range(count)})
    g, k = realize_as_cut_complex(cx)
    for j in range(1, g.n + 1):
        assert disconnected_ksets(g, j) == _brute_disconnected(g, j), j
    assert cut_complex(g, k) == relabel_densely(cx)


def _points(p):
    return [(i,) for i in range(p)]


def _sphere(m):
    """The boundary of the m-simplex."""
    return list(combinations(range(m + 1), m))


def _join(a, b):
    shift = 1 + max(max(f) for f in a)
    return [f + tuple(v + shift for v in h) for f in a for h in b]


def _cone(a):
    return [f + (1 + max(max(f) for f in a),) for f in a]


TORUS = sorted({tuple(sorted((i, (i + a) % 7, (i + 3) % 7))) for i in range(7) for a in (1, 2)})
# pure complexes realized on 10-28 vertices, spheres and torsion included
REALIZED = [
    _sphere(4), _sphere(5), _join(_join(_points(2), _points(2)), _points(2)),
    _join(_sphere(2), _sphere(2)), _join(_points(3), _sphere(2)), _join(_points(3), _points(3)),
    _join(_points(4), _points(2)), _cone(_sphere(4)), RP2_FACETS, _cone(RP2_FACETS),
    _join(RP2_FACETS, _points(2)), TORUS, _cone(TORUS), _join(_join(_points(3), _points(3)), _points(2)),
]


def test_realized_graphs_take_the_separator_route(monkeypatch):
    sweeps = []
    real_sweep = cuts.ksubset_masks
    monkeypatch.setattr(cuts, "ksubset_masks", lambda *a: sweeps.append(a) or real_sweep(*a))
    for facets in REALIZED:
        cx = from_facets(facets)
        g, k = realize_as_cut_complex(cx)
        assert 10 <= g.n <= 28
        assert cut_complex(g, k) == cx
        assert sweeps == [], facets
    # five points realize on n = 10 at k = 9: the search's first removals
    # and floods pass C(10, 9) = 10, so the ten-set sweep answers
    g, k = realize_as_cut_complex(from_facets(_points(5)))
    assert cut_complex(g, k) == from_facets(_points(5))
    assert sweeps == [(10, 9)]


def test_separator_route_gives_way_to_the_sweep_on_the_grid(monkeypatch):
    # the 6x8 grid has many more minimal separators than 3-vertex cuts, so at
    # k = 45 the route's work passes C(48, 45) and the sweep answers
    grid = cartesian_product(family("path:6"), family("path:8"))
    n, k = 48, 45
    nbrs = {v: [] for v in range(n)}
    for u, v in grid.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)

    def separates(cut):
        rest = set(range(n)) - set(cut)
        start = min(rest)
        seen, stack = {start}, [start]
        while stack:
            for u in nbrs[stack.pop()]:
                if u in rest and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen != rest

    brute = sorted(grid.full_mask ^ sum(1 << v for v in cut) for cut in combinations(range(n), n - k) if separates(cut))

    def best_of_two(f):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            out = f()
            times.append(time.perf_counter() - start)
        return min(times), out

    sweep_s, swept = best_of_two(lambda: graphs.disconnected_masks(grid, cuts.ksubset_masks(n, k)))
    sweeps, floods = [], []
    real_sweep, real_flood = cuts.ksubset_masks, graphs._flood
    monkeypatch.setattr(cuts, "ksubset_masks", lambda *a: sweeps.append(a) or real_sweep(*a))
    monkeypatch.setattr(graphs, "_flood", lambda *a: floods.append(a) or real_flood(*a))
    assert disconnected_ksets(grid, k) == swept == brute
    assert sweeps == [(n, k)]
    # a give-up costs at most about one more sweep: C(n, k) floods, plus the
    # floods that close a component which covered what was left of the graph
    assert len(floods) <= 2 * comb(n, k) + n
    monkeypatch.setattr(graphs, "_flood", real_flood)
    call_s, _ = best_of_two(lambda: disconnected_ksets(grid, k))
    assert call_s <= 3 * sweep_s  # about 2x, with room for timer noise
