import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutcomplex import (
    cut_complex,
    cycle_lex_order,
    disjoint_union,
    family,
    find_shelling,
    from_edge_list,
    from_facets,
    graph_join,
    induced_subgraph,
    reduced_homology,
    verify_shelling_order,
    wedge,
)
from cutcomplex.shelling import (
    Obstruction, ShellingCertificate, _blocked, _homology_obstruction, _restriction_rows, _search, _shells,
)
from conftest import RP2_FACETS, random_chordal, random_graph

FIG2 = from_edge_list(5, [(0, 2), (0, 1), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)])
RP2 = from_facets(RP2_FACETS)
BOWTIE = from_facets([(0, 1, 2), (0, 3, 4)])  # two triangles sharing one vertex


def test_verify_single_facet_and_empty():
    assert verify_shelling_order(from_facets([(0, 1, 2)]), [(0, 1, 2)]) == (True, None)
    assert verify_shelling_order(from_facets([()]), [()]) == (True, None)
    assert verify_shelling_order(from_facets([]), []) == (True, None)


def test_verify_two_disjoint_edges_fails_both_ways():
    cx = from_facets([(0, 1), (2, 3)])
    ok, pair = verify_shelling_order(cx, [(0, 1), (2, 3)])
    assert not ok and pair == (0, 1)
    ok, pair = verify_shelling_order(cx, [(2, 3), (0, 1)])
    assert not ok and pair == (0, 1)


def test_verify_rejects_non_permutation_and_non_pure():
    cx = from_facets([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        verify_shelling_order(cx, [(0, 1)])
    with pytest.raises(ValueError):
        verify_shelling_order(from_facets([(0, 1), (2,)]), [(0, 1), (2,)])


def test_verify_points_any_order():
    cx = from_facets([(0,), (1,), (2,)])
    assert verify_shelling_order(cx, [(2,), (0,), (1,)])[0]


def test_find_shelling_trivial_cases():
    cert = find_shelling(from_facets([]))
    assert cert.verdict == "shellable" and cert.void_input and cert.order == ()
    cert = find_shelling(from_facets([()]))
    assert cert == ShellingCertificate("shellable", ((),), 0)
    cert = find_shelling(from_facets([(0, 1, 2)]))
    assert cert == ShellingCertificate("shellable", ((0, 1, 2),), 0)


def test_find_shelling_mobius_not_shellable():
    cert = find_shelling(cut_complex(family("cycle:5"), 2))
    assert cert.verdict == "not_shellable"


def test_find_shelling_kayak():
    for k in (4, 5):
        cert = find_shelling(cut_complex(family(f"kayak:{k}"), k))
        assert cert.verdict == "not_shellable"


def test_find_shelling_fig2_chordal():
    cert = find_shelling(cut_complex(FIG2, 2))
    assert cert.verdict == "shellable"
    assert verify_shelling_order(cut_complex(FIG2, 2), cert.order)[0]


def test_find_shelling_budget_unknown():
    # clean homology and no ascending shelling, so only the search can decide it
    cx = cut_complex(family("squared_cycle:9"), 3)
    cert = find_shelling(cx, budget=0)
    assert cert.verdict == "unknown" and cert.order is None and cert.obstruction is None
    # the homology obstruction needs no budget
    cert = find_shelling(cut_complex(family("prism:5"), 2), budget=3)
    assert cert.verdict == "not_shellable" and cert.nodes == 0 and cert.obstruction is not None


def test_found_orders_always_verify():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 6), 0.5)
        for k in range(2, g.n):
            cx = cut_complex(g, k)
            if cx.is_void or not cx.is_pure:
                continue
            cert = find_shelling(cx)
            if cert.verdict == "shellable" and not cx.is_empty_complex:
                assert verify_shelling_order(cx, cert.order)[0]


def test_shellable_implies_wedge_homology():
    rng = random.Random(5)
    for _ in range(8):
        g = random_graph(rng, rng.randint(4, 6), 0.6)
        for k in range(2, g.n):
            cx = cut_complex(g, k)
            if cx.is_void or cx.is_empty_complex:
                continue
            cert = find_shelling(cx)
            if cert.verdict != "shellable":
                continue
            rep = reduced_homology(cx)
            top = cx.dim
            assert rep.is_free()
            assert all(rep.betti(i) == 0 for i in rep.ranks if i != top)
            assert rep.betti(top) <= len(cx.facets)


def test_cycle_lex_order_examples():
    order = cycle_lex_order(5, 3)
    assert order == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert verify_shelling_order(cut_complex(family("cycle:5"), 3), order)[0]
    order6 = cycle_lex_order(6, 3)
    assert len(order6) == 14
    assert order6 == sorted(order6)
    assert verify_shelling_order(cut_complex(family("cycle:6"), 3), order6)[0]
    assert cycle_lex_order(6, 5) == []


def test_cycle_lex_order_errors():
    with pytest.raises(ValueError):
        cycle_lex_order(6, 2)
    with pytest.raises(ValueError):
        cycle_lex_order(3, 3)
    with pytest.raises(ValueError):
        cycle_lex_order(6, 6)


def test_find_shelling_matches_permutation_brute_force():
    from itertools import permutations

    rng = random.Random(47)
    checked = 0
    while checked < 12:
        n = rng.randint(3, 5)
        size = rng.randint(1, max(1, n - 1))
        count = rng.randint(2, 5)
        facets = {tuple(sorted(rng.sample(range(n), size))) for _ in range(count)}
        cx = from_facets(facets)
        if not cx.is_pure or len(cx.facets) > 5:
            continue
        checked += 1
        brute = any(
            verify_shelling_order(cx, list(perm))[0]
            for perm in permutations(cx.facets)
        )
        assert (find_shelling(cx).verdict == "shellable") == brute


# -- structural laws on a small corpus ---------------------------------------


def _verdict(g, k):
    return find_shelling(cut_complex(g, k)).verdict


def test_disjoint_union_law():
    rng = random.Random(23)
    for _ in range(6):
        g1 = random_graph(rng, rng.randint(3, 5), 0.5)
        g2 = random_graph(rng, rng.randint(3, 5), 0.5)
        for k in (2, 3):
            both = _verdict(g1, k) == "shellable" and _verdict(g2, k) == "shellable"
            assert (_verdict(disjoint_union(g1, g2), k) == "shellable") == both


def test_join_law():
    rng = random.Random(29)
    for _ in range(6):
        g1 = random_graph(rng, rng.randint(3, 5), 0.5)
        g2 = random_graph(rng, rng.randint(3, 5), 0.5)
        for k in (2, 3):
            cx1, cx2 = cut_complex(g1, k), cut_complex(g2, k)
            expect = (cx1.is_void and _verdict(g2, k) == "shellable") or (
                cx2.is_void and _verdict(g1, k) == "shellable"
            )
            assert (_verdict(graph_join(g1, g2), k) == "shellable") == expect


def test_wedge_law():
    rng = random.Random(31)
    for _ in range(6):
        g1 = random_graph(rng, rng.randint(3, 5), 0.5)
        g2 = random_graph(rng, rng.randint(3, 5), 0.5)
        v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
        for k in (2, 3):
            both = _verdict(g1, k) == "shellable" and _verdict(g2, k) == "shellable"
            assert (_verdict(wedge(g1, g2, v1, v2), k) == "shellable") == both


def test_chordal_implies_k3_shellable():
    rng = random.Random(37)
    for _ in range(10):
        g = random_chordal(rng, rng.randint(4, 8))
        assert _verdict(g, 3) == "shellable"


def test_links_preserve_shellability():
    rng = random.Random(41)
    for _ in range(6):
        g = random_graph(rng, rng.randint(4, 6), 0.5)
        for k in (2, 3):
            cx = cut_complex(g, k)
            if cx.is_void or find_shelling(cx).verdict != "shellable":
                continue
            for v in range(g.n):
                sub = induced_subgraph(g, g.full_mask ^ (1 << v))
                assert _verdict(sub, k) == "shellable"


def test_find_shelling_deep_search_has_no_recursion_limit():
    # A path with 1,101 edges, randomly relabelled: its ascending facet order
    # is not a shelling, so the search must place every facet one level deeper.
    rng = random.Random(0)
    labels = list(range(1102))
    rng.shuffle(labels)
    cx = from_facets([(labels[i], labels[i + 1]) for i in range(1101)])
    assert not verify_shelling_order(cx, cx.facets)[0]
    cert = find_shelling(cx)
    assert cert.verdict == "shellable" and cert.nodes == 1101
    assert verify_shelling_order(cx, cert.order)[0]


# -- the restriction-set test against the pairwise cover rule ----------------


def _reference_blocked(facets, prefix: int, j: int) -> bool:
    """Pairwise cover rule: F_j may follow the prefix P iff for every i in P
    some ridge neighbour k in P has F_i ∩ F_j ⊆ F_k ∩ F_j."""
    fj = facets[j]
    placed = [i for i in range(len(facets)) if prefix >> i & 1]
    covers = [facets[k] & fj for k in placed if (facets[k] & fj).bit_count() == fj.bit_count() - 1]
    return any(all(facets[i] & fj & ~c for c in covers) for i in placed)


@st.composite
def pure_facets_and_prefixes(draw):
    n = draw(st.integers(1, 7))
    size = draw(st.integers(1, n))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size, max_size=size), min_size=1, max_size=14))
    facets = from_facets([tuple(f) for f in faces]).facets
    prefixes = draw(st.lists(st.integers(0, (1 << len(facets)) - 1), max_size=12))
    return facets, [0] + prefixes


@settings(max_examples=300, deadline=None)
@given(pure_facets_and_prefixes())
def test_restriction_set_test_matches_pairwise_cover_rule(case):
    facets, prefixes = case
    rows = _restriction_rows(facets)
    for prefix in prefixes:
        for j in range(len(facets)):
            if not prefix >> j & 1:
                assert bool(_blocked(rows[j], prefix)) == _reference_blocked(facets, prefix, j)


def test_restriction_set_edge_cases():
    # R = ∅: F_1 shares no ridge with the placed F_0, so F_0 contains R and blocks it
    facets = from_facets([(0, 1), (2, 3)]).facets
    rows = _restriction_rows(facets)
    assert _blocked(rows[1], 0b01) == 0b01 and _reference_blocked(facets, 0b01, 1)
    assert _blocked(rows[1], 0) == 0 and not _reference_blocked(facets, 0, 1)
    # single-vertex facets: R = {v} lies in no other point, so any order shells
    facets = from_facets([(0,), (1,), (2,)]).facets
    rows = _restriction_rows(facets)
    assert all(_blocked(rows[j], 0b111 & ~(1 << j)) == 0 for j in range(3))
    assert find_shelling(from_facets(facets)).nodes == 0


# -- the one-pass ascending-order test against the pairwise criterion --------


@st.composite
def pure_complexes_and_orders(draw):
    n = draw(st.integers(0, 7))
    size = draw(st.integers(0, n))
    vertex = st.integers(0, max(n - 1, 0))
    faces = draw(st.lists(st.sets(vertex, min_size=size, max_size=size), min_size=1, max_size=14))
    cx = from_facets([tuple(f) for f in faces])
    return cx, draw(st.permutations(cx.facets))


@settings(max_examples=400, deadline=None)
@given(pure_complexes_and_orders())
@example((from_facets([()]), [0]))  # {∅}, one facet with no vertex
@example((from_facets([(0, 1, 2)]), [0b111]))
@example((from_facets([(0,), (1,), (2,)]), [0b100, 0b1, 0b10]))  # points
@example((BOWTIE, list(BOWTIE.facets)))
@example((from_facets([(0, 1), (2, 3)]), [0b11, 0b1100]))  # R = ∅ for the second edge
def test_one_pass_test_matches_pairwise_criterion(case):
    cx, order = case
    shells = _shells(order)
    assert shells == verify_shelling_order(cx, order)[0]
    rows = _restriction_rows(order)
    assert shells == (not any(_blocked(row, (1 << j) - 1) for j, row in enumerate(rows)))


def test_two_large_facets_shell_without_listing_faces(monkeypatch):
    def fail(*args):
        raise AssertionError("faces listed")

    # K_30 minus the edges 01 and 02 at k = 2: two 28-vertex facets sharing a
    # ridge, with 2^28 + 2^27 faces and an Alexander dual as large
    monkeypatch.setattr("cutcomplex.complexes.submasks", fail)
    monkeypatch.setattr("cutcomplex.shelling._restriction_rows", fail)
    g = from_edge_list(30, [e for e in combinations(range(30), 2) if e not in ((0, 1), (0, 2))])
    cx = cut_complex(g, 2)
    assert len(cx.facets) == 2
    start = time.perf_counter()
    cert = find_shelling(cx)
    assert time.perf_counter() - start < 1.0
    assert cert.verdict == "shellable" and cert.nodes == 0
    assert cert.order == ((1, *range(3, 30)), tuple(range(2, 30)))


# -- the homology obstruction against the search -----------------------------


@st.composite
def pure_complexes_and_cut_complexes(draw):
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        faces = list(combinations(range(n), draw(st.integers(1, n - 1))))
        picked = draw(st.integers(0, (1 << len(faces)) - 1))  # a uniform draw keeps about half
        return from_facets([f for i, f in enumerate(faces) if picked >> i & 1][:12])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1))
    return cut_complex(from_edge_list(n, edges), draw(st.integers(2, n - 1)))


@settings(max_examples=300, deadline=None)
@given(pure_complexes_and_cut_complexes())
@example(RP2)
@example(BOWTIE)
@example(cut_complex(family("cycle:5"), 2))
def test_homology_obstruction_never_contradicts_the_search(cx):
    if cx.is_void or len(cx.facets) < 2:
        return
    obstruction = _homology_obstruction(cx)
    cert = _search(cx.facets, _restriction_rows(cx.facets), 10**6)
    assert cert.verdict != "unknown"
    # an obstruction never meets a shelling, whichever of the two is found
    assert obstruction is None or cert.verdict == "not_shellable"
    assert find_shelling(cx).verdict == cert.verdict


def test_clean_homology_still_needs_the_search():
    # contractible, yet no ridge joins the two triangles
    assert _homology_obstruction(BOWTIE) is None
    cert = find_shelling(BOWTIE)
    assert cert.verdict == "not_shellable" and cert.nodes > 0 and cert.obstruction is None
    assert "obstruction" not in cert.to_json_obj()


def test_rp2_obstruction_is_torsion():
    cert = find_shelling(RP2)
    assert cert.verdict == "not_shellable" and cert.nodes == 0
    assert cert.obstruction == Obstruction(1, 0, (2,))
    assert cert.to_json_obj()["obstruction"] == {"dim": 1, "rank": 0, "torsion": [2]}


def test_shortcut_shellings_never_compute_homology(monkeypatch):
    def fail(cx):
        raise AssertionError("reduced_homology called")

    monkeypatch.setattr("cutcomplex.shelling.reduced_homology", fail)
    cx = cut_complex(family("cycle:11"), 5)
    cert = find_shelling(cx)
    assert cert.verdict == "shellable" and cert.nodes == 0
    assert verify_shelling_order(cx, cert.order)[0]


def test_restriction_rows_are_built_only_for_the_search(monkeypatch):
    import cutcomplex.shelling as shelling

    def fail(facets):
        raise AssertionError("_restriction_rows called")

    monkeypatch.setattr(shelling, "_restriction_rows", fail)
    for spec, k in (("cycle:11", 5), ("cycle:9", 3), ("path:10", 3), ("cycle:7", 3)):
        cert = find_shelling(cut_complex(family(spec), k))
        assert cert.verdict == "shellable" and cert.nodes == 0
    for spec, k in (("prism:4", 3), ("cycle:8", 2)):
        cert = find_shelling(cut_complex(family(spec), k))
        assert cert.verdict == "not_shellable" and cert.obstruction is not None

    calls = []

    def counting(facets):
        calls.append(len(facets))
        return _restriction_rows(facets)

    monkeypatch.setattr(shelling, "_restriction_rows", counting)
    cx = cut_complex(family("squared_cycle:9"), 3)
    cert = find_shelling(cx)
    assert cert.verdict == "shellable" and cert.nodes > 0
    assert calls == [len(cx.facets)]
