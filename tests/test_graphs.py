import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplex import (
    FAMILIES,
    FamilySpecError,
    cartesian_product,
    disjoint_union,
    family,
    from_edge_list,
    graph_join,
    has_triangle,
    induced_subgraph,
    is_chordal,
    is_connected_subset,
    minimal_separators,
    parse_family,
    read_graph_text,
    shortest_cycle_length,
    wedge,
    write_graph_text,
)
from cutcomplex.bitsets import to_tuple
from cutcomplex.complexes import _walk_levels
from cutcomplex.graphs import connected_ksets
from conftest import brute_chordal, brute_connected, brute_girth, random_graph


def test_from_edge_list_cycle():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.edge_count == 4
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_from_edge_list_dedup_and_edgeless():
    assert from_edge_list(3, []).edge_count == 0
    g = from_edge_list(2, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_from_edge_list_errors():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])


def test_family_prism():
    g = family("prism:3")
    assert g.n == 6 and g.edge_count == 9
    assert g.label(0) == "1⁺" and g.label(3) == "1⁻"


def test_family_kayak4_matches_expected_edges():
    g = family("kayak:4")
    clique = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    pendants = {(0, 4), (1, 4), (2, 5), (3, 5)}
    assert set(g.edges()) == clique | pendants
    assert g.label(4) == "a" and g.label(5) == "b"


def test_family_squared_cycle_small_is_complete():
    assert family("squared_cycle:5").adj == family("complete:5").adj
    assert family("squared_cycle:4").adj == family("complete:4").adj


def test_family_petersen():
    g = family("petersen")
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert not has_triangle(g)


def test_family_threshold():
    g = family("threshold:11")
    # single vertex plus two dominating vertices = triangle
    assert g.n == 3 and g.edge_count == 3
    g2 = family("threshold:01")
    assert g2.n == 3 and g2.edge_count == 2


def test_family_tree_and_errors():
    g = family("tree:0-1,1-2,1-3")
    assert g.n == 4 and g.edge_count == 3
    with pytest.raises(FamilySpecError):
        family("tree:0-1,2-3")
    with pytest.raises(FamilySpecError):
        family("cycle:2")
    with pytest.raises(FamilySpecError):
        family("nonsense:3")
    with pytest.raises(FamilySpecError):
        family("kayak:3")
    with pytest.raises(FamilySpecError, match="^tree: "):
        family("tree:0-1,1")


def test_parse_family():
    assert parse_family(" Figure-Eight:4,4") == ("figure_eight", (4, 4))
    assert parse_family("complete_multipartite:2,2,3") == ("complete_multipartite", (2, 2, 3))
    assert parse_family("tree: 0-1,1-2 ") == ("tree", ("0-1,1-2",))
    assert parse_family("petersen") == ("petersen", ())
    for spec in ("cycle", "prism:abc", "star:", "kneser:5", "petersen:junk", "nonsense:3"):
        with pytest.raises(FamilySpecError):
            parse_family(spec)


def test_readme_lists_every_family():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    dsl_list = readme.split("family DSL string:", 1)[1].split("\n\n", 1)[0]
    assert sorted(parse_family(spec)[0] for spec in re.findall(r"`([^`]+)`", dsl_list)) == sorted(FAMILIES)


def test_join_is_complete_bipartite():
    g = graph_join(family("edgeless:2"), family("edgeless:3"))
    assert g.adj == family("complete_multipartite:2,3").adj


def test_cartesian_k4_k2_is_prism():
    g = cartesian_product(family("complete:4"), family("complete:2"))
    assert g.adj == family("prism:4").adj


def test_wedge_of_edges_is_path():
    g = wedge(family("complete:2"), family("complete:2"), 1, 0)
    assert g.adj == family("path:3").adj


def test_union_and_wedge_counts():
    g1, g2 = family("cycle:4"), family("path:3")
    u = disjoint_union(g1, g2)
    assert u.n == 7 and u.edge_count == g1.edge_count + g2.edge_count
    w = wedge(g1, g2, 0, 0)
    assert w.n == 6
    with pytest.raises(ValueError):
        wedge(g1, g2, 9, 0)


# The composite families are built from the graph operations; each must equal
# its definition written out as an edge list.


def _multipartite_edges(parts):
    block = [i for i, p in enumerate(parts) for _ in range(p)]
    return len(block), {(u, v) for u, v in combinations(range(len(block)), 2) if block[u] != block[v]}, None


def _star_edges(m):
    return m + 1, {(0, i) for i in range(1, m + 1)}, None


def _prism_edges(n):
    edges = {(i, j) for i, j in combinations(range(n), 2)}
    edges |= {(n + i, n + j) for i, j in combinations(range(n), 2)}
    edges |= {(i, n + i) for i in range(n)}
    labels = tuple(f"{i}⁺" for i in range(1, n + 1)) + tuple(f"{i}⁻" for i in range(1, n + 1))
    return 2 * n, edges, labels


def _threshold_edges(pattern):
    edges = {(u, v) for v, c in enumerate(pattern, start=1) if c == "1" for u in range(v)}
    return len(pattern) + 1, edges, None


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
        lambda parts: ("complete_multipartite:" + ",".join(map(str, parts)), _multipartite_edges(parts))),
    st.integers(1, 10).map(lambda m: (f"star:{m}", _star_edges(m))),
    st.integers(2, 9).map(lambda n: (f"prism:{n}", _prism_edges(n))),
    st.text("01", max_size=10).map(lambda p: (f"threshold:{p}", _threshold_edges(p))),
))
def test_composite_families_match_their_edge_lists(case):
    spec, (n, edges, labels) = case
    g = family(spec)
    assert (g.n, set(g.edges()), g.labels) == (n, edges, labels)
    assert g.edge_count == len(edges)


def test_composite_family_errors():
    for spec, message in [
        ("complete_multipartite:2,0", "multipartite parts must be positive"),
        ("star:0", "star needs m >= 1"),
        ("prism:1", "prism needs n >= 2"),
        ("threshold:102", "threshold pattern must be a string over {0,1}"),
    ]:
        with pytest.raises(FamilySpecError, match=re.escape(message)):
            family(spec)


def test_induced_subgraph_examples():
    c5 = family("cycle:5")
    assert induced_subgraph(c5, [0, 1, 2]).adj == family("path:3").adj
    assert induced_subgraph(c5, [0, 2]).adj == family("edgeless:2").adj


def test_induced_subgraph_separating_set_figure():
    g = from_edge_list(
        6, [(0, 1), (0, 3), (2, 1), (2, 3), (2, 4), (3, 4), (0, 5), (1, 5), (2, 5), (3, 5)]
    )
    h = induced_subgraph(g, [0, 4, 5])
    # one edge {0,5} relabelled to {0,2}, vertex 4 isolated
    assert h.n == 3 and h.edges() == [(0, 2)]


def test_is_connected_subset():
    c5 = family("cycle:5")
    assert is_connected_subset(c5, [0, 1, 2])
    assert not is_connected_subset(c5, [0, 2])
    assert is_connected_subset(c5, [3])
    with pytest.raises(ValueError):
        is_connected_subset(c5, [])
    prism = family("prism:4")
    for i in range(4):
        assert is_connected_subset(prism, [i, 4 + i])


def test_whole_graph_connectivity():
    assert family("cycle:5").is_connected()
    assert not family("edgeless:3").is_connected()
    g = family("cycle:4")
    assert is_connected_subset(g, g.full_mask) == g.is_connected()


def test_is_chordal_examples():
    assert not is_chordal(family("cycle:4"))[0]
    assert not is_chordal(family("cycle:5"))[0]
    ok, order = is_chordal(family("tree:0-1,1-2,2-3,1-4"))
    assert ok and len(order) == 5
    for k in (4, 5, 6, 7):
        assert is_chordal(family(f"kayak:{k}"))[0]
    assert is_chordal(family("complete:5"))[0]
    assert is_chordal(family("threshold:0101"))[0]
    assert is_chordal(from_edge_list(0, [])) == (True, ())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.floats(0.1, 0.9), st.integers(0, 10_000))
def test_chordal_matches_brute_force(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert is_chordal(g)[0] == brute_chordal(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.floats(0.1, 0.9), st.integers(0, 10_000))
def test_girth_matches_brute_force(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert shortest_cycle_length(g) == brute_girth(g)


# n up to 20 puts vertices in the second and third bytes of a mask
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 20), st.floats(0.1, 0.9), st.integers(0, 10_000), st.data())
def test_subset_connectivity_matches_brute_force(n, p, seed, data):
    g = random_graph(random.Random(seed), n, p)
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    assert is_connected_subset(g, subset) == brute_connected(g, subset)
    rest = set(range(n)) - subset  # a large set when hypothesis draws a small one
    if rest:
        assert is_connected_subset(g, rest) == brute_connected(g, rest)


def _brute_minimal_separators(g):
    """S is a minimal separator iff g - S has two components C with N(C) = S;
    components by path search on vertex lists."""
    out = []
    for size in range(g.n + 1):
        for sep in combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in sep]
            full = 0
            while rest:
                comp, stack = {rest[0]}, [rest[0]]
                while stack:
                    v = stack.pop()
                    for u in rest:
                        if u not in comp and g.adj[v] >> u & 1:
                            comp.add(u)
                            stack.append(u)
                rest = [v for v in rest if v not in comp]
                full += all(any(g.adj[u] >> v & 1 for v in comp) for u in sep)
            if full >= 2:
                out.append(sum(1 << v for v in sep))
    return sorted(out)


def test_minimal_separators_examples():
    assert minimal_separators(family("complete:5")) == []
    assert minimal_separators(from_edge_list(0, [])) == []
    # a disconnected graph: the empty set, plus the middle of its path
    g = disjoint_union(family("path:3"), family("complete:2"))
    assert minimal_separators(g) == [0, 0b10]
    assert minimal_separators(family("edgeless:3")) == [0]
    # C_n: the non-adjacent pairs; the antipodal pairs of C_6 and most of the
    # 3x3 grid's separators come from the closure step, not from any N[v]
    for n in (5, 6):
        pairs = [1 << u | 1 << v for u, v in combinations(range(n), 2) if 1 < v - u < n - 1]
        assert minimal_separators(family(f"cycle:{n}")) == sorted(pairs)
    grid = cartesian_product(family("path:3"), family("path:3"))
    assert minimal_separators(grid) == _brute_minimal_separators(grid)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_minimal_separators_match_brute_force(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert minimal_separators(g) == _brute_minimal_separators(g)


def _brute_connected_ksets(g, k):
    return [s for s in combinations(range(g.n), k) if brute_connected(g, s)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_connected_ksets_match_brute_force(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for k in range(1, n + 2):
        got = [to_tuple(m) for m in connected_ksets(g, k)]
        assert len(got) == len(set(got))  # each connected k-set once
        assert sorted(got) == _brute_connected_ksets(g, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_connected_levels_match_brute_force(n, p, seed):
    # the sets of size >= k whose k-subsets are all connected, by size, in
    # lexicographic order, as the dual walk grows them from the connected
    # k-sets; a budget below their number gives None
    g = random_graph(random.Random(seed), n, p)
    for k in range(1, n + 1):
        want = [[s for s in combinations(range(g.n), size) if all(brute_connected(g, t) for t in combinations(s, k))]
                for size in range(k, n + 1)]
        while want and not want[-1]:
            want.pop()
        total = sum(map(len, want))
        levels = _walk_levels(connected_ksets(g, k), total, ())
        assert [[to_tuple(m) for m in level] for level in levels] == want
        assert total == 0 or _walk_levels(connected_ksets(g, k), total - 1, ()) is None


def test_connected_ksets_examples():
    assert sorted(connected_ksets(family("path:5"), 3)) == [0b111, 0b1110, 0b11100]
    assert list(connected_ksets(family("edgeless:4"), 2)) == []
    assert sorted(connected_ksets(family("edgeless:3"), 1)) == [1, 2, 4]
    # k = 23 of a 26-vertex path: there are more sets below size k than
    # k-sets, so the k-sets are flooded; the connected ones are the intervals
    assert sorted(connected_ksets(family("path:26"), 23)) == [((1 << 23) - 1) << i for i in range(4)]
    with pytest.raises(ValueError):
        list(connected_ksets(family("path:3"), 0))


def test_text_format_round_trip():
    g = family("kayak:5")
    text = write_graph_text(g)
    h = read_graph_text(text)
    assert h.n == g.n and h.adj == g.adj
    first = text.splitlines()[0]
    assert first == f"{g.n} {g.edge_count}"


def test_text_format_errors():
    with pytest.raises(ValueError):
        read_graph_text("")
    with pytest.raises(ValueError):
        read_graph_text("2 1\n")
