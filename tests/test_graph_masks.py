"""The graph routines a realization runs, against plain references.

``is_chordal``, ``separator_closure``, ``Graph.edges`` and
``realize_as_cut_complex`` walk vertex masks; the references below walk one
vertex at a time, as the earlier per-vertex versions did, and must give the
same values, down to the witness order and the order of the separators.
Graphs go up to 20 vertices, so that masks span three bytes.
"""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cutcomplex import from_edge_list, from_facets, is_chordal, realize_as_cut_complex
from cutcomplex.complexes import relabel_densely
from cutcomplex.graphs import separator_closure
from conftest import RP2_FACETS, brute_chordal, random_chordal, random_graph


def _neighbours(g, v):
    return [u for u in range(g.n) if g.adj[v] >> u & 1]


def _reference_is_chordal(g):
    """Maximum cardinality search by a scan of the unnumbered vertices for the
    greatest (weight, -v), then the perfect-elimination check of each vertex
    against its later neighbour that comes first in the order."""
    weight = [0] * g.n
    unnumbered = set(range(g.n))
    visit = []
    for _ in range(g.n):
        z = max(unnumbered, key=lambda v: (weight[v], -v))
        unnumbered.remove(z)
        visit.append(z)
        for y in _neighbours(g, z):
            if y in unnumbered:
                weight[y] += 1
    peo = visit[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in _neighbours(g, v) if pos[u] > pos[v]]
        if later:
            u = min(later, key=pos.__getitem__)
            if any(not g.adj[u] >> x & 1 for x in later if x != u):
                return False, None
    return True, tuple(peo)


def _is_perfect_elimination_order(g, order):
    pos = {v: i for i, v in enumerate(order)}
    return sorted(order) == list(range(g.n)) and all(
        g.adj[a] >> b & 1
        for v in order
        for a, b in combinations([u for u in _neighbours(g, v) if pos[u] > pos[v]], 2))


def _components(g, verts):
    """The vertex sets of the components of g[verts], lowest vertex first,
    by path search."""
    rest = sorted(verts)
    out = []
    while rest:
        comp, stack = {rest[0]}, [rest[0]]
        while stack:
            for u in _neighbours(g, stack.pop()):
                if u in verts and u not in comp:
                    comp.add(u)
                    stack.append(u)
        out.append(comp)
        rest = [v for v in rest if v not in comp]
    return out


def _reference_separator_closure(g):
    """The closure of Berry, Bordat and Cogis with components found by path
    search: the same removals in the same order, each yielding its component
    count and its separators not seen before."""
    found, todo, tried = set(), [], set()
    removals = [frozenset(_neighbours(g, v)) | {v} for v in range(g.n)]
    while True:
        for removed in removals:
            floods, new = 0, []
            if removed not in tried:
                tried.add(removed)
                for comp in _components(g, set(range(g.n)) - removed):
                    floods += 1
                    sep = sum(1 << u for u in set().union(*(_neighbours(g, v) for v in comp)) - comp)
                    if sep not in found:
                        found.add(sep)
                        new.append(sep)
            todo += new
            yield floods, new
        if not todo:
            return
        sep = todo.pop()
        removals = [frozenset(_neighbours(g, x)) | {u for u in range(g.n) if sep >> u & 1}
                    for x in range(g.n) if sep >> x & 1]


def _reference_realization(cx):
    """The realization built from its edge list: the clique on the complex
    vertices, then each apex joined to its facet."""
    nv = len(cx.vertices())
    facets = list(relabel_densely(cx).facets)
    if len(facets) == 1:
        facets *= max(nv, 2)
    edges = list(combinations(range(nv), 2))
    edges += [(u, nv + j) for j, f in enumerate(facets) for u in range(nv) if f >> u & 1]
    return from_edge_list(nv + len(facets), edges)


graph_draws = st.one_of(
    st.builds(random_graph, st.builds(random.Random, st.integers(0, 10_000)), st.integers(0, 20),
              st.floats(0.0, 1.0)),
    st.builds(random_chordal, st.builds(random.Random, st.integers(0, 10_000)), st.integers(1, 20)),
)


@st.composite
def pure_complexes(draw):
    nv = draw(st.integers(1, 10))
    size = draw(st.integers(1, nv))
    facets = draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=size, max_size=size), min_size=1, max_size=12))
    return from_facets([tuple(sorted(f)) for f in facets])


@settings(max_examples=200, deadline=None)
@given(graph_draws)
def test_is_chordal_matches_the_reference_and_brute_force(g):
    ok, order = is_chordal(g)
    assert (ok, order) == _reference_is_chordal(g)
    if g.n <= 8:
        assert ok == brute_chordal(g)
    assert order is None or _is_perfect_elimination_order(g, order)


@settings(max_examples=60, deadline=None)
@given(pure_complexes())
def test_realized_graphs_are_chordal_with_the_reference_witness(cx):
    g, _ = realize_as_cut_complex(cx)
    ok, order = is_chordal(g)
    assert ok and (ok, order) == _reference_is_chordal(g)
    assert _is_perfect_elimination_order(g, order)


def test_is_chordal_tie_break_and_early_failure():
    # C_4 with a pendant vertex: the check fails as vertex 3 is numbered, its
    # numbered neighbours 0 and 2 not being adjacent
    assert is_chordal(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])) == (False, None)
    # ties go to the least vertex: the edgeless graph is numbered 0, 1, 2 and
    # the path 2-1-3-0 from its end 0, and the witness is the reverse
    assert is_chordal(from_edge_list(3, [])) == (True, (2, 1, 0))
    assert is_chordal(from_edge_list(4, [(2, 1), (1, 3), (3, 0)])) == (True, (2, 1, 3, 0))


@settings(max_examples=200, deadline=None)
@given(graph_draws)
def test_separator_closure_matches_the_reference(g):
    assert list(separator_closure(g)) == list(_reference_separator_closure(g))


def test_separator_closure_on_isolated_and_covered_components():
    # on the 5-cycle 0-1-2-4-3, g - N[4] = {0, 1}: the step from 0 covers
    # it, and its neighbourhood {2, 3} needs the step from 1 as well; on the
    # star, g - N[1] holds 14 isolated leaves
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 4), (4, 3), (3, 0)])
    assert list(separator_closure(g)) == list(_reference_separator_closure(g))
    star = from_edge_list(18, [(0, v) for v in range(1, 18)] + [(16, 17)])
    assert list(separator_closure(star)) == list(_reference_separator_closure(star))


@settings(max_examples=100, deadline=None)
@given(graph_draws)
def test_edges_match_the_adjacency(g):
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]
    assert g.edges() == edges
    assert from_edge_list(g.n, g.edges()) == g


@settings(max_examples=60, deadline=None)
@given(pure_complexes())
def test_realized_graph_matches_its_edge_list(cx):
    g, k = realize_as_cut_complex(cx)
    assert g == _reference_realization(cx)
    assert k == g.n - cx.dim - 1


def test_realized_graphs_past_two_bytes_match_their_edge_lists():
    for cx in (from_facets(RP2_FACETS), from_facets([f + (v,) for f in RP2_FACETS for v in (6, 7)]),
               from_facets([(0, 1, 2)])):
        g, _ = realize_as_cut_complex(cx)
        assert g == _reference_realization(cx)
        assert is_chordal(g) == _reference_is_chordal(g)
        assert list(separator_closure(g)) == list(_reference_separator_closure(g))
