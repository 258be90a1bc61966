"""Cut complexes of graphs.

The k-cut complex of a graph G on n vertices is generated by the complements
of the k-subsets that induce disconnected subgraphs; its facets are the
separating (n-k)-sets. When a degree test shows that they cover every
vertex, the complex is built from its Alexander dual, grown from the
connected k-sets; otherwise the disconnected k-sets are listed, from the
graph's minimal separators or by a sweep of all k-sets when that is
cheaper. This module also holds the connected-subset census; the census
formula for the reduced Euler characteristic when the complex holds the
complete skeleton of its ridge dimension; ridge recursion between
consecutive k; realization of arbitrary pure complexes as cut complexes of
chordal graphs; and the closed-form Betti predictions for the graph
families with known answers.

The Betti predictions are pure dispatchers over closed forms: they never
compute homology, so they can serve as the oracle the homology engine is
tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitsets import bits, ksubset_masks, to_tuple, vertex_holders
from .complexes import SimplicialComplex, relabel_densely
from .graphs import (
    Graph,
    connected_ksets,
    disconnected_masks,
    family,
    has_triangle,
    parse_family,
    separator_closure,
    shortest_cycle_length,
)


def disconnected_ksets(g: Graph, k: int) -> list[int]:
    """All k-subsets inducing disconnected subgraphs, as ascending bitmasks.

    k = 1 gives the empty list by definition; k > n gives the empty list.

    The complement U of a disconnected k-set is a separating (n-k)-set, so it
    contains a minimal separator M: one between two vertices that g - U
    keeps apart. The k-sets are therefore among V - (M u T), for M a minimal
    separator with |M| <= n - k and T an (n-k-|M|)-subset of V - M, and a
    flood of each of these candidates keeps the disconnected ones. That route
    is tried first, counting one unit per vertex set the separator search
    removes, one per component it floods and one per candidate. Once the
    count passes C(n, k), the floods a sweep of every k-set makes, the sweep
    runs instead.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    cap = comb(n, k)
    units = 0
    small = []
    for floods, new in separator_closure(g):
        units += 1 + floods
        for m in new:
            if m.bit_count() <= n - k:
                small.append(m)
                units += comb(n - m.bit_count(), k)
        if units > cap:
            return disconnected_masks(g, ksubset_masks(n, k))
    candidates = set()
    for m in small:
        rest = g.full_mask ^ m
        t = n - k - m.bit_count()
        if t:
            candidates.update(rest ^ sum(s) for s in combinations([1 << v for v in to_tuple(rest)], t))
        else:  # M is the whole complement, as on every graph realize_as_cut_complex builds
            candidates.add(rest)
    return disconnected_masks(g, sorted(candidates))


def cut_complex(g: Graph, k: int) -> SimplicialComplex:
    """Complex whose facets are complements of disconnected k-sets.

    When ``_covers_every_vertex`` shows that the facets cover V(g), the
    Alexander dual D holds every set below size k and, from there up, the
    sets whose k-subsets are all connected (for k = 2, the clique complex
    of g). The level walk grows D from the connected k-sets, and when D is
    the smaller side the complex is built from it: counts, homology and
    Morse matchings read D alone, and the facets, the complements of the
    k-sets that are not connected, are read off D when needed. Otherwise,
    and when the test fails (over V(g), the dual of a complex that misses a
    vertex is never the smaller side), ``disconnected_ksets`` lists the
    facets now; a covered complex then records that D is not smaller."""
    covered = _covers_every_vertex(g, k)
    cx = SimplicialComplex._from_dual_walk(connected_ksets(g, k), k, g.n) if covered else None
    if cx is None:
        cx = SimplicialComplex([g.full_mask ^ m for m in disconnected_ksets(g, k)], ambient=g.n)
        if covered:
            cx._dual = None  # no walk from the facets: it would give up again
    return cx


def _covers_every_vertex(g: Graph, k: int) -> bool:
    """A sufficient test, in O(n) mask operations, that every vertex of g
    lies in a facet of the k-cut complex, i.e. misses some disconnected
    k-set.

    For k >= 2, a vertex a with k - 1 or more non-neighbours and any k - 1 of
    them form a disconnected k-set, as a is isolated in it. With k or more
    non-neighbours these sets miss every vertex other than a; with exactly
    k - 1 the one such set misses the neighbours of a. The test is whether
    those vertices cover V(g), and V(g) must be nonempty for a facet to
    exist."""
    if k < 2:
        return False
    full = g.full_mask
    covered = 0
    for a, near in enumerate(g.adj):
        far = g.n - 1 - near.bit_count()
        if far >= k:
            covered |= full ^ 1 << a
        elif far == k - 1:
            covered |= near
    return g.n > 0 and covered == full


def connected_kset_census(g: Graph, k: int, anchor: int | None = None) -> int:
    """Number of connected k-subsets of g; only those containing ``anchor``
    when one is given."""
    if not (1 <= k <= g.n):
        raise ValueError("census needs 1 <= k <= n")
    if anchor is not None and not (0 <= anchor < g.n):
        raise ValueError("anchor out of range")
    sets = connected_ksets(g, k)
    if anchor is not None:
        sets = (m for m in sets if m >> anchor & 1)
    return sum(1 for _ in sets)


def facets_via_ridges(cx: SimplicialComplex, k: int) -> list[int]:
    """Ridges of a k-cut complex lying in at least k facets; these are exactly
    the facets of the (k+1)-cut complex of the same graph. The complex is
    pure, so a ridge lies in one facet per way of deleting a vertex of a
    facet to reach it, and one counting pass over those deletions suffices."""
    if k < 2:
        raise ValueError("ridge recursion needs k >= 2")
    counts = Counter(f & ~(1 << v) for f in cx.facets for v in bits(f))
    return sorted(r for r, c in counts.items() if c >= k)


def skeleton_condition_euler(g: Graph, cx: SimplicialComplex) -> tuple[bool, int | None]:
    """Check whether ``cx``, the k-cut complex of ``g``, contains the complete
    skeleton of its ridge dimension n-k-2; when it does, return the reduced
    Euler characteristic from the census formula.

    The disconnected k-sets are the complements of the facets, so k is n
    minus the facet size, read as n - 1 - dim, and their number is the count
    of top faces; no facet is listed. The paper states the condition as: for
    every connected k-subset A and every x outside A there is a y in A with
    (A - y) + x disconnected. The k-subsets of A + x other than A are these
    (A - y) + x, so it says that every (k+1)-set holds a disconnected k-set,
    that is, every (n-k-1)-set is a face. When it holds,
    (-1)^(n-k-1) * mu = C(n-1, k-1) - #(connected k-subsets).
    """
    if cx.is_void:
        raise ValueError("void cut complex: the condition does not apply")
    n = g.n
    k = n - cx.dim - 1
    if not (2 <= k <= n - 1):
        raise ValueError("condition needs 2 <= k <= n-1")
    if cx.complete_skeleton_dim() < n - k - 2:
        return False, None
    z = comb(n, k) - cx.f_vector()[-1]
    return True, (comb(n - 1, k - 1) - z) * (-1 if (n - k - 1) % 2 else 1)


# ---------------------------------------------------------------------------
# universal realization


def realize_as_cut_complex(cx: SimplicialComplex) -> tuple[Graph, int]:
    """Produce a chordal graph G and k with cut_complex(G, k) equal to
    ``relabel_densely(cx)``: a clique on the complex vertices, then one apex
    per facet joined to that facet's vertices. A lone facet is listed
    max(nv, 2) times, so a single vertex becomes the 2-cut complex of the
    3-vertex star and a full simplex that of a clique with one apex per
    clique vertex.

    The input must be pure, nonvoid, and have at least one vertex.
    """
    if cx.is_void or cx.is_empty_complex:
        raise ValueError("realization needs a complex with at least one vertex")
    if not cx.is_pure:
        raise ValueError("realization needs a pure complex")
    facets = relabel_densely(cx).facets
    nv = len(cx.vertices())
    if len(facets) == 1:
        facets *= max(nv, 2)
    n = nv + len(facets)
    clique = (1 << nv) - 1
    # a complex vertex's apexes are the facets that hold it, shifted past the clique
    holders = vertex_holders(facets)
    adj = [clique ^ 1 << v | holders[v] << nv for v in range(nv)]
    return Graph(n, (*adj, *facets)), n - (cx.dim + 1)


# ---------------------------------------------------------------------------
# closed-form Betti predictions


class NotCoveredError(LookupError):
    """No closed-form answer is available for the requested parameters."""


@dataclass(frozen=True)
class BettiPrediction:
    """Expected homotopy type: a wedge of ``count`` spheres in dimension
    ``dim``, or one of the degenerate flags."""

    status: str  # "wedge" | "contractible" | "void"
    dim: int | None = None
    count: int | None = None

    @staticmethod
    def wedge(dim: int, count: int) -> BettiPrediction:
        if count < 0:
            raise ValueError("sphere count must be >= 0")
        if count == 0:
            return BettiPrediction("contractible")
        return BettiPrediction("wedge", dim, count)

    @staticmethod
    def void() -> BettiPrediction:
        return BettiPrediction("void")

    @staticmethod
    def contractible() -> BettiPrediction:
        return BettiPrediction("contractible")

    def matches(self, cx: SimplicialComplex, report) -> bool:
        """Compare against a computed complex and its homology report (the
        report may be None when the complex is void). A contractible
        prediction has no dimension, so it asks for every rank to be zero."""
        if self.status == "void":
            return cx.is_void
        if cx.is_void or report is None:
            return False
        return report.free_concentrated(self.dim, self.count)

    def to_json_obj(self):
        return {"status": self.status, "dim": self.dim, "count": self.count}


def forest_betti(g: Graph, k: int) -> BettiPrediction:
    """Wedge of C(n-1, k-1) - #(connected k-subsets) spheres in dimension
    n-k-1, for any forest."""
    if shortest_cycle_length(g) is not None:
        raise ValueError("not a forest")
    n = g.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 or k > n:
        return BettiPrediction.void()
    if k == n:
        if g.is_connected():
            return BettiPrediction.void()
        return BettiPrediction.wedge(-1, 1)
    count = comb(n - 1, k - 1) - connected_kset_census(g, k)
    return BettiPrediction.wedge(n - k - 1, count)


def triangle_free_delta2_betti(g: Graph) -> BettiPrediction:
    """Wedge of e-n+1 spheres in dimension n-4, for a connected triangle-free
    graph that is not a tree (k = 2 only)."""
    if has_triangle(g):
        raise ValueError("graph has a triangle")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    if g.edge_count == g.n - 1:
        raise ValueError("graph is a tree; its 2-cut complex is contractible")
    return BettiPrediction.wedge(g.n - 4, g.edge_count - g.n + 1)


def wedge_anchor_count(g1: Graph, w1: int, g2: Graph, w2: int, k: int, min_size: int = 1) -> int:
    """Number of ways to glue a connected a-subset of g1 through w1 to a
    connected (k+1-a)-subset of g2 through w2; sizes at least ``min_size``.

    With min_size 1 this is the count subtracted from C(n1+n2-2, k-1) in the
    wedge Euler-characteristic formulas; min_size 2 gives the variant that
    excludes subsets lying entirely in one side.
    """
    total = 0
    for a in range(min_size, k + 2 - min_size):
        b = k + 1 - a
        if not (1 <= a <= g1.n and 1 <= b <= g2.n):
            continue
        total += connected_kset_census(g1, a, anchor=w1) * connected_kset_census(g2, b, anchor=w2)
    return total


def _multipartite_betti(parts, k):
    parts = sorted(parts)
    r = len(parts)
    if r == 1:
        return _edgeless_betti(parts[0], k)
    if k == 1 or k > parts[-1]:
        return BettiPrediction.void()
    if k > parts[-2]:
        return BettiPrediction.contractible()
    if k <= parts[0]:
        count = 1
        for m in parts:
            count *= comb(m - 1, k - 1)
        dim = sum(m - k for m in parts) + r - 2
        return BettiPrediction.wedge(dim, count)
    return BettiPrediction.contractible()


def _edgeless_betti(n, k):
    if k == 1 or k > n:
        return BettiPrediction.void()
    return BettiPrediction.wedge(n - k - 1, comb(n - 1, k - 1))


def _cycle_betti(n, k):
    if k == 1 or k >= n - 1:
        return BettiPrediction.void()
    if k == 2:
        return BettiPrediction.wedge(n - 4, 1)
    return BettiPrediction.wedge(n - k - 1, comb(n - 1, k - 1) - n)


def _prism_betti(n, k):
    if k == 1 or k > n:
        return BettiPrediction.void()
    return BettiPrediction.wedge(2 * n - k - 2, comb(n - 1, k - 1))


def _squared_cycle_betti(n, k):
    if k == 1 or n <= k + 3:
        return BettiPrediction.void()
    if k == 2:
        return BettiPrediction.wedge(1 if n == 6 else n - 4, 1)
    if n == k + 4:
        return BettiPrediction.wedge(1, 1)
    raise NotCoveredError(f"squared_cycle:{n} with k={k} is only conjectural")


def _kneser_betti(g, k, m, r):
    # for 2r < m < 3r the Kneser graph is connected, triangle-free and not a tree
    if k != 2 or not 2 * r < m < 3 * r:
        raise NotCoveredError(f"kneser:{m},{r} with k={k} not covered")
    return triangle_free_delta2_betti(g)


def _wedge_census_betti(g, k, declined):
    """Census count for a cycle wedged at one vertex with a path or a cycle.

    ``declined`` holds k = n_i - 1 for each cycle side: the cycle fails the
    skeleton condition there, so the count formula is not guaranteed and we
    decline to answer.
    """
    n = g.n
    if not (3 <= k <= n - 2) or k in declined:
        raise NotCoveredError(f"wedge on {n} vertices with k={k} not covered")
    count = comb(n - 1, k - 1) - connected_kset_census(g, k)
    return BettiPrediction.wedge(n - 1 - k, count)


# family name -> closed form, called with the built graph, k and the family's
# parameters. Families without an entry raise NotCoveredError.
_CLOSED_FORMS = {
    "edgeless": lambda g, k, n: _edgeless_betti(n, k),
    "complete": lambda g, k, n: BettiPrediction.void(),
    "complete_multipartite": lambda g, k, *parts: _multipartite_betti(parts, k),
    "star": lambda g, k, m: _multipartite_betti([1, m], k),
    "path": lambda g, k, n: forest_betti(g, k),
    "tree": lambda g, k, edges: forest_betti(g, k),
    "cycle": lambda g, k, n: _cycle_betti(n, k),
    "prism": lambda g, k, n: _prism_betti(n, k),
    "squared_cycle": lambda g, k, n: _squared_cycle_betti(n, k),
    "kneser": _kneser_betti,
    "petersen": lambda g, k: _kneser_betti(g, k, 5, 2),
    "balloon": lambda g, k, n1, n2: _wedge_census_betti(g, k, {n1 - 1}),
    "figure_eight": lambda g, k, n1, n2: _wedge_census_betti(g, k, {n1 - 1, n2 - 1}),
}


def _closed_form(g: Graph, name: str, params: tuple, k: int) -> BettiPrediction:
    """The closed-form prediction for the family graph g that ``name`` and
    ``params`` built; NotCoveredError when no formula applies."""
    if name not in _CLOSED_FORMS:
        raise NotCoveredError(f"no closed form known for family {name!r}")
    return _CLOSED_FORMS[name](g, k, *params)


def predicted_betti(family_spec: str, k: int) -> BettiPrediction:
    """Closed-form homotopy prediction for a family DSL string. Raises
    FamilySpecError for a malformed spec and NotCoveredError when no formula
    applies."""
    if k < 1:
        raise ValueError("k must be >= 1")
    name, params = parse_family(family_spec)
    return _closed_form(family(family_spec), name, params, k)
