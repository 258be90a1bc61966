"""Simple undirected graphs on dense integer vertices.

Adjacency is stored as one bitmask per vertex. Graphs are immutable after
construction; every operation returns a new graph. Vertex labels are display
strings only (the prism generator labels vertices ``1⁺``, ``1⁻``, ...); all
algorithms work on the integer indices. The composite families are built from
the graph operations: complete multipartite graphs and stars as joins of
edgeless graphs, the prism as K_n x K_2, threshold graphs by joining or
adding a disjoint K_1 per step.

Induced connectivity floods a vertex set through a per-byte neighbourhood
table, ``Graph.reach``: ``reach[i][b]`` is the union of the closed
neighbourhoods of the vertices in byte value ``b`` at byte offset ``i``, so
one flood step costs one lookup per byte of the set reached so far instead
of one per vertex. The table is built once per graph, by doubling.
``disconnected_masks`` runs the flood over a whole sweep of masks in one
call, and ``separator_closure`` floods the components whose neighbourhoods
are the graph's minimal separators, through the same helper; there the first
step of each flood, from one vertex, is read from ``adj`` instead, and for
an isolated vertex it is the whole flood. ``is_chordal`` runs maximum
cardinality search on weight buckets held as vertex masks, in O(n + m) mask
steps, and ``Graph.edges`` reads each row's upper part a byte at a time
through ``bitsets.to_tuple``. The connected
k-sets are grown from their least vertex instead of swept
(``connected_ksets``) unless k > n/2; they are the first level of the
Alexander dual of the k-cut complex, which ``complexes`` walks upward from
them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import combinations
from typing import Iterable, Iterator

from .bitsets import bits, ksubset_masks, mask_of, to_tuple


class FamilySpecError(ValueError):
    """Unknown family name or invalid family parameters."""


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in increasing order."""
        return [(u, v) for u, a in enumerate(self.adj) for v in to_tuple(a >> u + 1 << u + 1)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def label(self, v: int) -> str:
        """Display label; defaults to the 1-based index."""
        if self.labels is not None:
            return self.labels[v]
        return str(v + 1)

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        """``reach[i][b]``: the union of the closed neighbourhoods of the
        vertices in byte value ``b`` at byte offset ``i``. The last row is
        shorter when n is not a multiple of 8."""
        rows = []
        for i in range((self.n + 7) >> 3):
            row = [0]
            for v in range(8 * i, min(8 * i + 8, self.n)):  # the values with bit v set follow those without
                closed = self.adj[v] | 1 << v
                row += [r | closed for r in row]
            rows.append(tuple(row))
        return tuple(rows)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return is_connected_subset(self, self.full_mask)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(n: int, edges, labels=None) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises ValueError for out-of-range endpoints or self-loops.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    try:
        adj = [0] * n
    except (MemoryError, OverflowError):  # a header too large to hold one row per vertex
        raise ValueError(f"cannot allocate a graph on {n} vertices") from None
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise ValueError("labels length must equal vertex count")
    return Graph(n, tuple(adj), lab)


# ---------------------------------------------------------------------------
# graph families


def _path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    if n < 3:
        raise FamilySpecError("cycle needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return from_edge_list(n, list(combinations(range(n), 2)))


def _edgeless(n):
    return from_edge_list(n, [])


def _complete_multipartite(*parts):
    if not parts or any(p < 1 for p in parts):
        raise FamilySpecError("multipartite parts must be positive")
    return reduce(graph_join, map(_edgeless, parts))


def _star(m):
    if m < 1:
        raise FamilySpecError("star needs m >= 1")
    return _complete_multipartite(1, m)


def _prism(n):
    """K_n x K_2: vertices i (labelled (i+1)⁺) and n+i (labelled (i+1)⁻)."""
    if n < 2:
        raise FamilySpecError("prism needs n >= 2")
    labels = tuple(f"{i + 1}{s}" for s in "⁺⁻" for i in range(n))
    return replace(cartesian_product(_complete(n), _complete(2)), labels=labels)


def _squared_cycle(n):
    if n < 3:
        raise FamilySpecError("squared_cycle needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    return from_edge_list(n, [(u, v) for u, v in edges if u != v])


def _kneser(m, r):
    if not (m >= r >= 1):
        raise FamilySpecError("kneser needs m >= r >= 1")
    verts = list(combinations(range(m), r))
    index = {s: i for i, s in enumerate(verts)}
    edges = []
    for a, b in combinations(verts, 2):
        if not set(a) & set(b):
            edges.append((index[a], index[b]))
    labels = ["".join(str(x + 1) for x in s) if m <= 9 else ",".join(str(x + 1) for x in s) for s in verts]
    return from_edge_list(len(verts), edges, labels)


def _threshold(pattern):
    """Single vertex, then one vertex per character: '1' dominating (a join
    with K_1), '0' isolated (a disjoint union with K_1)."""
    if any(c not in "01" for c in pattern):
        raise FamilySpecError("threshold pattern must be a string over {0,1}")
    k1 = _edgeless(1)
    return reduce(lambda g, c: (graph_join if c == "1" else disjoint_union)(g, k1), pattern, k1)


def _tree_from_edges(arg):
    if not arg:
        return from_edge_list(1, [])
    try:
        edges = [(int(a), int(b)) for a, _, b in (part.partition("-") for part in arg.split(","))]
    except ValueError:
        raise FamilySpecError(f"tree: expected edges such as 0-1,1-2, got {arg!r}") from None
    n = max(max(e) for e in edges) + 1
    g = from_edge_list(n, edges)
    if g.edge_count != n - 1 or not g.is_connected():
        raise FamilySpecError("edge list is not a tree")
    return g


def _kayak(k):
    """Chordal graph on k+2 vertices whose k-cut complex is two disjoint edges.

    A ladder of overlapping 4-cliques on 1..2m (m = floor(k/2); the ladder
    extends to 2m+2 when k is odd), with a pendant triangle at each end.
    """
    if k < 4:
        raise FamilySpecError("kayak needs k >= 4")
    m = k // 2
    edges = []
    if k % 2 == 0:
        rungs = 2 * m  # vertices 0..2m-1 are the ladder, then a, b
        a, b = 2 * m, 2 * m + 1
        quads = range(1, m)
        edges += [(a, 0), (a, 1), (b, 2 * m - 2), (b, 2 * m - 1)]
        labels = [str(i + 1) for i in range(rungs)] + ["a", "b"]
    else:
        rungs = 2 * m + 2
        a = rungs
        quads = range(1, m + 1)
        edges += [(a, 0), (a, 1)]
        labels = [str(i + 1) for i in range(rungs)] + ["a"]
    for i in quads:
        quad = [2 * i - 2, 2 * i - 1, 2 * i, 2 * i + 1]
        edges += list(combinations(quad, 2))
    # rung pairs {2i-1, 2i} are edges even when no quad covers them
    edges += [(2 * i, 2 * i + 1) for i in range(rungs // 2)]
    return from_edge_list(rungs + (2 if k % 2 == 0 else 1), edges, labels)


def _balloon(n1, n2):
    """Cycle C_{n1} wedged with path P_{n2} at a leaf of the path."""
    if n2 < 2:
        raise FamilySpecError("balloon needs a path with n2 >= 2")
    return wedge(_cycle(n1), _path(n2), 0, 0)


def _figure_eight(n1, n2):
    return wedge(_cycle(n1), _cycle(n2), 0, 0)


# name -> (arity, builder). arity is the number of integer parameters, None for
# any number of them, or str for one raw argument passed through as text.
FAMILIES = {
    "path": (1, _path),
    "cycle": (1, _cycle),
    "complete": (1, _complete),
    "edgeless": (1, _edgeless),
    "complete_multipartite": (None, _complete_multipartite),
    "star": (1, _star),
    "prism": (1, _prism),
    "squared_cycle": (1, _squared_cycle),
    "kneser": (2, _kneser),
    "petersen": (0, lambda: _kneser(5, 2)),
    "threshold": (str, _threshold),
    "tree": (str, _tree_from_edges),
    "kayak": (1, _kayak),
    "balloon": (2, _balloon),
    "figure_eight": (2, _figure_eight),
}


def parse_family(spec: str) -> tuple[str, tuple]:
    """Split a DSL string such as ``cycle:7`` into its registered family name
    and the parameters its builder takes; raise FamilySpecError for an
    unknown name or parameters of the wrong kind or number."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower().replace("-", "_")
    if name not in FAMILIES:
        raise FamilySpecError(f"unknown family {name!r}")
    arity = FAMILIES[name][0]
    if arity is str:
        return name, (arg.strip(),)
    try:
        vals = tuple(int(x) for x in arg.split(",")) if arg else ()
    except ValueError:
        raise FamilySpecError(f"{name}: expected integer parameters, got {arg!r}") from None
    if arity is not None and len(vals) != arity:
        raise FamilySpecError(f"{name}: expected {arity} parameter(s), got {len(vals)}")
    return name, vals


def family(spec: str) -> Graph:
    """Build a named graph from a DSL string such as ``cycle:7``,
    ``complete_multipartite:2,2,3``, ``kayak:5`` or ``tree:0-1,1-2``."""
    name, params = parse_family(spec)
    return FAMILIES[name][1](*params)


# ---------------------------------------------------------------------------
# graph operations


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    adj = list(g1.adj) + [a << g1.n for a in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def graph_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n1, n2 = g1.n, g2.n
    right = ((1 << n2) - 1) << n1
    left = (1 << n1) - 1
    adj = [g1.adj[v] | right for v in range(n1)]
    adj += [(g2.adj[v] << n1) | left for v in range(n2)]
    return Graph(n1 + n2, tuple(adj))


def wedge(g1: Graph, g2: Graph, v1: int, v2: int) -> Graph:
    """Identify vertex v1 of g1 with vertex v2 of g2; n1 + n2 - 1 vertices."""
    if not (0 <= v1 < g1.n and 0 <= v2 < g2.n):
        raise ValueError("wedge vertex out of range")
    remap = [v1 if v == v2 else g1.n + v - (v > v2) for v in range(g2.n)]  # the rest of g2 follows g1 in order
    edges = g1.edges() + [(remap[u], remap[v]) for u, v in g2.edges()]
    return from_edge_list(g1.n + g2.n - 1, edges)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Vertex (u, v) becomes index u + v * n1, so layer v is a copy of g1."""
    n1, n2 = g1.n, g2.n
    edges = []
    for v in range(n2):
        off = v * n1
        edges += [(a + off, b + off) for a, b in g1.edges()]
    for a, b in g2.edges():
        edges += [(u + a * n1, u + b * n1) for u in range(n1)]
    return from_edge_list(n1 * n2, edges)


def _as_mask(g: Graph, S) -> int:
    m = mask_of(S)
    if m & ~g.full_mask:
        raise ValueError("vertex out of range")
    return m


def induced_subgraph(g: Graph, S) -> Graph:
    """Subgraph on S with vertices relabelled densely, preserving order."""
    m = _as_mask(g, S)
    verts = to_tuple(m)
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if (m >> u) & 1 and (m >> v) & 1]
    labels = tuple(g.label(v) for v in verts) if g.labels is not None else None
    return from_edge_list(len(verts), edges, labels)


def is_connected_subset(g: Graph, S) -> bool:
    """True iff the induced subgraph on S is connected. S must be nonempty."""
    m = _as_mask(g, S)
    if m == 0:
        raise ValueError("connectivity of the empty set is undefined")
    return not disconnected_masks(g, (m,))


def disconnected_masks(g: Graph, masks: Iterable[int]) -> list[int]:
    """The masks among ``masks`` whose induced subgraphs are disconnected, in
    the order given. Each mask must be a nonempty subset of g's vertices."""
    reach = g.reach
    return [m for m in masks if _flood(reach, m & -m, m) & m != m]


def connected_ksets(g: Graph, k: int) -> Iterator[int]:
    """Yield each k-subset of g that induces a connected subgraph, once.

    ESU (Wernicke, "Efficient detection of network motifs", 2006): a set is
    grown from its least vertex v, and each vertex added extends the
    candidates only by its neighbours above v that are not yet in or next to
    the set. That reaches each connected set exactly once, so the work
    follows the connected sets of size at most k rather than C(n, k). For
    k > n/2 the sets below size k can outnumber the k-sets, and a flood of
    every k-set runs instead."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if 2 * k > g.n:
        reach = g.reach
        yield from (m for m in ksubset_masks(g.n, k) if _flood(reach, m & -m, m) & m == m)
        return
    adj = g.adj
    for v in range(g.n):
        above = g.full_mask >> v + 1 << v + 1
        # (set, candidates left, closed neighbourhood of the set, size)
        stack = [(1 << v, adj[v] & above, adj[v] | 1 << v, 1)]
        while stack:
            sub, ext, near, size = stack.pop()
            if size == k:
                yield sub
                continue
            while ext:
                w = ext & -ext
                ext ^= w
                u = w.bit_length() - 1
                stack.append((sub | w, ext | adj[u] & above & ~near, near | adj[u], size + 1))


def _flood(reach, seen: int, m: int) -> int:
    """Flood g[m] from ``seen``, a nonempty subset of m, one closed
    neighbourhood per step, until the vertices reached stop growing or cover
    m. Returns the last step: its part in m is the component C of g[m] that
    holds ``seen``, and it is N[C] unless C = m was covered before its own
    step was taken."""
    while True:
        grow = 0
        s = seen
        for row in reach:
            grow |= row[s & 255]
            s >>= 8
            if not s:
                break
        reached = grow & m
        if reached == seen or reached == m:
            return grow
        seen = reached


def _component_neighbourhoods(adj, reach, m: int) -> Iterator[int]:
    """Yield N(C) for each component C of g[m], lowest vertex first. Each
    flood's first step is ``adj[v] | 1 << v`` of the component's lowest
    vertex v; for a vertex isolated in g[m] that step is the whole flood."""
    rest = m
    while rest:
        low = rest & -rest
        closed = adj[low.bit_length() - 1] | low
        reached = closed & m
        if reached != low and reached != m:
            closed = _flood(reach, reached, m)
        if closed & m == m:  # m was covered before its closed neighbourhood was taken
            closed = _flood(reach, m, m)
        yield closed & ~m
        rest &= ~closed


def separator_closure(g: Graph) -> Iterator[tuple[int, list[int]]]:
    """Run the closure of Berry, Bordat and Cogis (1999), which lists the
    minimal separators of g. For each vertex set X it forms, yield the number
    of components of g - X it floods and the separators among their
    neighbourhoods that appear for the first time, so a caller can charge for
    the work and stop early.

    The closure starts from X = N[v] for each vertex v, and for each
    separator S found and each x in S it takes X = S u N(x); each component
    C of g - X gives the separator N(C). A set X already taken is not
    flooded again: on the graphs ``realize_as_cut_complex`` builds, S u N(x)
    is N[x] for every S, so the closure floods nothing the start has not.
    Each flood's first step is read from ``g.adj`` of the component's lowest
    vertex, and ``g.reach`` serves only the steps after it: on those graphs
    most components of g - N[v] are isolated apexes, whose flood is that one
    step.
    """
    adj = g.adj
    reach = g.reach
    full = g.full_mask
    found: set[int] = set()
    todo: list[int] = []
    tried: set[int] = set()
    removals = [a | 1 << v for v, a in enumerate(adj)]
    while True:
        for removed in removals:
            floods = 0
            new = []
            if removed not in tried:
                tried.add(removed)
                for sep in _component_neighbourhoods(adj, reach, full & ~removed):
                    floods += 1
                    if sep not in found:
                        found.add(sep)
                        new.append(sep)
            todo += new
            yield floods, new
        if not todo:
            return
        sep = todo.pop()
        removals = [sep | adj[x] for x in to_tuple(sep)]


def minimal_separators(g: Graph) -> list[int]:
    """The minimal separators of g as ascending masks. S is one when g - S
    has at least two components C with N(C) = S; the empty set is one
    exactly when g is disconnected, and a complete graph has none."""
    return sorted(sep for _, new in separator_closure(g) for sep in new)


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Maximum cardinality search plus a perfect-elimination check.

    Returns (True, elimination order) or (False, None). In the witness order,
    each vertex's neighbors among later vertices form a clique.

    The search (Tarjan and Yannakakis, 1984) numbers next the unnumbered
    vertex with the most numbered neighbours, the least such vertex on a tie,
    and the witness is the reverse of that numbering. The unnumbered vertices
    are held in buckets, one vertex mask per weight; numbering z of weight w
    moves its unnumbered neighbours up one bucket, walking the buckets from w
    down until none is left, so the search costs at most w + 1 mask steps
    for z and O(n + m) in all. The check runs as z is numbered: its
    neighbours numbered before it, read off the mask of the numbered
    vertices, must lie in N[u] for u the last of them numbered.
    """
    adj = g.adj
    buckets = [g.full_mask] + [0] * g.n  # buckets[w]: the unnumbered vertices of weight w
    top = 0
    done = 0  # the numbered vertices
    visit = []
    step = [0] * g.n  # step[v]: the position of v in visit
    for i in range(g.n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        z = low.bit_length() - 1
        before = adj[z] & done
        if before:
            u = visit[max(map(step.__getitem__, to_tuple(before)))]
            if (before ^ 1 << u) & ~adj[u]:
                return False, None
        step[z] = i
        visit.append(z)
        done |= low
        near = adj[z] & ~done
        w = top
        while near:
            moving = buckets[w] & near
            if moving:
                buckets[w] ^= moving
                buckets[w + 1] |= moving
                near ^= moving
            w -= 1
        top += 1
    return True, tuple(reversed(visit))


def shortest_cycle_length(g: Graph) -> int | None:
    """Girth of the graph, or None if acyclic."""
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            if best is not None and dist[v] * 2 >= best:
                break
            for u in bits(g.adj[v]):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u and parent[u] != v:
                    cand = dist[u] + dist[v] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def has_triangle(g: Graph) -> bool:
    return any(g.adj[u] & g.adj[v] for u, v in g.edges())


# ---------------------------------------------------------------------------
# text exchange format: first line "n m", then one "u v" line per edge


def write_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def read_graph_text(text: str) -> Graph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return from_edge_list(n, edges)
