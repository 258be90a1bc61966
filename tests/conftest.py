"""Shared generators and brute-force oracles for the suite.

The oracles here are deliberately naive (subset enumeration, path search) so
they stay independent of the library's bitset machinery.
"""

from __future__ import annotations

import random
from itertools import combinations

from cutcomplex import Graph, IntMatrix, from_edge_list


# the 6-vertex real projective plane: H~_1 = Z/2, its only nonzero group
RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return from_edge_list(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return from_edge_list(n, edges)


def random_forest(rng: random.Random, n: int) -> Graph:
    """Random forest: a random tree with a random subset of edges kept."""
    tree = random_tree(rng, n)
    edges = [e for e in tree.edges() if rng.random() < 0.8]
    return from_edge_list(n, edges)


def random_chordal(rng: random.Random, n: int) -> Graph:
    """Grow a chordal graph by attaching each new vertex to a clique."""
    edges = []
    cliques = [frozenset([0])]
    for v in range(1, n):
        base = rng.choice(cliques)
        size = rng.randint(0, len(base))
        attach = frozenset(rng.sample(sorted(base), size))
        edges.extend((u, v) for u in attach)
        cliques.append(attach | {v})
    return from_edge_list(n, edges)


# -- brute-force oracles ------------------------------------------------------


def brute_connected(g: Graph, subset) -> bool:
    subset = list(subset)
    if not subset:
        raise ValueError("empty")
    seen = {subset[0]}
    stack = [subset[0]]
    members = set(subset)
    while stack:
        v = stack.pop()
        for u in range(g.n):
            if u in members and u not in seen and (g.adj[v] >> u) & 1:
                seen.add(u)
                stack.append(u)
    return seen == members


def brute_girth(g: Graph):
    """Shortest cycle length via chordless-subset enumeration (a shortest
    cycle is always induced)."""
    for size in range(3, g.n + 1):
        for sub in combinations(range(g.n), size):
            degs = [sum(1 for u in sub if u != v and (g.adj[v] >> u) & 1) for v in sub]
            edge_count = sum(degs) // 2
            if all(d == 2 for d in degs) and edge_count == size and brute_connected(g, sub):
                return size
    return None


def brute_chordal(g: Graph) -> bool:
    girth_of_induced = brute_girth(g)
    if girth_of_induced is None:
        return True
    # chordal iff no induced cycle of length > 3
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            degs = [sum(1 for u in sub if u != v and (g.adj[v] >> u) & 1) for v in sub]
            if all(d == 2 for d in degs) and sum(degs) // 2 == size and brute_connected(g, sub):
                return False
    return True


def brute_faces(facets) -> set:
    """All faces of a facet list given as vertex tuples."""
    out = set()
    for f in facets:
        for r in range(len(f) + 1):
            out.update(combinations(f, r))
    return out


# -- exact integer matrices ---------------------------------------------------


def matrix_from_rows(rows) -> IntMatrix:
    entries = {(r, c): int(v) for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def matrix_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Sparse product; zero entries are dropped, so a zero product has none."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    prod: dict[tuple[int, int], int] = {}
    for (r, k), v in a.entries.items():
        for (k2, c), w in b.entries.items():
            if k == k2:
                prod[(r, c)] = prod.get((r, c), 0) + v * w
    return IntMatrix(a.nrows, b.ncols, {key: v for key, v in prod.items() if v})
