"""Discrete Morse matchings built from sequences of element matchings.

An element matching at a vertex ``a`` pairs every still-unmatched face σ not
containing ``a`` with σ ∪ {a}, whenever that is also a still-unmatched face.
Faces here include the empty face, so a matching with no critical faces at
all witnesses a contractible complex in the reduced sense.

Within one element matching no two candidate pairs can share a face (the
pairing σ -> σ ∪ {a} is an involution on faces not containing a), so the
greedy pass in increasing bitmask order is just a deterministic way of
taking all of them.

Acyclicity is never assumed: ``verify_acyclic_and_critical`` runs cycle
detection on the Hasse diagram with matched edges reversed upward. Only
faces matched upward can lie on a cycle (Forman, "Morse theory for cell
complexes", 1998: closed V-paths alternate between two adjacent
dimensions), so the check probes the facets of the faces matched upward
alone, and runs Kahn's algorithm only on the faces that have an edge among
them. This module only reports critical-cell censuses; homotopy conclusions
are left to callers pairing them with homology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import gt, xor

from .bitsets import bits, to_text
from .complexes import SimplicialComplex
from .cuts import cut_complex
from .graphs import Graph, from_edge_list, has_triangle


@dataclass(frozen=True)
class MorseMatching:
    complex: SimplicialComplex
    pairs: tuple[tuple[int, int], ...]

    def matched_faces(self) -> frozenset:
        return frozenset(chain.from_iterable(self.pairs))

    def critical_faces(self) -> frozenset:
        return self.complex.face_set() - self.matched_faces()

    def critical_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for f in self.critical_faces():
            d = f.bit_count() - 1
            census[d] = census.get(d, 0) + 1
        return census

    def pairs_json(self) -> str:
        """The pairs as JSON text, the bytes ``json.dumps`` writes for a list
        of [vertices of s, vertices of t] per pair."""
        return "[" + ", ".join([f"[[{to_text(s)}], [{to_text(t)}]]" for s, t in self.pairs]) + "]"


def element_matching_sequence(cx: SimplicialComplex, vertex_order) -> MorseMatching:
    """Apply element matchings at the given vertices, in order."""
    order = list(vertex_order)
    if len(set(order)) != len(order):
        raise ValueError("vertex order contains a repeat")
    for a in order:
        if not 0 <= a < cx.ambient:
            raise ValueError(f"vertex {a} is not in 0..{cx.ambient - 1}")
    # ``faces`` lists the unmatched faces in increasing order, ``unmatched``
    # holds the same faces. A pass at ``a`` pairs no face twice (σ lacks a,
    # σ ∪ {a} has it), so matched faces leave both only after the pass.
    unmatched = set(cx.face_set())
    faces = sorted(unmatched)
    pairs = []
    for a in order:
        bit = 1 << a
        new = [(sigma, sigma | bit) for sigma in faces if not sigma & bit and sigma | bit in unmatched]
        if new:
            pairs += new
            for sigma, tau in new:
                unmatched.remove(sigma)
                unmatched.remove(tau)
            faces = [sigma for sigma in faces if sigma in unmatched]
    return MorseMatching(cx, tuple(pairs))


def verify_acyclic_and_critical(m: MorseMatching) -> tuple[bool, dict[int, int]]:
    """Validate the pairing structurally, then test acyclicity of the
    modified Hasse diagram (matched covers point up, the rest point down)
    on the faces matched upward."""
    up = dict(m.pairs)
    # t = s ∪ {v} with v ∉ s: t differs from s in one bit, and t holds it
    if not all(map(gt, up.values(), up)) or any(d.bit_count() != 1 for d in set(map(xor, up.values(), up))):
        raise ValueError("matched pair does not differ by one vertex")
    # The census subtracts the set of paired faces from the faces: it leaves
    # all but 2p of them iff the 2p faces of the p pairs are distinct faces.
    faces = m.complex.face_set()
    census = m.critical_census()
    if sum(census.values()) != len(faces) - 2 * len(m.pairs):
        if not faces.issuperset(chain.from_iterable(m.pairs)):
            raise ValueError("matched pair involves a non-face")
        raise ValueError("face appears in more than one pair")

    # A cycle of the modified Hasse diagram cannot climb two dimensions: a face
    # reached by an up-edge is matched down and has no up-edge, so it steps
    # down next. Every cycle therefore alternates between two adjacent
    # dimensions through faces matched upward: σ -> σ' for each facet σ' != σ
    # of up[σ] with σ' in up. Few faces have such an edge, and Kahn's
    # algorithm runs on those alone.
    succ = {}
    for s, t in up.items():
        rest = s
        while rest:  # each facet t - v of t with v in s, by the lowest set bit of s
            low = rest & -rest
            rest ^= low
            if t ^ low in up:
                succ.setdefault(s, []).append(t ^ low)
    indeg = Counter(chain.from_iterable(succ.values()))
    left = indeg.total()  # Kahn's algorithm removes every edge iff there is no cycle
    queue = [s for s in succ if not indeg[s]]
    while queue:
        s = queue.pop()
        for f in succ.get(s, ()):
            left -= 1
            indeg[f] -= 1
            if indeg[f] == 0:
                queue.append(f)
    return not left, census


def _bfs(g: Graph, root: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Breadth-first visit order from ``root`` and the (parent, child) edge
    that discovers each vertex after the root."""
    order = [root]
    edges = []
    seen = 1 << root
    for v in order:  # the loop also visits the vertices appended below
        for u in bits(g.adj[v] & ~seen):
            seen |= 1 << u
            order.append(u)
            edges.append((v, u))
    return order, edges


def tree_matching_order(tree: Graph, root: int = 0) -> tuple[int, ...]:
    """Parents-before-children vertex order; feeding it to
    element_matching_sequence on the 2-cut complex of the tree matches every
    face (zero critical cells)."""
    n = tree.n
    if not (0 <= root < n):
        raise ValueError("root out of range")
    if tree.edge_count != n - 1 or not tree.is_connected():
        raise ValueError("input graph is not a tree")
    return tuple(_bfs(tree, root)[0])


def spanning_tree(g: Graph, root: int = 0) -> Graph:
    """Breadth-first spanning tree with the same vertex numbering."""
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    return from_edge_list(g.n, _bfs(g, root)[1])


def restricted_matching(g: Graph) -> MorseMatching:
    """Perfect matching on the 2-cut complex of a spanning tree, restricted to
    the 2-cut complex of the graph itself.

    Needs a connected triangle-free non-tree; the result has exactly
    e - n + 1 critical cells, all in dimension n - 4.
    """
    if has_triangle(g):
        raise ValueError("graph has a triangle")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    if g.edge_count == g.n - 1:
        raise ValueError("graph is a tree; use tree_matching_order instead")
    tree = spanning_tree(g, 0)
    on_tree = element_matching_sequence(cut_complex(tree, 2), tree_matching_order(tree, 0))
    target = cut_complex(g, 2)
    keep = target.face_set()
    pairs = tuple((s, t) for s, t in on_tree.pairs if s in keep and t in keep)
    return MorseMatching(target, pairs)


def prism_matching_order(n: int, k: int) -> tuple[int, ...]:
    """Vertex order 1⁺, 1⁻, 2⁺, 3⁺, ..., n⁺ for the prism over an n-clique
    (vertex i⁺ is index i-1, vertex i⁻ is index n+i-1).

    On the k-cut complex of the prism the resulting matching is acyclic with
    exactly C(n-1, k-1) critical cells, all in dimension 2n-k-2.
    """
    if not (n >= k >= 2):
        raise ValueError("prism order needs n >= k >= 2")
    return (0, n) + tuple(range(1, n))
