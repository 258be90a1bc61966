"""Discrete Morse matchings built from sequences of element matchings.

An element matching at a vertex ``a`` pairs every still-unmatched face σ not
containing ``a`` with σ ∪ {a}, whenever that is also a still-unmatched face.
Faces here include the empty face, so a matching with no critical faces at
all witnesses a contractible complex in the reduced sense.

Within one element matching no two candidate pairs can share a face (the
pairing σ -> σ ∪ {a} is an involution on faces not containing a), so the
greedy pass in increasing bitmask order is just a deterministic way of
taking all of them.

A complex whose faces fill at least half of the 2^b masks below its top
support bit b (``SimplicialComplex.face_bitmap``; a cut complex with a small
Alexander dual and no gap in its support) holds each family of faces as one
int whose bit m is set iff mask m is in the family, and no face is listed.
A pass at ``a`` over the unmatched faces U is then B = U & LACKₐ & (U >> 2ᵃ),
the faces σ lacking a with σ ∪ {a} unmatched, and U ^= B | (B << 2ᵃ); B's set
bits in increasing order are the pass's pairs. A sparser complex keeps sets
of faces, since a bitmap of 2^b bits for few faces would cost more than they
do: Δ₂₇(P₃₀) has 4,522 faces among 2³⁰ masks.

Acyclicity is never assumed, since ``verify_acyclic_and_critical`` also
certifies matchings it did not build: it runs cycle detection on the Hasse
diagram with matched edges reversed upward. Only faces matched upward can
lie on a cycle (Forman, "Morse theory for cell complexes", 1998: closed
V-paths alternate between two adjacent dimensions), so the check probes the
facets of the faces matched upward alone, and runs Kahn's algorithm only on
the faces that have an edge among them. On bitmaps those faces are found
first, by shifts and ANDs per pair of vertices. This module only reports
critical-cell censuses; homotopy conclusions are left to callers pairing
them with homology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import gt, itemgetter, xor

from .bitsets import bitmap_masks, bits, bytes_bitmap, lacking, mask_bytes, to_tuple
from .complexes import SimplicialComplex
from .cuts import cut_complex
from .graphs import Graph, from_edge_list, has_triangle

# _LOW_TEXT[b]: the set bit positions of byte value b, each written ", v"
_LOW_TEXT = tuple("".join(f", {v}" for v in bits(b)) for b in range(256))


class _HighText(dict):
    """h -> the vertices from 8 up of any face s with s >> 8 == h, each written
    ", v"; an entry is built on first lookup."""

    def __missing__(self, h: int) -> str:
        text = self[h] = "".join([f", {v}" for v in to_tuple(h << 8)])
        return text


@dataclass(frozen=True)
class MorseMatching:
    complex: SimplicialComplex
    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def _bitmaps(self) -> tuple[int, bytearray, int, int] | None:
        """(faces, stage, lower, upper) when the complex has a face bitmap,
        else None: stage[s] is a + 1 for the pair (s, s ∪ {a}), and the
        bitmaps of the lower and upper faces of the pairs. A mask that is
        not below the bitmap's width is no face."""
        faces = self.complex.face_bitmap()
        if faces is None:
            return None
        width = faces.bit_length()
        lows = list(map(itemgetter(0), self.pairs))
        highs = list(map(itemgetter(1), self.pairs))
        try:
            stage = mask_bytes(lows, width, map(int.bit_length, map(xor, highs, lows)))
            upper = bytes_bitmap(mask_bytes(highs, width))
        except ValueError:
            raise ValueError("matched pair involves a non-face") from None
        return faces, stage, bytes_bitmap(stage), upper

    def matched_faces(self) -> frozenset:
        return frozenset(chain.from_iterable(self.pairs))

    def critical_faces(self) -> frozenset:
        if self._bitmaps is None:
            return self.complex.face_set() - self.matched_faces()
        faces, _, lower, upper = self._bitmaps
        return frozenset(bitmap_masks(faces & ~(lower | upper)))

    def critical_census(self) -> dict[int, int]:
        return dict(Counter(f.bit_count() - 1 for f in self.critical_faces()))

    def pairs_json(self) -> str:
        """The pairs as JSON text, the bytes ``json.dumps`` writes for a list
        of [vertices of s, vertices of t] per pair. Each face's text is its
        low byte's from a table and the rest's from a memo, ", "-prefixed."""
        low, high = _LOW_TEXT, _HighText()
        return "[" + ", ".join([
            f"[[{(low[s & 255] + high[s >> 8])[2:]}], [{(low[t & 255] + high[t >> 8])[2:]}]]" for s, t in self.pairs
        ]) + "]"


def _bitmap_pairs(faces: int, order, keep: int) -> list[tuple[int, int]]:
    """The element matchings at ``order`` on the faces of the bitmap
    ``faces``, as pairs in the order they are made; a pair is kept only when
    both of its faces are in the bitmap ``keep``."""
    width = faces.bit_length()
    pairs = []
    for a in order:
        bit = 1 << a
        if bit < width:  # otherwise no face holds a
            new = faces & lacking(a, width) & (faces >> bit)
            if new:
                faces ^= new | new << bit
                lows = bitmap_masks(new & keep & (keep >> bit))
                pairs += zip(lows, map(bit.__or__, lows))
    return pairs


def element_matching_sequence(cx: SimplicialComplex, vertex_order) -> MorseMatching:
    """Apply element matchings at the given vertices, in order."""
    order = list(vertex_order)
    if len(set(order)) != len(order):
        raise ValueError("vertex order contains a repeat")
    for a in order:
        if not 0 <= a < cx.ambient:
            raise ValueError(f"vertex {a} is not in 0..{cx.ambient - 1}")
    faces = cx.face_bitmap()
    if faces is not None:
        return MorseMatching(cx, tuple(_bitmap_pairs(faces, order, faces)))
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


def _edge_sources(faces: int, stage: bytearray, lower: int) -> list[int]:
    """The faces s matched upward, to t = s ∪ {a}, with a facet t - v (v in s)
    that is also matched upward: for each a and v, those in Bₐ & HASᵥ whose
    mask plus 2ᵃ - 2ᵛ is in ``lower``, where Bₐ holds the faces matched up
    at a and HASᵥ the masks holding v."""
    width = faces.bit_length()
    nv = (width - 1).bit_length()  # the vertices v with 2^v < width
    has = [lacking(v, width) << (1 << v) for v in range(nv)]
    found = 0
    for a in range(nv):
        up_at_a = bytes_bitmap(stage, a + 1)
        if up_at_a:
            for v in range(nv):
                shift = (1 << a) - (1 << v)
                found |= up_at_a & has[v] & (lower >> shift if shift > 0 else lower << -shift)
    return bitmap_masks(found)


def verify_acyclic_and_critical(m: MorseMatching) -> tuple[bool, dict[int, int]]:
    """Validate the pairing structurally, then test acyclicity of the
    modified Hasse diagram (matched covers point up, the rest point down)
    on the faces matched upward."""
    up = dict(m.pairs)
    # t = s ∪ {v} with v ∉ s: t differs from s in one bit, and t holds it
    if not all(map(gt, up.values(), up)) or any(d.bit_count() != 1 for d in set(map(xor, up.values(), up))):
        raise ValueError("matched pair does not differ by one vertex")
    if m._bitmaps is None:
        # The census subtracts the set of paired faces from the faces: it leaves
        # all but 2p of them iff the 2p faces of the p pairs are distinct faces.
        faces = m.complex.face_set()
        census = m.critical_census()
        if sum(census.values()) != len(faces) - 2 * len(m.pairs):
            if not faces.issuperset(chain.from_iterable(m.pairs)):
                raise ValueError("matched pair involves a non-face")
            raise ValueError("face appears in more than one pair")
        sources = up
    else:
        # the 2p faces of the p pairs are distinct iff the two bitmaps share
        # no face and hold 2p faces between them
        faces, stage, lower, upper = m._bitmaps
        if (lower | upper) & ~faces:
            raise ValueError("matched pair involves a non-face")
        if lower & upper or lower.bit_count() + upper.bit_count() != 2 * len(m.pairs):
            raise ValueError("face appears in more than one pair")
        census = m.critical_census()
        sources = _edge_sources(faces, stage, lower)

    # A cycle of the modified Hasse diagram cannot climb two dimensions: a face
    # reached by an up-edge is matched down and has no up-edge, so it steps
    # down next. Every cycle therefore alternates between two adjacent
    # dimensions through faces matched upward: σ -> σ' for each facet σ' != σ
    # of up[σ] with σ' in up. Few faces have such an edge, and Kahn's
    # algorithm runs on those alone.
    succ = {}
    for s in sources:
        t = up[s]
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
    on_tree = cut_complex(tree, 2)
    order = tree_matching_order(tree, 0)
    target = cut_complex(g, 2)
    faces, keep = on_tree.face_bitmap(), target.face_bitmap()
    if faces is not None and keep is not None:
        return MorseMatching(target, tuple(_bitmap_pairs(faces, order, keep)))
    keep = target.face_set()
    pairs = tuple((s, t) for s, t in element_matching_sequence(on_tree, order).pairs if s in keep and t in keep)
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
