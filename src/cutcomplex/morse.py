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
A pass at ``a`` over the unmatched faces U is then the stage
Bₐ = U & LACKₐ & (U >> 2ᵃ), the faces σ lacking a with σ ∪ {a} unmatched,
and U ^= Bₐ | (Bₐ << 2ᵃ). Such a matching keeps its stages (a, Bₐ) in the
order they were made; its pairs (s, s ∪ {a}), s in Bₐ, are listed only when
read, and the count, the census and the JSON record come from the stages.
Pairs given by hand on such a complex are grouped into stages by their
vertex, so one check serves both. A sparser complex keeps sets of faces and
pairs, since a bitmap of 2^b bits for few faces would cost more than they
do: Δ₂₇(P₃₀) has 4,522 faces among 2³⁰ masks.

The JSON record of a matching built from stages is written from them, 256
masks at a time, whether or not its pairs have been listed: a chunk is the
32 bytes of Bₐ that hold the masks s with one high part h = s >> 8. Its
text is a template memoized for the call, keyed by its bytes and by a when
a < 8; from 8 up, t = s ∪ {a} has s's low byte, so every such a shares one
template. Two sentinel characters in it stand for the texts of the high
parts of s and of t (one serves both when a < 8), and ``str.replace`` fills
them from a list of the 2^(n-8) high texts built by doubling. Few templates serve many chunks: 12
for the 270 non-empty chunks of the tree matching on Δ₂(P₁₆), 224 for the
4,851 of the prism matching on Δ₄(prism₁₀). The pair whose lower face has
low byte 0 is written on its own, so no text starts with a ", " to strip.
Pairs given as pairs are written as given, each face's text from
``bitsets.vertex_texts``; row 0 of the table of vertex texts that it reads
also fills the templates.

Acyclicity is never assumed, since ``verify_acyclic_and_critical`` also
certifies matchings it did not build: it runs cycle detection on the Hasse
diagram with matched edges reversed upward. Only faces matched upward can
lie on a cycle (Forman, "Morse theory for cell complexes", 1998: closed
V-paths alternate between two adjacent dimensions), so the check probes the
facets of the faces matched upward alone, and runs Kahn's algorithm only on
the faces that have an edge among them. On stages the faces matched up and
down are ⋁Bₐ and ⋁(Bₐ << 2ᵃ); the faces with an edge s -> s + 2ᵃ - 2ᵛ come
from one shift and AND per pair of vertices (a, v), and their edges from
byte views of the stages and of ⋁Bₐ. This module only reports
critical-cell censuses; homotopy conclusions are left to callers pairing
them with homology.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from itertools import chain
from operator import gt, itemgetter, or_, xor
from typing import Iterable

from .bitsets import _LOW_TEXT, bitmap_masks, bits, bytes_bitmap, lacking, mask_bytes, vertex_texts
from .complexes import SimplicialComplex
from .cuts import cut_complex
from .graphs import Graph, from_edge_list, has_triangle

# Pairs given as pairs are written in runs of this many, tens of kilobytes of
# text each, so only the whole record is a large block.
_TEXT_RUN = 1024
# A chunk of a stage is the 32 bytes of its bitmap that hold the 256 masks
# with one high part s >> 8; its template holds these two characters, which
# JSON text of integers never does, where the high texts of s and of t go.
_CHUNK = 32
_S_HIGH, _T_HIGH = "\0", "\1"


def _pairs_text(pairs: Iterable[tuple[int, int]]) -> str:
    """The pairs (s, t) as the JSON text of [vertices of s, vertices of t]
    per pair, joined by ", ", from the faces' texts of ``vertex_texts``."""
    faces = vertex_texts(list(chain.from_iterable(pairs)))
    return "[[" + "]], [[".join(map("], [".join, zip(faces, faces))) + "]]"


def _chunk_template(chunk: bytes, a: int) -> str:
    """The text of the pairs (s, s ∪ {a}) of one chunk of the stage Bₐ,
    those whose low byte is not 0, with ``_S_HIGH`` and ``_T_HIGH`` for the
    texts of the high parts of s and of t. Below 8, a is in t's low byte and
    t has s's high part; from 8 up, t has s's low byte, so the template is
    the same for every such a."""
    add, t_high = (1 << a, _S_HIGH) if a < 8 else (0, _T_HIGH)
    return ", ".join([
        f"[[{_LOW_TEXT[low][2:]}{_S_HIGH}], [{_LOW_TEXT[low | add][2:]}{t_high}]]"
        for low in bitmap_masks(int.from_bytes(chunk, "little") & ~1)
    ])


def _stages_texts(faces: int, stages) -> list[str]:
    """The texts of the pairs of the stages (a, Bₐ) on the face bitmap
    ``faces``, in order, to be joined by ", ": one per non-empty chunk of a
    stage, filled from a template memoized for the call, and one for each
    pair whose lower face has low byte 0."""
    high = [""]  # high[h]: the vertices from 8 up of a mask s with s >> 8 == h, each ", v"
    for v in range(8, (faces.bit_length() - 1).bit_length()):
        high += [text + f", {v}" for text in high]
    empty = bytes(_CHUNK)
    templates: dict[tuple[bytes, int], str] = {}
    texts = []
    for a, b in stages:
        key, up = (a, 0) if a < 8 else (8, 1 << a - 8)
        view = b.to_bytes(-(-b.bit_length() // 256) * _CHUNK, "little")
        for h in range(len(view) // _CHUNK):
            chunk = view[h * _CHUNK:(h + 1) * _CHUNK]
            if chunk == empty:
                continue
            if chunk[0] & 1:  # s = h << 8
                t = h << 8 | 1 << a
                texts.append(f"[[{high[h][2:]}], [{(_LOW_TEXT[t & 255] + high[t >> 8])[2:]}]]")
            template = templates.get((chunk, key))
            if template is None:
                template = templates[chunk, key] = _chunk_template(chunk, a)
            if template:
                text = template.replace(_S_HIGH, high[h])
                texts.append(text.replace(_T_HIGH, high[h | up]) if up else text)
    return texts


def _added_bits(pairs) -> list[int]:
    """t ^ s for each pair (s, t), the bit of the vertex that t adds to s;
    a ValueError unless every t is s plus one vertex."""
    lows, highs = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
    added = list(map(xor, highs, lows))
    if not all(map(gt, highs, lows)) or any(d.bit_count() != 1 for d in set(added)):
        raise ValueError("matched pair does not differ by one vertex")
    return added


class MorseMatching:
    """Pairs (s, t) of faces of ``complex``, each t = s ∪ {a} for a vertex
    a ∉ s. A matching given as pairs holds them as given. One built by
    element matchings on a complex with a face bitmap holds its stages
    (a, Bₐ), Bₐ the bitmap of the faces s matched up to s ∪ {a}, and lists
    ``pairs`` on first read: stage by stage, each in increasing order of s."""

    _staged = False  # built from its stages, which then give its pair order

    def __init__(self, complex: SimplicialComplex, pairs: Iterable[tuple[int, int]]):
        self.complex = complex
        self.pairs = tuple(pairs)

    @classmethod
    def _from_stages(cls, complex: SimplicialComplex, faces: int, stages) -> MorseMatching:
        """The matching of the stages (a, Bₐ) on ``complex``, whose face
        bitmap is ``faces``."""
        m = cls.__new__(cls)
        m.complex = complex
        m._stages = (faces, tuple(stages))
        m._staged = True
        return m

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs of a matching built from stages, listed on first read."""
        out = []
        for a, b in self._stages[1]:
            lows = bitmap_masks(b)
            out += zip(lows, map((1 << a).__or__, lows))
        return tuple(out)

    @cached_property
    def _stages(self) -> tuple[int, tuple[tuple[int, int], ...]] | None:
        """(faces, stages) when the complex has a face bitmap, else None: the
        given pairs grouped by their vertex a into stages (a, Bₐ). A pair
        that is not one vertex apart, or whose lower face is below 0 or past
        the bitmap, raises ValueError."""
        faces = self.complex.face_bitmap()
        if faces is None:
            return None
        lows: dict[int, list[int]] = {}
        for s, added in zip(map(itemgetter(0), self.pairs), _added_bits(self.pairs)):
            lows.setdefault(added.bit_length() - 1, []).append(s)
        try:
            return faces, tuple((a, bytes_bitmap(mask_bytes(masks, faces.bit_length()))) for a, masks in lows.items())
        except ValueError:
            raise ValueError("matched pair involves a non-face") from None

    @cached_property
    def _bitmaps(self) -> tuple[int, tuple[tuple[int, int], ...], int, int] | None:
        """(faces, stages, lower, upper) when the complex has a face bitmap,
        else None: lower = ⋁Bₐ and upper = ⋁(Bₐ << 2ᵃ) are the faces
        matched up and down. A stage face that holds its vertex, or a face of
        a pair that is no face, raises ValueError."""
        if self._stages is None:
            return None
        faces, stages = self._stages
        if any(b & ~lacking(a, b.bit_length()) for a, b in stages):  # a face of Bₐ holds a
            raise ValueError("matched pair does not differ by one vertex")
        # an upper face s + 2ᵃ past the bitmap is found before B is shifted to it
        width = faces.bit_length()
        if any(b.bit_length() + (1 << a) > width for a, b in stages if b):
            raise ValueError("matched pair involves a non-face")
        lower = reduce(or_, map(itemgetter(1), stages), 0)
        upper = reduce(or_, [b << (1 << a) for a, b in stages], 0)
        if (lower | upper) & ~faces:
            raise ValueError("matched pair involves a non-face")
        return faces, stages, lower, upper

    def pair_count(self) -> int:
        """The number of pairs, a popcount per stage until they are listed."""
        if "pairs" in vars(self):
            return len(self.pairs)
        return sum(b.bit_count() for _, b in self._stages[1])

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
        of [vertices of s, vertices of t] per pair."""
        return "".join(self.pairs_json_parts())

    def pairs_json_parts(self) -> list[str]:
        """Texts whose concatenation is ``pairs_json()``, so that a record
        holding it is joined once. A matching built from stages is written
        from them, listed pairs or not; pairs given as pairs, as given."""
        if self._staged:
            texts = _stages_texts(*self._stages)
        else:
            texts = [_pairs_text(self.pairs[i:i + _TEXT_RUN]) for i in range(0, len(self.pairs), _TEXT_RUN)]
        parts = [", "] * max(2 * len(texts) - 1, 0)
        parts[::2] = texts
        return ["[", *parts, "]"]


def _bitmap_stages(faces: int, order, keep: int) -> list[tuple[int, int]]:
    """The element matchings at ``order`` on the faces of the bitmap
    ``faces``, as stages (a, Bₐ) in the order they are made; a pair is kept
    only when both of its faces are in the bitmap ``keep``, and a stage only
    when it keeps a pair."""
    width = faces.bit_length()
    stages = []
    for a in order:
        bit = 1 << a
        if bit < width:  # otherwise no face holds a
            new = faces & lacking(a, width) & (faces >> bit)
            if new:
                faces ^= new | new << bit
                if kept := new & keep & (keep >> bit):
                    stages.append((a, kept))
    return stages


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
        return MorseMatching._from_stages(cx, faces, _bitmap_stages(faces, order, faces))
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


def _stage_edges(width: int, stages, lower: int) -> dict[int, list[int]]:
    """The edges among the faces matched upward, as s -> its successors: for
    a face s of Bₐ and a vertex v of s, the facet t - v of t = s ∪ {a} is
    s + 2ᵃ - 2ᵛ, an edge when it is in ``lower``.

    The faces with an edge are found first: for each a and v, those of
    Bₐ & HASᵥ whose mask plus 2ᵃ - 2ᵛ is in ``lower``, HASᵥ the masks
    holding v. Only they are listed, and each one's stage and edges are then
    read off byte views of the stages and of ``lower``: one lookup per edge,
    where listing every (a, v) bitmap would scan its 2^n bits each time."""
    nv = (width - 1).bit_length()  # the vertices v with 2^v < width
    has = [lacking(v, width) << (1 << v) for v in range(nv)]
    found = 0
    for a, b in stages:
        for v in range(nv):
            step = (1 << a) - (1 << v)
            if step:
                found |= b & has[v] & (lower >> step if step > 0 else lower << -step)
    size = (width + 7) >> 3
    views = [(1 << a, b.to_bytes(size, "little")) for a, b in stages]
    down = lower.to_bytes(size, "little")
    succ: dict[int, list[int]] = {}
    for s in bitmap_masks(found):
        byte, bit = s >> 3, 1 << (s & 7)
        t = s | next(up for up, view in views if view[byte] & bit)
        succ[s] = [x for x in (t ^ 1 << v for v in bits(s)) if down[x >> 3] >> (x & 7) & 1]
    return succ


def _pair_edges(up: dict[int, int]) -> dict[int, list[int]]:
    """The edges among the faces matched upward by ``up`` (s -> t), as
    s -> its successors t - v for v in s with t - v in ``up``."""
    succ: dict[int, list[int]] = {}
    for s, t in up.items():
        rest = s
        while rest:  # each facet t - v of t with v in s, by the lowest set bit of s
            low = rest & -rest
            rest ^= low
            if t ^ low in up:
                succ.setdefault(s, []).append(t ^ low)
    return succ


def verify_acyclic_and_critical(m: MorseMatching) -> tuple[bool, dict[int, int]]:
    """Validate the pairing structurally, then test acyclicity of the
    modified Hasse diagram (matched covers point up, the rest point down)
    on the faces matched upward."""
    if m._bitmaps is None:
        _added_bits(m.pairs)
        # The census subtracts the set of paired faces from the faces: it leaves
        # all but 2p of them iff the 2p faces of the p pairs are distinct faces.
        faces = m.complex.face_set()
        census = m.critical_census()
        if sum(census.values()) != len(faces) - 2 * len(m.pairs):
            if not faces.issuperset(chain.from_iterable(m.pairs)):
                raise ValueError("matched pair involves a non-face")
            raise ValueError("face appears in more than one pair")
        succ = _pair_edges(dict(m.pairs))
    else:
        # the one-vertex and non-face checks ran when the bitmaps were made;
        # the 2p faces of the p pairs are distinct iff the two bitmaps share
        # no face and hold 2p faces between them
        faces, stages, lower, upper = m._bitmaps
        if lower & upper or lower.bit_count() + upper.bit_count() != 2 * m.pair_count():
            raise ValueError("face appears in more than one pair")
        census = m.critical_census()
        succ = _stage_edges(faces.bit_length(), stages, lower)

    # A cycle of the modified Hasse diagram cannot climb two dimensions: a face
    # reached by an up-edge is matched down and has no up-edge, so it steps
    # down next. Every cycle therefore alternates between two adjacent
    # dimensions through faces matched upward: σ -> σ' for each facet σ' != σ
    # of σ's partner with σ' matched upward too. Few faces have such an edge,
    # and Kahn's algorithm runs on those alone.
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
        return MorseMatching._from_stages(target, keep, _bitmap_stages(faces, order, keep))
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
