"""Facet-based simplicial complexes.

A complex is explicitly one of three things: the void complex (no faces at
all, dimension -inf), the (-1)-dimensional complex whose only face is the
empty set, or a complex generated by nonempty facets. Faces are bitmasks over
the ambient vertex range 0..ambient-1; the support of the complex (the union
of its facets, its vertex set) may be a proper subset of the ambient range.

Cut complexes have few facets but exponentially many faces; their Alexander
duals are small, though. A complex whose dual has fewer faces memoizes that
dual and reads its f-vector from it (combinatorial Alexander duality), so
counts never list the larger side. That dual is taken over the support, since
over an ambient vertex in no facet it could never be the smaller side; only
the public ``alexander_dual()`` is taken over the ambient set. Faces are
listed only when a caller needs each one, such as a Morse matching on a
sparse complex, and are then memoized. With a small dual they come from it: a
subset of the support is a face iff its complement in the support is not a
dual face. Otherwise the submasks of every facet are walked. When the faces
fill at least half of the masks below the support's top bit, ``face_bitmap``
gives them as one int instead, for Morse matchings on dense complexes. A cut complex whose facets cover its
graph's vertices remembers the graph and k, and counts its faces from the
connected k-sets of the graph instead, which never lists the dual's
complete skeleton. The lazy caches are write-once and idempotent, so
complexes stay safe to share across threads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .bitsets import bits, bytes_bitmap, mask_bytes, mask_of, submasks, to_tuple
from .graphs import connected_levels

NEG_INF = float("-inf")
_UNDECIDED = object()  # the small-dual memo before it is computed


def _normalize(face_masks):
    """Deduplicate and drop non-maximal faces; returns sorted facet tuple.

    Distinct faces of one size never contain each other, so the faces are
    bucketed by size and each is tested only against the kept faces of
    strictly larger size; the largest size, which holds every facet of a
    pure complex, is kept whole."""
    by_size = defaultdict(list)
    for m in set(face_masks):
        by_size[m.bit_count()].append(m)
    keep: list[int] = []
    for size in sorted(by_size, reverse=True):
        bucket = by_size[size]
        if keep:
            larger = tuple(keep)
            bucket = [m for m in bucket if not any(m & ~f == 0 for f in larger)]
        keep += bucket
    keep.sort()
    return tuple(keep)


def _top_dim(facets) -> int | float:
    """The largest facet dimension; -inf for the void complex."""
    return max(map(int.bit_count, facets), default=NEG_INF) - 1


class SimplicialComplex:
    __slots__ = ("_facets", "ambient", "_dim", "_support", "_faces", "_fvec", "_dual", "_cut", "_levels")

    def __init__(self, faces, ambient: int | None = None):
        """Build the complex generated by ``faces`` (bitmasks or vertex
        iterables). An empty list gives the void complex; ``[()]`` gives the
        complex whose only face is the empty set."""
        masks = [mask_of(f) for f in faces]
        if any(m < 0 for m in masks):
            raise ValueError("faces must be nonnegative bitmasks")
        self._facets = _normalize(masks)
        self._dim = _top_dim(self._facets)
        self._support = reduce(or_, self._facets, 0)
        top = self._support.bit_length()
        if ambient is None:
            ambient = top
        elif ambient < top:
            raise ValueError("ambient vertex count smaller than the facets")
        self.ambient = ambient
        self._faces = None
        self._fvec = None
        self._dual = _UNDECIDED
        self._cut = None  # (g, k) when cuts.cut_complex built this over all of V(g)
        self._levels = _UNDECIDED  # the connected-set memo before it is computed

    @classmethod
    def _from_faces(cls, faces: set, ambient: int) -> SimplicialComplex:
        """Complex with a known, downward-closed face set: the facets are the
        faces with no one-vertex extension, so no normalization is needed."""
        cx = cls.__new__(cls)
        cx._support = reduce(or_, faces, 0)
        singles = [1 << v for v in bits(cx._support)]
        cx._facets = tuple(sorted(
            m for m in faces if not any((m | b) in faces for b in singles if not m & b)
        ))
        cx._dim = _top_dim(cx._facets)
        cx.ambient = ambient
        cx._faces = frozenset(faces)
        cx._fvec = None
        cx._dual = _UNDECIDED
        cx._cut = None
        cx._levels = _UNDECIDED
        return cx

    # -- state ------------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self._facets

    @property
    def is_empty_complex(self) -> bool:
        """True for the (-1)-dimensional complex whose only face is ∅."""
        return self._facets == (0,)

    @property
    def facets(self) -> tuple[int, ...]:
        return self._facets

    def facet_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(to_tuple(f) for f in self._facets)

    @property
    def dim(self):
        return self._dim

    @property
    def is_pure(self) -> bool:
        """All facets share one dimension (vacuously true for the void complex)."""
        return len({f.bit_count() for f in self._facets}) <= 1

    def vertices(self) -> tuple[int, ...]:
        return to_tuple(self._support)

    # -- faces ------------------------------------------------------------

    def face_set(self) -> frozenset:
        """Every face, the empty face included. Memoized.

        With a smaller Alexander dual the faces come from the dual's: a subset
        m of the support is a face iff ``support ^ m`` is not a dual face. The
        dual is small only when this complex holds more than half of the 2^n
        subsets of its n-vertex support, so one pass over all of them costs
        at most twice the output. Otherwise every submask of every facet is
        walked."""
        if self._faces is None:
            dual = self._small_dual()
            if dual is None:
                out = set()
                for f in self._facets:
                    out.update(submasks(f))
            else:
                support = self._support
                run = support & ~(support + 1)  # vertices 0..j-1, the support's low run
                out = set(range(run + 1))  # the subsets of run, doubled over each further vertex
                for v in bits(support ^ run):
                    out.update([m | 1 << v for m in out])
                out.difference_update([support ^ m for m in dual.face_set()])
            self._faces = frozenset(out)
        return self._faces

    def face_bitmap(self) -> int | None:
        """The faces as one int whose bit m is set iff mask m is a face, when
        they fill at least half of the 2^b masks below the support's top bit
        b; None otherwise. No face is listed.

        A small Alexander dual means the faces are more than half of the 2^n
        subsets of the n-vertex support, so they fill half the 2^b masks iff
        the support has no gap (n = b). Every mask below 2^b is then a subset
        of the support, and it is a face iff ``support ^ m`` is not a dual
        face. The bitmap costs at most two bits per face."""
        support = self._support
        dual = self._small_dual()
        if dual is None or support & (support + 1):
            return None
        width = support + 1
        return ((1 << width) - 1) ^ bytes_bitmap(mask_bytes([support ^ m for m in dual._faces], width))

    def has_face(self, sigma) -> bool:
        m = mask_of(sigma)
        return any(m & ~f == 0 for f in self._facets)

    def faces_by_dim(self) -> dict[int, list[int]]:
        """Faces grouped by dimension, each list sorted by vertex tuple."""
        grouped: dict[int, list[int]] = {}
        for m in self.face_set():
            grouped.setdefault(m.bit_count() - 1, []).append(m)
        for lst in grouped.values():
            lst.sort(key=to_tuple)
        return grouped

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_d); errors on the void complex. Memoized.

        With a smaller Alexander dual the counts come from the dual's faces:
        a set of size s is a face iff its complement is not a dual face, so
        f_{s-1}(Δ) = C(n, s) - #{dual faces of size n - s} over the n-vertex
        support (Björner and Tancer, DCG 2009). The dual's counts are its
        level sizes for a cut complex on the connected-set route, and the
        small dual's faces otherwise; without a smaller dual the faces are
        counted directly."""
        if self.is_void:
            raise ValueError("the void complex has no f-vector")
        if self._fvec is None:
            size = self.dim + 2
            n = self._support.bit_count()
            co = None  # the dual's face counts by size
            levels = self._connected_dual()
            if levels is not None:
                co = [comb(n, s) for s in range(self._cut[1])] + [len(lv) for lv in levels]
                co += [0] * (n + 1 - len(co))
            elif self._small_dual() is not None:
                co = [0] * (n + 1)
                for m in self._small_dual().face_set():
                    co[m.bit_count()] += 1
            if co is None:
                counts = [0] * size
                for m in self.face_set():
                    counts[m.bit_count()] += 1
            else:
                counts = [comb(n, s) - co[n - s] for s in range(size)]
            self._fvec = tuple(counts)
        return self._fvec

    def reduced_euler(self) -> int:
        """Alternating face-count sum including the empty face."""
        mu = 0
        for size, count in enumerate(self.f_vector()):
            mu += count if size % 2 else -count
        return mu

    # -- local constructions ----------------------------------------------

    def link(self, sigma) -> SimplicialComplex:
        """Link of a face; the link of a non-face is the void complex."""
        m = mask_of(sigma)
        return SimplicialComplex(
            [f & ~m for f in self._facets if m & ~f == 0], ambient=self.ambient
        )

    def star(self, sigma) -> SimplicialComplex:
        m = mask_of(sigma)
        return SimplicialComplex(
            [f for f in self._facets if m & ~f == 0], ambient=self.ambient
        )

    def deletion(self, sigma) -> SimplicialComplex:
        """Faces not containing sigma; deleting ∅ leaves the void complex."""
        m = mask_of(sigma)
        out = []
        for f in self._facets:
            if m & ~f:
                out.append(f)
            else:
                out.extend(f & ~(1 << x) for x in bits(m))
        return SimplicialComplex(out, ambient=self.ambient)

    # -- skeleta and joins --------------------------------------------------

    def skeleton(self, d: int) -> SimplicialComplex:
        """Faces of dimension at most d (d >= -1)."""
        if d < -1:
            raise ValueError("skeleton dimension must be >= -1")
        if d >= self.dim:
            return self
        out = []
        for f in self._facets:
            if f.bit_count() <= d + 1:
                out.append(f)
            else:
                out.extend(mask_of(c) for c in combinations(to_tuple(f), d + 1))
        return SimplicialComplex(out, ambient=self.ambient)

    def join(self, other: SimplicialComplex) -> SimplicialComplex:
        """Join, with the other complex's vertices shifted past this ambient."""
        shift = self.ambient
        ambient = self.ambient + other.ambient
        return SimplicialComplex(
            [f | (g << shift) for f in self._facets for g in other._facets],
            ambient=ambient,
        )

    def cone(self) -> SimplicialComplex:
        return self.join(SimplicialComplex([(0,)], ambient=1))

    def suspension(self) -> SimplicialComplex:
        return self.join(SimplicialComplex([(0,), (1,)], ambient=2))

    def alexander_dual(self) -> SimplicialComplex:
        """{V - σ : σ not a face} over the ambient vertex set V.

        The dual's faces are the sets containing no complement of a facet,
        and |Δ| + |Δ^∨| = 2^|V|. They are enumerated level by level: a set is
        a face iff all its one-smaller subsets are faces and it is not itself
        a facet complement (those are the dual's minimal non-faces). The
        dual of the void complex is the full simplex, and the dual of the
        full simplex is void.
        """
        return self._dual_within((1 << self.ambient) - 1, None)

    def _dual_within(self, ground: int, limit: int | None) -> SimplicialComplex | None:
        """The Alexander dual over ``ground``, a vertex set that holds the
        support, or None as soon as the walk finds more than ``limit`` dual
        faces (no limit when None). The walk tries only the vertices of
        ``ground``, so gaps in its vertex numbers cost nothing."""
        blocked = {ground & ~f for f in self._facets}
        if 0 in blocked:
            return SimplicialComplex([], ambient=self.ambient)
        singles = [1 << v for v in bits(ground)]
        # start[m.bit_length()]: where the ground's vertices past m's top vertex begin
        start = {b.bit_length(): i + 1 for i, b in enumerate(singles)}
        faces = {0}
        level = [b for b in singles if b not in blocked]
        if limit is not None and 1 + len(level) > limit:
            return None
        while level:
            faces.update(level)
            nxt = []
            for m in level:
                for b in singles[start[m.bit_length()]:]:
                    cand = m | b
                    if cand in blocked:
                        continue
                    if all((cand & ~(1 << u)) in faces for u in bits(m)):
                        nxt.append(cand)
                        if limit is not None and len(faces) + len(nxt) > limit:
                            return None
            level = nxt
        return SimplicialComplex._from_faces(faces, self.ambient)

    def _small_dual(self) -> SimplicialComplex | None:
        """The Alexander dual when it has fewer faces than this complex but
        at least one, else None. Memoized; no face of this complex is listed.

        The dual is taken over the n-vertex support: |Δ| + |Δ^∨| = 2^n, so it
        is the smaller side iff it has fewer than 2^(n-1) faces. Δ has at most
        min(C(n, s), Σ_F C(|F|, s)) faces of size s; when these bounds sum to
        at most 2^(n-1) the dual cannot be smaller and no walk runs. Otherwise
        the dual walk stops past 2^(n-1) - 1 faces."""
        if self._dual is _UNDECIDED:
            n = self._support.bit_count()
            dual = None
            sizes = Counter(f.bit_count() for f in self._facets)
            bound = sum(min(comb(n, s), sum(c * comb(m, s) for m, c in sizes.items())) for s in range(n + 1))
            if bound << 1 > 1 << n:
                dual = self._dual_within(self._support, ((1 << n) - 1) >> 1)
                if dual is not None and dual.is_void:  # the full simplex
                    dual = None
            self._dual = dual
        return self._dual

    def _connected_dual(self) -> list[list[int]] | None:
        """For Δ = Δ_k(G) from ``cuts.cut_complex`` with every vertex of G in
        a facet: the faces of size k, k + 1, ... of its Alexander dual D, as
        ``graphs.connected_levels`` lists them, when D has fewer faces than
        Δ; None otherwise and for any other complex. Memoized.

        D holds the Σ_{s<k} C(n, s) sets below size k and the sets whose
        k-subsets all induce connected subgraphs. Those below size k are
        counted, not listed, and the walk stops past the 2^(n-1) - 1 faces
        ``_small_dual`` allows, so both pick the same side; when it stops,
        ``_small_dual`` is None without a walk of its own."""
        if self._levels is _UNDECIDED:
            levels = None
            if self._cut is not None:
                g, k = self._cut
                budget = (((1 << g.n) - 1) >> 1) - sum(comb(g.n, s) for s in range(k))
                if budget >= 0:
                    levels = connected_levels(g, k, budget)
                if levels is None and self._dual is _UNDECIDED:
                    self._dual = None
            self._levels = levels
        return self._levels

    # -- global properties ---------------------------------------------------

    def complete_skeleton_dim(self) -> int:
        """Largest d such that every subset of the ambient vertex set of size
        <= d+1 is a face, read off the f-vector; -1 when no vertex set
        qualifies (as for {∅}), -2 for the void complex."""
        if self.is_void:
            return -2
        d = -1
        for s, count in enumerate(self.f_vector()[1:], start=1):
            if count != comb(self.ambient, s):
                break
            d = s - 1
        return d

    # -- serialization, equality ----------------------------------------------

    def to_json_obj(self):
        if self.is_void:
            return {"state": "void"}
        return {
            "facets": [list(to_tuple(f)) for f in self._facets],
            "ambient": self.ambient,
        }

    @staticmethod
    def from_json_obj(obj) -> SimplicialComplex:
        """Inverse of ``to_json_obj``; malformed input raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("complex JSON must be an object")
        void = obj.get("state") == "void"
        facets = [] if void else obj.get("facets")
        ambient = obj.get("ambient", 0 if void else None)
        if not (
            type(ambient) is int
            and isinstance(facets, list)
            and all(
                isinstance(f, list) and all(type(v) is int and v >= 0 for v in f) and len(set(f)) == len(f)
                for f in facets
            )
        ):
            raise ValueError(
                'complex JSON needs "facets" (lists of distinct vertex indices >= 0) and an integer "ambient"'
            )
        return SimplicialComplex(facets, ambient=ambient)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex({len(self._facets)} facets, dim {self.dim})"


def relabel_densely(cx: SimplicialComplex) -> SimplicialComplex:
    """``cx`` with its vertices renamed 0..nv-1 in increasing order, over an
    ambient set of exactly those nv vertices; ``cx`` itself when every
    ambient vertex is in a facet."""
    verts = cx.vertices()
    if len(verts) == cx.ambient:
        return cx
    pos = {v: i for i, v in enumerate(verts)}
    return SimplicialComplex([mask_of(pos[v] for v in to_tuple(f)) for f in cx._facets])


def from_facets(faces, ambient: int | None = None) -> SimplicialComplex:
    """Primary constructor; see SimplicialComplex.__init__."""
    return SimplicialComplex(faces, ambient=ambient)


def full_simplex(n: int) -> SimplicialComplex:
    """The (n-1)-dimensional simplex on n vertices."""
    if n < 1:
        raise ValueError("full_simplex needs n >= 1")
    return SimplicialComplex([(1 << n) - 1], ambient=n)
