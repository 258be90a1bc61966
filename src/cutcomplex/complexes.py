"""Facet-based simplicial complexes.

A complex is explicitly one of three things: the void complex (no faces at
all, dimension -inf), the (-1)-dimensional complex whose only face is the
empty set, or a complex generated by nonempty facets. Faces are bitmasks over
the ambient vertex range 0..ambient-1; the support of the complex (the union
of its facets, its vertex set) may be a proper subset of the ambient range.

Cut complexes have few facets but exponentially many faces; their Alexander
duals are small, though. A complex whose dual has fewer faces memoizes that
dual and reads its f-vector, homology and faces from it (combinatorial
Alexander duality), so nothing lists the larger side. The dual's minimal
non-faces are the facet complements, so it holds every set below the
smallest complement's size s0: the memo is s0 and the dual's faces from
size s0 up, one list per size, and the complete skeleton below is counted,
never listed. One level walk fills it, growing each level from the one
below through masks of one-vertex extensions, from the s0-sets that are
not facet complements, with the larger complements blocked; or, for a pure
complex given by its dual alone (``_from_dual_walk``), from a first level
the caller lists, whose missing s0-sets are the facet complements. The dual
is taken over the support, since over an ambient vertex in no facet it
could never be the smaller side; only the public ``alexander_dual()`` is
taken over the ambient set.

Faces are listed only when a caller needs each one, such as a Morse matching
on a sparse complex, and are then memoized. With a small dual a subset of
the support is a face iff its complement in the support is not a dual face;
otherwise the submasks of every facet are walked. When the faces fill at
least half of the masks below the support's top bit, ``face_bitmap`` gives
them as one int instead, for Morse matchings on dense complexes. Counts,
homology and Morse matchings on the dual side never read the facets. The
lazy caches, the facets included, are write-once and idempotent, so
complexes stay safe to share across threads.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import reduce
from itertools import chain, combinations, filterfalse, islice
from math import comb
from operator import or_
from typing import Iterable, Iterator

from .bitsets import bits, mask_of, small_masks, submasks, to_tuple

NEG_INF = float("-inf")
_UNDECIDED = object()  # the dual memo before it is computed


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


def _walk_levels(first: Iterable[int], budget: int, blocked) -> list[list[int]] | None:
    """The sets of ``first``, all of one size, then each larger size's sets
    whose one-smaller subsets all lie in the level below and that are not
    in ``blocked``, up to the first empty level: one list per size, each in
    lexicographic order of vertex tuples. None as soon as more than
    ``budget`` sets are listed.

    Extensions of sets in lexicographic order come out in that order. Which
    extensions of a set t lie in a level is kept as one mask of vertices,
    ``up[t]``, so a candidate set is checked by ANDing masks rather than by
    a lookup per subset; the blocked sets are kept the same way."""
    listed = sorted(islice(first, min(budget, sys.maxsize - 1) + 1), key=to_tuple)
    if len(listed) > budget:
        return None
    up, block = _up_masks(listed), _up_masks(blocked)
    levels = []
    while listed:
        levels.append(listed)
        budget -= len(listed)
        grown: dict[int, int] = {}
        listed = list(islice(_extensions(listed, up, block, grown), min(budget, sys.maxsize - 1) + 1))
        if len(listed) > budget:
            return None
        up = grown
    return levels


def _up_masks(sets: Iterable[int]) -> dict[int, int]:
    """Map each set t one smaller than a nonempty set of ``sets`` to the
    mask of the vertices u past t's highest with t + u in ``sets``."""
    up: dict[int, int] = {}
    for m in sets:
        top = 1 << m.bit_length() - 1
        up[m ^ top] = up.get(m ^ top, 0) | top
    return up


def _extensions(level: list[int], up: dict[int, int], block: dict[int, int], grown: dict[int, int]) -> Iterator[int]:
    """The sets m + u, for m in ``level`` and u past the highest vertex of m,
    whose one-smaller subsets all lie in ``level`` and that ``block`` does
    not hold.

    ``up`` is ``_up_masks(level)`` and ``block`` that of the blocked sets,
    a missing set mapping to 0. Then m + u qualifies iff u lies in up[m - v]
    for every v in m and not in block[m], so the extensions of m are the
    AND of those masks past m's highest vertex. They are stored as
    ``grown[m]``, the same map one level up."""
    for m in level:
        high = m.bit_length()
        top = 1 << high - 1
        ext = up.get(m ^ top, 0) >> high << high & ~block.get(m, 0)
        for v in bits(m ^ top):
            if not ext:
                break
            ext &= up.get(m ^ 1 << v, 0)
        if ext:
            grown[m] = ext
            while ext:
                u = ext & -ext
                ext ^= u
                yield m | u


def _dual_budget(n: int, s0: int) -> int:
    """How many faces from size s0 up a dual over n vertices that holds every
    smaller set may have while it has fewer than 2^(n-1) faces in all."""
    return (((1 << n) - 1) >> 1) - sum(comb(n, s) for s in range(s0))


def _dual_faces(ground: int, s0: int, levels: list[list[int]]) -> Iterator[int]:
    """Every face of the dual over ``ground`` that holds all its subsets
    below size s0 and then the faces of ``levels``."""
    singles = [1 << v for v in bits(ground)]
    return chain(*(map(sum, combinations(singles, s)) for s in range(s0)), *levels)


class SimplicialComplex:
    __slots__ = ("_facets", "ambient", "_dim", "_support", "_faces", "_fvec", "_dual", "_side")

    def __init__(self, faces, ambient: int | None = None):
        """Build the complex generated by ``faces`` (bitmasks or vertex
        iterables). An empty list gives the void complex; ``[()]`` gives the
        complex whose only face is the empty set."""
        masks = [mask_of(f) for f in faces]
        if any(m < 0 for m in masks):
            raise ValueError("faces must be nonnegative bitmasks")
        facets = _normalize(masks)
        support = reduce(or_, facets, 0)
        top = support.bit_length()
        if ambient is None:
            ambient = top
        elif ambient < top:
            raise ValueError("ambient vertex count smaller than the facets")
        self._fill(facets, support, _top_dim(facets), ambient)

    def _fill(self, facets, support: int, dim, ambient: int) -> None:
        """Set every slot, with the lazy memos not yet computed."""
        self._facets = facets  # None until read for a complex from ``_from_dual_walk``
        self._support = support
        self._dim = dim
        self.ambient = ambient
        self._faces = None
        self._fvec = None
        self._dual = _UNDECIDED
        self._side = "dual"  # the dual memo's start: "dual" from the facets, "connected" from a given first level

    @classmethod
    def _from_faces(cls, faces: set, ambient: int) -> SimplicialComplex:
        """Complex with a known, downward-closed face set: the facets are the
        faces with no one-vertex extension, so no normalization is needed."""
        cx = cls.__new__(cls)
        support = reduce(or_, faces, 0)
        singles = [1 << v for v in bits(support)]
        facets = tuple(sorted(
            m for m in faces if not any((m | b) in faces for b in singles if not m & b)
        ))
        cx._fill(facets, support, _top_dim(facets), ambient)
        cx._faces = frozenset(faces)
        return cx

    @classmethod
    def _from_dual_walk(cls, first: Iterable[int], s0: int, n: int) -> SimplicialComplex | None:
        """The pure (n - 1 - s0)-dimensional complex on the vertices 0..n-1,
        every one in a facet, whose Alexander dual D has the sets of
        ``first`` as its faces of size s0, built from D's memo when D is the
        smaller side; None when the walk gives up. The facets are read off D.

        It gives up right after ``first`` when the F missing s0-sets, the
        facet complements, bound this complex to at most 2^(n-1) faces:
        it has at most min(C(n, s), F·C(n - s0, s)) faces of size s, the
        bound ``_dual_levels`` takes from the facets."""
        budget = _dual_budget(n, s0)
        if budget < 0:
            return None
        first = list(islice(first, min(budget, sys.maxsize - 1) + 1))
        missing = comb(n, s0) - len(first)
        if sum([min(comb(n, s), missing * comb(n - s0, s)) for s in range(n - s0 + 1)]) << 1 <= 1 << n:
            return None
        levels = _walk_levels(first, budget, ())
        if levels is None:
            return None
        cx = cls.__new__(cls)
        cx._fill(None, (1 << n) - 1, n - 1 - s0, n)
        cx._dual = (s0, levels)
        cx._side = "connected"
        return cx

    # -- state ------------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return self._dim == NEG_INF

    @property
    def is_empty_complex(self) -> bool:
        """True for the (-1)-dimensional complex whose only face is ∅."""
        return self._dim == -1

    @property
    def facets(self) -> tuple[int, ...]:
        """The facets as ascending bitmasks, listed on first read for a
        complex from ``_from_dual_walk``. Racing readers write equal tuples."""
        if self._facets is None:
            self._facets = self._facets_from_dual()
        return self._facets

    def _facets_from_dual(self) -> tuple[int, ...]:
        """The complements of the s0-sets that are not dual faces, in
        increasing order, as the s0-sets come in decreasing order."""
        s0, levels = self._dual
        support = self._support
        down = [1 << v for v in bits(support)][::-1]
        first = set(levels[0] if levels else ())
        return tuple(map(support.__xor__, filterfalse(first.__contains__, map(sum, combinations(down, s0)))))

    def facet_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(to_tuple(f) for f in self.facets)

    @property
    def dim(self):
        return self._dim

    @property
    def is_pure(self) -> bool:
        """All facets share one dimension (vacuously true for the void complex)."""
        return len({f.bit_count() for f in self.facets}) <= 1

    def vertices(self) -> tuple[int, ...]:
        return to_tuple(self._support)

    # -- faces ------------------------------------------------------------

    def face_set(self) -> frozenset:
        """Every face, the empty face included. Memoized.

        With a smaller Alexander dual the faces come from it: a subset m of
        the support is a face iff ``support ^ m`` is not a dual face, either
        one below size s0 or a listed one. The dual is small only when this
        complex holds more than half of the 2^n subsets of its n-vertex
        support, so one pass over all of them costs at most twice the
        output. Otherwise every submask of every facet is walked."""
        if self._faces is None:
            dual = self._dual_levels()
            out = set()
            if dual is None:
                for f in self.facets:
                    out.update(submasks(f))
            else:
                support = self._support
                run = support & ~(support + 1)  # vertices 0..j-1, the support's low run
                out.update(range(run + 1))  # the subsets of run, doubled over each further vertex
                for v in bits(support ^ run):
                    out.update([m | 1 << v for m in out])
                out.difference_update([support ^ m for m in _dual_faces(support, *dual)])
            self._faces = frozenset(out)
        return self._faces

    def face_bitmap(self) -> int | None:
        """The faces as one int whose bit m is set iff mask m is a face, when
        they fill at least half of the 2^b masks below the support's top bit
        b; None otherwise. No face is listed.

        A small Alexander dual means the faces are more than half of the 2^n
        subsets of the n-vertex support, so they fill half the 2^b masks iff
        the support has no gap (n = b). Every mask below 2^b is then a subset
        of the support, and it is a face iff it has at most n - s0 vertices
        and ``support ^ m`` is in no listed level. The bitmap costs at most
        two bits per face."""
        support = self._support
        dual = self._dual_levels()
        if dual is None or support & (support + 1):
            return None
        n = support.bit_count()
        return small_masks(n, n - dual[0], [support ^ m for level in dual[1] for m in level])

    def has_face(self, sigma) -> bool:
        m = mask_of(sigma)
        return any(m & ~f == 0 for f in self.facets)

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

        With a smaller Alexander dual the counts come from its levels: a set
        of size s is a face iff its complement is not a dual face, so
        f_{s-1}(Δ) = C(n, s) - #{dual faces of size n - s} over the n-vertex
        support (Björner and Tancer, DCG 2009). The dual holds all C(n, s)
        sets of each size s below s0 and the listed ones above. Without a
        smaller dual the faces are counted directly."""
        if self.is_void:
            raise ValueError("the void complex has no f-vector")
        if self._fvec is None:
            size = self.dim + 2
            dual = self._dual_levels()
            if dual is None:
                counts = [0] * size
                for m in self.face_set():
                    counts[m.bit_count()] += 1
            else:
                n = self._support.bit_count()
                s0, levels = dual
                co = [comb(n, s) for s in range(s0)] + [len(level) for level in levels]
                co += [0] * (n + 1 - len(co))
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
            [f & ~m for f in self.facets if m & ~f == 0], ambient=self.ambient
        )

    def star(self, sigma) -> SimplicialComplex:
        m = mask_of(sigma)
        return SimplicialComplex(
            [f for f in self.facets if m & ~f == 0], ambient=self.ambient
        )

    def deletion(self, sigma) -> SimplicialComplex:
        """Faces not containing sigma; deleting ∅ leaves the void complex."""
        m = mask_of(sigma)
        out = []
        for f in self.facets:
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
        for f in self.facets:
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
            [f | (g << shift) for f in self.facets for g in other.facets],
            ambient=ambient,
        )

    def cone(self) -> SimplicialComplex:
        return self.join(SimplicialComplex([(0,)], ambient=1))

    def suspension(self) -> SimplicialComplex:
        return self.join(SimplicialComplex([(0,), (1,)], ambient=2))

    def alexander_dual(self) -> SimplicialComplex:
        """{V - σ : σ not a face} over the ambient vertex set V.

        The dual's minimal non-faces are the complements of the facets, so
        it holds every set below the smallest complement's size and, from
        there up, the levels ``_walk_dual`` lists. The dual of the void
        complex is the full simplex, and the dual of the full simplex is
        void.
        """
        ground = (1 << self.ambient) - 1
        if self.is_void:
            return SimplicialComplex([ground], ambient=self.ambient)
        s0 = self.ambient - 1 - self.dim
        if s0 == 0:
            return SimplicialComplex([], ambient=self.ambient)
        faces = set(_dual_faces(ground, s0, self._walk_dual(ground, 1 << self.ambient)))
        return SimplicialComplex._from_faces(faces, self.ambient)

    def _walk_dual(self, ground: int, budget: int) -> list[list[int]] | None:
        """The faces of the Alexander dual over ``ground``, a vertex set
        that holds the support, from size s0 = |ground| - 1 - dim up, as
        ``_walk_levels`` lists them within ``budget``. The first level is
        the s0-sets of ``ground`` that are not facet complements, and the
        larger complements are blocked. Only the vertices of ``ground`` are
        tried, so gaps in its vertex numbers cost nothing."""
        s0 = ground.bit_count() - 1 - self.dim
        blocked = {ground ^ f for f in self.facets}
        first = (m for m in map(sum, combinations([1 << v for v in bits(ground)], s0)) if m not in blocked)
        return _walk_levels(first, budget, blocked)

    def _dual_levels(self) -> tuple[int, list[list[int]]] | None:
        """(s0, levels) for the Alexander dual D over the n-vertex support
        when D has fewer faces than this complex but at least one; None
        otherwise. Memoized; no face of this complex is listed.

        D's minimal non-faces are the facet complements, so D holds every
        set below s0 = n - 1 - dim, the smallest complement's size: those
        are counted, never listed. ``levels[i]`` lists D's faces of size
        s0 + i in lexicographic vertex order. |Δ| + |D| = 2^n, so D is the
        smaller side iff it has fewer than 2^(n-1) faces, and the walk gives
        up past 2^(n-1) - 1. s0 = 0 makes Δ the full simplex on its support,
        whose dual is void.

        A complex from ``_from_dual_walk`` has its memo from construction.
        Any other complex walks from its facets, and only when Δ could hold
        more than 2^(n-1) faces: Δ has at most min(C(n, s), Σ_F C(|F|, s))
        faces of size s."""
        if self._dual is _UNDECIDED:
            n = self._support.bit_count()
            s0 = n - 1 - self.dim
            levels = None
            if not self.is_void and s0 > 0 and (budget := _dual_budget(n, s0)) >= 0:
                sizes = Counter(f.bit_count() for f in self.facets)
                bound = sum(min(comb(n, s), sum(c * comb(m, s) for m, c in sizes.items())) for s in range(n + 1))
                if bound << 1 > 1 << n:
                    levels = self._walk_dual(self._support, budget)
            self._dual = None if levels is None else (s0, levels)
        return self._dual

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
            "facets": [list(to_tuple(f)) for f in self.facets],
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
        return self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex({len(self.facets)} facets, dim {self.dim})"


def relabel_densely(cx: SimplicialComplex) -> SimplicialComplex:
    """``cx`` with its vertices renamed 0..nv-1 in increasing order, over an
    ambient set of exactly those nv vertices; ``cx`` itself when every
    ambient vertex is in a facet."""
    verts = cx.vertices()
    if len(verts) == cx.ambient:
        return cx
    pos = {v: i for i, v in enumerate(verts)}
    return SimplicialComplex([mask_of(pos[v] for v in to_tuple(f)) for f in cx.facets])


def from_facets(faces, ambient: int | None = None) -> SimplicialComplex:
    """Primary constructor; see SimplicialComplex.__init__."""
    return SimplicialComplex(faces, ambient=ambient)


def full_simplex(n: int) -> SimplicialComplex:
    """The (n-1)-dimensional simplex on n vertices."""
    if n < 1:
        raise ValueError("full_simplex needs n >= 1")
    return SimplicialComplex([(1 << n) - 1], ambient=n)
