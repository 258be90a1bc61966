"""Reduced simplicial homology over the integers.

Boundary matrices are assembled from the face lists of a complex (including
the empty face, so homology is reduced), and diagonalized by Smith normal
form. Free ranks come from the ranks of consecutive boundary maps; torsion
coefficients are the diagonal entries greater than one.

Everything is exact: the Smith reduction works on sparse rows of unbounded
Python ints. It splits off the unit pivots first, then reduces what is left,
usually nothing. A chain's maps are reduced from the lowest up, and the rows
of each map at the unit-pivot columns of the map below are deleted before it
is reduced, which keeps its rank and Smith diagonal. Boundary matrices and
Smith reduction run on whichever side of Alexander duality has fewer faces;
for cut complexes that is usually the dual. The side is decided without
listing a face of the larger side. A small dual is held as a complete
skeleton below some size s0 plus listed levels from s0 up: the skeleton is
counted, not listed, its boundary ranks are binomial coefficients, and Smith
reduction runs only on the listed levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd

from .bitsets import bits, to_tuple
from .complexes import SimplicialComplex


@dataclass(frozen=True)
class IntMatrix:
    """Sparse exact-integer matrix; entries maps (row, col) -> nonzero int."""

    nrows: int
    ncols: int
    entries: dict


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_sparse(entries, units=None):
    """Exact reduction on dict-of-dicts rows with Python ints; returns the
    nonzero diagonal before it is put into divisibility order. Zero entries
    are skipped.

    Phase 1 splits off unit pivots. Walking the rows in the order of their
    first entries, it takes a row's first entry v = ±1, at column c, clears
    c from the other rows with the exact quotient row₂[c]·v, and drops the
    row and column c: one diagonal 1. Passes repeat until no unit is left,
    and ``units``, if given, gets each such column. Phase 2 reduces what is
    left, usually nothing: its pivot is the first entry with |v| = 1 in row
    order, else the first of least |v|. Every step is a unimodular row or
    column operation, so any pivot order gives the same diagonal after
    ``_divisibility_chain``; a unit pivot is an algebraic Morse reduction
    (Sköldberg, TAMS 2006)."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    def row_sub(r2, row1, q):
        # q and every stored entry are nonzero, so a zero result was stored
        row2 = rows[r2]
        for c, v in row1.items():
            nv = row2.get(c, 0) - q * v
            if nv:
                row2[c] = nv
                cols[c].add(r2)
            else:
                del row2[c]
                cols[c].discard(r2)
        if not row2:
            del rows[r2]

    pivots = []
    progress = True
    while progress:
        progress = False
        for r in list(rows):
            row = rows.get(r, {})
            for c, v in row.items():
                if v == 1 or v == -1:
                    break
            else:
                continue
            del rows[r]
            for c2 in row:
                cols[c2].discard(r)
            for r2 in list(cols[c]):
                row_sub(r2, row, rows[r2][c] * v)
            del cols[c]
            pivots.append(c)
            progress = True
    if units is not None:
        units.extend(pivots)

    diag = [1] * len(pivots)
    while rows:
        units_left = ((r, c, v) for r, row in rows.items() for c, v in row.items() if abs(v) == 1)
        every = ((r, c, v) for r, row in rows.items() for c, v in row.items())
        r, c, v = next(units_left, None) or min(every, key=lambda e: abs(e[2]))
        dirty = False
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            q = rows[r2][c] // v
            if q:
                row_sub(r2, rows[r], q)
            if rows.get(r2, {}).get(c):
                dirty = True
        if dirty:
            continue
        row = rows[r]
        for c2 in list(row):
            if c2 == c:
                continue
            # column c holds only the pivot now, so this column operation
            # only touches row r
            q = row[c2] // v
            nv = row[c2] - q * v
            if nv:
                row[c2] = nv
                dirty = True
            else:
                del row[c2]
                cols[c2].discard(r)
        if dirty:
            continue
        diag.append(abs(v))
        del rows[r]
        cols[c].discard(r)
    return diag


def _divisibility_chain(diag):
    """Rearrange a diagonal into the unique d1 | d2 | ... normal form.

    One sweep of gcd/lcm swaps: after pass i, work[i] divides every later
    entry, and later swaps keep them multiples of it."""
    work = [d for d in diag if d not in (0, 1)]
    ones = diag.count(1)
    for i in range(len(work)):
        for j in range(i + 1, len(work)):
            g = gcd(work[i], work[j])
            work[i], work[j] = g, work[i] // g * work[j]
    return [1] * ones + work


def smith_normal_form(m: IntMatrix, units: list | None = None) -> tuple[tuple[int, ...], int]:
    """Diagonal of the Smith normal form (padded with zeros to min(rows, cols))
    and the rank. ``units``, if given, gets the columns of the unit pivots
    that ``_snf_sparse`` split off first."""
    diag = _divisibility_chain(_snf_sparse(m.entries, units))
    rank = len(diag)
    diag += [0] * (min(m.nrows, m.ncols) - rank)
    return tuple(diag), rank


# ---------------------------------------------------------------------------
# boundary matrices and homology


def _boundary(rows: list[int], cols: list[int]) -> IntMatrix:
    """The boundary map from the faces ``cols`` to the faces ``rows``, with
    sign (-1)^j for dropping the j-th vertex of a column. A facet of a
    column that is not in ``rows`` has no row."""
    index = {f: i for i, f in enumerate(rows)}
    entries = {}
    for col, face in enumerate(cols):
        sign = 1
        rest = face
        while rest:  # the vertices of the face in increasing order
            low = rest & -rest
            row = index.get(face ^ low)
            if row is not None:
                entries[(row, col)] = sign
            sign = -sign
            rest ^= low
    return IntMatrix(len(rows), len(cols), entries)


def _primal_faces(cx: SimplicialComplex) -> list[list[int]]:
    """cx's faces of each dimension from -1 to dim, in ``faces_by_dim`` order."""
    by_dim = cx.faces_by_dim()
    return [by_dim.get(d, []) for d in range(-1, cx.dim + 1)]


def boundary_matrices(cx: SimplicialComplex) -> list[IntMatrix]:
    """[∂_0, ..., ∂_dim] with ∂_i: C_i -> C_{i-1}; ∂_0 maps onto the empty
    face, so the homology computed from these is reduced."""
    if cx.is_void:
        raise ValueError("the void complex has no chain complex")
    faces = _primal_faces(cx)
    return [_boundary(rows, cols) for rows, cols in zip(faces, faces[1:])]


@dataclass(frozen=True)
class HomologyReport:
    """Free rank and torsion coefficients per dimension, -1 through dim.

    ``side`` names the complex the groups were computed on: the "primal",
    or its Alexander dual, walked from the facets ("dual") or, for a cut
    complex that ``cuts.cut_complex`` built from its dual, grown from the
    "connected" k-sets. It is not part of equality or the JSON output."""

    ranks: dict
    torsion: dict
    side: str = field(default="primal", compare=False)

    def betti(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def torsion_at(self, i: int) -> tuple[int, ...]:
        return self.torsion.get(i, ())

    def is_free(self) -> bool:
        return all(not t for t in self.torsion.values())

    def euler(self) -> int:
        return sum(r if i % 2 == 0 else -r for i, r in self.ranks.items())

    def nonzero_dims(self) -> list[int]:
        out = [i for i, r in self.ranks.items() if r]
        out += [i for i, t in self.torsion.items() if t and i not in out]
        return sorted(set(out))

    def free_concentrated(self, dim: int, rank: int) -> bool:
        """True iff homology is torsion-free, rank ``rank`` in ``dim`` and
        zero elsewhere. rank 0 means contractible-like (all zero)."""
        if not self.is_free():
            return False
        for i, r in self.ranks.items():
            expect = rank if i == dim else 0
            if r != expect:
                return False
        return True

    def to_json_obj(self):
        return [
            {"dim": i, "rank": self.ranks[i], "torsion": list(self.torsion.get(i, ()))}
            for i in sorted(self.ranks)
        ]


def _groups(sizes: list[int], snfs: list) -> tuple[dict, dict]:
    """Free ranks and torsion of H~_i for i = -1..len(snfs) - 1 of a chain
    complex whose C_i has rank ``sizes[i + 1]`` and whose ∂_i, for i >= 0,
    has Smith diagonal and rank ``snfs[i]``; C_{-1} is the empty face alone."""
    ranks = {}
    torsion = {}
    for i in range(-1, len(snfs)):
        r_in = snfs[i][1] if i >= 0 else 0
        diag, r_out = snfs[i + 1] if i + 1 < len(snfs) else ((), 0)
        ranks[i] = sizes[i + 1] - r_in - r_out
        torsion[i] = tuple(d for d in diag if d > 1)
    return ranks, torsion


def _chain_snfs(faces: list[list[int]]) -> list:
    """Smith diagonal and rank of the boundary map from each face list in
    ``faces`` to the one before it, reduced from the lowest up.

    The rows of each map at the unit-pivot columns of the map below are
    deleted first. Splitting off those pivots of ∂_i changes the basis of
    C_i only by adding pivot cells to other cells, so in the new bases ∂_i
    splits into ±1 on each pivot cell and a block on the other cells, whose
    coordinates are unchanged. The pivot coordinates vanish on ker ∂_i,
    which holds the image of ∂_(i+1), so deleting these rows keeps the rank
    and the Smith diagonal of ∂_(i+1), torsion included: the "clearing" of
    Chen and Kerber, "Persistent homology computation with a twist" (EuroCG
    2011)."""
    snfs = []
    rows = faces[0]
    for cols in faces[1:]:
        units = []
        snfs.append(smith_normal_form(_boundary(rows, cols), units))
        cleared = set(units)
        rows = [f for i, f in enumerate(cols) if i not in cleared]
    return snfs


def _primal_groups(cx: SimplicialComplex) -> tuple[dict, dict]:
    """Free ranks and torsion of H~_i(cx) for i = -1..dim, computed on cx."""
    faces = _primal_faces(cx)
    return _groups([len(f) for f in faces], _chain_snfs(faces))


def _dual_faces(levels: list[list[int]]) -> list[list[int]]:
    """The face lists whose maps a small dual reduces: the sets one vertex
    smaller than some set of the first level, then ``levels``."""
    rows = sorted({m & ~(1 << v) for m in levels[0] for v in bits(m)}, key=to_tuple) if levels else []
    return [rows] + levels


def _dual_groups(n: int, s0: int, levels: list[list[int]]) -> tuple[dict, dict]:
    """The groups of D, the complex on n vertices that holds every set of
    size below s0 and then the faces of size s0, s0 + 1, ... in ``levels``.

    D's (s0 - 2)-skeleton is that of the simplex, whose reduced chain
    complex is exact, so rank ∂_i = C(n - 1, i) for i <= s0 - 2 with no
    torsion. Smith reduction runs from ∂_{s0-1} up; the rows of ∂_{s0-1}
    are the (s0 - 1)-sets that some face of size s0 holds, since the other
    rows are zero."""
    return _groups(
        [comb(n, s) for s in range(s0)] + [len(level) for level in levels],
        [((), comb(n - 1, i)) for i in range(s0 - 1)] + _chain_snfs(_dual_faces(levels)),
    )


def _shifted_groups(n: int, top: int, dual_groups: tuple[dict, dict]) -> tuple[dict, dict]:
    """The groups of H~_i(Δ) for i = -1..top from ``dual_groups``, those of
    the Alexander dual of Δ over a set of n vertices that holds Δ's support.

    Over that vertex set, H~_i(Δ; Z) is isomorphic to
    H~^(n-i-3)(Δ^∨; Z) (Björner and Tancer, "Combinatorial Alexander duality
    -- a short and elementary proof", DCG 2009). By universal coefficients
    the free rank of H~_i(Δ) is β_(n-i-3)(Δ^∨) and its torsion is the torsion
    of H~_(n-i-4)(Δ^∨).
    """
    dual_ranks, dual_torsion = dual_groups
    dims = range(-1, top + 1)
    return (
        {i: dual_ranks.get(n - i - 3, 0) for i in dims},
        {i: dual_torsion.get(n - i - 4, ()) for i in dims},
    )


def reduced_homology(cx: SimplicialComplex) -> HomologyReport:
    """Reduced integer homology, computed on the smaller Alexander-dual side.

    The dual has exactly 2^n - |Δ| faces over the n vertices of Δ's facets.
    It is used when it has fewer faces than Δ, as the complex's dual memo
    (``SimplicialComplex._dual_levels``) holds it: the sets below size s0
    are counted, not listed, and need no Smith reduction. ``side`` names
    the memo's start (see ``HomologyReport``); ties and the full simplex,
    whose dual is void, stay "primal". Duality is taken over the complex's
    own n vertices, since over an ambient vertex in no facet the dual is
    never the smaller side.
    """
    if cx.is_void:
        raise ValueError("the void complex has no homology")
    dual = cx._dual_levels()
    if dual is None:
        return HomologyReport(*_primal_groups(cx), side="primal")
    n = cx._support.bit_count()
    return HomologyReport(*_shifted_groups(n, cx.dim, _dual_groups(n, *dual)), side=cx._side)
