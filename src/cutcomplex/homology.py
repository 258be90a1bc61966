"""Reduced simplicial homology over the integers.

Boundary matrices are assembled from the face lists of a complex (including
the empty face, so homology is reduced), and diagonalized by Smith normal
form. Free ranks come from the ranks of consecutive boundary maps; torsion
coefficients are the diagonal entries greater than one.

Everything is exact: the Smith reduction works on sparse rows of unbounded
Python ints, pivoting on the first unit entry. Boundary matrices and Smith
reduction run on whichever side of Alexander duality has fewer faces; for
cut complexes that is usually the dual. The side is decided without listing
a face of the larger side. A small dual is held as a complete skeleton
below some size s0 plus listed levels from s0 up: the skeleton is counted,
not listed, its boundary ranks are binomial coefficients, and Smith
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


def _snf_sparse(entries):
    """Exact reduction on dict-of-dicts rows with Python ints; returns the
    nonzero diagonal before it is put into divisibility order. The pivot is
    the first entry with |v| = 1 in row order, else the first of least |v|.
    Every step is a unimodular row or column operation, so any pivot order
    gives the same diagonal after ``_divisibility_chain``; a unit pivot is an
    algebraic Morse reduction (Sköldberg, TAMS 2006)."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    def row_sub(r2, r1, q):
        row1 = rows[r1]
        row2 = rows.setdefault(r2, {})
        for c, v in row1.items():
            nv = row2.get(c, 0) - q * v
            if nv:
                row2[c] = nv
                cols.setdefault(c, set()).add(r2)
            elif c in row2:
                del row2[c]
                cols[c].discard(r2)
        if not row2:
            del rows[r2]

    diag = []
    while rows:
        units = ((r, c, v) for r, row in rows.items() for c, v in row.items() if abs(v) == 1)
        every = ((r, c, v) for r, row in rows.items() for c, v in row.items())
        r, c, v = next(units, None) or min(every, key=lambda e: abs(e[2]))
        dirty = False
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            q = rows[r2][c] // v
            if q:
                row_sub(r2, r, q)
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


def smith_normal_form(m: IntMatrix) -> tuple[tuple[int, ...], int]:
    """Diagonal of the Smith normal form (padded with zeros to min(rows, cols))
    and the rank."""
    diag = _divisibility_chain(_snf_sparse(m.entries))
    rank = len(diag)
    diag += [0] * (min(m.nrows, m.ncols) - rank)
    return tuple(diag), rank


# ---------------------------------------------------------------------------
# boundary matrices and homology


def _boundary(rows: list[int], cols: list[int]) -> IntMatrix:
    """The boundary map from the faces ``cols`` to the faces ``rows``, which
    hold every facet of each column, with sign (-1)^j for dropping the j-th
    vertex of a column."""
    index = {f: i for i, f in enumerate(rows)}
    entries = {}
    for col, face in enumerate(cols):
        for j, v in enumerate(to_tuple(face)):
            entries[(index[face & ~(1 << v)], col)] = -1 if j % 2 else 1
    return IntMatrix(len(rows), len(cols), entries)


def boundary_matrices(cx: SimplicialComplex) -> list[IntMatrix]:
    """[∂_0, ..., ∂_dim] with ∂_i: C_i -> C_{i-1}; ∂_0 maps onto the empty
    face, so the homology computed from these is reduced."""
    if cx.is_void:
        raise ValueError("the void complex has no chain complex")
    by_dim = cx.faces_by_dim()
    return [_boundary(by_dim.get(d - 1, []), by_dim.get(d, [])) for d in range(cx.dim + 1)]


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


def _primal_groups(cx: SimplicialComplex) -> tuple[dict, dict]:
    """Free ranks and torsion of H~_i(cx) for i = -1..dim, computed on cx."""
    mats = boundary_matrices(cx)
    return _groups([1] + [m.ncols for m in mats], [smith_normal_form(m) for m in mats])


def _dual_groups(n: int, s0: int, levels: list[list[int]]) -> tuple[dict, dict]:
    """The groups of D, the complex on n vertices that holds every set of
    size below s0 and then the faces of size s0, s0 + 1, ... in ``levels``.

    D's (s0 - 2)-skeleton is that of the simplex, whose reduced chain
    complex is exact, so rank ∂_i = C(n - 1, i) for i <= s0 - 2 with no
    torsion. Smith reduction runs from ∂_{s0-1} up; the rows of ∂_{s0-1}
    are the (s0 - 1)-sets that some face of size s0 holds, since the other
    rows are zero."""
    rows = sorted({m & ~(1 << v) for m in levels[0] for v in bits(m)}, key=to_tuple) if levels else []
    mats = [_boundary(below, cols) for below, cols in zip([rows] + levels, levels)]
    return _groups(
        [comb(n, s) for s in range(s0)] + [len(level) for level in levels],
        [((), comb(n - 1, i)) for i in range(s0 - 1)] + [smith_normal_form(m) for m in mats],
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
