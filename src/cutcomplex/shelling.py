"""Shelling verification and search for pure simplicial complexes.

A facet order F_1..F_t is a shelling when for every i < j some earlier F_k
meets F_j in exactly |F_j| - 1 vertices with F_i ∩ F_j inside F_k ∩ F_j.
``verify_shelling_order`` checks that pairwise criterion directly;
``find_shelling`` decides shellability with certificates: an accepted order,
a homology obstruction, a proof-of-exhaustion, or a budget-exceeded marker.

``find_shelling`` tries three things in turn. First, the ascending facet
order, which is often already a shelling, decided in one pass over the
facets: the ridges seen so far give each restriction set, and only a facet
with two or more new ridges has it tested against the facets before it.
Second, a homology obstruction: a shellable pure d-complex is homotopy
equivalent to a wedge of d-spheres (Björner, "Topological methods", Handbook
of Combinatorics 1995), so a nonzero H̃_i with i < d, or any torsion, proves
it is not shellable. Only if the homology is clean does the search run.

The search decides a candidate F_j by its restriction set against the placed
prefix P (Björner 1995): R = {v in F_j : the ridge F_j - v lies in a facet of
P}, and F_j may follow P iff no facet of P contains R. Its restriction rows,
t-bit masks of the facets per ridge and per vertex, are built only when the
search runs; no table over facet pairs is built. The search loops over an
explicit stack, so it never meets the recursion limit.

Key soundness point: whether an order can be extended depends only on the
*set* of facets placed so far, so failed prefix sets are memoized. A "not
shellable" verdict from the search needs the full search tree exhausted
within budget; no symmetry reduction is applied, as an unsound one would void
that certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bitsets import bits, mask_of, to_tuple, vertex_holders
from .complexes import SimplicialComplex
from .graphs import family
from .cuts import cut_complex
from .homology import HomologyReport, reduced_homology

DEFAULT_BUDGET = 10_000_000


class Obstruction(NamedTuple):
    """The lowest nonzero reduced homology group below the top dimension."""

    dim: int
    rank: int
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class ShellingCertificate:
    verdict: str  # "shellable" | "not_shellable" | "unknown"
    order: tuple[tuple[int, ...], ...] | None
    nodes: int
    void_input: bool = False
    obstruction: Obstruction | None = None

    def to_json_obj(self):
        obj = {
            "verdict": self.verdict,
            "order": [list(f) for f in self.order] if self.order is not None else None,
            "nodes": self.nodes,
            "void_input": self.void_input,
        }
        if self.obstruction is not None:
            dim, rank, torsion = self.obstruction
            obj["obstruction"] = {"dim": dim, "rank": rank, "torsion": list(torsion)}
        return obj


def _facet_permutation(cx: SimplicialComplex, order):
    masks = [mask_of(f) for f in order]
    if sorted(masks) != sorted(cx.facets):
        raise ValueError("order is not a permutation of the facets")
    return masks


def verify_shelling_order(cx: SimplicialComplex, order) -> tuple[bool, tuple[int, int] | None]:
    """Check the pairwise criterion; on rejection also return the first
    failing (i, j) pair of positions."""
    if not cx.is_pure:
        raise ValueError("shelling is only defined here for pure complexes")
    masks = _facet_permutation(cx, order)
    for j in range(1, len(masks)):
        fj = masks[j]
        ridge = fj.bit_count() - 1
        covers = [masks[k] & fj for k in range(j) if (masks[k] & fj).bit_count() == ridge]
        for i in range(j):
            inter = masks[i] & fj
            if not any(inter & ~c == 0 for c in covers):
                return False, (i, j)
    return True, None


def _restriction_rows(facets) -> list:
    """Per facet F_j, a pair (facets containing F_j - v, facets containing v) per v in F_j."""
    sharers = {}  # ridge -> bitmask of the facets containing it
    for j, f in enumerate(facets):
        for v in bits(f):
            sharers[f ^ 1 << v] = sharers.get(f ^ 1 << v, 0) | 1 << j
    holders = vertex_holders(facets)
    return [[(sharers[f ^ 1 << v], holders[v]) for v in bits(f)] for f in facets]


def _shells(facets) -> bool:
    """Whether the facets, in the given order, are a shelling: no facet
    before F_j holds its restriction set R_j, for every j (Björner 1995).

    One pass keeps the set of ridges seen so far; R_j is the set of v in
    F_j whose ridge F_j - v was seen. When at most one ridge of F_j is new,
    R_j is F_j or that new ridge, which no earlier facet holds, so only
    facets with two or more new ridges are tested: the facets holding each
    vertex of R_j, from ``vertex_holders``, are intersected until none
    before F_j is left. So the cost follows the facets, not the faces: n
    ints of t bits and at most |R_j| ANDs per facet."""
    seen: set[int] = set()  # ridges of the facets so far
    holders = vertex_holders(facets)
    for j, f in enumerate(facets):
        ridges = {f ^ 1 << v for v in to_tuple(f)}
        new = ridges - seen
        seen |= new
        if len(new) < 2:
            continue
        common = (1 << j) - 1  # the facets before F_j that hold R_j
        for r in ridges - new:  # F_j - v for the v in R_j
            common &= holders[(f ^ r).bit_length() - 1]
            if not common:
                break
        if common:
            return False
    return True


def _blocked(row, prefix: int) -> int:
    """Bitmask of the facets of ``prefix`` that contain R, given F_j's ``_restriction_rows`` row."""
    # F_i ∩ F_j lies in the ridge F_j - v iff v ∉ F_i, so F_i has a witness in
    # the prefix iff some v in R misses F_i: the pairwise criterion, per facet.
    common = prefix
    for sharers, holders in row:
        if sharers & prefix:
            common &= holders
    return common


def _homology_obstruction(cx: SimplicialComplex, rep: HomologyReport | None = None) -> Obstruction | None:
    """The lowest H̃_i with i < dim that has nonzero rank or torsion, or None.
    ``rep`` is the homology of ``cx``, computed here when None.

    A shellable pure complex is a wedge of top-dimensional spheres, so any
    such group proves ``cx`` not shellable. H̃_dim is always free, being a
    subgroup of the top chain group."""
    if rep is None:
        rep = reduced_homology(cx)
    for i in range(-1, cx.dim):
        if rep.betti(i) or rep.torsion_at(i):
            return Obstruction(i, rep.betti(i), rep.torsion_at(i))
    return None


def find_shelling(
    cx: SimplicialComplex, budget: int = DEFAULT_BUDGET, homology: HomologyReport | None = None
) -> ShellingCertificate:
    """Shell ``cx`` by the ascending facet order if ``_shells`` accepts it;
    otherwise return ``not_shellable`` with a homology obstruction and 0
    nodes if one exists (Björner 1995); otherwise build the restriction rows
    and search facet prefixes depth first by the restriction-set test, within
    ``budget`` nodes.

    ``homology`` is ``reduced_homology(cx)`` when the caller already has it;
    without it the homology is computed only if the ascending order fails."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if cx.is_void:
        return ShellingCertificate("shellable", (), 0, void_input=True)
    if not cx.is_pure:
        raise ValueError("shelling search requires a pure complex")
    facets = cx.facets
    if _shells(facets):
        return ShellingCertificate("shellable", tuple(to_tuple(f) for f in facets), 0)
    obstruction = _homology_obstruction(cx, homology)
    if obstruction is not None:
        return ShellingCertificate("not_shellable", None, 0, obstruction=obstruction)
    return _search(facets, _restriction_rows(facets), budget)


def _search(facets, rows, budget: int) -> ShellingCertificate:
    """Depth-first search over facet prefixes; equivalent prefixes are
    detected by facet set. ``rows`` is ``_restriction_rows(facets)``."""
    t = len(facets)
    failed: set[int] = set()  # facet-index bitmasks of prefixes that cannot be completed
    order: list[int] = []  # facet indices placed so far
    nodes = prefix = start = 0  # prefix: bitmask of order; start: first index the next scan tries
    while len(order) < t:
        for j in range(start, t):
            jbit = 1 << j
            nxt = prefix | jbit
            if prefix & jbit or nxt in failed or _blocked(rows[j], prefix):
                continue
            nodes += 1
            if nodes > budget:
                return ShellingCertificate("unknown", None, nodes)
            order.append(j)
            prefix = nxt
            start = 0
            break
        else:
            # no facet extends this prefix: backtrack past its last facet
            if not order:
                return ShellingCertificate("not_shellable", None, nodes)
            failed.add(prefix)
            j = order.pop()
            prefix ^= 1 << j
            start = j + 1
    return ShellingCertificate("shellable", tuple(to_tuple(facets[j]) for j in order), nodes)


def cycle_lex_order(n: int, k: int) -> list[tuple[int, ...]]:
    """Separating (n-k)-sets of the n-cycle as increasing vertex sequences in
    lexicographic order; this order is a shelling for k >= 3.

    k = 2 is rejected: the 2-cut complex of a cycle is never shellable for
    n >= 4. k = n-1 gives the void complex (empty order).
    """
    if n < 4:
        raise ValueError("cycle shelling order needs n >= 4")
    if k == 2:
        raise ValueError("the lexicographic order only shells k >= 3")
    if not (3 <= k <= n - 1):
        raise ValueError("need 3 <= k <= n-1")
    return sorted(cut_complex(family(f"cycle:{n}"), k).facet_tuples())
