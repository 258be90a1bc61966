"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when it completes, so running
``pytest -s tests/test_acceptance.py`` doubles as a verification report.
All expected values are exact; no tolerances apply anywhere.
"""

import random
from math import comb

from cutcomplex import (
    connected_kset_census,
    cut_complex,
    cycle_lex_order,
    disjoint_union,
    element_matching_sequence,
    facets_via_ridges,
    family,
    find_shelling,
    from_facets,
    graph_join,
    induced_subgraph,
    is_chordal,
    prism_matching_order,
    realize_as_cut_complex,
    reduced_homology,
    restricted_matching,
    skeleton_condition_euler,
    to_tuple,
    verify_acyclic_and_critical,
    verify_shelling_order,
    wedge,
)
from conftest import RP2_FACETS, random_chordal, random_forest, random_graph


def _passed(name):
    print(f"\nPASS {name}")


def _euler_consistent(g, k, cx, rep):
    """Criterion 11 helper, applied throughout the suite."""
    assert rep.euler() == cx.reduced_euler()
    if 2 <= k <= g.n - 1 and not cx.is_void:
        holds, mu = skeleton_condition_euler(g, cx)
        if holds:
            assert mu == cx.reduced_euler() == rep.euler()


def test_criterion_1_mobius_strip():
    g = family("cycle:5")
    cx = cut_complex(g, 2)
    assert set(cx.facet_tuples()) == {
        (1, 3, 4), (0, 1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4)
    }
    rep = reduced_homology(cx)
    assert rep.free_concentrated(1, 1)
    assert find_shelling(cx).verdict == "not_shellable"
    _euler_consistent(g, 2, cx, rep)
    _passed("criterion 1: 2-cut complex of the 5-cycle (facets, homology, non-shellability)")


def test_criterion_2_bipartite_betti():
    for m in range(2, 7):
        for n in range(m, 7):
            g = family(f"complete_multipartite:{m},{n}")
            for k in range(2, m + 1):
                cx = cut_complex(g, k)
                rep = reduced_homology(cx)
                want = comb(m - 1, k - 1) * comb(n - 1, k - 1)
                assert rep.free_concentrated(m + n - 2 * k, want), (m, n, k)
                _euler_consistent(g, k, cx, rep)
    _passed("criterion 2: bipartite Betti numbers for 2 <= k <= m <= n <= 6")


def _partitions_at_least_two_parts(total):
    def gen(rest, smallest):
        if rest == 0:
            yield ()
        for part in range(smallest, rest + 1):
            for tail in gen(rest - part, part):
                yield (part,) + tail

    for s in range(2, total + 1):
        for parts in gen(s, 1):
            if len(parts) >= 2:
                yield parts


def test_criterion_3_multipartite_shellability_boundary():
    for parts in _partitions_at_least_two_parts(8):
        spec = "complete_multipartite:" + ",".join(map(str, parts))
        g = family(spec)
        total = sum(parts)
        for k in range(2, total + 1):
            cert = find_shelling(cut_complex(g, k))
            expected = "shellable" if k > parts[-2] else "not_shellable"
            assert cert.verdict == expected, (parts, k, cert.verdict)
    _passed("criterion 3: multipartite shellability boundary for all partitions up to 8")


def test_criterion_4_cycle_shelling_and_betti():
    for n in range(5, 10):
        g = family(f"cycle:{n}")
        for k in range(3, n - 1):
            order = cycle_lex_order(n, k)
            cx = cut_complex(g, k)
            ok, _ = verify_shelling_order(cx, order)
            assert ok, (n, k)
            rep = reduced_homology(cx)
            assert rep.free_concentrated(n - k - 1, comb(n - 1, k - 1) - n), (n, k)
            _euler_consistent(g, k, cx, rep)
    _passed("criterion 4: cycle lexicographic shellings and Betti numbers, 5 <= n <= 9")


def test_criterion_5_forests():
    rng = random.Random(2024)
    trees_seen = 0
    for _ in range(50):
        n = rng.randint(3, 9)
        g = random_forest(rng, n)
        for k in range(2, n):
            cx = cut_complex(g, k)
            z = connected_kset_census(g, k)
            want = comb(n - 1, k - 1) - z
            rep = reduced_homology(cx)
            assert rep.free_concentrated(n - k - 1, want), (g.edges(), k)
            _euler_consistent(g, k, cx, rep)
        if g.edge_count == n - 1:
            trees_seen += 1
            rep2 = reduced_homology(cut_complex(g, 2))
            assert rep2.free_concentrated(0, 0)  # all Betti numbers vanish
    assert trees_seen >= 5
    _passed("criterion 5: 50 random forests (free homology, census rank, contractible trees)")


def test_criterion_6_prisms():
    for n in range(2, 6):
        for k in range(2, n + 1):
            g = family(f"prism:{n}")
            cx = cut_complex(g, k)
            mm = element_matching_sequence(cx, prism_matching_order(n, k))
            acyclic, census = verify_acyclic_and_critical(mm)
            want = comb(n - 1, k - 1)
            assert acyclic
            assert census == {2 * n - k - 2: want}, (n, k, census)
            rep = reduced_homology(cx)
            assert rep.free_concentrated(2 * n - k - 2, want), (n, k)
            _euler_consistent(g, k, cx, rep)
            if len(cx.facets) <= 20:
                assert find_shelling(cx).verdict == "not_shellable", (n, k)
    _passed("criterion 6: prism Morse censuses, homology, and non-shellability for n <= 5")


def test_criterion_7_torsion_via_realization():
    cx = from_facets(RP2_FACETS)
    g, k = realize_as_cut_complex(cx)
    assert (g.n, k) == (16, 13)
    assert is_chordal(g)[0]
    round_trip = cut_complex(g, k)
    assert round_trip == cx
    rep = reduced_homology(round_trip)
    assert rep.torsion_at(1) == (2,)
    assert all(rep.betti(i) == 0 for i in rep.ranks)
    assert all(not rep.torsion_at(i) for i in rep.ranks if i != 1)
    _passed("criterion 7: projective-plane realization round trip with Z/2 torsion")


def test_criterion_8_triangle_free_delta2():
    cases = []
    for n in range(5, 10):
        cases.append(family(f"cycle:{n}"))
    for m in range(2, 5):
        for n in range(m, 5):
            cases.append(family(f"complete_multipartite:{m},{n}"))
    cases.append(family("petersen"))
    for g in cases:
        e, n = g.edge_count, g.n
        mm = restricted_matching(g)
        acyclic, census = verify_acyclic_and_critical(mm)
        assert acyclic
        assert census == {n - 4: e - n + 1}, (n, e, census)
        rep = reduced_homology(cut_complex(g, 2))
        assert rep.free_concentrated(n - 4, e - n + 1)
    pet = family("petersen")
    rep = reduced_homology(cut_complex(pet, 2))
    assert rep.free_concentrated(6, 6)
    _passed("criterion 8: triangle-free 2-cut complexes (cycles, bipartite, Petersen)")


def _corpus(rng, count=30, max_n=7):
    out = []
    while len(out) < count:
        n = rng.randint(4, max_n)
        out.append(random_graph(rng, n, rng.choice([0.3, 0.5, 0.7])))
    return out


def test_criterion_9_structural_laws():
    rng = random.Random(99)
    corpus = _corpus(rng)

    for g in corpus:
        for k in range(2, g.n + 1):
            cx = cut_complex(g, k)
            # nesting (the void complex has an empty face set)
            assert cut_complex(g, k + 1).face_set() <= cx.face_set()
            # ridge recursion
            assert facets_via_ridges(cx, k) == list(cut_complex(g, k + 1).facets)
            # link identity over all faces of small complexes
            if not cx.is_void and len(cx.face_set()) <= 220:
                for w in cx.face_set():
                    sub = induced_subgraph(g, g.full_mask ^ w)
                    keep = to_tuple(g.full_mask ^ w)
                    pos = {v: i for i, v in enumerate(keep)}
                    link = cx.link(w)
                    relab = from_facets(
                        [tuple(pos[v] for v in to_tuple(f)) for f in link.facets]
                    )
                    assert relab == cut_complex(sub, k)

    small = [g for g in corpus if g.n <= 5][:8]
    for g1, g2 in zip(small, small[1:]):
        for k in (2, 3):
            v1 = find_shelling(cut_complex(g1, k)).verdict
            v2 = find_shelling(cut_complex(g2, k)).verdict
            # disjoint union law
            got = find_shelling(cut_complex(disjoint_union(g1, g2), k)).verdict
            assert (got == "shellable") == (v1 == "shellable" and v2 == "shellable")
            # join law: shellable iff one side void and the other shellable
            cx1, cx2 = cut_complex(g1, k), cut_complex(g2, k)
            gotj = find_shelling(cut_complex(graph_join(g1, g2), k)).verdict
            expectj = (cx1.is_void and v2 == "shellable") or (cx2.is_void and v1 == "shellable")
            assert (gotj == "shellable") == expectj
            # join facet decomposition
            cxj = cut_complex(graph_join(g1, g2), k)
            expected = {f | (g2.full_mask << g1.n) for f in cx1.facets} | {
                (f << g1.n) | g1.full_mask for f in cx2.facets
            }
            assert set(cxj.facets) == expected
            # wedge law
            gotw = find_shelling(cut_complex(wedge(g1, g2, 0, 0), k)).verdict
            assert (gotw == "shellable") == (v1 == "shellable" and v2 == "shellable")

    for _ in range(10):
        g = random_chordal(rng, rng.randint(4, 8))
        assert find_shelling(cut_complex(g, 3)).verdict == "shellable"

    for k in (4, 5):
        g = family(f"kayak:{k}")
        assert find_shelling(cut_complex(g, k)).verdict == "not_shellable"
        for v in range(g.n):
            sub = induced_subgraph(g, g.full_mask ^ (1 << v))
            cxs = cut_complex(sub, k)
            assert cxs.is_void or find_shelling(cxs).verdict == "shellable"
    _passed("criterion 9: structural laws on the random corpus plus kayak minimality")


def test_criterion_10_squared_cycles():
    for k in (3, 4, 5):
        n = k + 4
        g = family(f"squared_cycle:{n}")
        cx = cut_complex(g, k)
        expected = set()
        for i in range(n):
            for j in range(n):
                s = {i, (i + 1) % n, j, (j + 1) % n}
                if len(s) == 4 and (i + 2) % n not in s and (j + 2) % n not in s:
                    expected.add(tuple(sorted(s)))
        assert set(cx.facet_tuples()) == expected, k
        rep = reduced_homology(cx)
        assert rep.free_concentrated(1, 1), k
    _passed("criterion 10: squared-cycle facet structure and circle homology, k in {3,4,5}")


def test_criterion_11_euler_consistency_sweep():
    rng = random.Random(1234)
    for _ in range(12):
        g = random_graph(rng, rng.randint(4, 6), 0.5)
        for k in range(2, g.n):
            cx = cut_complex(g, k)
            if cx.is_void:
                continue
            rep = reduced_homology(cx)
            assert rep.euler() == cx.reduced_euler()
            holds, mu = skeleton_condition_euler(g, cx)
            if holds:
                assert mu == cx.reduced_euler() == rep.euler()
    _passed("criterion 11: Euler consistency (f-vector, Betti sum, census formula)")
