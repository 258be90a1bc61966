"""Seeded job lists for the four benchmark workloads, and their answer checks.

A job is one or two ``cutcomplex`` CLI calls plus a check of their JSON
output against an answer known without running the program's own search:
closed-form Betti numbers, Morse census formulas, a shelling re-check, or the
homology of a complex built by hand. A check raises ``JobFailed`` on a wrong
answer.

A pass runs each kind of job once, so every kind weighs the same, and the
benchmark's passes provide the repetition. Every seed draws the same kinds
from the same families and size ranges; the seed relabels vertices, draws
the random trees and triangle-free graphs, and shuffles the order. Graph and
complex inputs the CLI cannot name by a family string are written as files
under the run's output directory, so the program sees only the generated
inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable


class JobFailed(Exception):
    """The program's output is wrong or malformed."""


@dataclass
class Job:
    label: str
    # argv lists (without --json), or callables mapping the outputs so far to
    # the next argv; a callable runs outside the timed region
    steps: list
    check: Callable[[list], None]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise JobFailed(message)


def _write_graph(path: Path, n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _relabelled_edges(rng: random.Random, graph) -> list[tuple[int, int]]:
    perm = list(range(graph.n))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges()]
    rng.shuffle(edges)
    return edges


# ---------------------------------------------------------------------------
# homology: SNF-bound jobs on families with a closed-form oracle

# (family, k): n = 10, about 0.15 s each, then n = 11, about 0.7 s each
HOMOLOGY_FULL = [
    ("petersen", 2), ("cycle:10", 2), ("cycle:10", 3), ("path:10", 3),
    ("prism:5", 2), ("prism:5", 3), ("complete_multipartite:5,5", 2),
    ("complete_multipartite:3,3,4", 2), ("balloon:6,5", 3), ("balloon:6,5", 4),
    ("figure_eight:5,6", 3),
    ("cycle:11", 2), ("cycle:11", 3), ("path:11", 3), ("path:11", 4),
    ("complete_multipartite:5,6", 2), ("complete_multipartite:3,4,4", 2),
    ("balloon:6,6", 4), ("balloon:7,5", 4), ("figure_eight:6,6", 3),
]
HOMOLOGY_TINY = [("cycle:6", 2), ("path:6", 3), ("prism:3", 2), ("complete_multipartite:2,3", 2)]


def _check_homology(cc, spec: str, k: int):
    pred = cc.predicted_betti(spec, k)

    def check(outs):
        (out,) = outs
        if pred.status == "void":
            _expect(out["homology"] is None, "expected a void complex")
            return
        _expect(out["euler_consistent"] is True, "homology disagrees with the f-vector Euler characteristic")
        want_dim = pred.dim if pred.status == "wedge" else None
        for entry in out["homology"]:
            want = pred.count if entry["dim"] == want_dim else 0
            _expect(entry["rank"] == want and not entry["torsion"],
                    f"H~_{entry['dim']} = {entry['rank']} {entry['torsion']}, predicted rank {want}")
        if want_dim is not None:
            _expect(any(e["dim"] == want_dim for e in out["homology"]), f"no H~_{want_dim} reported")
            sign = -1 if want_dim % 2 else 1
            _expect(out["mu"] == sign * pred.count, "mu disagrees with the predicted sphere count")

    return check


def homology_jobs(cc, rng: random.Random, outdir: Path, size: str) -> list[Job]:
    picks = list(HOMOLOGY_TINY if size == "tiny" else HOMOLOGY_FULL)
    rng.shuffle(picks)
    return [
        Job(f"homology {spec} --k {k}", [["homology", spec, "--k", str(k)]], _check_homology(cc, spec, k))
        for spec, k in picks
    ]


# ---------------------------------------------------------------------------
# shell: search-bound jobs with known verdicts

SEARCH_BUDGET = 1_000_000  # above every exhaustive proof below
BOUND_BUDGET = 5_000  # the budget-bound jobs stop here

# (family, k, known verdict or None, budget-bound)
SHELL_FULL = [
    # exhaustive non-shellability proofs
    ("prism:4", 3, "not_shellable", False),  # 54,776 nodes
    ("cycle:8", 2, "not_shellable", False),
    ("cycle:7", 2, "not_shellable", False),
    ("squared_cycle:7", 3, "not_shellable", False),
    # a search that hits the budget
    ("squared_cycle:9", 4, None, True),
    # a shelling found by search
    ("squared_cycle:9", 3, "shellable", False),
    # shellings that the ascending-order shortcut finds
    ("cycle:10", 4, "shellable", False),
    ("cycle:9", 3, "shellable", False),
    ("path:9", 4, "shellable", False),
    ("path:10", 3, "shellable", False),
    ("cycle:11", 5, "shellable", False),
]
SHELL_TINY = [
    ("cycle:6", 2, "not_shellable", False),
    ("squared_cycle:9", 4, None, True),
    ("squared_cycle:7", 3, "not_shellable", False),
    ("cycle:7", 3, "shellable", False),
]


def _check_shell(cc, spec: str, k: int, known, bound: bool):
    def check(outs):
        (out,) = outs
        cert = out["certificate"]
        verdict = cert["verdict"]
        if verdict == "unknown":
            _expect(bound, "search hit its budget on a job that should finish")
        elif known is not None:
            _expect(verdict == known, f"verdict {verdict}, known answer {known}")
        if verdict == "shellable":
            cx = cc.cut_complex(cc.family(spec), k)
            ok, bad = cc.verify_shelling_order(cx, [tuple(f) for f in cert["order"]])
            _expect(ok, f"returned order is not a shelling (pair {bad})")

    return check


def shell_jobs(cc, rng: random.Random, outdir: Path, size: str) -> list[Job]:
    picks = list(SHELL_TINY if size == "tiny" else SHELL_FULL)
    rng.shuffle(picks)
    jobs = []
    for spec, k, known, bound in picks:
        budget = BOUND_BUDGET if bound else SEARCH_BUDGET
        argv = ["shell", spec, "--k", str(k), "--budget", str(budget)]
        jobs.append(Job(" ".join(argv), [argv], _check_shell(cc, spec, k, known, bound)))
    return jobs


# ---------------------------------------------------------------------------
# construct: k-set enumeration, faces, Morse matchings and large JSON

# relabelled families for `build`: (family, k)
BUILD_FULL = [("cycle:16", 4), ("cycle:15", 4), ("path:15", 4), ("figure_eight:8,8", 4),
              ("cycle:14", 3), ("prism:7", 3), ("balloon:10,5", 4), ("complete_multipartite:7,7", 3)]
# morse jobs: (order, vertex count or prism size, k)
MORSE_FULL = [("tree", 14, 2), ("tree", 15, 2), ("tree", 16, 2), ("prism", 7, 2), ("prism", 7, 3),
              ("restricted", 14, 2), ("restricted", 15, 2)]
BUILD_TINY = [("cycle:7", 3), ("path:7", 2)]
MORSE_TINY = [("tree", 7, 2), ("prism", 4, 3), ("restricted", 7, 2)]


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted((perm[rng.randrange(v)], perm[v]))) for v in range(1, n)]


def random_triangle_free_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A connected triangle-free graph with ``extra`` edges beyond a spanning
    tree, so that it is not a tree."""
    edges = set(random_tree_edges(rng, n))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    added = 0
    for u, v in candidates:
        if added == extra:
            break
        if v in adj[u] or adj[u] & adj[v]:
            continue
        edges.add((u, v))
        adj[u].add(v)
        adj[v].add(u)
        added += 1
    if added != extra:
        raise RuntimeError("could not add the requested triangle-free edges")
    return sorted(edges)


def _check_build(cc, spec: str, k: int, n: int):
    pred = cc.predicted_betti(spec, k)

    def check(outs):
        (out,) = outs
        fvec = out["f_vector"]
        _expect(fvec is not None and out["n"] == n, "expected a nonvoid complex on the generated graph")
        _expect(out["facet_count"] == comb(n, k) - out["connected_kset_count"],
                "facet count is not C(n,k) minus the connected k-sets")
        _expect(fvec[-1] == out["facet_count"] == len(out["complex"]["facets"]), "f-vector top entry is not the facet count")
        mu = sum(c if size % 2 else -c for size, c in enumerate(fvec))
        _expect(out["mu"] == mu, "mu is not the alternating f-vector sum")
        if out["skeleton_condition"]:
            _expect(out["mu_census_formula"] == mu, "census formula disagrees with mu")
        if pred.status == "wedge":
            _expect(mu == (-1 if pred.dim % 2 else 1) * pred.count, "mu disagrees with the closed-form Betti number")

    return check


def _check_morse(want_census: dict):
    def check(outs):
        (out,) = outs
        _expect(out["acyclic"] is True, "matching is not acyclic")
        _expect(out["critical_census"] == want_census,
                f"critical census {out['critical_census']}, expected {want_census}")
        _expect(out["pairs"] == len(out["matching"]["pairs"]), "pair count disagrees with the matching")

    return check


def construct_jobs(cc, rng: random.Random, outdir: Path, size: str) -> list[Job]:
    tiny = size == "tiny"
    jobs = []
    for i, (spec, k) in enumerate(BUILD_TINY if tiny else BUILD_FULL):
        g = cc.family(spec)
        path = _write_graph(outdir / f"build-{i}.txt", g.n, _relabelled_edges(rng, g))
        jobs.append(Job(f"build {spec} (relabelled) --k {k}", [["build", path, "--k", str(k)]],
                        _check_build(cc, spec, k, g.n)))
    for i, (order, n, k) in enumerate(MORSE_TINY if tiny else MORSE_FULL):
        if order == "prism":
            argv = ["morse", f"prism:{n}", "--k", str(k), "--order", "prism"]
            census = {str(2 * n - k - 2): comb(n - 1, k - 1)}
            label = f"morse prism:{n} --k {k} --order prism"
        else:
            if order == "tree":
                edges = random_tree_edges(rng, n)
                census = {}
            else:
                edges = random_triangle_free_edges(rng, n, extra=2)
                census = {str(n - 4): len(edges) - n + 1}
            path = _write_graph(outdir / f"morse-{i}.txt", n, edges)
            argv = ["morse", path, "--k", str(k), "--order", order]
            label = f"morse <{order} graph, n={n}> --k {k} --order {order}"
        jobs.append(Job(label, [argv], _check_morse(census)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# realize: hand-built pure complexes with known homology

# A complex is (vertex count, facets, reduced homology); the homology maps a
# dimension to (free rank, torsion coefficients) and lists nonzero groups only.


def boundary_sphere(m: int):
    """Boundary of the m-simplex: the (m-1)-sphere on m+1 vertices."""
    return m + 1, [tuple(f) for f in combinations(range(m + 1), m)], {m - 1: (1, ())}


def points(p: int):
    return p, [(i,) for i in range(p)], {0: (p - 1, ())}


RP2 = (6, [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
           (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)], {1: (0, (2,))})
# Moebius' 7-vertex torus
TORUS = (7, sorted({tuple(sorted((i, (i + a) % 7, (i + 3) % 7))) for i in range(7) for a in (1, 2)}),
         {1: (2, ()), 2: (1, ())})


def cone(cx):
    nv, facets, _ = cx
    return nv + 1, [f + (nv,) for f in facets], {}


def join(x, y):
    """Join of two complexes; ``y`` must be torsion-free, so that
    H~_{r+1}(x * y) is the sum over i + j = r of H~_i(x) (x) H~_j(y)."""
    nx, fx, hx = x
    ny, fy, hy = y
    if any(tors for _, tors in hy.values()):
        raise ValueError("the join formula here needs a torsion-free second factor")
    hom: dict = {}
    for i, (rank_x, tors_x) in hx.items():
        for j, (rank_y, _) in hy.items():
            rank, tors = hom.get(i + j + 1, (0, ()))
            hom[i + j + 1] = (rank + rank_x * rank_y, tuple(sorted(tors + tors_x * rank_y)))
    return nx + ny, [a + tuple(ny_v + nx for ny_v in b) for a in fx for b in fy], hom


def suspension(cx):
    return join(cx, points(2))


# each realizes on 10-28 vertices: vertex count plus facet count
REALIZE_FULL = [
    ("S3", boundary_sphere(4)), ("S4", boundary_sphere(5)), ("points5", points(5)),
    ("octahedron", join(join(points(2), points(2)), points(2))),
    ("S1*S1", join(boundary_sphere(2), boundary_sphere(2))),
    ("points3*S1", join(points(3), boundary_sphere(2))), ("K33", join(points(3), points(3))),
    ("susp points4", suspension(points(4))), ("cone S3", cone(boundary_sphere(4))),
    ("RP2", RP2), ("cone RP2", cone(RP2)), ("susp RP2", suspension(RP2)),
    ("torus", TORUS), ("cone torus", cone(TORUS)), ("susp K33", suspension(join(points(3), points(3)))),
]
REALIZE_TINY = [("S1", boundary_sphere(2)), ("points3", points(3)), ("RP2", RP2)]


def _check_realize(nv: int, facet_count: int, dim: int, hom: dict):
    want = {d: (rank, list(tors)) for d, (rank, tors) in hom.items() if rank or tors}

    def check(outs):
        real, homology = outs
        _expect(real["round_trip_ok"] is True and real["chordal"] is True,
                "realization does not round-trip to a chordal graph")
        _expect(real["n"] == nv + facet_count and real["k"] == real["n"] - dim - 1,
                "realization has the wrong vertex count or k")
        _expect(homology["euler_consistent"] is True, "homology disagrees with the Euler characteristic")
        got = {e["dim"]: (e["rank"], e["torsion"]) for e in homology["homology"] if e["rank"] or e["torsion"]}
        _expect(got == want, f"reduced homology {got}, expected {want}")

    return check


def _homology_step(path: Path):
    def step(outs):
        real = outs[0]
        path.write_text(real["graph_text"])
        return ["homology", str(path), "--k", str(real["k"])]

    return step


def realize_jobs(cc, rng: random.Random, outdir: Path, size: str) -> list[Job]:
    rows = REALIZE_TINY if size == "tiny" else REALIZE_FULL
    jobs = []
    for i, (name, (nv, facets, hom)) in enumerate(rows):
        perm = list(range(nv))
        rng.shuffle(perm)
        relabelled = [sorted(perm[v] for v in f) for f in facets]
        rng.shuffle(relabelled)
        src = outdir / f"complex-{i}.json"
        src.write_text(json.dumps({"facets": relabelled, "ambient": nv}))
        dim = len(facets[0]) - 1
        jobs.append(Job(f"realize {name} (relabelled), then homology", [
            ["realize", str(src)], _homology_step(outdir / f"realized-{i}.txt")],
            _check_realize(nv, len(facets), dim, hom)))
    rng.shuffle(jobs)
    return jobs


# The percentile job_ms.tail reports. Passes repeat while time is left, so
# the number of job runs varies with the host's speed; a fixed percentile per
# workload keeps runs comparable. Each is the highest one with at least ten
# runs above it when the run fits one pass fewer than usual here (homology 2
# passes of 20 jobs, shell 13 of 11, construct 3 of 15, realize 43 of 15),
# set away from the boundary between two kinds of job.
TAIL_PERCENTILE = {"homology": 72, "shell": 93, "construct": 77, "realize": 98}

WORKLOADS = {
    "homology": homology_jobs,
    "shell": shell_jobs,
    "construct": construct_jobs,
    "realize": realize_jobs,
}
