"""Command-line front end.

Subcommands construct cut complexes, compute homology, search shellings, run
Morse matchings, realize complexes as cut complexes, verify the family corpus
against the closed-form predictions, and print the squared-cycle experiment.

Human output uses 1-based vertex labels; JSON output is 0-based. Exit status:
0 success, 1 verification mismatch, 2 parse/usage failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from math import comb

from .bitsets import mask_of, masks_json, to_tuple
from .complexes import SimplicialComplex, relabel_densely
from .cuts import (
    NotCoveredError,
    cut_complex,
    predicted_betti,
    realize_as_cut_complex,
    skeleton_condition_euler,
)
from .graphs import (
    FAMILIES,
    Graph,
    family,
    is_chordal,
    parse_family,
    read_graph_text,
    write_graph_text,
)
from .homology import reduced_homology
from .morse import (
    element_matching_sequence,
    prism_matching_order,
    restricted_matching,
    tree_matching_order,
    verify_acyclic_and_critical,
)
from .shelling import DEFAULT_BUDGET, find_shelling

PARSE_ERROR = 2
MISMATCH = 1


class CliError(Exception):
    pass


def _load_graph(arg: str) -> tuple[Graph, str | None]:
    """The graph named by arg and its family name, or None for a graph file."""
    if os.path.isfile(arg):
        try:
            with open(arg) as fh:
                return read_graph_text(fh.read()), None
        except (OSError, ValueError) as e:
            raise CliError(f"cannot read graph file {arg}: {e}") from None
    return family(arg), parse_family(arg)[0]


def _facet_str(g: Graph, mask: int) -> str:
    labels = [g.label(v) for v in to_tuple(mask)]
    if all(len(s) == 1 for s in labels):
        return "".join(labels)
    return "{" + ",".join(labels) + "}"


def _emit(report: dict, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _json_record(texts: dict[str, str]) -> str:
    """The record whose values are the given JSON texts, written as
    ``json.dumps(..., sort_keys=True)`` writes a record."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in sorted(texts.items())) + "}"


def _homology_lines(rep, prefix=""):
    """One ``H~_i: rank ... torsion ...`` line per dimension with nonzero homology."""
    return [
        f"{prefix}H~_{i}: rank {rep.betti(i)}" + (f" torsion {list(rep.torsion_at(i))}" if rep.torsion_at(i) else "")
        for i in rep.nonzero_dims()
    ]


def _predict(spec: str, k: int, cx, rep):
    """The closed-form prediction for spec and whether the computed homology
    matches it; (None, True) when no closed form covers spec."""
    try:
        pred = predicted_betti(spec, k)
    except NotCoveredError:
        return None, True
    return pred, pred.matches(cx, rep)


def _formula_mu(g: Graph, cx):
    """(condition holds, formula mu) or (None, None) when out of range/void."""
    try:
        return skeleton_condition_euler(g, cx)
    except ValueError:
        return None, None


def cmd_build(args) -> int:
    g, _ = _load_graph(args.graph)
    cx = cut_complex(g, args.k)
    report = {
        "graph": args.graph,
        "n": g.n,
        "k": args.k,
        "facet_count": len(cx.facets),
        # every k-set is either connected or the complement of a facet
        "connected_kset_count": comb(g.n, args.k) - len(cx.facets),
    }
    lines = [f"graph: {args.graph} (n={g.n}, m={g.edge_count})", f"k: {args.k}"]
    if cx.is_void:
        report["f_vector"] = None
        report["mu"] = None
        lines.append("cut complex: void")
    else:
        fvec = cx.f_vector()
        report["f_vector"] = list(fvec)
        report["mu"] = cx.reduced_euler()
        if not args.json:  # one label string per facet: skip it when only JSON is printed
            lines.append(f"facets ({len(cx.facets)}): " + " ".join(_facet_str(g, f) for f in cx.facets))
        lines.append(f"f-vector (from dim -1): {fvec}")
        lines.append(f"reduced Euler characteristic: {report['mu']}")
    holds, mu_formula = _formula_mu(g, cx)
    report["skeleton_condition"] = holds
    report["mu_census_formula"] = mu_formula
    ok = not holds or mu_formula == report["mu"]
    if holds:
        lines.append(f"census formula {'agrees' if ok else 'MISMATCH'}: mu = {mu_formula}")
    if args.json:  # the facet list is only printed in the JSON record, written as text
        texts = {key: json.dumps(value, sort_keys=True) for key, value in report.items()}
        # "\0" marks where the facet text goes, as in cmd_morse, so that text
        # is written as it is, not copied into the record first
        texts["complex"] = '{"state": "void"}' if cx.is_void else _json_record(
            {"ambient": json.dumps(cx.ambient), "facets": "\0"})
        head, _, tail = _json_record(texts).partition("\0")
        sys.stdout.write(head)
        if not cx.is_void:
            sys.stdout.write(masks_json(cx.facets))
        sys.stdout.write(tail + "\n")
    else:
        print("\n".join(lines))
    return 0 if ok else MISMATCH


def cmd_homology(args) -> int:
    g, name = _load_graph(args.graph)
    cx = cut_complex(g, args.k)
    report = {"graph": args.graph, "n": g.n, "k": args.k}
    lines = [f"graph: {args.graph} (n={g.n})", f"k: {args.k}"]
    if cx.is_void:
        rep = None
        report["homology"] = None
        report["mu"] = None
        report["euler_consistent"] = None
        lines.append("cut complex: void (no homology)")
    else:
        rep = reduced_homology(cx)
        report["homology"] = rep.to_json_obj()
        report["mu"] = cx.reduced_euler()
        report["euler_consistent"] = rep.euler() == cx.reduced_euler()
        lines += _homology_lines(rep) or ["all reduced homology vanishes"]
    pred, ok = _predict(args.graph, args.k, cx, rep) if name else (None, True)
    report["predicted"] = pred.to_json_obj() if pred else None
    if pred:
        report["predicted_matches"] = ok
        lines.append(f"predicted: {pred.status} dim={pred.dim} count={pred.count} -> {'ok' if ok else 'MISMATCH'}")
    _emit(report, args.json, lines)
    return 0 if ok else MISMATCH


def cmd_shell(args) -> int:
    g, _ = _load_graph(args.graph)
    cx = cut_complex(g, args.k)
    cert = find_shelling(cx, budget=args.budget)
    report = {
        "graph": args.graph,
        "k": args.k,
        "certificate": cert.to_json_obj(),
    }
    lines = [f"graph: {args.graph}", f"k: {args.k}", f"verdict: {cert.verdict} (nodes explored: {cert.nodes})"]
    if cert.obstruction:
        dim, rank, torsion = cert.obstruction
        tors = f" torsion {list(torsion)}" if torsion else ""
        lines.append(f"obstruction: H~_{dim}: rank {rank}{tors} below the top dimension {cx.dim}")
    if cert.order and not args.json:
        lines.append("order: " + " ".join(_facet_str(g, mask_of(f)) for f in cert.order))
    _emit(report, args.json, lines)
    return 0


def _morse_matching(args, g: Graph, name: str | None):
    """The record's "order" value and the matching that ``--order`` names."""
    spec = args.order
    if spec == "restricted":
        if args.k != 2:
            raise CliError("the restricted matching targets k = 2")
        return spec, restricted_matching(g)
    if spec == "tree":
        if args.k != 2:
            raise CliError("the tree matching targets k = 2")
        order = tree_matching_order(g, 0)
    elif spec == "prism":
        if name != "prism":
            raise CliError("the prism order needs a prism:<n> graph argument")
        order = prism_matching_order(g.n // 2, args.k)
    else:
        try:
            order = tuple(int(x) for x in spec.split(","))
        except ValueError:
            raise CliError(f"bad --order {spec!r}: expected tree|prism|restricted|comma list") from None
    return list(order), element_matching_sequence(cut_complex(g, args.k), order)


def cmd_morse(args) -> int:
    g, name = _load_graph(args.graph)
    order, matching = _morse_matching(args, g, name)
    acyclic, census = verify_acyclic_and_critical(matching)
    report = {
        "graph": args.graph,
        "k": args.k,
        "order": order,
        "pairs": matching.pair_count(),
        "critical_census": {str(d): c for d, c in sorted(census.items())},
        "acyclic": acyclic,
    }
    if args.json:  # the pair list is only printed in the JSON record, written as text
        texts = {key: json.dumps(value, sort_keys=True) for key, value in report.items()}
        # "\0" marks where the pair text goes: json.dumps escapes it in any
        # value, so the record is joined once and written once
        texts["matching"] = _json_record({"critical_census": texts["critical_census"], "pairs": "\0"})
        head, tail = _json_record(texts).split("\0")
        sys.stdout.write("".join([head, *matching.pairs_json_parts(), tail, "\n"]))
        return 0
    print(f"graph: {args.graph}, k={args.k}")
    print(f"pairs: {matching.pair_count()}")
    print(f"critical cells by dimension: {dict(sorted(census.items())) or '{}'}")
    print(f"acyclic: {acyclic}")
    return 0


def cmd_realize(args) -> int:
    try:
        with open(args.complex) as fh:
            obj = json.load(fh)
        cx = SimplicialComplex.from_json_obj(obj)
    except (OSError, ValueError, RecursionError) as e:  # RecursionError: nesting too deep to decode
        raise CliError(f"cannot read complex JSON: {e}") from None
    g, k = realize_as_cut_complex(cx)
    round_trip = cut_complex(g, k) == relabel_densely(cx)
    chordal, _ = is_chordal(g)
    text = write_graph_text(g)
    report = {
        "n": g.n,
        "k": k,
        "edges": g.edges(),
        "graph_text": text,
        "round_trip_ok": round_trip,
        "chordal": chordal,
    }
    lines = [
        f"graph on {g.n} vertices with {g.edge_count} edges; k = {k}",
        f"round trip reproduces the complex: {round_trip}",
        f"graph is chordal: {chordal}",
        text.rstrip(),
    ]
    _emit(report, args.json, lines)
    return 0 if round_trip else MISMATCH


# ---------------------------------------------------------------------------
# verify: family corpus, one row per (family, k)

# rows: family spec, k, expected shellable
_TABLE1_SMALL = [
    ("edgeless:5", 2, True),
    ("edgeless:5", 3, True),
    ("edgeless:5", 4, True),
    ("complete:5", 2, True),
    ("complete_multipartite:3,4", 2, False),
    ("complete_multipartite:3,4", 3, False),
    ("complete_multipartite:3,4", 4, True),
    ("complete_multipartite:3,4", 5, True),
    ("complete_multipartite:2,2,2", 2, False),
    ("complete_multipartite:2,2,2", 3, True),
    ("cycle:5", 2, False),
    ("cycle:5", 3, True),
    ("cycle:6", 3, True),
    ("cycle:6", 4, True),
    ("cycle:7", 3, True),
    ("path:6", 2, True),
    ("path:6", 3, True),
    ("star:4", 2, True),
    ("star:4", 3, True),
    ("tree:0-1,1-2,2-3,3-4,2-5", 3, True),
    ("prism:3", 2, False),
    ("prism:3", 3, False),
    ("prism:4", 3, False),
    ("squared_cycle:7", 3, False),
    ("squared_cycle:8", 4, False),
    ("kayak:4", 4, False),
    ("kayak:5", 5, False),
    ("threshold:1011", 2, True),
    ("threshold:1011", 3, True),
    ("balloon:5,3", 3, True),
    ("figure_eight:4,4", 4, True),
    ("petersen", 2, False),
]


def _verify_row(spec, k, expect_shellable, budget):
    cx = cut_complex(family(spec), k)
    rep = None if cx.is_void else reduced_homology(cx)
    pred, match = _predict(spec, k, cx, rep)
    cert = find_shelling(cx, budget=budget, homology=rep)
    row = {"family": spec, "k": k, "predicted": pred.to_json_obj() if pred else None, "shelling": cert.verdict}
    detail = [] if match else ["betti mismatch"]
    if pred:
        row["betti_ok"] = match
    if rep is not None:
        row["euler_ok"] = rep.euler() == cx.reduced_euler()
        if not row["euler_ok"]:
            detail.append("euler mismatch")
    want = "shellable" if expect_shellable else "not_shellable"
    if cert.verdict != want:
        detail.append(f"shelling: expected {want}, got {cert.verdict}")
    row.update(ok=not detail, detail=detail)
    return row


def cmd_verify(args) -> int:
    if args.corpus != "table1-small":
        raise CliError(f"unknown corpus {args.corpus!r} (try table1-small)")
    rows = []
    status = 0
    for spec, k, shell in _TABLE1_SMALL:
        row = _verify_row(spec, k, shell, args.budget)
        rows.append(row)
        if not row["ok"]:
            status = MISMATCH
    if args.json:
        print(json.dumps({"corpus": args.corpus, "rows": rows, "ok": status == 0}, sort_keys=True))
    else:
        for row in rows:
            mark = "PASS" if row["ok"] else "FAIL"
            extra = f" ({'; '.join(row['detail'])})" if row["detail"] else ""
            print(f"{mark} {row['family']} k={row['k']}{extra}")
        print(("all rows pass" if status == 0 else "some rows FAILED"))
    return status


def cmd_experiment(args) -> int:
    if args.what != "squared-cycle":
        raise CliError("the only experiment is: squared-cycle")
    n, k = args.n, args.k
    g = family(f"squared_cycle:{n}")
    cx = cut_complex(g, k)
    report = {"n": n, "k": k}
    lines = [f"squared cycle on {n} vertices, k = {k}"]
    if cx.is_void:
        report["homology"] = None
        lines.append("cut complex: void")
    else:
        rep = reduced_homology(cx)
        report["homology"] = rep.to_json_obj()
        lines += _homology_lines(rep, "computed ")
    if n == k + 5 and 3 <= k <= 15:
        beta = (k - 3) * (k - 2) * (k + 5) // 6
        report["conjectured"] = {"dim3": 1, "dim4": beta}
        lines.append(f"conjectured (never asserted): H~_3 rank 1, H~_4 rank {beta}")
    elif k == 3 and n >= 9:
        beta = comb(n - 4, 2) - 9
        report["conjectured"] = {str(n - k - 1): beta}
        lines.append(f"conjectured (never asserted): wedge of {beta} spheres in dimension {n - k - 1}")
    else:
        report["conjectured"] = None
    _emit(report, args.json, lines)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cutcomplex",
        description="cut complexes of graphs: construction, homology, shellability, Morse matchings",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_graph_k(sp):
        sp.add_argument("graph", help=f"path to a text graph file, or a family DSL string such as cycle:7; "
                        f"families: {', '.join(sorted(FAMILIES))}")
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("build", help="facets, f-vector and Euler characteristic")
    add_graph_k(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("homology", help="reduced integer homology of the cut complex")
    add_graph_k(sp)
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("shell", help="search for a shelling order")
    add_graph_k(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.set_defaults(func=cmd_shell)

    sp = sub.add_parser("morse", help="element-matching Morse census")
    add_graph_k(sp)
    sp.add_argument("--order", required=True, help="tree | prism | restricted | comma-separated vertices (0-based)")
    sp.set_defaults(func=cmd_morse)

    sp = sub.add_parser("realize", help="realize a pure complex (JSON file) as a cut complex")
    sp.add_argument("complex", help="path to complex JSON")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("verify", help="run the family corpus against predictions")
    sp.add_argument("corpus")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("experiment", help="print computed homology next to conjectured values")
    sp.add_argument("what")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_experiment)
    return p


_PARSER = make_parser()  # built once: main runs many times in one process


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return PARSE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_ERROR


def entry() -> None:
    # a reader that closes the pipe early (``| head``) ends the process as it
    # ends other filters, not with a traceback and the mismatch exit code
    sigpipe = getattr(signal, "SIGPIPE", None)
    if sigpipe is not None:
        signal.signal(sigpipe, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
