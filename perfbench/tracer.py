"""Outside-in tracing of ``cutcomplex``: spans and counters around the public
functions of each module, installed by rebinding module attributes.

Every ``cutcomplex.*`` module attribute that refers to a traced function is
rebound to a wrapper, because several modules import names directly. A
wrapper only records while a job is open, so the benchmark's own answer
checks stay out of the trace. ``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans and hot
calls cover. Hot functions (``is_connected_subset``) get a call counter and
summed time instead of a span per call. The facet normalisation that runs
when ``cut_complex`` builds its ``SimplicialComplex`` is reported as
``cut_complex``'s own self time; ``complexes.init.s`` covers every other
construction.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


def _ksets(counts, args, result, before):
    g, k = args[0], args[1]
    if 2 <= k <= g.n:
        counts["cuts.ksets.examined"] += comb(g.n, k)
    counts["cuts.ksets.disconnected"] += len(result)


def _init(counts, args, result, before):
    counts["complexes.facets"] += len(args[0].facets)


def _faces_before(args):
    return args[0]._faces is None  # True when this call enumerates the faces


def _faces(counts, args, result, before):
    if before:
        counts["complexes.faces"] += len(result)


def _boundary(counts, args, result, before):
    counts["homology.boundary.nnz"] += sum(len(m.entries) for m in result)


def _snf(counts, args, result, before):
    m = args[0]
    counts["homology.snf.calls"] += 1
    counts["homology.snf.cells"] += m.nrows * m.ncols
    counts["homology.snf.nnz"] += len(m.entries)
    counts["homology.snf.rank"] += result[1]
    counts["homology.snf.max_side"] = max(counts["homology.snf.max_side"], m.nrows, m.ncols)


def _reduced(counts, args, result, before):
    counts["homology.torsion"] += sum(len(t) for t in result.torsion.values())


def _search(counts, args, result, before):
    counts["shelling.nodes"] += result.nodes
    counts["shelling.unknown"] += result.verdict == "unknown"
    counts["shelling.facets"] += len(args[0].facets)


def _acyclic(counts, args, result, before):
    counts["morse.pairs"] += len(args[0].pairs)
    counts["morse.critical"] += sum(result[1].values())


# (module, function or Class.method, layer key, after-call hook, before-call hook)
SPANS = [
    ("cli", "main", "cli", None, None),
    ("graphs", "family", "graphs.build", None, None),
    ("graphs", "read_graph_text", "graphs.build", None, None),
    ("graphs", "is_chordal", "graphs.chordal", None, None),
    ("cuts", "disconnected_ksets", "cuts.ksets", _ksets, None),
    ("cuts", "cut_complex", "cuts.cut_complex", None, None),
    ("cuts", "connected_kset_census", "cuts.census", None, None),
    ("cuts", "skeleton_condition_euler", "cuts.census", None, None),
    ("cuts", "predicted_betti", "cuts.oracle", None, None),
    ("cuts", "realize_as_cut_complex", "cuts.realize", None, None),
    ("complexes", "SimplicialComplex.__init__", "complexes.init", _init, None),
    ("complexes", "SimplicialComplex.face_set", "complexes.faces", _faces, _faces_before),
    ("complexes", "SimplicialComplex.faces_by_dim", "complexes.by_dim", None, None),
    ("complexes", "SimplicialComplex.f_vector", "complexes.fvector", None, None),
    ("homology", "reduced_homology", "homology.reduced", _reduced, None),
    ("homology", "boundary_matrices", "homology.boundary", _boundary, None),
    ("homology", "smith_normal_form", "homology.snf", _snf, None),
    ("shelling", "find_shelling", "shelling.search", _search, None),
    ("shelling", "verify_shelling_order", "shelling.verify", None, None),
    ("morse", "element_matching_sequence", "morse.match", None, None),
    ("morse", "restricted_matching", "morse.match", None, None),
    ("morse", "tree_matching_order", "morse.match", None, None),
    ("morse", "prism_matching_order", "morse.match", None, None),
    ("morse", "spanning_tree", "morse.match", None, None),
    ("morse", "verify_acyclic_and_critical", "morse.acyclic", _acyclic, None),
]
HOT = [("graphs", "is_connected_subset", "graphs.connectivity")]
# a child span whose self time counts as its parent's: (child key, parent key)
FOLDED = {("complexes.init", "cuts.cut_complex")}

# per-layer metric -> (unit, source): seconds read a self-time key, other units a count
LAYER_METRICS = {
    "cli.self_s": ("s", "cli"),
    "cli.out_bytes": ("bytes", "cli.out_bytes"),
    "graphs.build.s": ("s", "graphs.build"),
    "graphs.connectivity.calls": ("count", "graphs.connectivity.calls"),
    "graphs.connectivity.s": ("s", "graphs.connectivity"),
    "graphs.chordal.s": ("s", "graphs.chordal"),
    "cuts.ksets.s": ("s", "cuts.ksets"),
    "cuts.ksets.examined": ("count", "cuts.ksets.examined"),
    "cuts.ksets.disconnected": ("count", "cuts.ksets.disconnected"),
    "cuts.cut_complex.self_s": ("s", "cuts.cut_complex"),
    "cuts.census.s": ("s", "cuts.census"),
    "cuts.oracle.s": ("s", "cuts.oracle"),
    "cuts.realize.s": ("s", "cuts.realize"),
    "complexes.init.s": ("s", "complexes.init"),
    "complexes.facets": ("count", "complexes.facets"),
    "complexes.faces.s": ("s", "complexes.faces"),
    "complexes.faces": ("count", "complexes.faces"),
    "complexes.by_dim.s": ("s", "complexes.by_dim"),
    "complexes.fvector.s": ("s", "complexes.fvector"),
    "homology.reduced.self_s": ("s", "homology.reduced"),
    "homology.boundary.s": ("s", "homology.boundary"),
    "homology.boundary.nnz": ("count", "homology.boundary.nnz"),
    "homology.snf.s": ("s", "homology.snf"),
    "homology.snf.calls": ("count", "homology.snf.calls"),
    "homology.snf.cells": ("count", "homology.snf.cells"),
    "homology.snf.nnz": ("count", "homology.snf.nnz"),
    "homology.snf.rank": ("count", "homology.snf.rank"),
    "homology.torsion": ("count", "homology.torsion"),
    "shelling.search.s": ("s", "shelling.search"),
    "shelling.nodes": ("count", "shelling.nodes"),
    "shelling.verify.s": ("s", "shelling.verify"),
    "shelling.unknown": ("count", "shelling.unknown"),
    "shelling.facets": ("count", "shelling.facets"),
    "morse.match.s": ("s", "morse.match"),
    "morse.pairs": ("count", "morse.pairs"),
    "morse.acyclic.s": ("s", "morse.acyclic"),
    "morse.critical": ("count", "morse.critical"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (job, span id, parent id, function, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)  # summed, except homology.snf.max_side
        self.job = None
        self._stack: list[list] = []  # [span id, key, start, covered by children]
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def begin_job(self, job_id) -> None:
        self.job = job_id

    def end_job(self) -> None:
        self.job = None
        self._stack.clear()

    def _span(self, fn, name, key, after, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans), key, perf_counter(), 0.0]
            tracer.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                if parent is not None and (key, parent[1]) in FOLDED:
                    parent[3] += frame[3]  # own time stays in the parent's self time
                else:
                    tracer.self_s[key] += own
                    if parent is not None:
                        parent[3] += duration
                tracer.spans[frame[0]] = (tracer.job, frame[0], parent[0] if parent else None, name,
                                          frame[2], end)
            if after:
                after(tracer.counts, args, result, token)
            return result

        return wrapper

    def _hot(self, fn, key):
        tracer = self
        calls = f"{key}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer.counts[calls] += 1
                tracer.self_s[key] += duration
                if tracer._stack:
                    tracer._stack[-1][3] += duration

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded ``cutcomplex`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cutcomplex" or name.startswith("cutcomplex."))]
        try:
            for mod_name, qualname, key, after, before in SPANS:
                name = f"{mod_name}.{qualname}"
                self._patch(modules, mod_name, qualname,
                            functools.partial(self._span, name=name, key=key, after=after, before=before))
            for mod_name, qualname, key in HOT:
                self._patch(modules, mod_name, qualname, functools.partial(self._hot, key=key))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, modules, mod_name, qualname, make) -> None:
        home = sys.modules[f"cutcomplex.{mod_name}"]
        if "." in qualname:  # a method: rebind it on its class
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(home, qualname)
        wrapper = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the job list."""
        out = {}
        for name, (unit, source) in LAYER_METRICS.items():
            value = self.self_s[source] if unit == "s" else self.counts[source]
            out[name] = (value / passes, unit)
        out["homology.snf.max_side"] = (self.counts["homology.snf.max_side"], "count")
        examined = self.counts["cuts.ksets.examined"]
        out["cuts.ksets.hit_ratio"] = (self.counts["cuts.ksets.disconnected"] / examined if examined else 0.0, "ratio")
        search_s = self.self_s["shelling.search"]
        out["shelling.nodes_per_s"] = (self.counts["shelling.nodes"] / search_s if search_s else 0.0, "1/s")
        return out

    def write_spans(self, path, header: dict) -> None:
        """One JSON line of ``header``, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
