"""Bounded random input through ``cli.main`` in process: family DSL strings,
graph text files and complex JSON files, well-formed or not.

Every call must return an exit code (no exception escapes), the code must be
0, 1 or 2, and exit 2 must print exactly one ``error:`` line. Sizes stay small
(graphs of at most 12 vertices, complexes of at most 4 facets on 6 vertices)
so that each call ends well under a second. Three family graphs past 64
vertices, where a vertex set no longer fits one machine word, are run at
k = 2 through every graph command. A graph header with a huge vertex
count is left out: one too large to allocate exits 2 (see test_cli), but a
header of 10^8 vertices still allocates 800 MB before any edge is read.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutcomplex.cli import main
from cutcomplex.graphs import FAMILIES

# small parameters: every family graph has at most 12 vertices
params = st.lists(st.integers(-1, 4), max_size=3).map(lambda ps: ",".join(map(str, ps)))
junk = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_:,-0123456789 []{}", max_size=14).filter(
    lambda s: not s.startswith("-")  # a leading dash would read as an option
)
dsl = st.one_of(
    st.sampled_from(["path:6", "cycle:7", "complete:5", "edgeless:4", "complete_multipartite:2,3,3", "star:5",
                     "prism:4", "squared_cycle:8", "kneser:5,2", "petersen", "threshold:1011", "kayak:4",
                     "balloon:3,4", "figure_eight:3,4"]),
    st.builds("{}:{}".format, st.sampled_from(sorted(FAMILIES)), params),
    st.builds("tree:{}".format, st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 6)), max_size=6).map(
        lambda es: ",".join(f"{u}-{v}" for u, v in es))),
    st.builds("threshold:{}".format, st.text(alphabet="01x", max_size=8)),
    junk,
)
deep = st.integers(1, 100_000).map(lambda depth: "[" * depth)
sparse_high = st.integers(0, 10**6)


@st.composite
def graph_texts(draw):
    """'n m' and m edge lines: mostly a valid graph on at most 10 vertices,
    else a wrong count, an endpoint out of range or far out, or no graph."""
    n = draw(st.integers(1, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * n, unique_by=lambda e: frozenset(e)) if n > 1 else st.just([]))
    kind = draw(st.sampled_from(["valid", "valid", "valid", "count", "endpoint", "deep", "junk"]))
    if kind == "deep":
        return draw(deep)
    if kind == "junk":
        return draw(junk)
    m = len(edges) + (draw(st.sampled_from([-1, 1])) if kind == "count" else 0)
    if kind == "endpoint":
        edges = edges + [(draw(st.integers(-1, 0)), draw(st.integers(n, n + 1) | sparse_high))]
        m += 1
    return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@st.composite
def complex_jsons(draw):
    """Mostly a pure complex of at most 4 facets on 6 vertices, spaced out to
    sparse high indices half the time; else a non-pure one, malformed JSON
    values, deep nesting or no JSON at all."""
    kind = draw(st.sampled_from(["pure", "pure", "pure", "any", "value", "deep", "junk"]))
    if kind == "deep":
        return draw(deep)
    if kind == "junk":
        return draw(junk)
    if kind == "value":
        leaves = st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=3)
        return json.dumps(draw(st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                                            | st.dictionaries(st.sampled_from(["facets", "ambient", "state"]), inner),
                                            max_leaves=8)))
    size = draw(st.integers(1, 4))
    face = st.sets(st.integers(0, 5), min_size=size, max_size=size) if kind == "pure" else st.sets(st.integers(0, 5))
    facets = draw(st.lists(face, min_size=1, max_size=4))
    step = draw(st.sampled_from([1, 1, 40_000, 200_000]))
    obj = {"facets": [sorted(v * step for v in f) for f in facets], "ambient": 5 * step + 1}
    if draw(st.integers(0, 4)) == 0:
        obj["ambient"] = draw(st.integers(-1, 6) | sparse_high)
    return json.dumps(obj)


k = st.integers(-1, 8).map(str)
order = st.one_of(
    st.sampled_from(["tree", "prism", "restricted"]),
    st.lists(st.integers(0, 3), min_size=1, max_size=6).map(lambda vs: ",".join(map(str, vs))),
    st.lists(st.integers(-1, 12), min_size=1, max_size=13).map(lambda vs: ",".join(map(str, vs))),
    junk.filter(bool),
)


@st.composite
def invocations(draw):
    """An argv list, plus the graph text or complex JSON file it reads."""
    cmd = draw(st.sampled_from(["build", "homology", "shell", "morse", "realize"]))
    if cmd == "realize":
        return ["realize", "{complex}", *draw(st.sampled_from([[], ["--json"]]))], None, draw(complex_jsons())
    text = draw(st.none() | graph_texts())
    graph = "{graph}" if text is not None else draw(dsl)
    argv = [cmd, graph, "--k", draw(k)]
    if cmd == "shell":
        argv += ["--budget", str(draw(st.integers(-1, 50)))]
    if cmd == "morse":
        argv.append("--order=" + draw(order))  # one token, so "-1,2" is not read as an option
    return argv + draw(st.sampled_from([[], ["--json"]])), text, None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_cli_on_bounded_random_input(tmp_path, call):
    argv, text, obj = call
    paths = {"graph": tmp_path / "graph.txt", "complex": tmp_path / "complex.json"}
    if text is not None:
        paths["graph"].write_text(text)
    if obj is not None:
        paths["complex"].write_text(obj)
    check_exit([a.format(**paths) if a in ("{graph}", "{complex}") else a for a in argv])


@pytest.mark.parametrize("spec", ["cycle:65", "path:66", "star:70"])
@pytest.mark.parametrize("cmd", ["build", "homology", "shell", "morse --order=tree", "morse --order=restricted"])
def test_cli_on_graphs_past_64_vertices(spec, cmd):
    # a Morse matching there would need a face table of 2^65 bytes or more
    name, *options = cmd.split()
    check_exit([name, spec, "--k", "2", *options, "--json"])


def check_exit(argv):
    """Run ``argv``; the exit code must be 0, 1 or 2, with one error line on 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
