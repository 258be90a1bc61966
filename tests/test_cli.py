import json
import os
import signal
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import cutcomplex
from cutcomplex import SimplicialComplex, cut_complex, family, write_graph_text
from cutcomplex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_json_round_trips(capsys):
    code, out, _ = run(capsys, "build", "cycle:5", "--k", "2", "--json")
    assert code == 0
    report = json.loads(out)
    back = SimplicialComplex.from_json_obj(report["complex"])
    assert back == cut_complex(family("cycle:5"), 2)
    assert report["f_vector"] == [1, 5, 10, 5]
    assert report["mu"] == -1


def test_build_human_uses_one_based_labels(capsys):
    code, out, _ = run(capsys, "build", "cycle:5", "--k", "2")
    assert code == 0
    assert "245" in out and "124" in out
    assert "f-vector" in out


def test_build_void(capsys):
    code, out, _ = run(capsys, "build", "complete:4", "--k", "2")
    assert code == 0 and "void" in out


def test_homology_subcommand(capsys):
    code, out, _ = run(capsys, "homology", "cycle:5", "--k", "2", "--json")
    assert code == 0
    report = json.loads(out)
    ranks = {row["dim"]: row["rank"] for row in report["homology"]}
    assert ranks[1] == 1
    assert report["predicted_matches"] is True
    assert report["euler_consistent"] is True


def test_shell_subcommand(capsys):
    code, out, _ = run(capsys, "shell", "cycle:5", "--k", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == "not_shellable"
    code, out, _ = run(capsys, "shell", "cycle:6", "--k", "3")
    assert code == 0 and "shellable" in out


def test_morse_subcommand(capsys):
    code, out, _ = run(capsys, "morse", "prism:3", "--k", "2", "--order", "prism", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["acyclic"] is True
    assert report["critical_census"] == {"2": 2}
    code, out, _ = run(capsys, "morse", "path:4", "--k", "2", "--order", "tree", "--json")
    assert json.loads(out)["critical_census"] == {}
    code, out, _ = run(capsys, "morse", "cycle:5", "--k", "2", "--order", "restricted", "--json")
    assert json.loads(out)["critical_census"] == {"1": 1}
    code, out, _ = run(capsys, "morse", "cycle:5", "--k", "2", "--order", "0,1,2,3,4", "--json")
    assert json.loads(out)["acyclic"] is True


def test_morse_order_validation(capsys):
    code, _, err = run(capsys, "morse", "cycle:5", "--k", "3", "--order", "tree")
    assert code == 2 and "k = 2" in err
    for order, message in (("restricted", "targets k = 2"), ("0,a", "bad --order '0,a'")):
        code, out, err = run(capsys, "morse", "cycle:6", "--k", "3", "--order", order)
        assert _one_error_line(code, out, err) and message in err


def test_morse_prism_order_reads_the_parsed_family(tmp_path, monkeypatch, capsys):
    for spec in (" prism:3", "Prism:4"):
        code, out, _ = run(capsys, "morse", spec, "--k", "2", "--order", "prism", "--json")
        assert code == 0 and json.loads(out)["acyclic"] is True
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prism:4").write_text(write_graph_text(family("prism:4")))
    code, _, err = run(capsys, "morse", "prism:4", "--k", "2", "--order", "prism")
    assert code == 2 and "needs a prism:<n> graph" in err


def test_realize_subcommand(tmp_path, capsys):
    cx = cut_complex(family("cycle:5"), 2)
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(cx.to_json_obj()))
    code, out, _ = run(capsys, "realize", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["round_trip_ok"] is True and report["chordal"] is True
    assert report["n"] == 5 + 5 and report["k"] == 5 + 5 - 3


def test_realize_relabels_a_gapped_vertex_set(tmp_path, capsys):
    path = tmp_path / "gapped.json"
    path.write_text(json.dumps({"facets": [[0, 2], [2, 5]], "ambient": 6}))
    code, out, _ = run(capsys, "realize", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["round_trip_ok"] is True and report["chordal"] is True
    assert report["n"] == 3 + 2 and report["k"] == 3


def test_graph_file_argument(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(write_graph_text(family("cycle:5")))
    code, out, _ = run(capsys, "build", str(path), "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["facet_count"] == 5


def test_parse_failures_exit_2(capsys):
    assert run(capsys, "build", "nonsense:4", "--k", "2")[0] == 2
    assert run(capsys, "build", "cycle:5")[0] == 2  # missing --k
    assert run(capsys, "verify", "no-such-corpus")[0] == 2
    assert run(capsys, "experiment", "other", "--k", "3", "--n", "8")[0] == 2


def test_experiment_squared_cycle(capsys):
    code, out, _ = run(capsys, "experiment", "squared-cycle", "--k", "3", "--n", "8", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["conjectured"] == {"dim3": 1, "dim4": 0}
    assert report["homology"] is not None
    # never asserts: exit 0 regardless of agreement
    code, out, _ = run(capsys, "experiment", "squared-cycle", "--k", "2", "--n", "7")
    assert code == 0


def test_experiment_on_a_void_complex_and_the_k3_conjecture(capsys):
    # squared_cycle:5 is K_5, so its 3-cut complex is void
    code, out, _ = run(capsys, "experiment", "squared-cycle", "--k", "3", "--n", "5", "--json")
    assert code == 0 and json.loads(out)["homology"] is None
    code, out, _ = run(capsys, "experiment", "squared-cycle", "--k", "3", "--n", "9")
    # C(n - 4, 2) - 9 spheres in dimension n - k - 1
    assert code == 0 and "conjectured (never asserted): wedge of 1 spheres in dimension 5" in out.splitlines()


def test_verify_reports_a_wrong_expected_verdict(monkeypatch, capsys):
    import cutcomplex.cli as cli

    monkeypatch.setattr(cli, "_TABLE1_SMALL", [("cycle:5", 3, True), ("cycle:5", 2, True)])
    code, out, _ = run(capsys, "verify", "table1-small")
    assert code == 1
    assert out.splitlines() == [
        "PASS cycle:5 k=3",
        "FAIL cycle:5 k=2 (shelling: expected shellable, got not_shellable)",
        "some rows FAILED",
    ]


def test_verify_corpus_passes(capsys):
    code, out, _ = run(capsys, "verify", "table1-small")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)


def test_verify_corpus_json(capsys):
    code, out, _ = run(capsys, "verify", "table1-small", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["rows"]) > 20
    # every row runs every check; only a void complex has no homology to check
    for row in report["rows"]:
        assert "shelling" in row
        assert ("euler_ok" in row) != (row["predicted"] == {"status": "void", "dim": None, "count": None})


def test_build_sweeps_the_ksets_once(monkeypatch, capsys):
    import cutcomplex.cuts as cuts

    calls = []
    sweep = cuts.disconnected_ksets
    monkeypatch.setattr(cuts, "disconnected_ksets", lambda g, k: calls.append(k) or sweep(g, k))
    # Δ_4(prism_4) is covered, but its 14 facets are the smaller side: they are listed once
    code, out, _ = run(capsys, "build", "prism:4", "--k", "4", "--json")
    assert code == 0 and json.loads(out)["skeleton_condition"] is not None
    assert calls == [4]
    # Δ_3(prism_4) is built from its dual, and its facets are read off that dual
    code, out, _ = run(capsys, "build", "prism:4", "--k", "3", "--json")
    assert code == 0 and json.loads(out)["skeleton_condition"] is not None
    assert calls == [4]


def test_homology_never_lists_the_facets_that_build_prints(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the facets were read off the dual")

    monkeypatch.setattr(SimplicialComplex, "_facets_from_dual", refuse)
    code, out, _ = run(capsys, "homology", "path:22", "--k", "6", "--json")
    homology = [{"dim": i, "rank": 20332 if i == 15 else 0, "torsion": []} for i in range(-1, 16)]
    assert code == 0 and out == json.dumps({
        "euler_consistent": True, "graph": "path:22", "homology": homology, "k": 6, "mu": -20332, "n": 22,
        "predicted": {"count": 20332, "dim": 15, "status": "wedge"}, "predicted_matches": True,
    }, sort_keys=True) + "\n"
    with pytest.raises(AssertionError, match="the facets were read off the dual"):
        main(["build", "path:10", "--k", "3", "--json"])


def test_build_of_the_smallest_path_is_pinned(capsys):
    # Δ_2(P_3) has the one facet {1}: the cover test fails, so its facets are listed at once
    code, out, _ = run(capsys, "build", "path:3", "--k", "2", "--json")
    assert code == 0 and out == (
        '{"complex": {"ambient": 3, "facets": [[1]]}, "connected_kset_count": 2, "f_vector": [1, 1], '
        '"facet_count": 1, "graph": "path:3", "k": 2, "mu": 0, "mu_census_formula": 0, "n": 3, '
        '"skeleton_condition": true}\n'
    )


@pytest.mark.parametrize("argv", [
    ("cycle:65", "2"),  # wide supports: 65 and 71 vertices
    ("star:70", "2"),
    ("path:3", "2"),  # the facets are listed at once
    ("complete:5", "2"),  # void
    ("k20.txt", "5"),  # vertex 20 is in no facet
])
def test_build_record_is_the_json_dumps_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    (tmp_path / "k20.txt").write_text(f"21 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    spec, k = argv
    code, out, _ = run(capsys, "build", spec, "--k", k, "--json")
    record = json.loads(out)
    assert code == 0 and out == json.dumps(record, sort_keys=True) + "\n"
    g = family(spec) if ":" in spec else cutcomplex.read_graph_text((tmp_path / spec).read_text())
    cx = cut_complex(g, int(k))
    assert record["complex"] == cx.to_json_obj() and record["facet_count"] == len(cx.facets)


def test_build_never_calls_to_json_obj(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the complex was built as nested lists")

    monkeypatch.setattr(SimplicialComplex, "to_json_obj", refuse)
    # listed facets, facets read off the dual, and the void complex, in both modes
    for spec, k, count in (("path:3", "2", 1), ("path:22", "6", 74596), ("complete:5", "2", 0)):
        code, out, _ = run(capsys, "build", spec, "--k", k)
        assert code == 0 and out.startswith(f"graph: {spec} ")
        code, out, _ = run(capsys, "build", spec, "--k", k, "--json")
        record = json.loads(out)
        assert code == 0 and record["facet_count"] == count == len(record["complex"].get("facets", []))


def test_build_reports_a_census_formula_mismatch(monkeypatch, capsys):
    import cutcomplex.cli as cli

    code, out, _ = run(capsys, "build", "cycle:7", "--k", "3")
    assert code == 0 and "census formula agrees: mu = -8" in out.splitlines()
    monkeypatch.setattr(cli, "skeleton_condition_euler", lambda g, cx: (True, 5))
    code, out, _ = run(capsys, "build", "cycle:7", "--k", "3")
    assert code == 1
    assert out.splitlines()[-2:] == ["reduced Euler characteristic: -8", "census formula MISMATCH: mu = 5"]
    code, out, _ = run(capsys, "build", "cycle:7", "--k", "3", "--json")
    assert code == 1 and json.loads(out)["mu_census_formula"] == 5


def test_realize_malformed_input_exits_2(tmp_path, capsys):
    for i, text in enumerate(['{"facets": [[0, 1]]}', "[1, 2]", "{not json", '{"facets": [["a"]], "ambient": 2}',
                              '{"state": "void"}']):
        path = tmp_path / f"bad-{i}.json"
        path.write_text(text)
        code, out, err = run(capsys, "realize", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    code, _, err = run(capsys, "realize", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error: ")


def test_realize_rejects_json_booleans(tmp_path, capsys):
    # bool is a subclass of int, so true must not pass as vertex 1 or false as ambient 0
    texts = ['{"facets": [[true, 2], [0, 2]], "ambient": 3}', '{"facets": [[0, 1]], "ambient": false}']
    for i, text in enumerate(texts):
        path = tmp_path / f"bool-{i}.json"
        path.write_text(text)
        code, out, err = run(capsys, "realize", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "an integer \"ambient\"" in err and err.count("\n") == 1


def test_realize_rejects_repeated_vertices(tmp_path, capsys):
    # [0, 0, 1] must not pass as the facet {0, 1}
    path = tmp_path / "repeat.json"
    path.write_text('{"facets": [[0, 0, 1]], "ambient": 3}')
    code, out, err = run(capsys, "realize", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "distinct vertex indices" in err and err.count("\n") == 1


def test_graph_file_named_like_a_family_gets_no_prediction(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path:3").write_text(write_graph_text(family("edgeless:3")))
    (tmp_path / "cycle").write_text(write_graph_text(family("cycle:5")))
    for name in ("path:3", "cycle"):
        code, out, err = run(capsys, "homology", name, "--k", "2", "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["predicted"] is None


def test_malformed_graph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("3 2\n0 1\n")
    code, _, err = run(capsys, "homology", str(path), "--k", "2")
    assert code == 2 and err.startswith("error: cannot read graph file")


def _one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_realize_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    for text in ("[" * 100_000, '{"facets": ' + "[" * 100_000 + "]" * 100_000 + ', "ambient": 1}'):
        path.write_text(text)
        code, out, err = run(capsys, "realize", str(path))
        assert _one_error_line(code, out, err) and "cannot read complex JSON" in err


def test_morse_order_vertices_must_be_graph_vertices(capsys):
    for order in ("0,1,2,3,9", "-1", "0,-1,2"):
        code, out, err = run(capsys, "morse", "cycle:5", "--k", "2", "--order", order)
        assert _one_error_line(code, out, err) and "is not in 0..4" in err


def test_negative_budget_exits_2(capsys):
    for argv in (("shell", "cycle:5", "--k", "2"), ("verify", "table1-small")):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert _one_error_line(code, out, err) and "budget" in err


def test_verify_accepts_only_table1_small(capsys):
    code, out, err = run(capsys, "verify", "table1")
    assert _one_error_line(code, out, err) and "try table1-small" in err


def test_morse_on_a_large_primal_lists_faces_from_the_dual(monkeypatch, capsys):
    import cutcomplex.complexes as complexes
    from cutcomplex.morse import MorseMatching

    def refuse(mask):
        raise AssertionError("a facet's submasks were walked")

    census_calls = []
    census = MorseMatching.critical_census
    monkeypatch.setattr(complexes, "submasks", refuse)
    monkeypatch.setattr(MorseMatching, "critical_census", lambda m: census_calls.append(m) or census(m))
    # Δ_2(P_14) has 2^14 - 28 faces; its dual, the path itself, has 28
    code, out, _ = run(capsys, "morse", "path:14", "--k", "2", "--order", "tree", "--json")
    report = json.loads(out)
    assert code == 0 and report["acyclic"] is True and report["critical_census"] == {}
    assert report["pairs"] == (2**14 - 28) // 2 == len(report["matching"]["pairs"])
    assert len(census_calls) == 1  # shared by the census field and the matching record


def test_morse_on_a_face_bitmap_lists_no_faces(monkeypatch, capsys):
    from cutcomplex import SimplicialComplex

    def refuse(cx):
        raise AssertionError("a face set was listed")

    expected = run(capsys, "morse", "path:14", "--k", "2", "--order", "tree", "--json")
    monkeypatch.setattr(SimplicialComplex, "face_set", refuse)  # the dual's face set too
    assert run(capsys, "morse", "path:14", "--k", "2", "--order", "tree", "--json") == expected
    assert expected[0] == 0 and json.loads(expected[1])["acyclic"] is True


def test_morse_on_a_face_bitmap_lists_no_pair(monkeypatch, capsys):
    import cutcomplex.morse as morse

    def refuse(*args):
        raise AssertionError("a pair tuple or a byte table of pairs was built")

    runs = [("path:10", "--k", "2", "--order", "tree"), ("prism:5", "--k", "3", "--order", "prism"),
            ("cycle:9", "--k", "2", "--order", "restricted")]
    expected = [run(capsys, "morse", *argv, "--json") for argv in runs]
    monkeypatch.setattr(morse.MorseMatching, "pairs", property(refuse))
    monkeypatch.setattr(morse, "mask_bytes", refuse)
    for argv, want in zip(runs, expected):
        assert cut_complex(family(argv[0]), int(argv[2])).face_bitmap() is not None
        code, out, err = run(capsys, "morse", *argv, "--json")
        report = json.loads(out)
        assert (code, out, err) == want and report["acyclic"] is True
        assert report["pairs"] == len(report["matching"]["pairs"]) > 0


def test_covered_graphs_past_64_vertices(capsys):
    # the dual walk's budget, near 2^(n-1), is past sys.maxsize from n = 65 on
    for spec in ("cycle:65", "star:70", "complete_multipartite:22,22,22"):
        code, out, _ = run(capsys, "homology", spec, "--k", "2", "--json")
        assert code == 0 and json.loads(out)["predicted_matches"] is True, spec
    # the dual of Δ_2(C_65) is C_65 itself: ∅, 65 vertices and 65 edges
    co = [1, 65, 65] + [0] * 63
    code, out, _ = run(capsys, "build", "cycle:65", "--k", "2", "--json")
    assert code == 0 and json.loads(out)["f_vector"] == [comb(65, s) - co[65 - s] for s in range(64)]
    code, out, _ = run(capsys, "shell", "cycle:65", "--k", "2", "--json")
    cert = json.loads(out)["certificate"]
    assert code == 0 and cert["verdict"] == "not_shellable"
    assert cert["obstruction"] == {"dim": 61, "rank": 1, "torsion": []}


def test_morse_past_64_vertices_is_an_input_error(capsys):
    # a face table of 2^65 bytes cannot be allocated: exit 2 with one line, no traceback
    for argv in (["path:65", "--order", "tree"], ["cycle:65", "--order", "restricted"]):
        code, out, err = run(capsys, "morse", argv[0], "--k", "2", *argv[1:], "--json")
        assert (code, out) == (2, "") and err == "error: cannot allocate a table of the 2^65 masks on 65 vertices\n"


def test_verify_computes_one_homology_per_nonvoid_row(monkeypatch, capsys):
    import cutcomplex.cli as cli
    import cutcomplex.shelling as shelling

    calls = []
    homology = cli.reduced_homology

    def counting(cx):
        calls.append(cx)
        return homology(cx)

    monkeypatch.setattr(cli, "reduced_homology", counting)
    monkeypatch.setattr(shelling, "reduced_homology", counting)
    code, out, _ = run(capsys, "verify", "table1-small", "--json")
    rows = json.loads(out)["rows"]
    nonvoid = sum(not cut_complex(family(row["family"]), row["k"]).is_void for row in rows)
    assert code == 0 and len(rows) == 32 and nonvoid == 29
    assert len(calls) == nonvoid == len({id(cx) for cx in calls})


def test_huge_graph_header_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("100000000000000000000 0\n")
    code, out, err = run(capsys, "build", str(path), "--k", "2")
    assert _one_error_line(code, out, err) and "100000000000000000000 vertices" in err


def test_huge_graph_header_exits_2_under_an_address_space_cap(tmp_path):
    # without the cap an always-overcommit kernel could hand out the 8 TB list
    pytest.importorskip("resource")
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000 0\n")
    cap = 1 << 30
    code = (
        f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
        "from cutcomplex.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(cutcomplex.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code, "build", str(path), "--k", "2"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert _one_error_line(done.returncode, done.stdout, done.stderr), done.stderr
    assert "1000000000000 vertices" in done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize("argv", [("build", "path:18", "--k", "5"), ("morse", "prism:7", "--k", "3", "--order", "prism", "--json")])
def test_closed_output_pipe_ends_the_cli_quietly(argv):
    # each command prints more than a pipe buffer holds, so it is still
    # writing when the reader goes away after one byte
    src = str(Path(cutcomplex.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from cutcomplex.cli import entry; entry()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert code == -signal.SIGPIPE
