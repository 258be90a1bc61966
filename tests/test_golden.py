"""CLI output pinned byte for byte to tests/golden/cli.json.

The golden file maps a command line to its exit status and stdout. Its
commands run `build` and `homology`, human and `--json`, on one spec of every
registered family at k = 2 and k = 3, plus the verify corpus, the
squared-cycle experiment, and `shell` and `morse` runs that pin node counts,
shelling orders and Morse matchings. Rewrite it only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
from pathlib import Path

import pytest

from cutcomplex.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

SPECS = [
    "balloon:5,3", "complete:5", "complete_multipartite:2,2,3", "cycle:7", "edgeless:5",
    "figure_eight:4,4", "kayak:5", "kneser:5,2", "path:6", "petersen", "prism:4",
    "squared_cycle:8", "star:4", "threshold:1011", "tree:0-1,1-2,2-3,3-4,2-5",
]

SHELL = [
    "prism:4 --k 3", "cycle:7 --k 2", "cycle:8 --k 2", "squared_cycle:7 --k 3", "squared_cycle:9 --k 3",
    "squared_cycle:9 --k 4 --budget 5000", "complete_multipartite:3,4 --k 2", "cycle:10 --k 4",
]
MORSE = [
    "prism:4 --k 3 --order prism", "path:6 --k 2 --order tree", "cycle:6 --k 2 --order restricted",
    "cycle:5 --k 2 --order 0,1,2,3,4", "path:9 --k 2 --order tree", "prism:5 --k 2 --order prism",
]


def _commands():
    cmds = [
        f"{sub} {spec} --k {k}{flag}"
        for spec in SPECS for sub in ("build", "homology") for k in (2, 3) for flag in ("", " --json")
    ]
    cmds += ["verify table1-small", "verify table1-small --json"]
    cmds += ["experiment squared-cycle --k 3 --n 8", "experiment squared-cycle --k 3 --n 8 --json"]
    cmds += [f"shell {args}{flag}" for args in SHELL for flag in ("", " --json")]
    cmds += [f"morse {args}{flag}" for args in MORSE for flag in ("", " --json")]
    return cmds


def _run(cmd, capsys):
    code = main(cmd.split())
    return {"exit": code, "stdout": capsys.readouterr().out}


@functools.cache
def _load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_family():
    from cutcomplex.cuts import _CLOSED_FORMS
    from cutcomplex.graphs import FAMILIES, parse_family

    assert sorted(parse_family(spec)[0] for spec in SPECS) == sorted(FAMILIES)
    assert set(_CLOSED_FORMS) <= set(FAMILIES)
    assert sorted(_load()) == sorted(_commands())


@pytest.mark.parametrize("cmd", _commands())
def test_cli_output_matches_golden(cmd, capsys):
    assert _run(cmd, capsys) == _load()[cmd]


@pytest.mark.parametrize("args", MORSE)
def test_morse_pins_read_only_the_dual_memo(args, capsys, monkeypatch):
    # these cut complexes cover their graphs, so the matching reads the faces
    # from the dual grown out of the connected k-sets: no facet is listed
    # and the facets are not walked for a second dual
    from cutcomplex import cuts
    from cutcomplex.complexes import SimplicialComplex

    def refuse(*args):
        raise AssertionError("the facets were listed or walked")

    monkeypatch.setattr(cuts, "disconnected_ksets", refuse)
    monkeypatch.setattr(SimplicialComplex, "_walk_dual", refuse)
    cmd = f"morse {args} --json"
    assert _run(cmd, capsys) == _load()[cmd]


if __name__ == "__main__":
    import contextlib
    import io

    golden = {}
    for cmd in _commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(cmd.split())
        golden[cmd] = {"exit": code, "stdout": buf.getvalue()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False, sort_keys=True) + "\n")
