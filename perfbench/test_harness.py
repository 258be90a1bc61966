"""Tests of the benchmark harness itself. Run from the checkout root:

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, homology_jobs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
cc = run.load_cutcomplex(run.ROOT)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    assert run.main(["--workload", workload, "--size", "tiny", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def _cutcomplex_bindings() -> dict:
    out = {}
    for name, mod in sys.modules.items():
        if name == "cutcomplex" or name.startswith("cutcomplex."):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    out.update({("SimplicialComplex", attr): value for attr, value in vars(cc.SimplicialComplex).items()})
    return out


def test_tracer_restores_every_function():
    before = _cutcomplex_bindings()
    tracer = Tracer()
    with tracer:
        during = _cutcomplex_bindings()
        # names imported directly into other modules are wrapped too
        assert cc.cli.family is not before[("cutcomplex.graphs", "family")]
        assert cc.cli.family is cc.graphs.family is cc.cuts.family is cc.family
        assert cc.homology.smith_normal_form is not before[("cutcomplex.homology", "smith_normal_form")]
    assert during != before
    after = _cutcomplex_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_job_counts_layers():
    tally = run.Tally()
    job = run.Job("homology cycle:6 --k 2", [["homology", "cycle:6", "--k", "2"]], lambda outs: None)
    with Tracer() as tracer:
        tally.run_pass([job], cc.cli.main, tracer)
    layers = tracer.layer_metrics(passes=1)
    assert tally.failed == 0
    assert layers["homology.snf.calls"][0] == tracer.counts["homology.snf.calls"] > 0
    assert layers["cuts.ksets.examined"][0] == 15 and layers["cuts.ksets.disconnected"][0] == 9
    assert layers["cli.out_bytes"][0] > 0 and layers["homology.snf.s"][0] > 0
    assert {span[3] for span in tracer.spans} >= {"cli.main", "cuts.cut_complex", "homology.smith_normal_form"}


def test_wrong_answers_count_as_failed(tmp_path):
    jobs = homology_jobs(cc, random.Random(1), tmp_path, "tiny")
    real = cc.cli.main

    def fake_main(argv):
        if argv[1] == "cycle:6":  # a wrong Betti number
            out = run.io.StringIO()
            with run.contextlib.redirect_stdout(out):
                code = real(argv)
            report = json.loads(out.getvalue())
            report["homology"][-1]["rank"] += 1
            print(json.dumps(report))
            return code
        if argv[1] == "path:6":
            raise RuntimeError("injected crash")
        if argv[1] == "prism:3":
            return 1  # a nonzero exit
        return real(argv)

    tally = run.Tally()
    tally.run_pass(jobs, fake_main)
    assert tally.attempted == 4 and tally.failed == 3
    assert any("injected crash" in e for e in tally.errors)
    assert tally.jobs_per_s() > 0
