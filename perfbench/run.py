"""Benchmark of the ``cutcomplex`` CLI: seeded job workloads, end-to-end job
metrics, and an outside-in per-layer trace.

Run from the root of a checkout that holds ``src/cutcomplex``:

    python3 perfbench/run.py --workload homology --seed 1 --seconds 25 --trace 0

One client runs the workload's jobs in a closed loop, one job at a time, in
this process: each job calls ``cutcomplex.cli.main([..., "--json"])`` with
stdout captured, and its output is checked against a known answer. A pass
runs the seeded job list once; passes repeat while another fits in
``--seconds`` (at least one runs).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics per pass, plus both
throughputs, whose ratio is the tracing overhead; the spans go to
``.perfbench-out/``. ``--job "homology petersen --k 2"`` replaces the
workload's job list with one unchecked CLI call. Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import TAIL_PERCENTILE, WORKLOADS, Job, JobFailed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 16  # half before the passes, half after
# a fresh interpreter imports the CLI and finishes one trivial job
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from cutcomplex.cli import main; "
              "sys.exit(main(['build', 'path:3', '--k', '2', '--json']))")


def load_cutcomplex(root: Path):
    """Import ``cutcomplex`` from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "cutcomplex" / "cli.py").is_file():
        raise SystemExit(f"error: no cutcomplex sources under {src}")
    sys.path.insert(0, str(src))
    import cutcomplex
    import cutcomplex.cli

    if Path(cutcomplex.__file__).resolve().parent != (src / "cutcomplex").resolve():
        raise SystemExit(f"error: imported cutcomplex from {cutcomplex.__file__}, not {src}")
    return cutcomplex


def measure_setup(root: Path, repeats: int) -> list[float]:
    """Wall times of ``repeats`` fresh interpreters, each running one trivial
    CLI job."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(root / "src")]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        # no timeout: waiting with one polls the child in steps of up to 50 ms
        subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, check=True)
        times.append(perf_counter() - start)
    return times


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    numpy = sys.modules.get("numpy")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# running jobs


def call_cli(main, argv: list[str], tracer: Tracer | None, job_id):
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.begin_job(job_id)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"])
    finally:
        seconds = perf_counter() - start
        if tracer:
            tracer.end_job()
    text = out.getvalue()
    out.close()
    if tracer:
        tracer.counts["cli.out_bytes"] += len(text.encode())
    return code, text, err.getvalue(), seconds


def execute(job: Job, main, tracer: Tracer | None = None, job_id=None) -> tuple[float, str | None]:
    """Run one job; returns its latency (CLI calls only) and an error message
    when it failed: an exception, a nonzero exit, or a wrong answer."""
    outs: list = []
    seconds = 0.0
    try:
        for step in job.steps:
            argv = step(outs) if callable(step) else step
            code, text, err, took = call_cli(main, argv, tracer, job_id)
            seconds += took
            if code != 0:
                raise JobFailed(f"exit {code}: {err.strip()[:200]}")
            outs.append(json.loads(text))
            del text  # keep only the parsed copy of a large output
        job.check(outs)
    except Exception as exc:  # a failed job is counted and the run goes on
        return seconds, f"{type(exc).__name__}: {exc}"
    return seconds, None


class Tally:
    """The latency of every job run, and the failures."""

    def __init__(self):
        self.latency: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, jobs: list[Job], main, tracer: Tracer | None = None, pass_no: int = 0) -> None:
        for i, job in enumerate(jobs):
            gc.collect()
            seconds, error = execute(job, main, tracer, f"{pass_no}.{i}")
            self.latency.append(seconds)
            self.attempted += 1
            if error:
                self.failed += 1
                self.errors.append(f"{job.label}: {error}")

    def jobs_per_s(self) -> float:
        """Jobs that passed per second of job time."""
        return (self.attempted - self.failed) / sum(self.latency)

    def job_ms(self, percentile: float) -> tuple[float, float, int]:
        """Median latency over every job run, the latency at ``percentile``
        (nearest rank), and the number of runs above that rank."""
        ms = sorted(s * 1000 for s in self.latency)
        rank = max(math.ceil(percentile / 100 * len(ms)), 1)
        return statistics.median(ms), ms[rank - 1], len(ms) - rank


def run_loop(seconds: float, one_pass) -> int:
    """Run passes while another is expected to fit in ``seconds``."""
    start = perf_counter()
    passes = 0
    while True:
        one_pass(passes)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes


def make_jobs(cc, workload: str, seed: int, size: str, job: str | None, outdir: Path) -> list[Job]:
    if job:
        return [Job(job, [job.split()], lambda outs: None)]
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    return WORKLOADS[workload](cc, random.Random(seed), outdir, size)


def warm_up(cc, workload: str, seed: int) -> None:
    """Fill caches and finish lazy set-up with the tiny job list, untimed."""
    for job in make_jobs(cc, workload, seed, "tiny", None, OUT / f"{workload}-warmup"):
        execute(job, cc.cli.main)


# ---------------------------------------------------------------------------
# reporting


def report(tallies: list[Tally], metrics: dict, lines: list[str]) -> dict:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:28s} {value:14.6g} {unit}")
    lines.append(f"  {'error_rate':28s} {failed / attempted:14.6g} ratio ({failed} of {attempted} jobs failed)")
    lines += [f"  FAILED {error}" for t in tallies for error in t.errors[:10]]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def end_to_end(cc, jobs: list[Job], seconds: float, setup_repeats: int, tail_pct: float, lines: list[str]) -> dict:
    # set-up is timed at both ends of the run, so that a slow phase of the
    # host at one end moves the median less; one untimed start fills the
    # file caches first
    measure_setup(ROOT, 1)
    setup = measure_setup(ROOT, setup_repeats // 2)
    tally = Tally()
    passes = run_loop(seconds, lambda p: tally.run_pass(jobs, cc.cli.main, pass_no=p))
    setup += measure_setup(ROOT, setup_repeats - setup_repeats // 2)
    p50, tail, beyond = tally.job_ms(tail_pct)
    lines.append(f"{len(jobs)} jobs per pass, {passes} pass(es); job_ms.tail is p{tail_pct:g} over "
                 f"{tally.attempted} job runs, {beyond} above it")
    lines.append("setup_s samples " + " ".join(f"{t:.3f}" for t in setup))
    return report([tally], {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (tally.jobs_per_s(), "1/s"),
        "job_ms.p50": (p50, "ms"),
        "job_ms.tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, lines)


def traced(cc, jobs: list[Job], seconds: float, spans_path: Path, env: dict, lines: list[str]) -> dict:
    plain, with_trace = Tally(), Tally()
    tracer = Tracer()

    def one_pass(p):
        plain.run_pass(jobs, cc.cli.main)
        with tracer:
            with_trace.run_pass(jobs, tracer=tracer, main=cc.cli.main, pass_no=p)

    passes = run_loop(seconds, one_pass)
    metrics = tracer.layer_metrics(passes)
    metrics["trace.jobs_per_s.untraced"] = (plain.jobs_per_s(), "1/s")
    metrics["trace.jobs_per_s.traced"] = (with_trace.jobs_per_s(), "1/s")
    tracer.write_spans(spans_path, header={"env": env, "jobs": [job.label for job in jobs]})
    lines.append(f"{len(jobs)} jobs per pass, {passes} untraced and {passes} traced pass(es); "
                 f"per-layer values are per pass; spans in {spans_path.relative_to(ROOT)}")
    return report([plain, with_trace], metrics, lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: a few small jobs, for tests")
    p.add_argument("--job", help="trace or time this one CLI call instead of the workload's jobs")
    args = p.parse_args(argv)

    cc = load_cutcomplex(ROOT)
    env = environment(ROOT)
    warm_up(cc, args.workload, args.seed)
    jobs = make_jobs(cc, args.workload, args.seed, args.size, args.job, OUT / f"{args.workload}-{args.seed}")
    lines = [f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}",
             "env " + json.dumps(env, sort_keys=True)]
    if args.trace:
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        result = traced(cc, jobs, args.seconds, spans, env, lines)
    else:
        repeats = 2 if args.size == "tiny" else SETUP_REPEATS
        result = end_to_end(cc, jobs, args.seconds, repeats, TAIL_PERCENTILE[args.workload], lines)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
