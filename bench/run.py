"""Benchmark for isospec: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload coherent_grid --seed 1 --seconds 15 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See bench/README.md for what each workload and metric is.

This file is both the driver and, with ``--role``, the worker it starts.
The driver imports neither numpy nor isospec.  It starts SETUPS fresh
workers one after another and times each from its start to the line
"READY" that it prints once the first job is ready; each then times the
reference computation and prints "REF", and the last goes on to run the
jobs and prints "RESULT".  ``setup_s`` is the median of the scaled
set-ups.  Every process gets one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
DEADLINE_S = 170.0
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKLOAD_NAMES = ("coherent_grid", "model_scale", "cli_pipeline")

END_TO_END = (("jobs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# (metric, unit, how it is read from the traced phase): "calls", "total"
# and "self" are per job over spans of that name; "mean" is per span;
# "extra" sums what the span recorded (bytes written).
PER_LAYER = (
    ("linalg.opnorm_calls", "count/job", "calls", ("linalg.opnorm",)),
    ("linalg.opnorm_s", "s/job", "total", ("linalg.opnorm",)),
    ("linalg.eig_s", "s/job", "total", ("linalg.eig",)),
    ("linalg.biorthogonal_partner_s", "s/job", "total", ("linalg.biorthogonal_partner",)),
    ("intertwining.classify_s", "s/job", "total", ("intertwining.classify",)),
    ("intertwining.build_model_self_s", "s/job", "self", ("intertwining.build_model",)),
    ("intertwining.verify_relations_s", "s/job", "total", ("intertwining.verify_relations",)),
    ("intertwining.structure_check_s", "s/job", "total", ("intertwining.structure_check",)),
    ("intertwining.build_verify_s.40x20", "s/pair", "mean", ("pair.40x20",)),
    ("intertwining.build_verify_s.120x60", "s/pair", "mean", ("pair.120x60",)),
    ("intertwining.build_verify_s.300x150", "s/pair", "mean", ("pair.300x150",)),
    ("intertwining.build_verify_s.square", "s/pair", "mean", ("pair.square",)),
    ("intertwining.make_commuting_pair_s", "s/job", "total", ("intertwining.make_commuting_pair",)),
    ("bicoherent.states", "count/job", "calls", ("bicoherent.state",)),
    ("bicoherent.gate_calls", "count/job", "calls", ("bicoherent.gate",)),
    ("bicoherent.gate_s", "s/job", "total", ("bicoherent.gate",)),
    ("bicoherent.assemble_self_s", "s/job", "self", ("bicoherent.state",)),
    ("bicoherent.filter_calls", "count/job", "calls", ("bicoherent.filter",)),
    ("bicoherent.filter_s", "s/job", "total", ("bicoherent.filter",)),
    ("bicoherent.resolution_s", "s/job", "total", ("bicoherent.resolution",)),
    ("bicoherent.quantize_s", "s/job", "total", ("bicoherent.quantize",)),
    ("bicoherent.ladders_s", "s/job", "total", ("bicoherent.ladders",)),
    ("zoo.coherent_demo_s", "s/call", "mean", ("zoo.coherent_demo",)),
    ("io.canonical_json_s", "s/job", "total", ("io.canonical_json",)),
    ("io.bytes_written", "bytes/job", "extra", ("io.save_report",)),
    ("io.read_s", "s/job", "total", ("io.read",)),
    ("cli.startup_s", "s/step", "startup", ()),
    ("cli.build_s", "s/step", "total", ("cli.build",)),
    ("cli.verify_s", "s/step", "total", ("cli.verify",)),
    ("cli.fixture_s", "s/step", "total", ("cli.fixture",)),
    ("cli.coherent_s", "s/step", "total", ("cli.coherent",)),
    ("cli.quantize_s", "s/step", "total", ("cli.quantize",)),
    ("trace.overhead_pct", "%", "overhead", ()),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--role", choices=("driver", "setup", "measure"), default="driver",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# driver


def _worker(args, role: str, env: dict, deadline: float):
    """Start one worker; return (seconds to READY, the reference time it
    reported right after, RESULT dict or None)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--profile", args.profile]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        result = None
        ref = None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("REF "):
                ref = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (role == "measure" and result is None):
        raise SystemExit(f"{role} worker for {args.workload} failed (exit code {code})")
    return ready, ref, result


def drive(args) -> int:
    if not (ROOT / "src" / "isospec" / "__init__.py").is_file():
        print(f"error: no isospec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    src = str(ROOT / "src")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    setups = []  # (seconds to READY, reference seconds right after)
    for role in ("setup",) * (0 if args.trace else SETUPS - 1) + ("measure",):
        ready, reference, result = _worker(args, role, env, deadline)
        setups.append((ready, reference))
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = {
            "jobs_per_s": result["jobs_per_s"],
            "setup_s": statistics.median(
                ready * Reference.NOMINAL_S / reference for ready, reference in setups
            ),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for problem in result["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    # raw samples: (seconds to READY, reference) per set-up and
    # (job seconds, reference before, reference after) per measured job
    print("samples " + json.dumps({"setups": setups, "jobs": result["samples"]}), file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# worker


class Reference:
    """Fixed work timed next to each job: a loop of numpy-scalar arithmetic
    and many calls on tiny arrays, the kind of work that dominates the jobs.

    This machine's CPU speed drifts by up to a factor of two over seconds
    to minutes (other tenants share it), and the drift moves a job and this
    reference alike.  A job's time is reported as
    ``elapsed * NOMINAL_S / reference``: its length at the speed where the
    reference takes NOMINAL_S seconds.  Of the kernels tried (plain float
    loops, a dense SVD, JSON text), this pair tracked the jobs best.
    """

    NOMINAL_S = 0.02

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.scalars = [np.float64(v) for v in rng.standard_normal(600)]
        self.small = np.array([1.0, 2.0, 3.0])

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        r = 1e-12
        for a in range(20):
            for n, v in enumerate(self.scalars, 1):
                r = max(r, (abs(v) / 1.5**a) ** (1.0 / n))
        for _ in range(3000):
            np.vdot(self.small, np.abs(self.small))
        return time.perf_counter() - t0


class Runner:
    """Runs whole rounds of a workload's jobs and tallies the outcome."""

    def __init__(self, workload, reference: Reference):
        self.wl = workload
        self.reference = reference
        self.next_job = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[tuple] = []  # (elapsed, reference before, after)
        self.scaled: list[float] = []  # elapsed at the nominal reference speed

    def job(self) -> float:
        """One job: make inputs, time the run between two reference timings,
        check the output; only the run is timed."""
        j = self.next_job
        self.next_job += 1
        self.attempted += 1
        inputs = self.wl.inputs(j)
        before = self.reference() if self.wl.scaled else Reference.NOMINAL_S
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inputs)
        except Exception as exc:  # a failed operation is counted, the run goes on
            elapsed = time.perf_counter() - t0
            self.failed += 1
            print(f"job {j} failed: {exc!r}", file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - t0
        after = self.reference() if self.wl.scaled else Reference.NOMINAL_S
        self.samples.append((elapsed, before, after))
        self.scaled.append(elapsed * Reference.NOMINAL_S * 2.0 / (before + after))
        self.problems += [f"job {j}: {p}" for p in self.wl.check(inputs, out)]
        return elapsed

    def rounds(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` of job time have been measured
        (always at least one round)."""
        measured = 0.0
        while True:
            measured += sum(self.job() for _ in range(self.wl.round_size))
            if measured >= seconds:
                return

    def median_job(self, since: int = 0) -> float:
        """Median scaled seconds of the completed jobs from ``since`` on."""
        return statistics.median(self.scaled[since:])

    def rate(self, since: int = 0) -> float:
        """Verified jobs per second: the share of jobs that did not fail over
        the median scaled job time."""
        return (1.0 - self.failed / self.attempted) / self.median_job(since)


def _peak_rss_mib(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _startup_s(env: dict, count: int = 3) -> float:
    """Median wall time of a fresh `python -m isospec.cli fixture list`."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "isospec.cli", "fixture", "list"],
                       env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _per_layer(summary, setup_summary, jobs: int, startup: float, overhead: float) -> dict:
    out = {}
    for metric, unit, kind, names in PER_LAYER:
        entries = [summary.get(n) for n in names]
        entries = [e for e in entries if e is not None]
        if kind == "startup":
            value = startup
        elif kind == "overhead":
            value = overhead
        elif kind == "mean":
            merged = entries + [setup_summary[n] for n in names if n in setup_summary]
            calls = sum(e["calls"] for e in merged)
            value = sum(e["total"] for e in merged) / calls if calls else 0.0
        else:
            value = sum(e[kind] for e in entries) / jobs
        out[metric] = {"value": value, "unit": unit}
    return out


def work(args) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    tracer = None
    if args.trace and args.role == "measure":
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliPipeline:
        workdir = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
        wl = cls(args.seed, args.profile, workdir=workdir)
    else:
        wl = cls(args.seed, args.profile)
    print("READY", flush=True)
    reference = Reference()
    reference()  # the first call pays for numpy's lazy set-up
    print(f"REF {statistics.median(reference() for _ in range(5))}", flush=True)
    if args.role == "setup":
        wl.close()
        return 0
    runner = Runner(wl, reference)
    try:
        if tracer is not None:
            tracer.uninstall()
            setup_summary = tracer.summary()
            if cls is workloads.CliPipeline:
                wl.in_process = True
        runner.rounds(0.0)  # warm-up: one round, not timed
        first = len(runner.scaled)
        if tracer is None:
            runner.rounds(args.seconds)
            result = {
                "jobs_per_s": runner.rate(first),
                "peak_rss_mib": _peak_rss_mib(children=cls is workloads.CliPipeline),
            }
        else:
            runner.rounds(args.seconds / 2)
            untraced = runner.median_job(first)
            mark, traced_first, traced_job = tracer.mark(), len(runner.scaled), runner.next_job
            wl.span = tracer.span
            tracer.install()
            runner.rounds(args.seconds / 2)
            tracer.uninstall()
            traced = runner.median_job(traced_first)
            startup = _startup_s(dict(os.environ)) if cls is workloads.CliPipeline else 0.0
            trace_path = ROOT / ".bench_runs" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            trace_path.parent.mkdir(exist_ok=True)
            tracer.write(trace_path)
            if tracer.missing:
                print(f"not traced (absent): {tracer.missing}", file=sys.stderr)
            result = {"per_layer": _per_layer(
                tracer.summary(mark), setup_summary, runner.next_job - traced_job,
                startup, 100.0 * (traced / untraced - 1.0),
            )}
    finally:
        wl.close()
    result.update(samples=runner.samples[first:], attempted=runner.attempted,
                  failed=runner.failed, problems=runner.problems)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "driver":
        return drive(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
