#!/usr/bin/env python3
"""Benchmark of the ``noc`` checker: three workloads, checked outputs,
end-to-end metrics from an untraced run and per-layer metrics from a
traced run.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload sphere-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every operation's raw and host-normalized seconds.  See README.md in
this directory for the workloads, the checks and the metrics.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import (contextmanager, nullcontext, redirect_stderr,
                        redirect_stdout)
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPHERE_FILE = BENCH / "sphere.noc"
OP_DISC_FILE = ROOT / "docs" / "conformance" / "valid" / "op-disc.noc"
OP_FINE_FILE = OUT / "op-disc-fine.noc"

WORKLOADS = ("ccs126-sweep", "sphere-check", "op-grid")
SETUP_PROBES = 3

# Reference kernel: one timing is the mean of REF_REPEATS runs of
# REF_STEPS RK4 steps.  NOMINAL_REF_S is a timing on the machine the
# README's figures come from, when it was quiet; normalized seconds are
# expressed in that machine's time.
REF_STEPS = 2000
REF_REPEATS = 3
SAMPLE_INTERVAL_S = 0.2
NOMINAL_REF_S = 0.0177

# ccs126-sweep: T = 0.1:0.7:13 by theta = 2.5, 3, 4 at 400 cells
SWEEP_T = tuple(round(0.1 + 0.05 * k, 12) for k in range(13))
SWEEP_THETA = (2.5, 3.0, 4.0)
SWEEP_CELLS = 400
SWEEP_LHS_TOL = 1e-3

# sphere-check: horizon and cell count of sphere.noc
SPHERE_T = 0.5
SPHERE_CELLS = 1000
CURVATURE_FLOOR = 1e-3

# op-grid: the unit disc sampled on a K x K lattice over [-1, 1]^2
OP_RESOLUTION = "0.00072"
OP_LATTICE = 2779


# ----------------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------------

def import_noc():
    """Import ``noc`` from this checkout's ``src``; exit if it is absent.

    ``noc.cli`` is imported here, before any tracing, so that the tracer
    finds its bindings to patch and to restore."""
    src = ROOT / "src"
    if not (src / "noc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no noc sources under {src}")
    sys.path.insert(0, str(src))
    import noc
    import noc.cli  # noqa: F401
    if Path(noc.__file__).resolve().parent != src / "noc":
        raise SystemExit(f"perfbench: imported noc from {noc.__file__}, "
                         f"not from {src}")


def run_cli(argv, sampler=None):
    """One in-process ``noc`` command: (exit code, stdout, raw seconds).

    With a ``HostSampler``, the reference kernel also runs at intervals
    while the command runs, and its time is left out of the raw seconds."""
    from noc import cli

    out = io.StringIO()
    sampling = sampler.during() if sampler else nullcontext(0.0)
    with redirect_stdout(out), redirect_stderr(io.StringIO()), \
            sampling as spent_before:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sampler.spent - spent_before
    return code, out.getvalue(), elapsed


# ----------------------------------------------------------------------------
# reference kernel (does not import noc)
# ----------------------------------------------------------------------------

def reference_kernel() -> np.ndarray:
    """REF_STEPS RK4 steps of a damped pendulum, a NumPy 2-vector each."""
    def f(y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])

    y = np.array([1.0, 0.0])
    h = 1e-3
    for _ in range(REF_STEPS):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def reference_seconds(repeats: int = REF_REPEATS) -> float:
    """Mean seconds of ``repeats`` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        y = reference_kernel()
        times.append(time.perf_counter() - start)
        if not np.all(np.isfinite(y)):
            raise RuntimeError("reference kernel diverged")
    return statistics.fmean(times)


class HostSampler:
    """Reference timings spread over one operation.

    ``sample`` takes a timing; the runner takes one before and one after
    the operation.  Inside ``during``, a SIGALRM handler takes a one-run
    timing every SAMPLE_INTERVAL_S.  The handler runs in the main thread
    between bytecodes, so it only suits operations that run on that
    thread alone.  ``spent`` is the time all samples took."""

    def __init__(self):
        self.timings: list[float] = []
        self.spent = 0.0

    def sample(self, repeats: int = REF_REPEATS):
        start = time.perf_counter()
        self.timings.append(reference_seconds(repeats))
        self.spent += time.perf_counter() - start

    @contextmanager
    def during(self):
        def handler(signum, frame):
            self.sample(1)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self.spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------------
# independent output checks (each returns a list of problems, empty if none)
# ----------------------------------------------------------------------------

def ccs126_lhs(T: float, theta: float) -> float:
    """Closed-form second-order value of ccs126 at horizon T."""
    return T * (-T * T / 3.0 + 2.5 * T + theta - 2.0)


def check_sweep(csv_text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    errors = []
    expected = {(T, theta) for T in SWEEP_T for theta in SWEEP_THETA}
    seen = set()
    if len(rows) != len(expected):
        errors.append(f"sweep has {len(rows)} rows, expected {len(expected)}")
    for row in rows:
        try:
            T, theta, lhs = (float(row["T"]), float(row["theta"]),
                             float(row["lhs"]))
        except (KeyError, TypeError, ValueError):
            errors.append(f"unreadable sweep row {row!r}")
            continue
        seen.add((round(T, 12), theta))
        if row["verdict"] != "refuted":
            errors.append(f"T={T} theta={theta}: verdict {row['verdict']!r}")
        gap = abs(lhs - ccs126_lhs(T, theta))
        if not gap < SWEEP_LHS_TOL:
            errors.append(f"T={T} theta={theta}: lhs {lhs!r} is {gap:.3g} "
                          f"from the closed form")
    if rows and seen != expected:
        errors.append("sweep rows do not cover the T x theta grid")
    return errors


def check_sphere(report: dict) -> list:
    errors = []
    if report.get("verdict") != "consistent":
        errors.append(f"verdict {report.get('verdict')!r}, expected "
                      f"'consistent'")
    second = report.get("second_order") or {}
    chosen = second.get("chosen_lhs")
    terms = second.get("terms") or {}
    if not isinstance(chosen, float) or "curvature" not in terms:
        return errors + ["report has no chosen_lhs or no curvature term"]
    h = SPHERE_T / SPHERE_CELLS
    expected = -SPHERE_T ** 3 / 3.0
    if not abs(chosen - expected) <= 4.0 * h * h:
        errors.append(f"chosen_lhs {chosen!r} differs from -T^3/3 = "
                      f"{expected!r} by more than 4h^2")
    if not abs(terms["curvature"]) >= CURVATURE_FLOOR:
        errors.append(f"curvature term {terms['curvature']!r} is not "
                      f"bounded away from zero")
    total = math.fsum(terms.values())
    if not abs(total - chosen) <= 1e-12 * (1.0 + math.fsum(
            abs(v) for v in terms.values())):
        errors.append(f"terms sum to {total!r}, not chosen_lhs {chosen!r}")
    return errors


def lattice_count(K: int) -> int:
    """Exact number of (i, j) in [0, K)^2 with
    (2i - K + 1)^2 + (2j - K + 1)^2 <= (K - 1)^2."""
    r2 = (K - 1) ** 2
    count = 0
    for i in range(K):
        a = 2 * i - K + 1
        rest = r2 - a * a
        if rest < 0:
            continue
        b = math.isqrt(rest)            # largest |2j - K + 1| allowed ...
        if (b - (K - 1)) % 2:           # ... with the parity of K - 1
            b -= 1
        if b >= 0:
            count += b + 1              # b, b - 2, ..., -b
    return count


def check_op(report: dict, num_feasible: int) -> list:
    errors = []
    if report.get("verdict") != "consistent":
        errors.append(f"verdict {report.get('verdict')!r}, expected "
                      f"'consistent'")
    grid = report.get("grid_search")
    if not grid:
        return errors + ["report has no grid search"]
    if grid["verdict"] != "confirmed":
        errors.append(f"grid search verdict {grid['verdict']!r}")
    if not abs(grid["best_value"]) <= grid["slack"]:
        errors.append(f"grid best value {grid['best_value']!r} is not 0 "
                      f"within the slack {grid['slack']!r}")
    if grid["num_feasible"] != num_feasible:
        errors.append(f"num_feasible {grid['num_feasible']} != lattice "
                      f"count {num_feasible}")
    return errors


# ----------------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------------

class Workload:
    name = ""
    normalized = True       # timed against the reference kernel
    verdicts_per_op = 1

    def prepare(self):
        OUT.mkdir(exist_ok=True)

    def argv(self) -> list:
        raise NotImplementedError

    def warmup_argv(self) -> list:
        return self.argv()

    def check(self, code: int, stdout: str) -> list:
        raise NotImplementedError

    def check_warmup(self, code: int, stdout: str) -> list:
        return self.check(code, stdout)

    def build(self):
        """Parse and build the workload's problem (the set-up probe)."""
        raise NotImplementedError


class SweepWorkload(Workload):
    name = "ccs126-sweep"
    verdicts_per_op = len(SWEEP_T) * len(SWEEP_THETA)

    def argv(self):
        return ["sweep", "preset:ccs126", "--grid", str(SWEEP_CELLS),
                "--param", "T=0.1:0.7:13", "--param", "theta=2.5,3,4"]

    def warmup_argv(self):
        return ["check", "preset:ccs126", "--grid", str(SWEEP_CELLS)]

    def check(self, code, stdout):
        if code != 0:
            return [f"sweep exited {code}"]
        return check_sweep(stdout)

    def check_warmup(self, code, stdout):
        return [] if code == 3 else [f"ccs126 check exited {code}"]

    def build(self):
        from noc.presets import load_preset
        from noc.problemfile import build_control_problem

        pf = replace(load_preset("ccs126"), cells=SWEEP_CELLS)
        pf = pf.with_param("T", SWEEP_T[0]).with_param("theta", SWEEP_THETA[0])
        return build_control_problem(pf)


class ReportWorkload(Workload):
    """A ``noc check --report`` whose report bytes must repeat exactly."""

    problem_file: Path
    report_file: Path

    def __init__(self):
        self.first_report = None

    def argv(self):
        return ["check", str(self.problem_file), "--report",
                str(self.report_file)]

    def check(self, code, stdout):
        if code != 0:
            return [f"check exited {code}"]
        data = self.report_file.read_bytes()
        if self.first_report is None:
            self.first_report = data
        errors = self.check_report(json.loads(data))
        if data != self.first_report:
            errors.append("report bytes differ from the first report")
        return errors


class SphereWorkload(ReportWorkload):
    name = "sphere-check"
    problem_file = SPHERE_FILE
    report_file = OUT / "sphere-report.json"

    def check_report(self, report):
        return check_sphere(report)

    def build(self):
        from noc.problemfile import build_control_problem, parse_problem_file

        return build_control_problem(
            parse_problem_file(SPHERE_FILE.read_text(encoding="utf-8")))


class OpGridWorkload(ReportWorkload):
    name = "op-grid"
    normalized = False      # memory-bound and threaded: raw seconds
    problem_file = OP_FINE_FILE
    report_file = OUT / "op-report.json"

    def __init__(self):
        super().__init__()
        self.num_feasible = None

    def problem_text(self) -> str:
        lines = OP_DISC_FILE.read_text(encoding="utf-8").splitlines()
        found = [i for i, line in enumerate(lines)
                 if line.startswith("resolution ")]
        if len(found) != 1:
            raise SystemExit(f"perfbench: {OP_DISC_FILE} has no single "
                             f"resolution line")
        lines[found[0]] = f"resolution {OP_RESOLUTION}"
        return "\n".join(lines) + "\n"

    def prepare(self):
        super().prepare()
        OP_FINE_FILE.write_text(self.problem_text(), encoding="utf-8")
        self.num_feasible = lattice_count(OP_LATTICE)

    def check_report(self, report):
        return check_op(report, self.num_feasible)

    def build(self):
        from noc.problemfile import build_opt_problem, parse_problem_file

        return build_opt_problem(parse_problem_file(self.problem_text()))


def make_workload(name: str) -> Workload:
    return {"ccs126-sweep": SweepWorkload, "sphere-check": SphereWorkload,
            "op-grid": OpGridWorkload}[name]()


# ----------------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------------

def setup_seconds(name: str) -> float:
    """Launch a process that builds the workload's problem; seconds from
    launch until it reports the problem built."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "built":
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return elapsed


class Operation:
    """One timed operation with the reference timings taken during it."""

    def __init__(self, raw, refs, traced):
        self.raw = raw
        self.refs = refs
        self.traced = traced

    @property
    def normalized(self) -> float:
        return self.raw * NOMINAL_REF_S / statistics.fmean(self.refs)


class Run:
    def __init__(self, workload: Workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.ops: list[Operation] = []
        self.errors: list[str] = []
        self.failed = 0
        self.layer_samples: list[dict] = []
        self.function_table = []

    def one_op(self, traced: bool):
        from tracing import Tracer

        wl = self.workload
        tracer = Tracer()
        sampler = HostSampler()
        sampler.sample()
        try:
            if traced:         # samples inside spans would count as work
                with tracer.installed():
                    code, stdout, raw = run_cli(wl.argv())
            else:
                code, stdout, raw = run_cli(
                    wl.argv(), sampler if wl.normalized else None)
        except Exception as ex:  # an operation that fails is counted
            self.failed += 1
            self.errors.append(f"operation raised {type(ex).__name__}: {ex}")
            return
        sampler.sample()
        op = Operation(raw, sampler.timings, traced)
        self.ops.append(op)
        self.errors.extend(wl.check(code, stdout))
        if traced:
            self.layer_samples.append(tracer.layer_metrics(wl.verdicts_per_op))
            self.function_table = tracer.function_table()
        print(f"op {len(self.ops):3d} {'traced  ' if traced else 'untraced'}"
              f" raw {op.raw:.4f} s  normalized {op.normalized:.4f} s  "
              f"reference mean {statistics.fmean(op.refs):.5f} s "
              f"over {len(op.refs)}", flush=True)

    def measure(self):
        wl = self.workload
        code, stdout, _ = run_cli(wl.warmup_argv())
        self.errors.extend(wl.check_warmup(code, stdout))
        start = time.perf_counter()
        while True:
            self.one_op(traced=False)
            if self.trace:
                self.one_op(traced=True)
            if time.perf_counter() - start >= self.seconds:
                break

    # -- results ------------------------------------------------------------

    def latencies(self, traced: bool, raw: bool = False) -> list:
        raw = raw or not self.workload.normalized
        return [op.raw if raw else op.normalized
                for op in self.ops if op.traced == traced]

    def end_to_end(self, setup: list) -> dict:
        lat = self.latencies(False)
        verdicts = self.workload.verdicts_per_op * len(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (statistics.median(setup), "s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "verdicts_per_s": (verdicts / math.fsum(lat), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        from tracing import COUNT_METRICS, PER_LAYER

        samples = self.layer_samples
        if not samples:
            raise SystemExit("perfbench: no traced operation completed")
        for name in COUNT_METRICS:
            if len({s[name] for s in samples}) != 1:
                self.errors.append(f"traced count {name} differs between "
                                   f"operations: {[s[name] for s in samples]}")
        overhead = ((statistics.median(self.latencies(True))
                     - statistics.median(self.latencies(False)))
                    / self.workload.verdicts_per_op)
        out = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            elif name in COUNT_METRICS:
                value = samples[0][name]
            else:
                value = statistics.median(s[name] for s in samples)
            out[name] = (value, unit)
        return out


def run_workload(name: str, seconds: float, trace: bool, seed: int) -> dict:
    workload = make_workload(name)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"NOC_THREADS unset  seconds {seconds}", flush=True)
    setup = [] if trace else [setup_seconds(name)
                              for _ in range(SETUP_PROBES)]
    if setup:
        print("setup " + " ".join(f"{s:.4f}" for s in setup) + " s",
              flush=True)
    workload.prepare()
    run = Run(workload, seconds, trace)
    run.measure()
    metrics = run.per_layer() if trace else run.end_to_end(setup)
    if trace:
        print("busiest traced functions (calls, self s, last traced op):")
        for key, calls, busy in run.function_table[:15]:
            print(f"  {key:45s} {calls:9d} {busy:10.4f}")
    else:
        raw = statistics.median(run.latencies(False, raw=True))
        norm = statistics.median(op.normalized for op in run.ops)
        print(f"latency_p50_s raw {raw!r} s, normalized {norm!r} s")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key}: {value!r} {unit}")
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    return {
        "correct": not run.errors,
        "attempted": len(run.ops) + run.failed,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def run_all(seconds: float, seed: int, traces) -> dict:
    """Every workload in its own process (so peak RSS is its own), first
    untraced, then traced; metric names are prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} exited "
                                 f"{proc.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every input is deterministic")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default with --workload all: both)")
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("NOC_THREADS", None)    # the default, here and in children

    import_noc()
    if args.setup_probe:
        make_workload(args.setup_probe).build()
        print("built", flush=True)
        return 0
    if args.workload == "all":
        traces = (0, 1) if args.trace is None else (args.trace,)
        result = run_all(args.seconds, args.seed, traces)
    else:
        result = run_workload(args.workload, args.seconds,
                              bool(args.trace), args.seed)
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
