"""Compare the benchmark of two checkouts of noc in alternating pairs.

Usage::

    python tools/bench_pairs.py OLD NEW [--workload W ...] [--pairs K]
                                [--out BENCH.json]

OLD and NEW are the roots of two checkouts (``git archive <commit> | tar
-x -C <dir>`` makes one).  For every workload (default: all that
``BENCHMARK.json`` lists) it runs ``perfbench/run.py --workload W --trace 0
--seconds S`` K times in each checkout, alternating which side runs first,
each run in its own process with the checkout as working directory.  S is
the ``run_seconds`` of NEW's ``BENCHMARK.json``.

The file written holds, per workload and per end-to-end metric of NEW's
``BENCHMARK.json``: each side's runs, median and quartiles, the pairs
NEW won, lost and tied, how much worse NEW's median is as a share of OLD's
(negative when better), that metric's bound, and a verdict; plus each
side's operation counts and check results, and the machine (cores,
Python, NumPy).  The verdict is, in this order:

* ``unresolved``: either side's interquartile range is wider than the
  bound times its median, so the runs spread too widely to tell, unless
  every run of NEW is better than every run of OLD;
* ``worse``: NEW's median is worse than OLD's by more than the bound;
* ``gain``: NEW won at least nine pairs in ten and its median is better
  than OLD's by more than OLD's interquartile range;
* ``flat``: anything else.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("old", "new")


def run_once(root: Path, workload: str, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``root``: its result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "0", "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: perfbench {workload} exited "
                           f"{done.returncode}: {done.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, metrics: list) -> dict:
    """Per-workload summary of the alternating runs ``runs`` (side -> list
    of result dicts, pair i is ``runs["old"][i]`` with ``runs["new"][i]``)
    for the end-to-end ``metrics`` of ``BENCHMARK.json``."""
    out = {side: {"correct": all(r["correct"] for r in runs[side]),
                  "attempted": sum(r["attempted"] for r in runs[side]),
                  "failed": sum(r["failed"] for r in runs[side])}
           for side in SIDES}
    out["metrics"] = {}
    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        # positive: NEW is worse in that pair
        deltas = [sign * (b - a) for a, b in zip(values["old"], values["new"])]
        wins = sum(d < 0 for d in deltas)
        stats = {side: _quartiles(values[side]) for side in SIDES}
        old_median = stats["old"]["median"]
        gain = -sign * (stats["new"]["median"] - old_median)
        worse_by = -gain / old_median if old_median else 0.0
        spread = any(stats[side]["iqr"] > spec["bound"] * abs(stats[side]["median"])
                     for side in SIDES)
        if spread and max(sign * v for v in values["new"]) >= min(
                sign * v for v in values["old"]):
            verdict = "unresolved"
        elif worse_by > spec["bound"]:
            verdict = "worse"
        elif wins >= math.ceil(0.9 * len(deltas)) and gain > stats["old"]["iqr"]:
            verdict = "gain"
        else:
            verdict = "flat"
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"],
            "old": {"runs": values["old"], **stats["old"]},
            "new": {"runs": values["new"], **stats["new"]},
            "wins": wins,
            "losses": sum(d > 0 for d in deltas),
            "ties": sum(d == 0 for d in deltas),
            "worse_by": worse_by,
            "bound": spec["bound"],
            "verdict": verdict,
        }
    return out


def machine() -> dict:
    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def compare(old: Path, new: Path, workloads, pairs: int,
            seconds: float) -> dict:
    """Run ``pairs`` alternating pairs of ``seconds``-long runs of each of
    ``workloads`` (default: every one of NEW's ``BENCHMARK.json``) in the
    checkouts ``old`` and ``new``; the comparison described above."""
    bench = json.loads((new / "BENCHMARK.json").read_text())
    names = workloads or [w["name"] for w in bench["workloads"]]
    result = {"old": old.name, "new": new.name, "pairs": pairs,
              "seconds": seconds, "machine": machine(), "workloads": {}}
    for workload in names:
        runs = {side: [] for side in SIDES}
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(old if side == "old" else new,
                                           workload, seconds))
            print(f"{workload} pair {i + 1}/{pairs} done", flush=True)
        result["workloads"][workload] = summarize(runs, bench["end_to_end"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; "
                             "default: every one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    seconds = json.loads((new / "BENCHMARK.json").read_text())["run_seconds"]
    result = compare(old, new, args.workload, args.pairs, seconds)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    return 0


def report(result: dict) -> None:
    for workload, summary in result["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: old {m['old']['median']:.4g} "
                  f"new {m['new']['median']:.4g} {m['unit']}, NEW won "
                  f"{m['wins']}/{result['pairs']}, worse by "
                  f"{m['worse_by']:+.1%} (bound {m['bound']:.0%}): "
                  f"{m['verdict']}")


if __name__ == "__main__":
    sys.exit(main())
