"""The alternating-pair comparison of ``tools/bench_pairs.py``: its summary
and verdicts on canned run results, and one short real pair of this
checkout against itself."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _result(latency, rate, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"latency_p50_s": {"value": latency, "unit": "s"},
                        "verdicts_per_s": {"value": rate, "unit": "1/s"}}}


def test_the_summary_counts_pairs_and_quartiles():
    runs = {"old": [_result(2.0, 5.0), _result(4.0, 5.0), _result(3.0, 6.0),
                    _result(5.0, 4.0), _result(1.0, 3.0)],
            "new": [_result(1.0, 6.0), _result(2.0, 5.0), _result(3.0, 5.0),
                    _result(4.0, 5.0), _result(0.5, 4.0, correct=False, failed=1)]}
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["old"] == {"correct": True, "attempted": 50, "failed": 0}
    assert summary["new"] == {"correct": False, "attempted": 50, "failed": 1}
    latency = summary["metrics"]["latency_p50_s"]
    assert latency["old"] == {"runs": [2.0, 4.0, 3.0, 5.0, 1.0], "median": 3.0,
                              "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert latency["new"]["median"] == 2.0
    assert (latency["wins"], latency["losses"], latency["ties"]) == (4, 0, 1)
    assert latency["worse_by"] == pytest.approx(-1 / 3)
    assert latency["bound"] == 0.25
    # IQR 2.0 against 0.25 of the median 3.0: too wide to tell
    assert latency["verdict"] == "unresolved"
    rate = summary["metrics"]["verdicts_per_s"]         # higher is better
    assert (rate["wins"], rate["losses"], rate["ties"]) == (3, 1, 1)
    assert rate["old"]["median"] == 5.0 and rate["new"]["median"] == 5.0
    assert rate["worse_by"] == 0.0 and rate["verdict"] == "flat"


def test_a_worse_median_beyond_the_bound_is_flagged():
    runs = {"old": [_result(1.0, 10.0)], "new": [_result(1.3, 7.0)]}
    metrics = bench_pairs.summarize(runs, METRICS)["metrics"]
    assert metrics["latency_p50_s"]["worse_by"] == pytest.approx(0.3)
    assert metrics["latency_p50_s"]["verdict"] == "worse"
    assert metrics["verdicts_per_s"]["worse_by"] == pytest.approx(0.3)
    assert metrics["verdicts_per_s"]["verdict"] == "worse"
    assert metrics["latency_p50_s"]["old"]["iqr"] == 0.0


OLD = [1.0 + 0.01 * i for i in range(10)]              # median 1.045, IQR 0.045


@pytest.mark.parametrize("new,verdict", [
    ([x - 0.1 for x in OLD], "gain"),        # 10 of 10, by more than the IQR
    ([x - 0.02 for x in OLD], "flat"),       # 10 of 10, within the IQR
    ([x - 0.1 for x in OLD[:8]] + [x + 0.1 for x in OLD[8:]], "flat"),  # 8 of 10
    ([x + 0.3 for x in OLD], "worse"),
    ([0.6, 1.4] * 5, "unresolved"),          # NEW's IQR 0.8 of the median 1.0
    ([0.1, 0.9] * 5, "gain"),                # as wide, but every run is better
])
def test_the_verdict_of_ten_pairs(new, verdict):
    runs = {"old": [_result(x, 1.0) for x in OLD],
            "new": [_result(x, 1.0) for x in new]}
    metrics = bench_pairs.summarize(runs, METRICS)["metrics"]
    assert metrics["latency_p50_s"]["verdict"] == verdict


def test_a_checkout_against_itself_writes_every_field(capsys):
    data = bench_pairs.compare(ROOT, ROOT, ["sphere-check"], 1, 0.2)
    bench_pairs.report(data)
    assert set(data) == {"old", "new", "pairs", "seconds", "machine", "workloads"}
    assert set(data["machine"]) == {"cores", "machine", "python", "numpy"}
    summary = data["workloads"]["sphere-check"]
    assert summary["old"]["correct"] and summary["new"]["correct"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(summary["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for spec in bench["end_to_end"]:
        metric = summary["metrics"][spec["name"]]
        assert metric["bound"] == spec["bound"]
        assert metric["wins"] + metric["losses"] + metric["ties"] == 1
        assert len(metric["old"]["runs"]) == len(metric["new"]["runs"]) == 1
        assert metric["verdict"] in ("gain", "flat", "worse", "unresolved")
    assert "sphere-check latency_p50_s: old" in capsys.readouterr().out
