"""The output comparison of ``tools/same_outputs.py``: what may differ from
run to run (the ``elapsed:`` line, the timing sidecar) is left out, and
every other difference is named."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_a_checkout_matches_itself(tmp_path):
    args = ["check", "docs/conformance/valid/op-halfspace-box.noc"]
    runs = []
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        runs.append(same_outputs.run(ROOT, args, tmp_path / side))
    assert runs[0]["exit code"] == 3
    assert list(runs[0]["files"]) == ["report.json"]
    assert b"elapsed:" not in runs[0]["stderr"]
    assert same_outputs.differences("check", *runs) == []


def test_every_difference_is_named():
    old = {"exit code": 0, "stdout": b"same", "stderr": b"",
           "files": {"report.json": b"1", "extra.json": b""}}
    new = {"exit code": 3, "stdout": b"same", "stderr": b"error",
           "files": {"report.json": b"2", "new.json": b""}}
    assert same_outputs.differences("check f", old, new) == [
        "check f: exit code differs",
        "check f: stderr differs",
        "check f: extra.json only in OLD",
        "check f: new.json only in NEW",
        "check f: report.json differs",
    ]
