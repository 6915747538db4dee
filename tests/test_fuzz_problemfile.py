"""Mutation fuzzing of the problem-file parser and of ``noc check``.

Each mutant of a valid conformance file (lines deleted, duplicated or
truncated; tokens swapped for non-finite numbers, stray braces or an
out-of-range variable) must either parse, and then survive a canonical
round-trip, or raise ``ProblemFileError``. Any other exception is a parser
defect that would surface as an unexpected-error exit.

Mutants with numbers swapped for others (non-finite, negative, zero, tiny
or huge), and with such ``--set`` and ``--tol`` values, also run through
``cli.main``. Each run must exit 0, 2, 3 or 4 (never 1, nor raise), must
not report ``consistent`` or ``confirmed`` beside a non-finite value, and
must write a report that is strict JSON.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import noc.cli
from noc.errors import ProblemFileError
from noc.problemfile import parse_problem_file, serialize_problem_file

VALID = sorted((Path(__file__).resolve().parent.parent
                / "docs" / "conformance" / "valid").glob("*.noc"))
TEXTS = [path.read_text() for path in VALID]
TOKENS = ("nan", "1e400", "{", "}", "y9")

mutation = st.tuples(st.sampled_from(("delete", "duplicate", "truncate", "swap")),
                     st.integers(0, 10_000), st.integers(0, 10_000),
                     st.sampled_from(TOKENS))


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, at, pos, token in mutations:
        if not lines:
            break
        i = at % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:pos % (len(lines[i]) + 1)]
        else:
            words = lines[i].split()
            if words:
                words[pos % len(words)] = token
                lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@given(st.sampled_from(range(len(TEXTS))), st.lists(mutation, min_size=1, max_size=3))
def test_mutants_parse_or_raise_problem_file_error(index, mutations):
    text = _mutate(TEXTS[index], mutations)
    try:
        pf = parse_problem_file(text)
    except ProblemFileError:
        return
    canonical = serialize_problem_file(pf)
    assert parse_problem_file(canonical) == pf



NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")
NUMBERS = ("nan", "inf", "-1", "0", "1e-300", "1e-6", "0.1", "0.5", "1.5", "2", "3", "1e300")
PARSED = [parse_problem_file(text) for text in TEXTS]
TOL_KEYS = {"op": ("activity", "qualify"),
            "control": ("activity", "row", "margin", "stationarity")}


def _override_keys(pf) -> dict:
    """The keys that ``--set`` and ``--tol`` accept for this file."""
    control = pf.kind != "op"
    return {"--set": tuple(name for name, _ in pf.params) + (("T",) if control else ()),
            "--tol": TOL_KEYS["control" if control else "op"]}


def _swap_numbers(text: str, swaps) -> str:
    """``text`` with the ``at``-th number (counted cyclically) replaced by
    ``value``, for each (at, value) in turn."""
    for at, value in swaps:
        found = list(NUMBER.finditer(text))
        if found:
            match = found[at % len(found)]
            text = text[:match.start()] + value + text[match.end():]
    return text


def _without_sentinels(report: dict) -> dict:
    """``report`` less the values that are not finite by design: an
    unbounded ray's +inf second-order worst value, the pairing of a
    separation that found no separator, and an empty grid search's best
    value and slack."""
    report = dict(report)
    if "worst_values" in report.get("second_order", {}):
        report["second_order"] = {**report["second_order"], "worst_values": [
            w for w in report["second_order"]["worst_values"] if w != math.inf]}
    if report.get("separation", {}).get("separator", 0) is None:
        report["separation"] = {**report["separation"], "max_kappa_pairing": None}
    if report.get("grid_search", {}).get("verdict") == "empty":
        report["grid_search"] = {**report["grid_search"], "best_value": None,
                                 "slack": None}
    return report


def _non_finite(value) -> bool:
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_non_finite(v) for v in value)
    if isinstance(value, (float, np.floating, np.ndarray)):
        return not np.all(np.isfinite(value))
    return False


def _strict(text: str):
    def reject(constant):
        raise ValueError(f"report holds {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=300)
@given(st.sampled_from(range(len(TEXTS))), st.lists(mutation, max_size=1),
       st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(NUMBERS)), max_size=2),
       st.lists(st.tuples(st.sampled_from(("--set", "--tol")), st.integers(0, 100),
                          st.sampled_from(NUMBERS)), max_size=2),
       st.integers(1, 50))
def test_mutants_run_through_the_cli_to_an_honest_exit(tmp_path_factory, index, mutations,
                                                        swaps, overrides, cells):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "mutant.noc"
    text = _mutate(TEXTS[index], mutations) if mutations else TEXTS[index]
    path.write_text(_swap_numbers(text, swaps))
    argv = ["check", str(path), "--report", str(folder / "report.json")]
    if PARSED[index].kind != "op":
        argv += ["--grid", str(cells)]
    keys = _override_keys(PARSED[index])
    for flag, key, value in overrides:
        if keys[flag]:
            argv += [flag, f"{keys[flag][key % len(keys[flag])]}={value}"]
    written = []

    def spy(report_path, report, elapsed=None):
        written.append(report)
        return original(report_path, report, elapsed)

    original = noc.cli.write_report
    with mock.patch.object(noc.cli, "write_report", spy), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = noc.cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code == 2:
        return
    report, = written
    assert _strict((folder / "report.json").read_text())["verdict"] == report["verdict"]
    report = _without_sentinels(report)
    if report["verdict"] == "consistent":
        assert not _non_finite(report), report
    grid = report.get("grid_search", {})
    if grid.get("verdict") == "confirmed":
        assert not _non_finite(grid), grid
