"""Deterministic report serialization.

Reports are plain dicts rendered with sorted keys and repr-style float
formatting, so identical inputs produce byte-identical files.  A float
that is not finite (NaN or an infinity) is written as ``null``, so every
report is valid JSON.  Wall-clock timing is never part of the report body;
``write_report`` stores it in a sibling ``<path>.timing.json`` instead,
keeping the main artifact stable across re-runs.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

__all__ = [
    "index_sets_payload",
    "multiplier_payload",
    "rational_label",
    "report_to_json",
    "sweep_csv",
    "write_report",
]

_RATIONAL_TOL = 1e-12
_MAX_DENOMINATOR = 10 ** 6


def _plain(value):
    """Recursively convert numpy containers into JSON-serializable data;
    a non-finite float becomes None."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def rational_label(x: float) -> str:
    """Short fraction label when ``x`` is (numerically) rational, else repr."""
    x = float(x)
    if not np.isfinite(x):
        return repr(x)
    frac = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
    if abs(float(frac) - x) <= _RATIONAL_TOL * max(1.0, abs(x)):
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return repr(x)


def multiplier_payload(multipliers) -> list[dict]:
    out = []
    for mv in multipliers:
        weights = np.asarray(mv.weights, float)
        out.append({
            "weights": _plain(weights),
            "display": [rational_label(w) for w in weights],
            "from_lineality": bool(getattr(mv, "from_lineality", False)),
        })
    return out


def index_sets_payload(index_sets) -> dict:
    def group(values):
        return None if values is None else sorted(int(i) for i in values)

    return {
        "active": group(index_sets.active),
        "inactive": group(index_sets.inactive),
        "relaxed": group(index_sets.relaxed),
        "critical": group(index_sets.critical),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(_plain(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_report(path: str, report: dict, elapsed: float | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    if elapsed is not None:
        with open(f"{path}.timing.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"elapsed_seconds": float(elapsed)}) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def sweep_csv(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_cell(row.get(name)) for name in fieldnames])
    return buf.getvalue()
