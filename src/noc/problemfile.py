"""Line-oriented problem-file format: parsing, validation, serialization.

A problem file is plain text: one directive per line, nested blocks opened
by a line ending in ``{`` and closed by a ``}`` line, comments from ``#``
to end of line.  Inside ``dynamics``, ``control`` and similar expression
blocks each content line is one whole expression; everywhere else lines
split into whitespace-separated tokens.  The exact grammar ships in
docs/problem-file-format.md together with a conformance corpus.

Scalar parameters declared with ``param NAME VALUE`` are variables of
every expression, compiled as extra arguments, so a sweep rebinds their
values without parsing again; the horizon is always available under the
implicit name ``T``, and a parameter named ``pi`` shadows the constant.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

try:                                    # the interpreter's own SHA-256, not OpenSSL's
    from _sha2 import sha256            # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .cones import Ball, Box, Polyhedron, ProductSet, set_dim
from .errors import ProblemFileError

__all__ = [
    "ControlModel",
    "DirectionSpec",
    "ProblemFile",
    "build_control_problem",
    "build_direction_arrays",
    "build_nominal_controls",
    "build_opt_problem",
    "parse_problem_file",
    "parse_set_inline",
    "serialize_problem_file",
]

SCHEMA_VERSION = 1

CONTROL_KINDS = ("ocp", "ocpe")
ALL_KINDS = CONTROL_KINDS + ("op",)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_RESERVED_RE = re.compile(r"(?:[tT]|[yux]\d*|y0\d*|yT\d*)\Z")


# ----------------------------------------------------------------------------
# raw tree
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class _Node:
    line_no: int
    text: str                       # directive text (block header sans '{')
    children: tuple | None = None   # None for plain lines


def _strip(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


def _parse_tree(text: str) -> tuple:
    lines = text.splitlines()
    pos = 0

    def block(depth: int) -> list[_Node]:
        nonlocal pos
        out: list[_Node] = []
        while pos < len(lines):
            raw = _strip(lines[pos])
            no = pos + 1
            pos += 1
            body = raw.strip()
            if not body:
                continue
            if body == "}":
                if depth == 0:
                    raise ProblemFileError(f"line {no}: unmatched '}}'")
                return out
            if body.endswith("{"):
                header = body[:-1].strip()
                if not header:
                    raise ProblemFileError(f"line {no}: block needs a name")
                children = block(depth + 1)
                out.append(_Node(no, header, tuple(children)))
            else:
                out.append(_Node(no, body))
        if depth:
            raise ProblemFileError("unexpected end of file inside a block")
        return out

    return tuple(block(0))


def _tokens(node: _Node) -> list[str]:
    return node.text.split()


def _floats(node: _Node, what: str) -> tuple:
    toks = _tokens(node)[1:]
    try:
        return tuple(float(t) for t in toks)
    except ValueError:
        raise ProblemFileError(
            f"line {node.line_no}: {what}: expected numbers, got "
            f"{' '.join(toks)!r}") from None


# ----------------------------------------------------------------------------
# surface form
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionSpec:
    v_texts: tuple | None = None     # per control component, exprs in t
    rows: tuple | None = None        # ((v11, ..., v1m), ...) explicit table
    start_rate: tuple | None = None
    sigmas: tuple = ()               # extra constant candidates, each (m,)
    ws: tuple = ()                   # extra start accelerations, each (n,)
    y: tuple | None = None           # finite-dimensional direction


@dataclass(frozen=True)
class ProblemFile:
    """Validated surface form of a problem file (kind-dependent fields)."""

    kind: str
    schema_version: int = SCHEMA_VERSION
    chart: tuple | None = None          # (type, value), see _CHART_KINDS
    cells: int | None = None
    horizon: float | None = None
    params: tuple = ()                  # ((name, value), ...) in file order
    start: tuple | None = None
    end: tuple | None = None            # ocpe only
    dynamics_texts: tuple | None = None
    running_cost: str | None = None     # ocpe only
    cost_text: str | None = None
    inequality_texts: tuple = ()
    equality_texts: tuple = ()
    control_set: object = None          # built Ball | Box | Polyhedron | ProductSet
    control_texts: tuple | None = None  # nominal control, exprs in t
    direction: DirectionSpec | None = None
    tolerances: tuple = ()              # ((key, value), ...)
    dim: int | None = None              # op only
    domain: object = None               # op only, built set
    point: tuple | None = None          # op only
    resolution: float | None = None     # op only, optional grid oracle

    def param_dict(self) -> dict:
        return dict(self.params)

    def tolerance_dict(self) -> dict:
        return dict(self.tolerances)

    def digest(self) -> str:
        text = serialize_problem_file(self)
        return sha256(text.encode("utf-8")).hexdigest()

    def with_param(self, name: str, value: float) -> "ProblemFile":
        if name in ("T", "horizon"):
            return replace(self, horizon=float(value))
        items = dict(self.params)
        if name not in items:
            raise ProblemFileError(f"unknown parameter {name!r}; declared: "
                                   f"{sorted(items) or 'none'}")
        items[name] = float(value)
        return replace(self, params=tuple(items.items()))


# ----------------------------------------------------------------------------
# convex sets
# ----------------------------------------------------------------------------

def _parse_set_nodes(nodes: tuple, where: str):
    """The set written in ``nodes``. A malformed line raises a
    ProblemFileError naming ``where``; a set its class refuses raises the
    class's ValueError."""
    if not nodes:
        raise ProblemFileError(f"{where}: empty set block")
    head = nodes[0]
    toks = _tokens(head)
    tag = toks[0]
    if tag == "ball":
        vals = _floats(head, where)
        if len(vals) < 2:
            raise ProblemFileError(
                f"line {head.line_no}: {where}: ball needs center "
                f"coordinates and a radius")
        _only_one_line(nodes, where)
        return Ball(center=vals[:-1], radius=vals[-1])
    if tag == "box":
        vals = _floats(head, where)
        if len(vals) < 2 or len(vals) % 2:
            raise ProblemFileError(
                f"line {head.line_no}: {where}: box needs an even number of "
                f"values (lower bounds then upper bounds)")
        _only_one_line(nodes, where)
        half = len(vals) // 2
        return Box(lower=vals[:half], upper=vals[half:])
    if tag == "polyhedron":
        rows = []
        for node in nodes[1:]:
            if _tokens(node)[0] != "row":
                raise ProblemFileError(
                    f"line {node.line_no}: {where}: polyhedron blocks "
                    f"contain 'row a1 .. an b' lines")
            vals = _floats(node, where)
            if len(vals) < 2:
                raise ProblemFileError(
                    f"line {node.line_no}: {where}: row needs coefficients "
                    f"and a bound")
            rows.append(vals)
        if not rows:
            raise ProblemFileError(
                f"line {head.line_no}: {where}: polyhedron needs rows")
        if len({len(r) for r in rows}) != 1:
            raise ProblemFileError(
                f"line {head.line_no}: {where}: polyhedron rows must have "
                f"equal length")
        return Polyhedron(A=tuple(r[:-1] for r in rows),
                          b=tuple(r[-1] for r in rows))
    if tag == "product":
        raise ProblemFileError(
            f"line {head.line_no}: {where}: write product factors as "
            f"nested blocks: product {{ factor {{ ... }} ... }}")
    raise ProblemFileError(
        f"line {head.line_no}: {where}: unknown set kind {tag!r} "
        f"(ball, box, polyhedron, product)")


def _only_one_line(nodes: tuple, where: str):
    if len(nodes) > 1:
        raise ProblemFileError(
            f"line {nodes[1].line_no}: {where}: unexpected extra line")


def _parse_set_block(node: _Node, where: str):
    if node.children is None:
        raise ProblemFileError(
            f"line {node.line_no}: {where} must be a block")
    kids = node.children
    if not kids:
        raise ProblemFileError(f"line {node.line_no}: {where}: empty block")
    try:
        if len(kids) == 1 and kids[0].children is not None \
                and _tokens(kids[0])[0] == "product":
            factors = []
            for sub in kids[0].children:
                if sub.children is None:
                    raise ProblemFileError(
                        f"line {sub.line_no}: {where}: product factors are "
                        f"'factor {{ ... }}' blocks")
                factors.append(_parse_set_nodes(sub.children, where))
            if not factors:
                raise ProblemFileError(
                    f"line {kids[0].line_no}: {where}: empty product")
            return ProductSet(tuple(factors))
        return _parse_set_nodes(kids, where)
    except ValueError as ex:
        raise ProblemFileError(f"{where}: {ex}") from None


def parse_set_inline(text: str):
    """The convex set of a one-argument description, e.g. ``"ball 0 0 1"``
    or ``"polyhedron ; row -1 0 0 ; row 0 -1 0"`` (';' separates lines):
    a built ``Ball``, ``Box`` or ``Polyhedron``."""
    lines = [seg.strip() for seg in text.split(";") if seg.strip()]
    if not lines:
        raise ProblemFileError("empty set description")
    nodes = tuple(_Node(i + 1, line) for i, line in enumerate(lines))
    try:
        return _parse_set_nodes(nodes, "set")
    except ValueError as ex:
        raise ProblemFileError(str(ex)) from None


def _serialize_set(U, pad: str) -> list[str]:
    if isinstance(U, Ball):
        return [f"{pad}ball {_nums(U.center)} {_num(U.radius)}"]
    if isinstance(U, Box):
        return [f"{pad}box {_nums(U.lower)} {_nums(U.upper)}"]
    if isinstance(U, Polyhedron):
        return [f"{pad}polyhedron"] + [f"{pad}row {_nums(a)} {_num(b)}"
                                       for a, b in zip(U.A, U.b)]
    out = [f"{pad}product {{"]
    for f in U.factors:
        out.append(f"{pad}  factor {{")
        out += _serialize_set(f, pad + "    ")
        out.append(f"{pad}  }}")
    out.append(f"{pad}}}")
    return out


def _num(x: float) -> str:
    return repr(float(x))


def _nums(xs) -> str:
    return " ".join(_num(x) for x in xs)


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------

def parse_problem_file(text: str) -> ProblemFile:
    nodes = _parse_tree(text)
    if not nodes:
        raise ProblemFileError("empty problem file")
    head = nodes[0]
    toks = _tokens(head)
    if toks[0] != "noc" or len(toks) != 2:
        raise ProblemFileError(
            f"line {head.line_no}: file must start with 'noc <schema>'")
    try:
        version = int(toks[1])
    except ValueError:
        raise ProblemFileError(
            f"line {head.line_no}: schema version must be an integer") from None
    if version != SCHEMA_VERSION:
        raise ProblemFileError(
            f"line {head.line_no}: unsupported schema version {version} "
            f"(this build reads {SCHEMA_VERSION})")

    fields: dict = {"schema_version": version}
    params: list = []
    tolerances: list = []
    inequality_texts: list = []
    equality_texts: list = []
    seen: set = set()

    def once(node: _Node, key: str):
        if key in seen:
            raise ProblemFileError(
                f"line {node.line_no}: duplicate {key!r} directive")
        seen.add(key)

    for node in nodes[1:]:
        key = _tokens(node)[0]
        rest = node.text[len(key):].strip()
        if key == "kind":
            once(node, key)
            if rest not in ALL_KINDS:
                raise ProblemFileError(
                    f"line {node.line_no}: kind: expected one of "
                    f"{', '.join(ALL_KINDS)}, got {rest!r}")
            fields["kind"] = rest
        elif key == "chart":
            once(node, key)
            fields["chart"] = _parse_chart(node)
        elif key == "grid":
            once(node, key)
            grid = _key_values(node, "grid", {"cells": int, "horizon": float})
            fields.update((k, v) for k, (v, _) in grid.items())
        elif key == "param":
            name_val = _tokens(node)[1:]
            if len(name_val) != 2:
                raise ProblemFileError(
                    f"line {node.line_no}: param: expected 'param NAME "
                    f"VALUE'")
            name = name_val[0]
            if not _NAME_RE.match(name) or _RESERVED_RE.match(name):
                raise ProblemFileError(
                    f"line {node.line_no}: param: name {name!r} is reserved "
                    f"or invalid")
            if any(n == name for n, _ in params):
                raise ProblemFileError(
                    f"line {node.line_no}: param: duplicate name {name!r}")
            try:
                params.append((name, float(name_val[1])))
            except ValueError:
                raise ProblemFileError(
                    f"line {node.line_no}: param: value must be a number") \
                    from None
        elif key == "start":
            once(node, key)
            fields["start"] = _floats(node, "start")
        elif key == "end":
            once(node, key)
            fields["end"] = _floats(node, "end")
        elif key == "dynamics":
            once(node, key)
            fields["dynamics_texts"] = _expr_block(node, "dynamics")
        elif key == "running_cost":
            once(node, key)
            fields["running_cost"] = _inline_expr(node, rest, "running_cost")
        elif key == "endpoint":
            once(node, key)
            cost, ineqs, eqs = _parse_endpoint(node)
            fields["cost_text"] = cost
            inequality_texts += ineqs
            equality_texts += eqs
        elif key == "cost":
            once(node, key)
            fields["cost_text"] = _inline_expr(node, rest, "cost")
        elif key == "inequality":
            inequality_texts.append(_inline_expr(node, rest, "inequality"))
        elif key == "equality":
            equality_texts.append(_inline_expr(node, rest, "equality"))
        elif key == "control_set":
            once(node, key)
            fields["control_set"] = _parse_set_block(node, "control_set")
        elif key == "control":
            once(node, key)
            fields["control_texts"] = _expr_block(node, "control")
        elif key == "direction":
            once(node, key)
            fields["direction"] = _parse_direction(node)
        elif key == "tolerances":
            once(node, key)
            tols = _key_values(node, "tolerances", dict.fromkeys(
                ("activity", "row", "margin", "stationarity", "qualify"),
                float), "tolerances: value", "'key value'")
            tolerances += [(k, v) for k, (v, _) in tols.items()]
        elif key == "dim":
            once(node, key)
            try:
                fields["dim"] = int(rest)
            except ValueError:
                raise ProblemFileError(
                    f"line {node.line_no}: dim must be an integer") from None
        elif key == "domain":
            once(node, key)
            fields["domain"] = _parse_set_block(node, "domain")
        elif key == "point":
            once(node, key)
            fields["point"] = _floats(node, "point")
        elif key == "resolution":
            once(node, key)
            try:
                fields["resolution"] = float(rest)
            except ValueError:
                raise ProblemFileError(
                    f"line {node.line_no}: resolution must be a number") \
                    from None
        else:
            raise ProblemFileError(
                f"line {node.line_no}: unknown directive {key!r}")

    if "kind" not in fields:
        raise ProblemFileError("missing 'kind' directive")
    pf = ProblemFile(params=tuple(params), tolerances=tuple(tolerances),
                     inequality_texts=tuple(inequality_texts),
                     equality_texts=tuple(equality_texts),
                     **fields)
    _validate_fields(pf)
    return pf


def _inline_expr(node: _Node, rest: str, what: str) -> str:
    if node.children is not None or not rest:
        raise ProblemFileError(
            f"line {node.line_no}: {what}: expected an expression on the "
            f"same line")
    return rest


def _expr_block(node: _Node, what: str) -> tuple:
    if node.children is None:
        raise ProblemFileError(f"line {node.line_no}: {what} must be a block")
    texts = []
    for sub in node.children:
        if sub.children is not None:
            raise ProblemFileError(
                f"line {sub.line_no}: {what}: nested blocks are not allowed")
        texts.append(sub.text)
    if not texts:
        raise ProblemFileError(f"line {node.line_no}: {what}: empty block")
    return tuple(texts)


_TYPE_NAMES = {int: "an integer", float: "a number"}


def _key_values(node: _Node, what: str, types: dict, value_label: str = "",
                line_form: str = "'key value' lines") -> dict:
    """The ``key value`` lines of block ``node`` as {key: (value, line)},
    in file order.  ``types`` maps each key the block takes to the type of
    its value (str, int or float).  A line that is not two tokens, an
    unknown or repeated key and a value that does not convert are refused,
    the last with ``value_label`` (default ``what.key``) in its message."""
    if node.children is None:
        raise ProblemFileError(f"line {node.line_no}: {what} must be a block")
    out = {}
    for sub in node.children:
        toks = _tokens(sub)
        if len(toks) != 2 or sub.children is not None:
            raise ProblemFileError(
                f"line {sub.line_no}: {what}: expected {line_form}")
        key, text = toks
        if key not in types:
            raise ProblemFileError(
                f"line {sub.line_no}: {what}: unknown key {key!r} "
                f"(known: {', '.join(types)})")
        if key in out:
            raise ProblemFileError(
                f"line {sub.line_no}: {what}: duplicate {key!r}")
        try:
            out[key] = (types[key](text), sub.line_no)
        except ValueError:
            raise ProblemFileError(
                f"line {sub.line_no}: {value_label or f'{what}.{key}'} must "
                f"be {_TYPE_NAMES[types[key]]}") from None
    return out


class _ChartKind(NamedTuple):
    key: str            # the one key the type takes besides 'type'
    default: object     # the key's value when it is left out; None: required
    convert: type       # int or float


# One entry per chart type.  The type names its noc.geometry constructor,
# which takes the key's value and holds its rule: it raises a ValueError
# whose message starts with the key's name.
_CHART_KINDS = {
    "euclidean": _ChartKind("dim", None, int),
    "sphere": _ChartKind("radius", 1.0, float),
}


def _chart(spec: tuple):
    """The noc.geometry chart of a chart spec ``(type, value)``."""
    from . import geometry

    return getattr(geometry, spec[0])(spec[1])


def _parse_chart(node: _Node) -> tuple:
    types = {"type": str} | {k.key: k.convert for k in _CHART_KINDS.values()}
    kv = _key_values(node, "chart", types)
    if "type" not in kv:
        raise ProblemFileError(f"line {node.line_no}: chart: missing 'type'")
    ctype, line = kv.pop("type")
    kind = _CHART_KINDS.get(ctype)
    if kind is None:
        raise ProblemFileError(
            f"line {line}: chart.type: expected {' or '.join(_CHART_KINDS)}, "
            f"got {ctype!r}")
    for key, (_, line) in kv.items():
        if key != kind.key:
            raise ProblemFileError(
                f"line {line}: chart: type {ctype} takes {kind.key!r}, not "
                f"{key!r}")
    value, line = kv.get(kind.key, (kind.default, node.line_no))
    if value is None:
        raise ProblemFileError(
            f"line {node.line_no}: chart: {ctype} needs {kind.key!r}")
    try:
        _chart((ctype, value))
    except ValueError as ex:
        raise ProblemFileError(f"line {line}: chart.{ex}") from None
    return (ctype, value)


def _parse_endpoint(node: _Node):
    if node.children is None:
        raise ProblemFileError(
            f"line {node.line_no}: endpoint must be a block")
    cost = None
    ineqs, eqs = [], []
    for sub in node.children:
        toks = _tokens(sub)
        key = toks[0]
        rest = sub.text[len(key):].strip()
        if key == "cost":
            if cost is not None:
                raise ProblemFileError(
                    f"line {sub.line_no}: endpoint: duplicate cost")
            cost = _inline_expr(sub, rest, "endpoint.cost")
        elif key == "inequality":
            ineqs.append(_inline_expr(sub, rest, "endpoint.inequality"))
        elif key == "equality":
            eqs.append(_inline_expr(sub, rest, "endpoint.equality"))
        else:
            raise ProblemFileError(
                f"line {sub.line_no}: endpoint: unknown key {key!r}")
    if cost is None:
        raise ProblemFileError(
            f"line {node.line_no}: endpoint: missing cost")
    return cost, ineqs, eqs


def _parse_direction(node: _Node) -> DirectionSpec:
    if node.children is None:
        raise ProblemFileError(
            f"line {node.line_no}: direction must be a block")
    v_texts = rows = start_rate = y = None
    sigmas: list = []
    ws: list = []
    seen: set = set()
    for sub in node.children:
        key = _tokens(sub)[0]
        if key in seen and key not in ("sigma", "w"):
            raise ProblemFileError(
                f"line {sub.line_no}: direction: duplicate {key!r}")
        seen.add(key)
        if key == "v":
            parts = sub.text[1:].strip()
            if sub.children is not None or not parts:
                raise ProblemFileError(
                    f"line {sub.line_no}: direction.v: expected per-"
                    f"component expressions separated by ';'")
            v_texts = tuple(p.strip() for p in parts.split(";"))
            if any(not p for p in v_texts):
                raise ProblemFileError(
                    f"line {sub.line_no}: direction.v: empty component")
        elif key == "rows":
            if sub.children is None:
                raise ProblemFileError(
                    f"line {sub.line_no}: direction.rows must be a block")
            table = []
            for r in sub.children:
                try:
                    table.append(tuple(float(t) for t in _tokens(r)))
                except ValueError:
                    raise ProblemFileError(
                        f"line {r.line_no}: direction.rows: expected "
                        f"numbers") from None
            if not table or len({len(r) for r in table}) != 1:
                raise ProblemFileError(
                    f"line {sub.line_no}: direction.rows: need nonempty "
                    f"rows of equal length")
            rows = tuple(table)
        elif key == "start_rate":
            start_rate = _floats(sub, "direction.start_rate")
        elif key == "sigma":
            sigmas.append(_floats(sub, "direction.sigma"))
        elif key == "w":
            ws.append(_floats(sub, "direction.w"))
        elif key == "y":
            y = _floats(sub, "direction.y")
        else:
            raise ProblemFileError(
                f"line {sub.line_no}: direction: unknown key {key!r}")
    return DirectionSpec(v_texts=v_texts, rows=rows, start_rate=start_rate,
                         sigmas=tuple(sigmas), ws=tuple(ws), y=y)


def _validate_numbers(pf: ProblemFile):
    """Parameters, the horizon, the resolution and tolerances must be
    finite; tolerances must also be positive."""
    for name, value in pf.params:
        if not math.isfinite(value):
            raise ProblemFileError(
                f"param {name}: value must be finite, got {value!r}")
    for what, value in (("grid: horizon", pf.horizon), ("resolution", pf.resolution)):
        if value is not None and not math.isfinite(value):
            raise ProblemFileError(f"{what} must be finite, got {value!r}")
    for key, value in pf.tolerances:
        if not math.isfinite(value):
            raise ProblemFileError(
                f"tolerances: {key} must be finite, got {value!r}")
        if value <= 0:
            raise ProblemFileError(
                f"tolerances: {key} must be positive, got {value!r}")


def _validate_fields(pf: ProblemFile):
    _validate_numbers(pf)

    def need(name: str, cond: bool = True):
        if cond and getattr(pf, name) in (None, ()):
            raise ProblemFileError(
                f"kind {pf.kind!r}: missing required field {name!r}")

    def forbid(name: str, cond: bool = True):
        val = getattr(pf, name)
        if cond and val not in (None, (), ""):
            raise ProblemFileError(
                f"kind {pf.kind!r}: field {name!r} does not apply")

    if pf.kind in CONTROL_KINDS:
        for name in ("chart", "cells", "horizon", "start", "dynamics_texts",
                     "control_set", "control_texts"):
            need(name)
        for name in ("dim", "domain", "point", "resolution"):
            forbid(name)
        if pf.kind == "ocp":
            need("cost_text")
            forbid("end")
            forbid("running_cost")
        else:
            need("end")
            need("running_cost")
            forbid("cost_text")
            if pf.inequality_texts or pf.equality_texts:
                raise ProblemFileError(
                    "kind 'ocpe': endpoint rows are generated by the "
                    "augmentation; inequality/equality lines do not apply")
        n = _chart(pf.chart).dim
        if len(pf.start) != n:
            raise ProblemFileError(
                f"start: expected {n} coordinates, got {len(pf.start)}")
        if pf.end is not None and len(pf.end) != n:
            raise ProblemFileError(
                f"end: expected {n} coordinates, got {len(pf.end)}")
        if len(pf.dynamics_texts) != n:
            raise ProblemFileError(
                f"dynamics: expected {n} expressions, got "
                f"{len(pf.dynamics_texts)}")
        m = set_dim(pf.control_set)
        if len(pf.control_texts) != m:
            raise ProblemFileError(
                f"control: expected {m} expressions (the control-set "
                f"dimension), got {len(pf.control_texts)}")
        if pf.cells <= 0 or pf.horizon <= 0:
            raise ProblemFileError("grid: cells and horizon must be positive")
        d = pf.direction
        if d is not None:
            if d.y is not None:
                raise ProblemFileError(
                    "direction.y applies to kind 'op' only")
            if (d.v_texts is None) == (d.rows is None):
                raise ProblemFileError(
                    "direction: give exactly one of 'v' or 'rows'")
            if d.v_texts is not None and len(d.v_texts) != m:
                raise ProblemFileError(
                    f"direction.v: expected {m} expressions, got "
                    f"{len(d.v_texts)}")
            if d.rows is not None and (len(d.rows) != pf.cells
                                       or len(d.rows[0]) != m):
                raise ProblemFileError(
                    f"direction.rows: expected {pf.cells} rows of {m} "
                    f"numbers")
            if d.start_rate is not None and len(d.start_rate) != n:
                raise ProblemFileError(
                    f"direction.start_rate: expected {n} coordinates")
            for s in d.sigmas:
                if len(s) != m:
                    raise ProblemFileError(
                        f"direction.sigma: expected {m} coordinates")
            aug = 1 if pf.kind == "ocpe" else 0
            for w in d.ws:
                if len(w) not in (n, n + aug):
                    raise ProblemFileError(
                        f"direction.w: expected {n} coordinates")
    elif pf.kind == "op":
        for name in ("dim", "domain", "point", "cost_text"):
            need(name)
        for name in ("chart", "cells", "horizon", "start", "end",
                     "dynamics_texts", "running_cost", "control_set",
                     "control_texts"):
            forbid(name)
        N = pf.dim
        if N <= 0:
            raise ProblemFileError("dim must be positive")
        if set_dim(pf.domain) != N:
            raise ProblemFileError(
                f"domain: set dimension differs from dim {N}")
        if len(pf.point) != N:
            raise ProblemFileError(
                f"point: expected {N} coordinates, got {len(pf.point)}")
        d = pf.direction
        if d is not None:
            if d.y is None or any(x is not None for x in
                                  (d.v_texts, d.rows, d.start_rate)) \
                    or d.sigmas or d.ws:
                raise ProblemFileError(
                    "kind 'op': direction blocks hold a single 'y' line")
            if len(d.y) != N:
                raise ProblemFileError(
                    f"direction.y: expected {N} coordinates")
        if pf.resolution is not None and pf.resolution <= 0:
            raise ProblemFileError("resolution must be positive")


# ----------------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------------

def serialize_problem_file(pf: ProblemFile) -> str:
    """Canonical text form: fixed directive order, repr-formatted numbers.
    Parsing the output reproduces an equal ProblemFile."""
    out = [f"noc {pf.schema_version}", f"kind {pf.kind}"]
    if pf.chart is not None:
        ctype, value = pf.chart
        kind = _CHART_KINDS[ctype]
        out += ["chart {", f"  type {ctype}",
                f"  {kind.key} {kind.convert(value)!r}", "}"]
    if pf.cells is not None or pf.horizon is not None:
        out.append("grid {")
        if pf.cells is not None:
            out.append(f"  cells {pf.cells}")
        if pf.horizon is not None:
            out.append(f"  horizon {_num(pf.horizon)}")
        out.append("}")
    for name, value in pf.params:
        out.append(f"param {name} {_num(value)}")
    if pf.dim is not None:
        out.append(f"dim {pf.dim}")
    if pf.domain is not None:
        out.append("domain {")
        out += _serialize_set(pf.domain, "  ")
        out.append("}")
    if pf.point is not None:
        out.append(f"point {_nums(pf.point)}")
    if pf.start is not None:
        out.append(f"start {_nums(pf.start)}")
    if pf.end is not None:
        out.append(f"end {_nums(pf.end)}")
    if pf.dynamics_texts is not None:
        out.append("dynamics {")
        out += [f"  {t}" for t in pf.dynamics_texts]
        out.append("}")
    if pf.running_cost is not None:
        out.append(f"running_cost {pf.running_cost}")
    if pf.kind == "ocp" and pf.cost_text is not None:
        out.append("endpoint {")
        out.append(f"  cost {pf.cost_text}")
        out += [f"  inequality {t}" for t in pf.inequality_texts]
        out += [f"  equality {t}" for t in pf.equality_texts]
        out.append("}")
    if pf.kind == "op":
        out.append(f"cost {pf.cost_text}")
        out += [f"inequality {t}" for t in pf.inequality_texts]
        out += [f"equality {t}" for t in pf.equality_texts]
    if pf.control_set is not None:
        out.append("control_set {")
        out += _serialize_set(pf.control_set, "  ")
        out.append("}")
    if pf.control_texts is not None:
        out.append("control {")
        out += [f"  {t}" for t in pf.control_texts]
        out.append("}")
    if pf.direction is not None:
        d = pf.direction
        out.append("direction {")
        if d.v_texts is not None:
            out.append(f"  v {' ; '.join(d.v_texts)}")
        if d.rows is not None:
            out.append("  rows {")
            out += [f"    {_nums(r)}" for r in d.rows]
            out.append("  }")
        if d.start_rate is not None:
            out.append(f"  start_rate {_nums(d.start_rate)}")
        for s in d.sigmas:
            out.append(f"  sigma {_nums(s)}")
        for w in d.ws:
            out.append(f"  w {_nums(w)}")
        if d.y is not None:
            out.append(f"  y {_nums(d.y)}")
        out.append("}")
    if pf.resolution is not None:
        out.append(f"resolution {_num(pf.resolution)}")
    if pf.tolerances:
        out.append("tolerances {")
        out += [f"  {k} {_num(v)}" for k, v in pf.tolerances]
        out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------------

def _effective_params(pf: ProblemFile) -> dict:
    values = {name: float(v) for name, v in pf.params}
    if pf.horizon is not None:
        values["T"] = float(pf.horizon)
    return values


def _compile_control_problem(pf: ProblemFile, values: dict):
    from .conditions import mayer_augment
    from .dynamics import (dynamics_from_expressions,
                           endpoint_from_expressions, make_problem)

    chart = _chart(pf.chart)
    n = chart.dim
    m = set_dim(pf.control_set)
    if pf.kind == "ocpe":
        return mayer_augment(chart, pf.horizon, pf.dynamics_texts,
                             pf.running_cost, pf.start, pf.end, m,
                             pf.control_set, params=values)
    dynamics = dynamics_from_expressions(pf.dynamics_texts, n, m,
                                         params=values)
    cost = endpoint_from_expressions(pf.cost_text, n, label="cost",
                                     params=values)
    ineqs = tuple(endpoint_from_expressions(t, n, label=f"inequality {i}",
                                            params=values)
                  for i, t in enumerate(pf.inequality_texts))
    eqs = tuple(endpoint_from_expressions(t, n, label=f"equality {i}",
                                          params=values)
                for i, t in enumerate(pf.equality_texts))
    return make_problem(chart, pf.horizon, dynamics, cost,
                        inequality_maps=ineqs, equality_maps=eqs,
                        control_set=pf.control_set, probe_base=pf.start)


class ControlModel:
    """The control problem of an ocp/ocpe file, compiled once for every
    value of its params and horizon.

    The first ``problem`` call parses, differentiates and compiles each
    expression with the params and ``T`` as arguments, and ``make_problem``
    validates it at that file's values.  Later calls take a file that
    differs from the first only in those values and rebind them
    (``rebind_problem``): nothing is parsed or compiled, and the checks
    that the values can change run again, so each call fails or passes as
    a fresh build of its file would.  A sweep's model thus does once the
    validation draws, the compiling of the control and direction tables
    (when ``build_nominal_controls`` and ``build_direction_arrays`` first
    ask for them) and, through the control set it shares, the cone work of
    each distinct (control, direction) row, while every cell evaluates its
    tables at its own midpoints and runs its own checks and verdict.
    """

    def __init__(self):
        self._shape = None      # the first file, values left out
        self._problem = None
        self._functions = {}    # (text, names) -> compiled expression in t

    def problem(self, pf: ProblemFile):
        from .dynamics import rebind_problem

        if pf.kind not in CONTROL_KINDS:
            raise ProblemFileError(f"kind {pf.kind!r} is not a control problem")
        values = _effective_params(pf)
        shape = replace(pf, params=tuple(values), horizon=None)
        if self._problem is None:
            problem = _compile_control_problem(pf, values)
            self._shape, self._problem = shape, problem
            return problem
        if shape != self._shape:
            raise ValueError("the problem file differs from the compiled one "
                             "in more than its param values and horizon")
        start = pf.start + ((0.0,) if pf.kind == "ocpe" else ())
        return rebind_problem(self._problem, pf.horizon, values,
                              probe_base=start)

    def _time_function(self, text: str, names: tuple, what: str):
        """``text`` compiled as an expression in ``names``, once per model;
        a text that does not parse raises every time it is asked for."""
        from .expr import ExprError, compile_expr, parse_expr

        fn = self._functions.get((text, names))
        if fn is None:
            try:
                node = parse_expr(text, allowed_vars=set(names))
            except ExprError as ex:
                raise ProblemFileError(f"{what}: {ex}") from None
            fn = self._functions[text, names] = compile_expr(node, names)
        return fn


def build_control_problem(pf: ProblemFile, model: ControlModel | None = None):
    """Instantiate the dynamics-level problem described by an ocp/ocpe file.

    A sweep passes one ``model`` for all its cells, so the expressions are
    compiled and the derivative blocks probed once, at the first cell."""
    return (model or ControlModel()).problem(pf)


def _eval_time_rows(texts: tuple, pf: ProblemFile, what: str,
                    model: ControlModel | None) -> np.ndarray:
    """Evaluate per-component expressions in t at the cell midpoints, each
    compiled once per ``model``."""
    model = model or ControlModel()
    values = _effective_params(pf)
    names = ("t",) + tuple(values)
    h = pf.horizon / pf.cells
    t_mid = (np.arange(pf.cells) + 0.5) * h
    cols = []
    for text in texts:
        fn = model._time_function(text, names, what)
        vals = np.asarray(fn(t_mid, *values.values()), float)
        cols.append(np.broadcast_to(vals, t_mid.shape))
    return np.stack(cols, axis=1)


def build_nominal_controls(pf: ProblemFile,
                           model: ControlModel | None = None) -> np.ndarray:
    """The candidate control table: (cells, m), expressions sampled at
    cell midpoints (controls are constant on each cell). A sweep passes
    one ``model`` for all its cells, which compiles the expressions."""
    return _eval_time_rows(pf.control_texts, pf, "control", model)


def build_direction_arrays(pf: ProblemFile, model: ControlModel | None = None):
    """Direction table plus start rate for ocp/ocpe runs; the ocpe
    accumulator slot is appended automatically. ``model`` is as for
    ``build_nominal_controls``."""
    d = pf.direction
    if d.rows is not None:
        v = np.asarray(d.rows, float)
    else:
        v = _eval_time_rows(d.v_texts, pf, "direction.v", model)
    n = _chart(pf.chart).dim
    aug = 1 if pf.kind == "ocpe" else 0
    start_rate = np.zeros(n + aug)
    if d.start_rate is not None:
        start_rate[:n] = d.start_rate
    m = v.shape[1]
    sigmas = [np.tile(np.asarray(s, float), (pf.cells, 1)) for s in d.sigmas]
    ws = []
    for w in d.ws:
        arr = np.zeros(n + aug)
        arr[:len(w)] = w
        ws.append(arr)
    return v, start_rate, sigmas, ws, m


def build_opt_problem(pf: ProblemFile):
    """Instantiate the finite-dimensional problem described by an op file."""
    from .optproblem import make_opt_problem, opt_scalar_from_expression

    if pf.kind != "op":
        raise ProblemFileError(f"kind {pf.kind!r} is not a finite-"
                               f"dimensional problem")
    values = _effective_params(pf)

    def row(text: str, label: str):
        return opt_scalar_from_expression(text, pf.dim, label=label,
                                          params=values)

    return make_opt_problem(
        pf.domain,
        row(pf.cost_text, "cost"),
        inequalities=[row(t, f"inequality {i}")
                      for i, t in enumerate(pf.inequality_texts)],
        equalities=[row(t, f"equality {i}")
                    for i, t in enumerate(pf.equality_texts)])
