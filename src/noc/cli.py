"""Command-line front end.

Subcommands:

* ``check <file> [--report out.json] [--grid N] [--set k=v] [--tol k=v]``
  runs the full pipeline on one problem file (or ``preset:<name>``) and
  exits 0 when the necessary conditions hold at the tested order, 3 when
  they are refuted, 4 when no verdict can be certified, 2 on input errors.
* ``sweep <file> --param NAME=START:STOP:COUNT|v1,v2,... [--out t.csv]``
  re-runs the check over a parameter grid and emits a CSV of verdicts and
  quadratic-form values. A control problem is parsed, compiled and
  validated once, at the first cell that builds; every cell rebinds the
  param values and horizon, re-validates the file and repeats the checks
  its values can change (see ``rebind_problem``), so a cell's row does not
  depend on its place. The cells run together (``_run_points``): each
  cell's own work runs cell by cell, and the variational and adjoint
  passes of up to ``STACK_DEPTH`` cells at a time run as one stacked pass
  each. ``check`` is a sweep of one cell.
* ``oracle cone <set> <u> <v> [<w>]`` queries first/second-order cone
  membership for a convex set described inline.

Each command imports its own stack when it runs: a control check or
sweep loads ``noc.conditions`` with ``noc.dynamics`` and ``noc.geometry``,
an op check loads ``noc.optproblem`` and builds one candidate record that
all its multiplier tests share, and the oracle loads neither.

All failures surface as one-line diagnostics on stderr, never tracebacks:
input errors and unexpected failures alike exit 2, and a numerical warning
raised on the way (an overflow, say) is named on that same line. A sweep records a
failing cell as a row with verdict ``error``, finishes the other cells and
then exits 2; its warnings are listed in cell order, as if the cells had
run one after another. Every stage runs on the calling thread.
"""
from __future__ import annotations

import argparse
import itertools
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from .cones import adjacent_cone_member, second_adjacent_member
from .errors import (DegenerateCone, NocError, NoMultiplier,
                     ProblemFileError, ResolutionTooCoarse)
from .polyhedral import ACTIVITY_TOL
from .presets import load_preset, preset_notes
from .problemfile import (ControlModel, ProblemFile, build_control_problem,
                          build_direction_arrays, build_nominal_controls,
                          build_opt_problem, parse_problem_file,
                          parse_set_inline, serialize_problem_file)
from .report import (index_sets_payload, multiplier_payload, sweep_csv,
                     write_report)

__all__ = ["main"]

VERDICT_EXIT = {"consistent": 0, "refuted": 3, "inconclusive": 4}
EXIT_INPUT_ERROR = 2


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noc",
        description="Numerical first/second-order optimality checks for "
                    "control problems on charted manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks on one problem")
    check.add_argument("file", help="problem file path or preset:<name>")
    check.add_argument("--report", help="write a JSON report here")
    check.add_argument("--grid", type=int, help="override the cell count")
    check.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a parameter (or T, the horizon)")
    check.add_argument("--tol", action="append", default=[], metavar="K=V",
                       help="override a tolerance")

    sweep = sub.add_parser("sweep", help="run the checks over a grid of "
                                         "parameter values")
    sweep.add_argument("file", help="problem file path or preset:<name>")
    sweep.add_argument("--param", action="append", required=True,
                       metavar="NAME=SPEC",
                       help="NAME=START:STOP:COUNT or NAME=v1,v2,...")
    sweep.add_argument("--out", help="write the CSV table here")
    sweep.add_argument("--grid", type=int, help="override the cell count")
    sweep.add_argument("--set", action="append", default=[], metavar="K=V")
    sweep.add_argument("--tol", action="append", default=[], metavar="K=V")

    oracle = sub.add_parser("oracle", help="query geometric oracles")
    osub = oracle.add_subparsers(dest="oracle_kind", required=True)
    cone = osub.add_parser("cone", help="first/second-order cone membership")
    cone.add_argument("set", help='inline set, e.g. "ball 0 0 1" or '
                                  '"polyhedron ; row -1 0 0"')
    cone.add_argument("u", help="base point coordinates")
    cone.add_argument("v", help="direction coordinates")
    cone.add_argument("w", nargs="?", help="second-order term coordinates")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # warnings are recorded, not printed: a failure names the first
    # numerical one (overflow and the like) as its cause on its one line,
    # and a run that succeeds prints each one on a line of its own
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _dispatch(args)
        except (NocError, ValueError, OSError) as ex:
            return _fail(_one_line(ex), caught)
        except Exception as ex:  # noqa: BLE001 - the CLI promises no tracebacks
            return _fail(f"unexpected {type(ex).__name__}: {_one_line(ex)}", caught)
    for message in _distinct_messages(caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def _dispatch(args) -> int:
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_oracle(args)


def _fail(message: str, caught) -> int:
    causes = _distinct_messages(w for w in caught
                                if issubclass(w.category, RuntimeWarning))
    if causes:
        message += f" (numerical warning: {causes[0]})"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _distinct_messages(caught) -> list:
    return list(dict.fromkeys(_one_line(w.message) for w in caught))


def _one_line(ex: BaseException) -> str:
    return " ".join(str(ex).split())


# ----------------------------------------------------------------------------
# input loading
# ----------------------------------------------------------------------------

def _load(file_arg: str):
    if file_arg.startswith("preset:"):
        name = file_arg[len("preset:"):]
        return load_preset(name), name
    try:
        with open(file_arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ProblemFileError(f"cannot read {file_arg!r}: {ex}") from None
    return parse_problem_file(text), None


def _split_kv(spec: str, flag: str):
    if "=" not in spec:
        raise ProblemFileError(f"{flag} {spec!r}: expected KEY=NUMBER")
    key, _, value = spec.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        raise ProblemFileError(
            f"{flag} {spec!r}: value must be a number") from None


def _apply_overrides(pf: ProblemFile, args) -> ProblemFile:
    for spec in args.set:
        key, value = _split_kv(spec, "--set")
        pf = pf.with_param(key, value)
    if args.grid is not None:
        if pf.kind == "op":
            raise ProblemFileError("--grid applies to control problems only")
        pf = replace(pf, cells=args.grid)
    if args.tol:
        tols = dict(pf.tolerances)
        for spec in args.tol:
            key, value = _split_kv(spec, "--tol")
            tols[key] = value
        pf = replace(pf, tolerances=tuple(tols.items()))
    return _revalidated(pf)


def _revalidated(pf: ProblemFile) -> ProblemFile:
    # round-trip through the canonical form: re-validates every field and
    # guarantees the echoed problem text describes exactly what runs
    return parse_problem_file(serialize_problem_file(pf))


# ----------------------------------------------------------------------------
# check
# ----------------------------------------------------------------------------

def _cmd_check(args) -> int:
    pf, preset_name = _load(args.file)
    pf = _apply_overrides(pf, args)
    started = time.perf_counter()
    (outcome,) = _run_points([_run(pf, preset_name)], pf.kind)
    if isinstance(outcome, Exception):
        raise outcome
    report, notes = outcome
    elapsed = time.perf_counter() - started
    code = VERDICT_EXIT[report["verdict"]]
    report["exit_code"] = code
    report["notes"] = notes
    report["problem"] = serialize_problem_file(pf)
    report["digest"] = pf.digest()
    report["schema_version"] = pf.schema_version
    if args.report:
        write_report(args.report, report, elapsed)
    _print_summary(report)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def _run_points(points: list, kind: str) -> list:
    """Run the checks ``points`` (step generators of ``_run``) of files of
    ``kind`` together, with ``run_stacked``; return per point its (report,
    notes) or the exception that ended its check.  An op point yields no
    chain, so op points run one after another and leave the control stack
    unloaded.

    A point's numerical warnings are recorded apart and shown after the
    run, point by point, so they come in the order of a run of one point
    after another."""
    logs = [[] for _ in points]
    steps = [_recorded(point, log) for point, log in zip(points, logs)]
    if kind == "op":
        outcomes = [_outcome(point) for point in steps]
    else:
        from .dynamics import run_stacked

        outcomes = run_stacked(steps)
    for caught in itertools.chain.from_iterable(logs):
        warnings.showwarning(caught.message, caught.category, caught.filename,
                             caught.lineno)
    return outcomes


def _outcome(steps):
    """What the step generator ``steps`` of an op point, which yields no
    chain, returns, or the exception that ended it."""
    try:
        next(steps)
    except StopIteration as done:
        return done.value
    except Exception as ex:  # noqa: BLE001 - it ends its own point only
        return ex
    raise TypeError("an op point yielded a chain")


def _recorded(steps, log: list):
    """The step generator ``steps``, with the warnings of each of its steps
    appended to ``log``."""
    value = None
    while True:
        with warnings.catch_warnings(record=True) as caught:
            try:
                chain = steps.send(value)
            except StopIteration as done:
                return done.value
            finally:
                log.extend(caught)
        value = yield chain


def _run(pf: ProblemFile, preset_name, model: ControlModel | None = None):
    """Check one problem file, as the step generator of one point (see
    ``run_stacked``). A sweep passes the same ``model`` for every cell; a
    check builds its own, so it runs as a sweep of one cell."""
    notes = list(preset_notes(preset_name, pf))
    if pf.kind == "op":
        report = _run_op(pf, notes)
    else:
        report = yield from _run_control(pf, notes, model)
    return report, notes


def _run_cell(pf: ProblemFile, preset_name, model: ControlModel):
    """``_run`` of one sweep cell, whose file is re-validated first."""
    return (yield from _run(_revalidated(pf), preset_name, model))


def _run_control(pf: ProblemFile, notes: list, model):
    from .conditions import (REFUTATION_MARGIN, ROW_TOL, STATIONARITY_TOL,
                             _direction_field, _multiplier_jet,
                             _verdict_groups, active_sets,
                             default_sigma_candidates,
                             find_first_order_multipliers, refute_optimality,
                             verify_singular_direction)
    from .dynamics import integrate_state

    model = model or ControlModel()
    problem = build_control_problem(pf, model)
    start = list(pf.start) + ([0.0] if pf.kind == "ocpe" else [])
    trajectory = integrate_state(problem, start, build_nominal_controls(pf, model))
    tol = pf.tolerance_dict()
    act_tol = tol.get("activity", ACTIVITY_TOL)
    row_tol = tol.get("row", ROW_TOL)
    margin = tol.get("margin", REFUTATION_MARGIN)
    stat_tol = tol.get("stationarity", STATIONARITY_TOL)
    cost = float(problem.cost.value(trajectory.states[0], trajectory.states[-1]))
    sets = active_sets(problem, trajectory, act_tol)   # once per verdict
    report = {
        "kind": pf.kind,
        "grid": {"cells": pf.cells, "horizon": pf.horizon},
        "tolerances": {"activity": act_tol, "row": row_tol, "margin": margin,
                       "stationarity": stat_tol},
        "endpoint_values": {"cost": cost},
        "index_sets": index_sets_payload(sets),
    }

    if pf.direction is None:
        mjet = yield from _multiplier_jet.steps(problem, trajectory)
        rays = find_first_order_multipliers(problem, trajectory,
                                            act_tol=act_tol, _jet=mjet,
                                            _sets=sets)
        report["multipliers"] = multiplier_payload(rays)
        notes.append("first-order check only: no direction block supplied")
        if rays:
            report["verdict"] = "consistent"
        else:
            notes.append("the first-order multiplier cone is empty")
            report["verdict"] = "refuted"
        return report

    v, start_rate, sigmas, ws, _ = build_direction_arrays(pf, model)
    groups = _verdict_groups(trajectory, v)   # once per verdict
    field = yield from _direction_field.steps(problem, trajectory, v, start_rate,
                                              _groups=groups)
    direction = verify_singular_direction(problem, trajectory, v, start_rate,
                                          row_tol=row_tol, act_tol=act_tol,
                                          _field=field, _sets=sets)
    report["direction"] = {
        "endpoint_rates": direction.endpoint_rates,
        "equality_residuals": direction.equality_residuals,
    }
    sigma_candidates = None
    if sigmas:
        sigma_candidates = default_sigma_candidates(
            problem.control_set, trajectory.controls, v, _groups=groups) + sigmas
    w_candidates = None
    if ws:
        w_candidates = [np.zeros(problem.state_dim)] + ws
    mjet = yield from _multiplier_jet.steps(problem, trajectory)
    try:
        cert = refute_optimality(problem, trajectory, direction,
                                 sigma_candidates, w_candidates,
                                 margin=margin, act_tol=act_tol,
                                 stationarity_tol=stat_tol, _jet=mjet,
                                 _sets=sets, _groups=groups)
    except NoMultiplier as ex:
        notes.append(f"refuted at first order: {ex}")
        report["multipliers"] = []
        report["verdict"] = "refuted"
        return report
    report["multipliers"] = multiplier_payload(cert.multipliers)
    report["index_sets"] = index_sets_payload(cert.index_sets)
    report["second_order"] = {
        "lhs": cert.lhs,
        "chosen": None if cert.chosen is None else list(cert.chosen),
        "chosen_lhs": cert.chosen_lhs,
        "terms": cert.chosen_terms,
        "margin": cert.margin,
        "stationarity": cert.stationarity,
        "num_sigma_candidates": len(cert.sigma_candidates),
        "num_w_candidates": len(cert.w_candidates),
    }
    notes.extend(cert.notes)
    report["verdict"] = cert.verdict
    return report


def _run_op(pf: ProblemFile, notes: list) -> dict:
    """The op checks, which share one candidate record: the point step
    runs once, and the direction step once when there is a direction."""
    from .optproblem import (QUALIFY_TOL, _direction_step, _point_step,
                             build_separation, op_bruteforce, op_first_order,
                             op_second_order)

    problem = build_opt_problem(pf)
    point = np.asarray(pf.point, float)
    tol = pf.tolerance_dict()
    act_tol = tol.get("activity", ACTIVITY_TOL)
    qualify_tol = tol.get("qualify", QUALIFY_TOL)
    candidate = _point_step(problem, point, act_tol)
    rays = op_first_order(problem, candidate)
    report = {
        "kind": "op",
        "tolerances": {"activity": act_tol, "qualify": qualify_tol},
        "index_sets": index_sets_payload(candidate.sets),
        "multipliers": multiplier_payload(rays),
    }

    if not rays:
        notes.append("the first-order multiplier cone is empty")
        report["verdict"] = "refuted"
    elif pf.direction is not None:
        along = _direction_step(problem, candidate, pf.direction.y)
        second = op_second_order(problem, along, along.direction,
                                 qualify_tol=qualify_tol)
        report["second_order"] = {
            "worst_values": second.worst_values,
            "qualifying": second.qualifying,
            "refuted": second.refuted,
            "critical": sorted(second.critical),
        }
        try:
            sep = build_separation(problem, along, along.direction)
            report["separation"] = {
                "separator": sep.separator,
                "max_kappa_pairing": sep.max_kappa_pairing,
                "num_z_generators": len(sep.z_generators),
            }
        except DegenerateCone as ex:
            notes.append(f"separation skipped: {ex}")
        report["verdict"] = "refuted" if second.refuted else "consistent"
    else:
        notes.append("first-order check only: no direction block supplied")
        report["verdict"] = "consistent"

    if pf.resolution is not None:
        try:
            bf = op_bruteforce(problem, point, pf.resolution)
        except ResolutionTooCoarse as ex:
            notes.append(f"grid search inconclusive: {ex}")
        else:
            report["grid_search"] = {
                "verdict": bf.verdict,
                "best_point": bf.best_point,
                "best_value": bf.best_value,
                "reference_value": bf.reference_value,
                "slack": bf.slack,
                "num_feasible": bf.num_feasible,
                "equality_slab": bf.equality_slab,
            }
            if bf.num_nonfinite:
                notes.append(f"grid search skipped {bf.num_nonfinite} "
                             f"feasible points whose cost is not finite")
            if bf.verdict == "empty":
                what = ("feasible sample with a finite cost"
                        if bf.num_nonfinite else "feasible sample")
                notes.append(f"grid search found no {what} at this resolution")
            else:
                grid_verdict = ("refuted" if bf.verdict == "refuted"
                                else "consistent")
                if grid_verdict != report["verdict"]:
                    notes.append(
                        f"grid search verdict {grid_verdict!r} disagrees "
                        f"with the multiplier verdict "
                        f"{report['verdict']!r}")
                    report["verdict"] = "inconclusive"
    return report


def _print_summary(report: dict):
    out = [f"kind: {report['kind']}", f"digest: {report['digest']}"]
    rays = report.get("multipliers", [])
    out.append(f"multiplier rays: {len(rays)}")
    for i, ray in enumerate(rays):
        out.append(f"  ray {i}: {' '.join(ray['display'])}")
    second = report.get("second_order")
    if second is not None:
        if "chosen_lhs" in second:
            chosen = second["chosen_lhs"]
            if chosen == chosen:  # not NaN
                out.append(f"second-order value: {chosen!r}")
            if second.get("terms"):
                for name, value in second["terms"].items():
                    out.append(f"  term {name}: {float(value)!r}")
        if "worst_values" in second:
            worst = ", ".join(repr(float(w)) for w in second["worst_values"])
            out.append(f"second-order worst values: {worst}")
    grid = report.get("grid_search")
    if grid is not None:
        out.append(f"grid search: {grid['verdict']} "
                   f"(best {float(grid['best_value'])!r}, "
                   f"slack {float(grid['slack'])!r})")
    for note in report.get("notes", []):
        out.append(f"note: {note}")
    out.append(f"verdict: {report['verdict']}")
    print("\n".join(out))


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

def _parse_param_spec(spec: str):
    if "=" not in spec:
        raise ProblemFileError(
            f"--param {spec!r}: expected NAME=START:STOP:COUNT or "
            f"NAME=v1,v2,...")
    name, _, body = spec.partition("=")
    name = name.strip()
    body = body.strip()
    try:
        if ":" in body:
            parts = body.split(":")
            if len(parts) != 3:
                raise ValueError
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count <= 0:
                raise ValueError
            values = np.linspace(lo, hi, count).tolist()
        else:
            values = [float(p) for p in body.split(",") if p.strip()]
            if not values:
                raise ValueError
    except ValueError:
        raise ProblemFileError(
            f"--param {spec!r}: expected NAME=START:STOP:COUNT or "
            f"NAME=v1,v2,...") from None
    return name, values


def _cmd_sweep(args) -> int:
    pf, preset_name = _load(args.file)
    pf = _apply_overrides(pf, args)
    specs = [_parse_param_spec(spec) for spec in args.param]
    names = [name for name, _ in specs]
    model = ControlModel()      # compiled and probed at the first cell that builds
    combos = list(itertools.product(*(values for _, values in specs)))
    cells = []
    for combo in combos:
        run_pf = pf
        for name, value in zip(names, combo):
            run_pf = run_pf.with_param(name, value)   # unknown names end the sweep
        cells.append(_run_cell(run_pf, preset_name, model))
    rows = []
    failed = 0
    for combo, outcome in zip(combos, _run_points(cells, pf.kind)):
        row = dict(zip(names, combo))
        if isinstance(outcome, Exception):   # one bad cell must not end the sweep
            failed += 1
            row.update(verdict="error", lhs=None, notes=_one_line(outcome))
        else:
            report, notes = outcome
            row["verdict"] = report["verdict"]
            row["lhs"] = report.get("second_order", {}).get("chosen_lhs")
            row["notes"] = "; ".join(notes)
        rows.append(row)
    text = sweep_csv(names + ["verdict", "lhs", "notes"], rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    if failed:
        print(f"error: {failed} of {len(rows)} cells failed", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return 0


# ----------------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------------

def _vector(text: str, what: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ProblemFileError(f"{what}: expected numbers, got {text!r}") \
            from None
    if not vals:
        raise ProblemFileError(f"{what}: empty vector")
    return np.asarray(vals, float)


def _cmd_oracle(args) -> int:
    U = parse_set_inline(args.set)
    u = _vector(args.u, "u")
    v = _vector(args.v, "v")
    if args.w is None:
        cert = adjacent_cone_member(U, u, v)
    else:
        cert = second_adjacent_member(U, u, v, _vector(args.w, "w"))
    print(f"order: {cert.order}")
    print(f"verdict: {cert.verdict}")
    print(f"margin: {float(cert.margin)!r}")
    for h, residual in cert.oracle_residuals:
        print(f"oracle residual at h={float(h)!r}: {float(residual)!r}")
    return 0 if cert.member else 3


if __name__ == "__main__":
    sys.exit(main())
