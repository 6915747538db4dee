"""Compare the command-line outputs of two checkouts of noc.

Usage::

    python tools/same_outputs.py OLD NEW

OLD and NEW are the roots of two checkouts (for a commit, ``git archive
<commit> | tar -x -C <dir>`` makes one without touching ``.git``).  Each
command below runs in its own ``python -m noc`` process, with the
checkout as working directory and ``PYTHONPATH=<checkout>/src``, against
that checkout's own files (a conformance file found in one checkout
only is run in both, and fails in the other):

* ``check --report`` on every valid conformance file, on both presets,
  on ``perfbench/sphere.noc``, on ``op-parabola.noc --tol qualify=1.5``,
  on NEW's ``op-disc.noc`` rewritten to ``resolution 0.002`` in the
  temporary directory, whose 1001 x 1001 grid search runs over several
  lattice slabs, and on a disc written there whose cost
  ``x2 + sqrt(x1 + 0.5)`` is NaN on part of the feasible set, so its
  grid search skips points, rescans slabs that raise a floating-point
  flag and prints a ``warning:`` line;
* ``check`` on every invalid conformance file;
* five sweeps: the 39-row ``sweep`` of ``preset:ccs126``, a 6-row one
  whose failing cells give error rows and a ``warning:`` line, one of
  ``preset:linear-lq-euclid``, whose verdicts are ``consistent``, one of
  ``sphere-drift.noc``, whose controls differ from cell to cell and from
  point to point on a curved chart but which stops at first order, and
  one of ``perfbench/sphere.noc``, the compared sweep that reaches the
  second-order form and its curvature term on a curved chart;
* four ``oracle cone`` queries: a first- and a second-order member of a
  disc's cones, a non-member of a box's, and a member of a quadrant's,
  given as a ``polyhedron``.

Reports are written into a temporary directory, never into a checkout.
For every command the exit code, stdout, stderr without its ``elapsed:``
line and the bytes of every report file are compared; the
``.timing.json`` sidecar is skipped and a file found on one side only is
named.  One line is printed per difference, then a summary; the exit
code is 1 when there is any difference.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

VALID = "docs/conformance/valid"
INVALID = "docs/conformance/invalid"
REPORT = "report.json"
SIDECAR = ".timing.json"


def _conformance(old: Path, new: Path, folder: str) -> list[str]:
    """Sorted union of the .noc files in ``folder`` of both checkouts."""
    names = {p.name for root in (old, new) for p in (root / folder).glob("*.noc")}
    return [f"{folder}/{name}" for name in sorted(names)]


def write_fine_disc(root: Path, tmp: Path) -> Path:
    """``op-disc.noc`` of the checkout ``root`` at resolution 0.002,
    written into ``tmp``."""
    lines = (root / VALID / "op-disc.noc").read_text(encoding="utf-8").splitlines()
    lines = ["resolution 0.002" if line.startswith("resolution ") else line
             for line in lines]
    path = tmp / "op-disc-fine.noc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_nan_disc(tmp: Path) -> Path:
    """An op problem on the unit disc whose cost is NaN where x1 < -0.5,
    with a grid search at resolution 0.002, written into ``tmp``."""
    path = tmp / "op-disc-nan-cost.noc"
    path.write_text("noc 1\nkind op\ndim 2\ndomain {\n  ball 0.0 0.0 1.0\n}\n"
                    "point 0.0 -0.5\ncost x2 + sqrt(x1 + 0.5)\n"
                    "resolution 0.002\n", encoding="utf-8")
    return path


def commands(old: Path, new: Path, fine_disc: Path,
             nan_disc: Path) -> list[tuple[list[str], bool]]:
    """(arguments, writes a report) of every command to compare."""
    runs = [(["check", path], True) for path in _conformance(old, new, VALID)]
    runs += [(["check", path], False) for path in _conformance(old, new, INVALID)]
    runs += [(["check", "preset:ccs126"], True),
             (["check", "preset:linear-lq-euclid"], True),
             (["check", "perfbench/sphere.noc"], True),
             (["check", f"{VALID}/op-parabola.noc", "--tol", "qualify=1.5"], True),
             (["check", str(fine_disc)], True),
             (["check", str(nan_disc)], True),
             (["sweep", "preset:ccs126", "--grid", "400", "--param",
               "T=0.1:0.7:13", "--param", "theta=2.5,3,4"], False),
             (["sweep", "preset:ccs126", "--grid", "50", "--param",
               "T=0.1,1e300,0.5", "--param", "theta=3,nan"], False),
             (["sweep", "preset:linear-lq-euclid", "--grid", "50", "--param",
               "T=0.5,1,2"], False),
             (["sweep", f"{VALID}/sphere-drift.noc", "--grid", "50", "--param",
               "T=0.2,0.3,0.4"], False),
             (["sweep", "perfbench/sphere.noc", "--param", "T=0.3,0.5,0.7"], False),
             (["oracle", "cone", "ball 0 0 1", "0 -1", "1 0"], False),
             (["oracle", "cone", "ball 0 0 1", "0 -1", "1 0", "0 0.5"], False),
             (["oracle", "cone", "box -1 -1 1 1", "1 0", "1 0"], False),
             (["oracle", "cone", "polyhedron ; row -1 0 0 ; row 0 -1 0", "0 0",
               "1 1"], False)]
    return runs


def run(root: Path, args: list[str], out: Path | None) -> dict:
    """Exit code, stdout, stderr without ``elapsed:`` lines, and the report
    files (name -> bytes, sidecar left out) of one command in ``root``."""
    argv = args + (["--report", str(out / REPORT)] if out is not None else [])
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "noc", *argv], cwd=root,
                          env=env, capture_output=True)
    stderr = b"".join(line for line in done.stderr.splitlines(keepends=True)
                      if not line.startswith(b"elapsed:"))
    files = {} if out is None else {
        p.name: p.read_bytes() for p in sorted(out.iterdir())
        if not p.name.endswith(SIDECAR)}
    return {"exit code": done.returncode, "stdout": done.stdout,
            "stderr": stderr, "files": files}


def differences(label: str, a: dict, b: dict) -> list[str]:
    lines = [f"{label}: {key} differs" for key in ("exit code", "stdout", "stderr")
             if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if name not in b["files"]:
            lines.append(f"{label}: {name} only in OLD")
        elif name not in a["files"]:
            lines.append(f"{label}: {name} only in NEW")
        elif a["files"][name] != b["files"][name]:
            lines.append(f"{label}: {name} differs")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (Path(p).resolve() for p in argv)
    diffs: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = commands(old, new, write_fine_disc(new, Path(tmp)),
                        write_nan_disc(Path(tmp)))
        for i, (args, writes_report) in enumerate(runs):
            results = []
            for side, root in (("old", old), ("new", new)):
                out = None
                if writes_report:
                    out = Path(tmp, side, str(i))
                    out.mkdir(parents=True)
                results.append(run(root, args, out))
            diffs += differences(" ".join(args), *results)
    for line in diffs:
        print(line)
    print(f"{len(runs)} commands compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
