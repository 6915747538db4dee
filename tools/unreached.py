"""List the functions of ``src/noc`` that no command and no demo enters.

Usage::

    python tools/unreached.py

Runs, in this one process and under ``sys.setprofile``, every command of
``tools/same_outputs.py`` (through ``noc.cli.main``, with reports written
into a temporary directory) and then every script in ``demos/``.  It then
prints each function defined in ``src/noc`` (methods and nested functions
included, lambdas left out) that was never entered, as
``path:line name (N lines)``, followed by a summary.  Such a function is
reached only from the tests, or from nowhere.  The profile hook makes the
run several times slower than the commands themselves.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noc"
DEMOS = ROOT / "demos"
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402


def definitions() -> dict:
    """(file, first line) -> (qualified name, line count) of every function
    defined in the package; the first line is that of its first decorator,
    as in the function's code object."""
    found = {}
    for path in sorted(PACKAGE.resolve().glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first)] = (
                        name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def entered(runs, demos=()) -> set:
    """(file, first line) of every function entered while the commands
    ``runs`` (argument lists, with whether each writes a report) and the
    demo scripts ``demos`` run in this process."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cwd = os.getcwd()
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        os.chdir(ROOT)
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            from noc.cli import main
            for i, (args, writes_report) in enumerate(runs):
                report = ["--report", str(Path(tmp, str(i), same_outputs.REPORT))]
                if writes_report:
                    Path(tmp, str(i)).mkdir()
                main(args + (report if writes_report else []))
            for script in demos:
                runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    real = {name: os.path.realpath(name) for name in {c.co_filename for c in codes}}
    return {(real[code.co_filename], code.co_firstlineno) for code in codes}


def unreached(seen: set) -> list:
    """(path relative to the root, first line, name, line count) of every
    package function not in ``seen``, in file and line order."""
    return [(str(Path(path).relative_to(ROOT)), line, name, count)
            for (path, line), (name, count) in definitions().items()
            if (path, line) not in seen]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python tools/unreached.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    demos = sorted(DEMOS.glob("*.py"))
    with tempfile.TemporaryDirectory() as tmp:
        runs = same_outputs.commands(
            ROOT, ROOT, same_outputs.write_fine_disc(ROOT, Path(tmp)),
            same_outputs.write_nan_disc(Path(tmp)),
            same_outputs.write_spheres(ROOT, Path(tmp)))
        missed = unreached(entered(runs, demos))
    for path, line, name, count in missed:
        print(f"{path}:{line} {name} ({count} lines)")
    total = len(definitions())
    print(f"{len(runs)} commands and {len(demos)} demos: {len(missed)} of "
          f"{total} functions never entered, "
          f"{sum(m[3] for m in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
