"""Functions of `src/taumod` that no command enters.

A profile hook records every function entered while `taumod.cli.main`
handles a request, and only then. The requests are three samples, all
run in this one process, in this order:

  * the seed-0 `rank` and `tower` plans of perfbench/inputs.py with the
    `verify` of each report they verify, `corpus --generate --seed 0`,
    and `corpus --jobs 1` on the corpus it writes (the requests of
    `bench/startup.py`);
  * all of `bench/report_gate.py`;
  * every in-process CLI call of tier-1 (the test suite under
    `tests/`, run through `pytest.main`; calls in subprocesses are not
    seen).

Fields and their tables are cached (`basefield.get_field`, cached
properties), so a test that builds a field outside any request would
hide the functions that a later request runs to build it; the commands
therefore run before the tests.

Then it prints on stdout every function and method of `src/taumod`
that none of them entered, with its line count (decorators included),
by file and line, and the totals; pytest's report goes to stderr. A
nested function is listed on its own, and its lines count again in the
lines of the function around it. Functions run only at import, such as
`taumod._register_lazy`, are listed too. Run from the root of a
checkout, which is the code it measures:

    PYTHONPATH=src python3 bench/reach.py
"""

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

import taumod.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "taumod"


class Reach:
    """The code objects entered while `main` runs; `main` is
    `taumod.cli.main` with the profile hook on while it runs."""

    def __init__(self, cli_main):
        self.entered = set()
        self.cli_main = cli_main
        self._depth = 0

    def _hook(self, frame, event, arg):
        if event == "call":
            self.entered.add(frame.f_code)

    def main(self, argv=None):
        self._depth += 1
        if self._depth == 1:
            sys.setprofile(self._hook)
        try:
            return self.cli_main(argv)
        finally:
            self._depth -= 1
            if not self._depth:
                sys.setprofile(None)


def _bench(name):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return __import__(name)
    finally:
        sys.path.pop(0)


def run_tier1():
    # pytest's own report goes to stderr, the listing alone to stdout
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        raise SystemExit(f"tier-1 exited {code}")


def run_report_gate():
    with contextlib.redirect_stdout(io.StringIO()):
        _bench("report_gate").main_gate()


def run_plans(main):
    startup = _bench("startup")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for _, argv, where, report in startup._requests(pathlib.Path(tmp)):
                os.chdir(where)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    main(argv)
                if report:
                    (where / report).write_text(buf.getvalue())
        finally:
            os.chdir(cwd)


def functions(path):
    """(first line, qualified name, line count) of every function in the
    file at path; the first line is the first decorator's, as in the
    function's code object."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, name, child.end_lineno - first + 1))
                walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return sorted(out)


def main_reach():
    reach = Reach(taumod.cli.main)
    # the tests, report_gate and startup import `main` by name once this
    # has replaced it, so they run the traced one
    taumod.cli.main = reach.main
    try:
        run_plans(reach.main)
        run_report_gate()
        run_tier1()
    finally:
        taumod.cli.main = reach.cli_main
    reached = {(pathlib.Path(c.co_filename).resolve(), c.co_firstlineno)
               for c in reach.entered}
    count = lines = 0
    print("functions of src/taumod that no command enters (lines, file:line, name)")
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name, size in functions(path):
            if (path.resolve(), first) not in reached:
                count += 1
                lines += size
                print(f"{size:4}  {path.name}:{first}  {name}")
    print(f"total: {count} functions, {lines} lines")


if __name__ == "__main__":
    main_reach()
