"""Start-up of a fresh `taumod` request, command by command.

For each request of the seed-0 `rank` and `tower` plans of
perfbench/inputs.py, the `verify` of each report those plans verify,
`corpus --generate --seed 0`, and `corpus --jobs 1` on the corpus it
writes, prints

  * the median CPU time (user + system) of N fresh
    `python3 -m taumod` processes running it, and
  * its teardown: the median over N iterations of the CPU of a fresh
    process that runs it through `cli.main` and ends by `sys.exit`, as
    `python3 -m taumod` did before `cli.run`, minus that of a process
    run right before or after it (the order alternates) through
    `cli.run`, which ends by `os._exit`. The two differ only in their
    exit: the interpreter's finalization, which clears every module and
    frees every object the request left alive. Each difference pairs two
    runs a moment apart, so a drift of the machine's speed between
    iterations cancels, as it would not in a difference of two medians,
    and
  * the taumod modules whose bodies it runs, each with its median self
    time over N more fresh processes: reading and compiling the source
    and running the body, with the modules it imports on the way left
    out, and
  * the source lines of those modules, which the request compiles when
    no bytecode is cached (the benchmark sets PYTHONDONTWRITEBYTECODE
    and runs in a fresh checkout). Unlike the times, this count repeats
    exactly, and
  * the modules outside taumod that it loads beyond those of
    `python3 -c pass`, from one more fresh process: a submodule is
    named alone only when its package is loaded by `pass` too
    (`importlib.util`), else only the package is (`json`).

`-X importtime` prints no line for a module whose body runs on first
attribute access (see taumod/__init__.py), so the module times come
from processes in which `SourceFileLoader.exec_module` is timed. Run
from the root of a
checkout, which is the code it measures:

    PYTHONPATH=src python3 bench/startup.py [N]      (N defaults to 5)
"""

import contextlib
import io
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile

from taumod.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# runs the CLI on its arguments with every module body timed, then writes
# {module: self seconds} of the taumod modules on stderr
TIMED_REQUEST = r"""
import importlib.machinery, json, sys, time
own, nested = {}, []
run_body = importlib.machinery.SourceFileLoader.exec_module

def timed(loader, module):
    nested.append(0.0)
    t0 = time.perf_counter()
    try:
        run_body(loader, module)
    finally:
        total = time.perf_counter() - t0
        own[loader.name] = total - nested.pop()
        if nested:
            nested[-1] += total

importlib.machinery.SourceFileLoader.exec_module = timed
from taumod.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps({n: s for n, s in own.items() if n.startswith("taumod")}))
sys.exit(code)
"""


# a request run through `cli.main` and the interpreter's exit, and the
# same request through `cli.run`
MAIN_EXIT = "import sys\nfrom taumod.cli import main\nsys.exit(main(sys.argv[1:]))\n"
RUN_EXIT = "import sys\nfrom taumod.cli import run\nrun(sys.argv[1:])\n"


# runs the CLI on its arguments, then writes the names of the loaded
# modules on stderr
LOADED = r"""
import sys
from taumod.cli import main
code = main(sys.argv[1:])
sys.stderr.write("\n" + " ".join(sys.modules))
sys.exit(code)
"""


def _loaded(code, argv, cwd):
    """The names in sys.modules at the end of `python3 -c code argv`."""
    out = subprocess.run([sys.executable, "-c", code] + argv, cwd=cwd, env=ENV,
                         capture_output=True, text=True, check=False)
    return set(out.stderr.splitlines()[-1].split())


def _outside(argv, cwd, bare):
    """The modules outside taumod that a request loads beyond `bare`,
    the modules of `python3 -c pass`, each package named once."""
    new = {n for n in _loaded(LOADED, argv, cwd) - bare if n.split(".")[0] != "taumod"}
    return sorted({n if n.split(".")[0] in bare else n.split(".")[0] for n in new})


def _cpu(argv, cwd, head=("-m", "taumod")):
    """CPU seconds of one fresh `python3 *head argv`, and its stdout."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run([sys.executable, *head] + argv, cwd=cwd,
                         env=ENV, capture_output=True, check=False).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime), out


def _modules(argv, cwd):
    """{taumod module: self seconds} of one fresh request."""
    out = subprocess.run([sys.executable, "-c", TIMED_REQUEST] + argv, cwd=cwd,
                         env=ENV, capture_output=True, text=True, check=False)
    return json.loads(out.stderr.splitlines()[-1])


def _lines(module):
    """Source lines of the taumod module of that name."""
    rel = module.replace(".", "/") if "." in module else module + "/__init__"
    return len((ROOT / "src" / f"{rel}.py").read_text().splitlines())


def _requests(work):
    """(label, argv, cwd, file to keep the report in or None) of every
    request, each verify after the request whose report it reads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    reqs = []
    for workload in ("rank", "tower"):
        d = work / f"{workload}0"
        inputs.write_plan(workload, 0, d)
        for req in json.loads((d / "plan.json").read_text()):
            label = f"{workload}0/{req['name']}"
            report = f"{req['name']}.report.json" if req["verify"] else None
            reqs.append((label, req["argv"], d, report))
            if report:
                reqs.append((f"{label}.verify", ["verify", "--input", report], d,
                             None))
    corpus = work / "corpus0"
    generate = ["corpus", "--generate", "--seed", "0", "--dir", str(corpus)]
    with contextlib.redirect_stdout(io.StringIO()):
        main(generate)
    reqs.append(("corpus --generate --seed 0", generate, work, None))
    reqs.append(("corpus0 --jobs 1", ["corpus", "--dir", str(corpus), "--jobs", "1"],
                 work, None))
    return reqs


def main_startup(n):
    print(f"median CPU of {n} fresh processes; its teardown (cli.main and sys.exit "
          "minus cli.run); taumod module self times in ms; the modules outside "
          "taumod loaded beyond `python3 -c pass`")
    bare = _loaded('import sys; sys.stderr.write("\\n" + " ".join(sys.modules))', [],
                   ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        total, total_teardown, total_lines = 0.0, 0.0, 0
        for label, argv, cwd, report in _requests(pathlib.Path(tmp)):
            cpus, teardowns = [], []
            for i in range(n):  # interleaved, so that drift moves all three
                cpu, out = _cpu(argv, cwd)
                cpus.append(cpu)
                pair = (MAIN_EXIT, RUN_EXIT) if i % 2 else (RUN_EXIT, MAIN_EXIT)
                cpu_of = {code: _cpu(argv, cwd, ("-c", code))[0] for code in pair}
                teardowns.append(cpu_of[MAIN_EXIT] - cpu_of[RUN_EXIT])
            if report:
                (cwd / report).write_bytes(out)
            runs = [_modules(argv, cwd) for _ in range(n)]
            own = {m: statistics.median(run[m] for run in runs) for m in runs[0]}
            median = statistics.median(cpus)
            teardown = statistics.median(teardowns)
            lines = sum(map(_lines, own))
            total += median
            total_teardown += teardown
            total_lines += lines
            mods = sorted(own.items(), key=lambda kv: -kv[1])
            print(f"{label:32} cpu {median * 1e3:7.1f} ms  "
                  f"teardown {teardown * 1e3:5.1f} ms  "
                  f"{len(own):2} modules {sum(own.values()) * 1e3:6.1f} ms "
                  f"{lines:6,} lines")
            print("    " + ", ".join(f"{m.split('.', 1)[-1]} {s * 1e3:.1f}"
                                     for m, s in mods))
            print("    outside: " + ", ".join(_outside(argv, cwd, bare)))
        print(f"{'total':32} cpu {total * 1e3:7.1f} ms  "
              f"teardown {total_teardown * 1e3:5.1f} ms  "
              f"{'':20} {total_lines:6,} lines")


if __name__ == "__main__":
    main_startup(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
