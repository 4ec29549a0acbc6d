"""The taumod benchmark: one command prints every metric.

    python3 perfbench/run.py --workload {corpus,tower,rank} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Every request is a fresh
`python3 -m taumod` process on the checkout's `src/`, sent one at a time
(closed loop, one client). Inputs come from `--seed`, every answer is
checked against a known result, and whole passes over the workload
repeat until `--seconds` is used up. After every request the benchmark
runs perfbench/reference.py, and each time it reports is scaled by the
reference walls on either side (see `Bench.timed`).
`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
pass and then traced passes (perfbench/layertrace.py) and prints the
per-layer metrics with the tracing overhead. Human-readable lines come
first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import layertrace
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "tower", "rank")
SETUPS = 3  # set-ups per run; setup_s is their median
REQUEST_LIMIT_S = 60.0
# Corpora per `corpus` run, from seeds 3S, 3S+1, 3S+2: the cost of one
# seeded corpus varies by about 10% with its seed, and three average that.
CORPORA = 3
COMPUTE_KINDS = ("corpus", "weil", "tate", "slopes", "purity")
# Wall of perfbench/reference.py on an idle core of the shared 2-vCPU
# x86-64 Linux VM the bounds were set on; scaled times read as seconds there.
REFERENCE_S = 0.25

END_TO_END = {  # name -> unit
    "setup_s": "s", "items_per_s": "1/s", "wall_s": "s",
    "latency_p50_s": "s", "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics, on the workloads they apply to, but
# left out of the result line: the benchmark contract wants every reported
# metric on every workload, and times that are never zero.
BY_KIND = {"weil_s": "weil", "tate_s": "tate", "slopes_s": "slopes",
           "purity_s": "purity", "verify_s": "verify"}
# Per-layer times that are exactly zero on some workload by construction
# (no call reaches the layer there); printed, left out of the result line.
PRINTED_ONLY = ("kernels.rref.self_s", "kernels.nullspace.self_s",
                "basefield.embed_s", "skew.mul.self_s", "skew.inverse.self_s",
                "zmatrix.det.self_s", "isocrystal.slopes.self_s")
PER_LAYER_UNITS = {"calls": "count", "cells": "count", "self_s": "s",
                   "iterations": "count", "fields_built": "count",
                   "elements_tabled": "count", "felt_ops": "count",
                   "precision_loss": "count", "extensions_tried": "count",
                   "report_bytes": "bytes"}


class Op:
    """One finished request: a compute request or its `verify`.

    `wall` is the scaled wall (see `Bench.timed`), `raw_wall` as measured.
    """

    __slots__ = ("name", "kind", "wall", "raw_wall", "rss_mb", "code", "out",
                 "results")

    def __init__(self, name, kind, wall, raw_wall, rss_mb, code, out):
        self.name, self.kind, self.wall, self.raw_wall = name, kind, wall, raw_wall
        self.rss_mb, self.code, self.out = rss_mb, code, out
        self.results = []  # (operation name, status, reason)

    def doc(self):
        try:
            return json.loads(self.out.read_text())
        except (OSError, ValueError):
            return None


def run_child(argv, cwd, out, env):
    """Run argv to completion with stdout in `out`; wall, exit and RSS.

    The exit code is None when the request hit REQUEST_LIMIT_S. The peak
    RSS that wait4 reports also covers the image the child was spawned
    from, this runner's (about 20 MB), which is below any taumod process.
    """
    killed = threading.Event()
    with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=fh_out, stderr=fh_err, env=env)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(REQUEST_LIMIT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return wall, code, usage.ru_maxrss / 1024.0


class Bench:
    """One workload's inputs, made in `work`, and its passes."""

    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.plan, self.indir = None, None
        self.setup_walls = []
        self.last_reference = None

    def _reference(self):
        out = self.work / "reference.out"
        wall, code, _ = run_child([sys.executable, str(BENCH / "reference.py")],
                                  self.work, out, self.env)
        if code != 0:
            raise RuntimeError(f"reference run failed with exit {code}")
        return wall

    def timed(self, argv, cwd, out):
        """run_child, with the wall scaled to the reference machine speed.

        Returns (scaled wall, measured wall, peak RSS in MB, exit code).

        The machine is shared: its speed drifts by up to 60% over tens of
        seconds, and user and system time drift with the wall. The wall of
        a fixed reference request right before and right after drifts with
        it, so the request's wall is scaled by REFERENCE_S over their mean;
        a change to taumod does not move the reference.
        """
        if self.last_reference is None:
            self.last_reference = self._reference()
        wall, code, rss = run_child(argv, cwd, out, self.env)
        before, self.last_reference = self.last_reference, self._reference()
        return wall * 2 * REFERENCE_S / (before + self.last_reference), wall, rss, code

    # -- set-up ------------------------------------------------------------

    def _setup_argvs(self, indir):
        if self.workload != "corpus":
            return [[str(BENCH / "inputs.py"), self.workload, str(self.seed),
                     str(indir)]]
        return [["-m", "taumod", "corpus", "--generate", "--seed",
                 str(CORPORA * self.seed + j), "--dir", str(indir / f"corpus{j}")]
                for j in range(CORPORA)]

    def setup(self):
        """Make the inputs SETUPS times, timing each; they must agree."""
        digests = set()
        for k in range(SETUPS):
            indir = self.work / f"in{k}"
            indir.mkdir(parents=True)
            total = 0.0
            for argv in self._setup_argvs(indir):
                wall, _, _, code = self.timed([sys.executable] + argv, indir,
                                              self.work / f"setup{k}.out")
                if code != 0:
                    err = (self.work / f"setup{k}.err").read_text()[-2000:]
                    raise RuntimeError(f"set-up failed with exit {code}:\n{err}")
                total += wall
            self.setup_walls.append(total)
            digests.add(_tree_digest(indir))
        if len(digests) != 1:
            raise RuntimeError("set-up is not deterministic for this seed")
        self.indir = indir
        if self.workload == "corpus":
            self.plan = [{"name": f"corpus{j}", "kind": "corpus",
                          "count": len(list((indir / f"corpus{j}").glob("*.json"))),
                          "argv": ["corpus", "--dir", f"corpus{j}", "--jobs", "1"],
                          "verify": False} for j in range(CORPORA)]
        else:
            self.plan = json.loads((indir / "plan.json").read_text())
        lane = subprocess.run(
            [sys.executable, "-c", "import taumod.kernels as k; print(k.BACKEND)"],
            env=self.env, cwd=self.work, capture_output=True, text=True, check=True)
        self.backend = lane.stdout.strip()

    # -- one pass ----------------------------------------------------------

    def _launch(self, args, trace_prefix):
        if trace_prefix is None:
            return [sys.executable, "-m", "taumod"] + args
        return [sys.executable, str(BENCH / "layertrace.py"), str(trace_prefix), "--"] + args

    def run_pass(self, tag, traced):
        """Every request of the plan once, each checked; list of Ops."""
        outdir = self.work / tag
        outdir.mkdir()
        ops = []

        def run(name, kind, args):
            prefix = outdir / f"{name}.trace" if traced else None
            out = outdir / f"{name}.json"
            op = Op(name, kind, *self.timed(self._launch(args, prefix), self.indir, out),
                    out)
            ops.append(op)
            return op

        for req in self.plan:
            op = run(req["name"], req["kind"], req["argv"])
            if req["kind"] == "corpus":
                op.results = oracle.check_corpus(op.name, op.code, op.doc())
                missing = req["count"] - len(op.results)
                if missing > 0:
                    op.results += [(op.name, "failed", "item missing from report")] * missing
                continue
            op.results = [(req["name"], *oracle.check_request(req, op.code, op.doc()))]
            if req["verify"]:
                vop = run(f"{req['name']}.verify", "verify",
                          ["verify", "--input", str(op.out)])
                vop.results = [(vop.name, *oracle.check_verify(vop.code, vop.doc()))]
        return ops


def _tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _sha(op):
    return hashlib.sha256(op.out.read_bytes()).hexdigest()


def measure(bench, seconds, traced):
    """Passes until the next one would overrun `seconds` (at least one)."""
    passes, t0 = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(bench.run_pass(f"pass{len(passes)}", traced))
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return passes


def medians_by_name(passes, attr="wall"):
    walls = {}
    for ops in passes:
        for op in ops:
            walls.setdefault(op.name, []).append(getattr(op, attr))
    return {name: statistics.median(w) for name, w in walls.items()}


def _items(ops):
    """Checked items of one pass: corpus entries, or compute requests."""
    return sum(len(op.results) if op.kind == "corpus" else 1
               for op in ops if op.kind in COMPUTE_KINDS)


def end_to_end(bench, passes):
    med = medians_by_name(passes)
    kinds = {op.name: op.kind for op in passes[0]}
    compute = [n for n in med if kinds[n] in COMPUTE_KINDS]
    all_walls = [op.wall for ops in passes for op in ops]
    metrics = {
        "setup_s": statistics.median(bench.setup_walls),
        "items_per_s": _items(passes[0]) / sum(med.values()),
        "wall_s": sum(med[n] for n in compute),
        "latency_p50_s": statistics.median(all_walls),
        "peak_rss_mb": statistics.median(max(op.rss_mb for op in ops) for ops in passes),
    }
    raw = medians_by_name(passes, "raw_wall")
    extra = {"wall_s as measured, unscaled": sum(raw[n] for n in compute)}
    for metric, kind in BY_KIND.items():
        names = [n for n in med if kinds[n] == kind]
        if names:
            extra[metric] = sum(med[n] for n in names)
    tail = _tail_percentile(all_walls)
    return metrics, extra, tail, len(all_walls)


def _tail_percentile(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def tally(passes):
    results = [r for ops in passes for op in ops for r in op.results]
    return len(results), Counter(r for r in results if r[1] != "ok")


def layer_metrics(untraced, passes):
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    per_pass, shares = [], {}
    for ops in passes:
        calls, secs, counters = {}, {}, {}
        import_s = report_bytes = 0.0
        for op in ops:
            t = layertrace.load(op.out.with_name(f"{op.name}.trace"))
            by_layer = shares.setdefault(op.kind, {})
            for k, v in t["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in t["self_s"].items():
                secs[k] = secs.get(k, 0.0) + v
                layer = layertrace.LAYER[k]
                by_layer[layer] = by_layer.get(layer, 0.0) + v
            for k, v in t["counters"].items():
                counters[k] = counters.get(k, 0) + v
            import_s += t["import_s"]
            report_bytes += op.out.stat().st_size
        items = _items(ops)
        layers = {}
        for k, v in secs.items():
            layers[layertrace.LAYER[k]] = layers.get(layertrace.LAYER[k], 0.0) + v
        c = counters
        per_pass.append({
            "kernels.rref.calls": calls["kernels.rref"],
            "kernels.rref.self_s": secs["kernels.rref"],
            "kernels.nullspace.calls": calls["kernels.nullspace"],
            "kernels.nullspace.self_s": secs["kernels.nullspace"],
            "kernels.nullspace.cells": c["nullspace_cells"],
            "kernels.polymulmod.calls": calls["kernels.polymulmod"],
            "kernels.polymulmod.self_s": secs["kernels.polymulmod"],
            "basefield.fields_built": c["fields_built"],
            "basefield.elements_tabled": c["elements_tabled"],
            "basefield.build_s": secs["basefield.build"],
            "basefield.embed_s": secs["basefield.embed"],
            "basefield.fields_used_ratio": _ratio(c["fields_used"], c["fields_built"]),
            "basefield.felt_ops": c["felt_ops"],
            "zseries.mul.calls": calls["zseries.mul"],
            "zseries.mul.self_s": secs["zseries.mul"],
            "zseries.add.calls": calls["zseries.add"],
            "zseries.inv.calls": calls["zseries.inv"],
            "zseries.inv.self_s": secs["zseries.inv"],
            "zseries.precision_loss": c["precision_loss"],
            "skew.mul.self_s": secs["skew.mul"],
            "skew.inverse.self_s": secs["skew.inverse"],
            "zmatrix.mul.self_s": secs["zmatrix.mul"],
            "zmatrix.inv.self_s": secs["zmatrix.inv"],
            "zmatrix.det.self_s": secs["zmatrix.det"],
            "zmatrix.tau_power.self_s": secs["zmatrix.tau_power"],
            "isocrystal.hnf_reduce.calls": calls["isocrystal.hnf_reduce"],
            "isocrystal.hnf_reduce.self_s": secs["isocrystal.hnf_reduce"],
            "isocrystal.slopes.self_s": secs["isocrystal.slopes"],
            "isocrystal.purity.calls": calls["isocrystal.purity"],
            "isocrystal.purity.iterations": c["purity_iterations"],
            "semilinear.tau_fixed_space.calls": calls["semilinear.tau_fixed_space"],
            "tateweil.extensions_tried": c["extensions_tried"],
            "tateweil.ext_useful_ratio": _ratio(c["sweeps_useful"], c["extensions_tried"]),
            "drinfeld.m_infinity.calls_per_item": _ratio(calls["drinfeld.m_infinity"], items),
            "jsonio.parse_s": secs["jsonio.parse"],
            "jsonio.render_s": secs["jsonio.render"],
            "cli.emit_s": secs["cli.emit"],
            "cli.import_s": import_s,
            "cli.report_bytes": report_bytes,
            **{f"layer.{k}.self_s": layers.get(k, 0.0)
               for k in ("L0", "L1", "L2", "L3", "L4", "io")},
            "trace.pass_s": sum(op.wall for op in ops),
        })
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - sum(op.wall for op in untraced)
    return metrics, shares


def _ratio(num, den):
    return num / den if den else 0.0


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    return "s" if last.endswith("_s") else "ratio"


def byte_mismatches(untraced, traced_passes):
    want = {op.name: op.out.read_bytes() for op in untraced}
    return sorted({op.name for ops in traced_passes for op in ops
                   if op.out.read_bytes() != want.get(op.name)})


def report(bench, args, passes, metrics, units, extra_lines):
    attempted, failures = tally(passes)
    failed = sum(failures.values())
    wrong = sum(n for (_, status, _), n in failures.items() if status == "wrong")
    print(f"taumod benchmark: workload={bench.workload} seed={bench.seed} "
          f"lane={bench.backend} trace={args.trace} passes={len(passes)} "
          f"seconds={args.seconds:g} requests/pass={len(passes[0])}")
    for line in extra_lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':38s} {_ratio(failed, attempted):14.6g} "
          f"failed/attempted ({failed}/{attempted})")
    for (name, status, reason), n in sorted(failures.items()):
        print(f"  {status}: {name} x{n}: {reason}")
    shas = {op.name: _sha(op) for op in passes[0]}
    combined = hashlib.sha256("".join(f"{n} {s}\n" for n, s in sorted(shas.items()))
                              .encode()).hexdigest()
    stable = all(_sha(op) == shas[op.name] for ops in passes[1:] for op in ops)
    print(f"report sha256 (all reports, pass 0): {combined} "
          f"identical across passes: {stable}")
    for name, digest in sorted(shas.items()):
        print(f"  {digest} {name}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running request is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "taumod" / "cli.py").is_file():
        print(f"no taumod sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.setup()
        if not args.trace:
            passes = measure(bench, args.seconds, traced=False)
            metrics, extra, tail, n = end_to_end(bench, passes)
            lines = [f"  {k:38s} {v:14.6g} s" for k, v in extra.items()]
            if tail:
                lines.append(f"  {f'latency_p{tail[0]}_s':38s} {tail[1]:14.6g} s")
            lines.append(f"  {'latency samples':38s} {n:14d} requests")
            report(bench, args, passes, metrics, END_TO_END, lines)
            return 0
        start = time.perf_counter()
        untraced = bench.run_pass("untraced", traced=False)
        passes = measure(bench, args.seconds - (time.perf_counter() - start),
                         traced=True)
        metrics, shares = layer_metrics(untraced, passes)
        lines = []
        for kind, by_layer in sorted(shares.items()):
            tot = sum(by_layer.values()) or 1.0
            lines.append(f"  layer shares of traced self time, {kind}: " + " ".join(
                f"{k}={100 * v / tot:.1f}%" for k, v in sorted(by_layer.items())))
        diff = byte_mismatches(untraced, passes)
        lines.append(f"  traced reports byte-identical to untraced: {not diff} {diff or ''}")
        if diff:
            passes[0][0].results.append(
                ("trace", "wrong", f"tracing changed report bytes: {diff}"))
        for k in PRINTED_ONLY:
            lines.append(f"  {k:38s} {metrics.pop(k):14.6g} {layer_unit(k)}")
        units = {k: layer_unit(k) for k in metrics}
        report(bench, args, passes, metrics, units, lines)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
