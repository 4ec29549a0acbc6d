"""Byte-identity gate: the sha256 of every report a refactor must keep.

Runs in one process through `taumod.cli.main` and prints one
`sha256  label` line per report, sorted by label:

  * `corpus --generate --seed S` for S = 0..5 (the report and the files
    it writes);
  * `corpus --jobs 1` on each of those corpora;
  * every compute report, and the `verify` report of every request the
    plan verifies, of the `rank` and `tower` plans at seed 1 of
    `perfbench/inputs.py`;
  * the requests of `RERUNS` again with extra flags, and their `verify`;
  * `isocrystal slopes`, `isocrystal purity` (and its `verify`),
    `isocrystal dual` and `isocrystal tensor` with the simple pure twist
    of slope 1/2 on the dense twists of `TWISTS`, built as the `rank`
    plan builds its twists over F_9.

Each label carries the exit code. Run it on two checkouts and diff:

    PYTHONPATH=src python3 bench/report_gate.py > gate.txt
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

from taumod import jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.cli import main
from taumod.isocrystal import Isocrystal, simple_pure
from taumod.zseries import ZSeries

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(6)
PLANS = (("rank", 1), ("tower", 1))
# request name -> extra flags. `weil-f9-g01` runs out of degrees at the
# default `--ext-max 8`; at 9 it succeeds, the first success path whose
# conjugator lives in a field above `basefield.TABLE_LIMIT`.
RERUNS = {"weil-f9-g01": ["--ext-max", "9"]}
# dense rank-4 twists: over F_4 (q = 2, m = 2), where sums of products take
# the packed path of `series.sum_of_products` and the sign of a sum over
# p = 2 is covered, over F_32 (q = 2, m = 5), whose degree 5 is above
# the packed path's crossover, so that sums there take the log loop, and
# over F_81 (q = 9, m = 2), so that one twist's log tables are filled
# by the packed walk of characteristic 3, with unreduced slot sums, and
# the others' by the XOR walk of characteristic 2; and a rank-3 twist
# over F_27 (q = 27) whose unipotent entries have degree 8, so that single
# products (`Series.__mul__`) take the packed path in characteristic 3
# with sigma the 27-power map. Each is (label, field, rank, degree of
# the unipotent entries).
TWISTS = (("f4-twist", FieldDescriptor(p=2, a=1, m=2, kind="finite"), 4, 1),
          ("f32-twist", FieldDescriptor(p=2, a=1, m=5, kind="finite"), 4, 1),
          ("f81-twist", FieldDescriptor(p=3, a=2, m=2, kind="finite"), 4, 1),
          ("f27-dense", FieldDescriptor(p=3, a=3, m=1, kind="finite"), 3, 8))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _tree_sha(path):
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.json")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _corpus_lines(work):
    lines = []
    for seed in SEEDS:
        d = work / f"corpus{seed}"
        code, out = _run(["corpus", "--generate", "--seed", str(seed),
                          "--dir", str(d)])
        lines.append((_sha(out.encode()), f"corpus-generate-{seed} [exit {code}]"))
        lines.append((_tree_sha(d), f"corpus-generate-{seed}/files"))
        code, out = _run(["corpus", "--dir", str(d), "--jobs", "1"])
        lines.append((_sha(out.encode()), f"corpus-{seed} [exit {code}]"))
    return lines


def _inputs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs


def _lines(label, argv, verify):
    """The line of one request, and of its `verify` if asked."""
    code, out = _run(argv)
    lines = [(_sha(out.encode()), f"{label} [exit {code}]")]
    if verify:
        code, vout = _run(["verify", "--input", out])
        lines.append((_sha(vout.encode()), f"{label}.verify [exit {code}]"))
    return lines


def _unipotent(inputs, K, rng, r, lower, deg):
    """`inputs._unipotent` with entries c_0 + ... + c_deg z^deg, c_i != 0;
    the same matrix for deg = 1."""
    P = zmatrix.identity(K, r)
    for i in range(r):
        for j in range(r):
            if (i > j) if lower else (i < j):
                P[i][j] = ZSeries(K, {e: inputs._unit(K, rng) for e in range(deg + 1)})
    return P


def _twist_lines(work, label, desc, r, deg):
    """P A sigma(P)^-1 for the simple pure A of slope 1/r over desc's field
    and P = L U, the way `inputs.rank_requests` builds its twists."""
    inputs = _inputs()
    K = desc.field()
    rng = random.Random(f"report-gate:{label}:{r}")
    L, U = (_unipotent(inputs, K, rng, r, True, deg),
            _unipotent(inputs, K, rng, r, False, deg))
    P = zmatrix.mul(L, U)
    P_inv = zmatrix.mul(inputs._unipotent_inverse(U, False),
                        inputs._unipotent_inverse(L, True))
    A = zmatrix.mul(zmatrix.mul(P, simple_pure(K, 1, r).A), zmatrix.sigma(P_inv))
    path = work / f"{label}-r{r}.json"
    path.write_text(json.dumps(jsonio.render(Isocrystal(K, A)), sort_keys=True))
    other = work / f"{label}-other.json"
    other.write_text(jsonio.dump_canonical(simple_pure(K, 1, 2)))
    label = f"{label}-r{r}"
    return (_lines(f"{label}/slopes", ["isocrystal", "slopes", "--input", str(path)],
                   False)
            + _lines(f"{label}/purity", ["isocrystal", "purity", "--s", "1", "--r",
                                         str(r), "--input", str(path)], True)
            + _lines(f"{label}/dual", ["isocrystal", "dual", "--input", str(path)],
                     False)
            + _lines(f"{label}/tensor", ["isocrystal", "tensor", "--input", str(path),
                                         "--other", str(other)], False))


def _plan_lines(work, workload, seed):
    inputs = _inputs()
    d = work / f"{workload}{seed}"
    inputs.write_plan(workload, seed, d)
    lines = []
    cwd = os.getcwd()
    os.chdir(d)
    try:
        runs = []
        for req in json.loads((d / "plan.json").read_text()):
            label = f"{workload}{seed}/{req['name']}"
            runs.append((label, req["argv"], req["verify"]))
            if req["name"] in RERUNS:
                extra = RERUNS[req["name"]]
                runs.append((f"{label} {' '.join(extra)}", req["argv"] + extra, True))
        for label, argv, verify in runs:
            lines += _lines(label, argv, verify)
    finally:
        os.chdir(cwd)
    return lines


def main_gate():
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        lines = _corpus_lines(work)
        for label, desc, r, deg in TWISTS:
            lines += _twist_lines(work, label, desc, r, deg)
        for workload, seed in PLANS:
            lines += _plan_lines(work, workload, seed)
    for digest, label in sorted(lines, key=lambda t: t[1]):
        print(f"{digest}  {label}")


if __name__ == "__main__":
    main_gate()
