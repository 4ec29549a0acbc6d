"""Outside-in layer trace for one `taumod` request.

The worker wraps the public functions of each layer in every `taumod.*`
namespace that binds them, then runs `taumod.cli.main` exactly as
`python3 -m taumod` would, so the report on stdout is byte-identical:

    PYTHONPATH=src python3 perfbench/layertrace.py OUT_PREFIX -- ARGV...

A span (name, start, end, parent) is kept in memory for every outermost
call of a wrapped function; hot element operations are only counted.
At exit the spans go to OUT_PREFIX.npz and the counters to
OUT_PREFIX.json. Self time is a span's duration minus its children's.
"""

import json
import sys
import time
from array import array

# (span name, layer, "module:attribute" targets). A name's calls and self
# time are summed over its targets; a call nested inside a span of the
# same name is not a new span, so recursion is timed once.
SPANS = [
    ("kernels.polymulmod", "L0", ["kernels:polymulmod", "kernels:polypowmod"]),
    ("kernels.rref", "L0", ["kernels:rref_mod_p", "kernels:solve_mod_p"]),
    ("kernels.nullspace", "L0", ["kernels:nullspace_mod_p"]),
    ("basefield.build", "L1", ["basefield:FF.__init__"]),
    ("basefield.embed", "L1", ["basefield:_embedding_powers"]),
    ("basefield.coerce", "L1", ["basefield:coerce_into"]),
    ("basefield.extend", "L1", ["basefield:FiniteK.extend"]),
    ("zseries.mul", "L2", ["zseries:ZSeries.__mul__"]),
    ("zseries.add", "L2", ["zseries:ZSeries.__add__"]),
    ("zseries.inv", "L2", ["zseries:ZSeries.inv"]),
    ("zseries.local", "L2", ["basefield:LocalElem.__mul__", "basefield:LocalElem.inv"]),
    ("skew.mul", "L2", ["skew:SkewLaurent.__mul__", "skew:SkewPoly.__mul__"]),
    ("skew.inverse", "L2", ["skew:skew_inverse"]),
    ("zmatrix.mul", "L3", ["zmatrix:mul"]),
    ("zmatrix.inv", "L3", ["zmatrix:inv"]),
    ("zmatrix.det", "L3", ["zmatrix:det"]),
    ("zmatrix.tau_power", "L3", ["zmatrix:tau_power_matrix"]),
    ("isocrystal.hnf_reduce", "L3", ["isocrystal:hnf_reduce"]),
    ("isocrystal.purity", "L4", ["isocrystal:purity_check"]),
    ("isocrystal.slopes", "L4", ["isocrystal:slopes_finiteK"]),
    ("semilinear.solve_scalar", "L4", ["semilinear:solve_scalar"]),
    ("semilinear.tau_fixed_space", "L4", ["semilinear:tau_fixed_space"]),
    ("tateweil.tate_slope0", "L4", ["tateweil:tate_slope0"]),
    ("tateweil.iota_conjugator", "L4", ["tateweil:iota_conjugator"]),
    ("tateweil.weil_valuation", "L4", ["tateweil:weil_valuation"]),
    ("drinfeld.m_infinity", "L4", ["drinfeld:m_infinity"]),
    ("drinfeld.motive", "L4", ["drinfeld:motive"]),
    ("drinfeld.reduction_type", "L4", ["drinfeld:reduction_type"]),
    ("drinfeld.crit_crosscheck", "L4", ["drinfeld:crit_crosscheck"]),
    ("jsonio.parse", "io", ["jsonio:loads"] + [f"jsonio:parse_{k}" for k in (
        "field", "elem", "zseries", "scalar", "skewpoly", "skewlaurent",
        "isocrystal", "drinfeld")]),
    ("jsonio.render", "io", ["jsonio:render", "jsonio:render_field",
                             "jsonio:dump_canonical"]),
    ("cli.emit", "io", ["cli:_emit"]),
]
ROOT = ("cli.main", "io")
LAYER = dict([(name, layer) for name, layer, _ in SPANS] + [ROOT])

FELT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv", "frob")


class Tracer:
    """Spans and counters of one request, kept in memory until `dump`."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS] + [ROOT[0]]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.depth = [0] * len(self.names)
        self.stack = [-1]
        self.counters = dict.fromkeys(
            ("felt_ops", "precision_loss", "nullspace_cells", "elements_tabled",
             "purity_iterations", "extensions_tried", "sweeps_useful"), 0)
        self.built = set()
        self.used = set()

    def span(self, name, fn, on_call=None, on_return=None):
        """Wrap fn so each outermost call records a span called `name`."""
        nid = self.ids[name]
        depth, stack = self.depth, self.stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if depth[nid]:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            depth[nid] += 1
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[nid] -= 1
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def counted(self, fn):
        """Wrap a Felt operation: count it and note its field as used."""
        counters, used, depth = self.counters, self.used, self.depth
        in_build = (self.ids["basefield.build"], self.ids["basefield.embed"])

        def op(x, *args, **kwargs):
            counters["felt_ops"] += 1
            if not (depth[in_build[0]] or depth[in_build[1]]):
                used.add(id(x.ff))
            return fn(x, *args, **kwargs)

        return op

    # -- hooks that turn arguments and results into counters ---------------

    def _bump(self, key, by=1):
        self.counters[key] += by

    def hooks(self):
        """on_call / on_return hooks per span name."""
        iota = self.ids["tateweil.iota_conjugator"]
        tate = self.ids["tateweil.tate_slope0"]
        depth = self.depth

        def built(args, _):
            ff = args[0]
            self.built.add(id(ff))
            if ff._log is not None:
                self._bump("elements_tabled", ff.size)

        def cells(args, kwargs):
            self._bump("nullspace_cells", len(args[0]) * args[1])

        def iterations(_, cert):
            self._bump("purity_iterations", getattr(cert, "iterations", 0))

        def extension_tried(args, kwargs):
            if depth[iota]:
                self._bump("extensions_tried")

        def degree_tried(args, kwargs):
            if depth[tate]:
                self._bump("extensions_tried")

        def useful(*_):
            self._bump("sweeps_useful")

        return {
            "basefield.build": (None, built),
            "kernels.nullspace": (cells, None),
            "isocrystal.purity": (None, iterations),
            "basefield.extend": (extension_tried, None),
            "semilinear.tau_fixed_space": (degree_tried, None),
            "tateweil.iota_conjugator": (None, useful),
            "tateweil.tate_slope0": (None, useful),
        }

    def install(self):
        """Wrap every SPANS target in each loaded taumod module binding it."""
        from taumod import basefield, errors

        mods = {n.split(".", 1)[1]: m for n, m in list(sys.modules.items())
                if n.startswith("taumod.") and m is not None}
        hooks = self.hooks()
        for name, _, targets in SPANS:
            on_call, on_return = hooks.get(name, (None, None))
            for target in targets:
                modname, attr = target.split(":")
                owner = mods[modname]
                if "." in attr:
                    cls, meth = attr.split(".")
                    owner = getattr(owner, cls)
                    setattr(owner, meth, self.span(
                        name, getattr(owner, meth), on_call, on_return))
                    continue
                orig = getattr(owner, attr)
                wrapped = self.span(name, orig, on_call, on_return)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        for meth in FELT_OPS:
            setattr(basefield.Felt, meth, self.counted(getattr(basefield.Felt, meth)))
        loss_init = errors.PrecisionLoss.__init__

        def precision_loss(exc, *args, **kwargs):
            self._bump("precision_loss")
            loss_init(exc, *args, **kwargs)

        errors.PrecisionLoss.__init__ = precision_loss

    def dump(self, prefix, request, extra):
        import numpy as np

        np.savez(f"{prefix}.npz",
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        counters = dict(self.counters, fields_built=len(self.built),
                        fields_used=len(self.built & self.used))
        meta = {"request": request, "names": self.names,
                "counters": counters, **extra}
        with open(f"{prefix}.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True)


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: the part of a span its children cover is
    the sum of their durations.
    """
    import numpy as np

    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def load(prefix):
    """Per-name calls and self seconds, plus the counters, of one request."""
    import numpy as np

    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    with np.load(f"{prefix}.npz") as z:
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
    own = self_times(parent, start, end)
    n = len(meta["names"])
    calls = np.bincount(name, minlength=n)
    secs = np.bincount(name, weights=own, minlength=n)
    meta["calls"] = {k: int(calls[i]) for i, k in enumerate(meta["names"])}
    meta["self_s"] = {k: float(secs[i]) for i, k in enumerate(meta["names"])}
    return meta


def main(argv):
    prefix, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: layertrace.py OUT_PREFIX -- TAUMOD_ARGS...")
    t0 = time.perf_counter()
    import taumod.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    root = tracer.span(ROOT[0], taumod.cli.main)
    try:
        code = root(args)
    finally:
        sys.stdout.flush()
        tracer.dump(prefix, " ".join(args), {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
