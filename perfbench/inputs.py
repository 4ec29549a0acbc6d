"""Seeded inputs and their known answers for the `tower` and `rank` workloads.

Run as a fresh process, the way the benchmark times set-up:

    PYTHONPATH=src python3 perfbench/inputs.py {tower|rank} SEED OUTDIR

It writes one JSON input file per request and `plan.json`, the list of
each request's `taumod` arguments and its known answer. Known answers are
construction facts (an isomorphic rescaling or a change of basis keeps the
answer of the frozen test instance), never this program's output. The
`corpus` workload has no generator here: its set-up is
`taumod corpus --generate` itself.
"""

import json
import pathlib
import random
import sys

from taumod import jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.drinfeld import DrinfeldModule
from taumod.isocrystal import Isocrystal, simple_pure
from taumod.zseries import INF, ZSeries

# Rank range of the `rank` workload: one pass of slopes + purity + verify
# over ranks 4..7 takes about 7 s on one core (rank 8 alone adds 7 s).
RANKS = (4, 5, 6, 7)


def _unit(K, rng):
    x = K.random(rng)
    while K.is_zero(x):
        x = K.random(rng)
    return x


def _want(*pairs):
    """Report fields the answer fixes, as (key path, JSON value) pairs."""
    return [[list(path), value] for path, value in pairs]


def _rescale(K, coeffs, c):
    """Coefficients of c^-1 phi c: g_i -> c^(q^i - 1) g_i (same answer)."""
    return [K.el(g) * c ** (K.q**i - 1) for i, g in enumerate(coeffs)]


def tower_requests(seed):
    """weil and tate instances whose answers the test-suite freezes."""
    rng = random.Random(f"perfbench:tower:{seed}")
    f4mix = FieldDescriptor(p=2, a=1, m=2, kind="finite").field()
    f3 = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
    f9m2 = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
    f9 = FieldDescriptor(p=3, a=2, m=1, kind="finite").field()
    f4 = FieldDescriptor(p=2, a=2, m=1, kind="finite").field()
    f64 = FieldDescriptor(p=2, a=2, m=3, kind="finite").field()

    def weil(name, K, coeffs, flags, pairs):
        E = DrinfeldModule(K, _rescale(K, coeffs, _unit(K, rng)))
        return {"name": name, "kind": "weil", "payload": jsonio.render(E),
                "flags": flags, "verdict": "admissible", "fields": _want(*pairs)}

    def tate(name, K, A, rank, ext, N=16):
        return {"name": name, "kind": "tate",
                "payload": jsonio.render(Isocrystal(K, A)),
                "flags": ["--prec-z", str(N)], "verdict": "ok",
                "fields": _want((("result", "tate", "rank"), rank),
                                (("result", "tate", "extension"), ext),
                                (("result", "tate", "fq_dimension"), rank * N))}

    def const(K, c):
        return ZSeries(K, {0: c}, INF)

    # cyc3 (e0 -> e1 -> e2 -> z e0 up to z-shifts) conjugated by a seeded
    # constant diagonal D: D A sigma(D)^-1 has the same fixed module, which
    # sigma^3 = id on F_64 = F_{4^3} trivialises at extension 1.
    z, zinv, one, zero = (ZSeries.z(f64), ZSeries.z(f64, -1),
                          ZSeries.one(f64), ZSeries.zero(f64))
    cyc3 = [[zero, zero, z], [one, zero, zero], [zero, zinv, zero]]
    d = [_unit(f64, rng) for _ in range(3)]
    cyc3 = [[cyc3[i][j].scale(d[i] * f64.sigma(d[j]).inv()) for j in range(3)]
            for i in range(3)]
    return [
        weil("weil-f4mix-101", f4mix, [1, 0, 1], [],
             [(("result", "weil", "extension"), 8),
              (("result", "weil", "frobenius_ord"), 2),
              (("result", "weil", "rho_valuation"), [-1, 1])]),
        weil("weil-carlitz-f3", f3, [1, 1], ["--prec-tau", "8", "--ext-max", "9"],
             [(("result", "weil", "extension"), 9),
              (("result", "weil", "rho_valuation"), [-1, 1])]),
        weil("weil-f9m2-0g", f9m2, [0, f9m2.gen()], ["--prec-tau", "12"],
             [(("result", "weil", "frobenius_ord"), 2),
              (("result", "weil", "rho_valuation"), [-2, 1])]),
        weil("weil-f9-g01", f9, [f9.gen(), 0, 1], [], []),
        tate("tate-f4-const", f4, [[const(f4, f4.gen())]], 1, 3),
        tate("tate-f64-cyc3", f64, cyc3, 3, 1),
    ]


def _unipotent(K, rng, r, lower):
    """Seeded unit-triangular matrix with entries c0 + c1 z, c_i != 0."""
    P = zmatrix.identity(K, r)
    for i in range(r):
        for j in range(r):
            if (i > j) if lower else (i < j):
                P[i][j] = ZSeries(K, {0: _unit(K, rng), 1: _unit(K, rng)}, INF)
    return P


def _unipotent_inverse(T, lower):
    """Exact inverse of a unit-triangular matrix by substitution."""
    r = len(T)
    K = T[0][0].K
    X = zmatrix.identity(K, r)
    order = range(r) if lower else range(r - 1, -1, -1)
    for j in range(r):
        for i in order:
            if i == j:
                continue
            ks = range(j, i) if lower else range(i + 1, j + 1)
            acc = ZSeries.zero(K)
            for k in ks:
                acc = acc + T[i][k] * X[k][j]
            X[i][j] = -acc
    return X


def rank_requests(seed):
    """Dense twists P A sigma(P)^-1 of the simple pure A of slope 1/r."""
    rng = random.Random(f"perfbench:rank:{seed}")
    K = FieldDescriptor(p=3, a=2, m=1, kind="finite").field()
    out = []
    for r in RANKS:
        L, U = _unipotent(K, rng, r, True), _unipotent(K, rng, r, False)
        P = zmatrix.mul(L, U)
        P_inv = zmatrix.mul(_unipotent_inverse(U, False),
                            _unipotent_inverse(L, True))
        if not zmatrix.agrees(zmatrix.mul(P, P_inv), zmatrix.identity(K, r)):
            raise AssertionError("unipotent inverse is wrong")
        A = simple_pure(K, 1, r).A
        M = Isocrystal(K, zmatrix.mul(zmatrix.mul(P, A), zmatrix.sigma(P_inv)))
        payload = jsonio.render(M)
        out.append({"name": f"slopes-r{r}", "kind": "slopes", "payload": payload,
                    "flags": [], "verdict": "ok",
                    "fields": _want((("result", "slopes"), [[1, r]] * r))})
        out.append({"name": f"purity-r{r}", "kind": "purity", "payload": payload,
                    "flags": ["--s", "1", "--r", str(r)], "verdict": "pure",
                    "fields": _want((("result", "certificate", "kind"),
                                     "purity_certificate"),
                                    (("result", "certificate", "s"), 1),
                                    (("result", "certificate", "r"), r))})
    return out


# taumod sub-command for each request kind, and which kinds carry a
# certificate that `taumod verify` replays.
_COMMANDS = {
    "weil": ["weil"],
    "tate": ["tate"],
    "slopes": ["isocrystal", "slopes"],
    "purity": ["isocrystal", "purity"],
}
_VERIFIED = {"weil", "tate", "purity"}


def write_plan(workload, seed, outdir):
    reqs = {"tower": tower_requests, "rank": rank_requests}[workload](seed)
    outdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for req in reqs:
        fname = f"{req['name']}.json"
        (outdir / fname).write_text(
            json.dumps(req.pop("payload"), sort_keys=True, indent=2) + "\n")
        req["argv"] = _COMMANDS[req["kind"]] + req.pop("flags") + ["--input", fname]
        req["verify"] = req["kind"] in _VERIFIED
        plan.append(req)
    (outdir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")


if __name__ == "__main__":
    write_plan(sys.argv[1], int(sys.argv[2]), pathlib.Path(sys.argv[3]))
