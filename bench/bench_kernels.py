"""Time the compiled kernel lane against the pure-Python one.

Runs the same seeded workloads through taumod._kernels and
taumod._kernels_py and prints a table of per-call times plus the
speedup. Exits nonzero if the two lanes disagree on any output, so this
doubles as a cross-lane consistency check.

Usage: python bench/bench_kernels.py [--trials N] [--seed S]
"""

import argparse
import random
import sys
import time

from taumod import _kernels_py as pure

try:
    from taumod import _kernels as fast
except ImportError:
    fast = None


def _rand_poly(rng, n, p):
    return tuple(rng.randrange(p) for _ in range(n))


def _rand_monic(rng, n, p):
    return tuple(rng.randrange(p) for _ in range(n)) + (1,)


def _rand_mat(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def _workloads(seed):
    rng = random.Random(seed)
    p = 3
    mod = _rand_monic(rng, 24, p)
    a = _rand_poly(rng, 24, p)
    b = _rand_poly(rng, 24, p)
    sq = _rand_mat(rng, 60, 60, p)
    rect = _rand_mat(rng, 80, 120, p)
    rhs = [rng.randrange(p) for _ in range(60)]
    # the shape of the F_{2^16} conjugator kernel at N = 32
    conj = _rand_mat(rng, 512, 512, 2)
    return [
        ("polymulmod deg24/F3", "polymulmod", (a, b, mod, p)),
        ("polypowmod ^3^12", "polypowmod", (a, 3**12, mod, p)),
        ("rref 60x60/F3", "rref_mod_p", ([r[:] for r in sq], p)),
        ("nullspace 80x120/F3", "nullspace_mod_p", ([r[:] for r in rect], 120, p)),
        ("solve 60x60/F3", "solve_mod_p", ([r[:] for r in sq], rhs[:], p)),
        ("rref 512x512/F2", "rref_mod_p", (conj, 2)),
    ]


def _time(fn, args, trials):
    # fresh copies per call: rref-style kernels may mutate row lists
    best = float("inf")
    out = None
    for _ in range(trials):
        cargs = tuple(
            [r[:] for r in A] if isinstance(A, list) and A and isinstance(A[0], list) else A
            for A in args
        )
        t0 = time.perf_counter()
        out = fn(*cargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if fast is None:
        print("compiled lane not built; nothing to compare (pure lane only)")

    mismatches = 0
    rows = []
    for label, name, fargs in _workloads(args.seed):
        tp, outp = _time(getattr(pure, name), fargs, args.trials)
        if fast is None:
            rows.append((label, tp, None, None))
            continue
        tf, outf = _time(getattr(fast, name), fargs, args.trials)
        same = _normalize(outp) == _normalize(outf)
        if not same:
            mismatches += 1
        rows.append((label, tp, tf, same))

    print(f"{'workload':24} {'pure':>10} {'compiled':>10} {'speedup':>8}  agree")
    for label, tp, tf, same in rows:
        if tf is None:
            print(f"{label:24} {tp * 1e6:9.1f}u {'-':>10} {'-':>8}")
        else:
            print(
                f"{label:24} {tp * 1e6:9.1f}u {tf * 1e6:9.1f}u "
                f"{tp / tf:7.1f}x  {'yes' if same else 'NO'}"
            )
    if mismatches:
        print(f"{mismatches} workload(s) disagree between lanes", file=sys.stderr)
        return 1
    return 0


def _normalize(x):
    if isinstance(x, tuple):
        return tuple(_normalize(v) for v in x)
    if isinstance(x, list):
        return tuple(_normalize(v) for v in x)
    return x


if __name__ == "__main__":
    sys.exit(main())
