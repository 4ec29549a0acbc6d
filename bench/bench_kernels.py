"""Time the F_p kernels of taumod.kernels on seeded workloads.

Prints the best per-call time of each workload over the trials,
labelled with the kernel lane (`kernels.BACKEND`).

Usage: python bench/bench_kernels.py [--trials N] [--seed S]
"""

import argparse
import random
import sys
import time

from taumod import kernels


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
    for _ in range(trials):
        cargs = tuple(
            [r[:] for r in A] if isinstance(A, list) and A and isinstance(A[0], list) else A
            for A in args
        )
        t0 = time.perf_counter()
        fn(*cargs)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'workload':24} {kernels.BACKEND:>10}")
    for label, name, fargs in _workloads(args.seed):
        best = _time(getattr(kernels, name), fargs, args.trials)
        print(f"{label:24} {best * 1e6:9.1f}u")
    return 0


if __name__ == "__main__":
    sys.exit(main())
