"""Time the F_p kernels of taumod.kernels, windowed series products and
sums of products over tabled fields, the matrix product and determinant
of `zmatrix`, on seeded workloads, and the field construction of
`basefield`: the modulus search and both fills of the log tables.

Prints the best per-call time of each workload over the trials,
labelled with the kernel lane (`kernels.BACKEND`).

Usage: python bench/bench_kernels.py [--trials N] [--seed S]
"""

import argparse
import operator
import random
import sys
import time
from math import inf as INF

import numpy as np

from taumod import basefield, kernels, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.series import sum_of_products
from taumod.skew import SkewPoly
from taumod.zseries import ZSeries


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
    # the shape of the F_{2^16} conjugator system at N = 32: 32 levels of
    # 16 columns, each level's diagonal block of nullity at least 2
    levels = []
    for n in range(32):
        diag = np.array(_rand_mat(rng, 16, 16, 2))
        diag[:2] = 0
        levels.append((np.array(_rand_mat(rng, 16, 16 * n, 2)).reshape(16, 16 * n), diag))
    return [
        ("polymulmod deg24/F3", kernels.polymulmod, (a, b, mod, p)),
        ("polypowmod ^3^12", kernels.polypowmod, (a, 3**12, mod, p)),
        ("rref 60x60/F3", kernels.rref_mod_p, ([r[:] for r in sq], p)),
        ("nullspace 80x120/F3", kernels.nullspace_mod_p, ([r[:] for r in rect], 120, p)),
        ("solve 60x60/F3", kernels.solve_mod_p, ([r[:] for r in sq], rhs[:], p)),
        ("levels 32x16/F2", _level_solve, (levels, 2)),
    ] + (_series_workloads(rng) + _matrix_workloads(rng) + _sum_workloads(rng)
         + _field_workloads())


def _rand_series(cls, K, rng, exps, hi):
    return cls(K, {e: K.random(rng) for e in exps}, hi)


def _series_workloads(rng):
    """Products through `Series.__mul__`: the windowed 12 x 13 term shape
    of the `rank` workload's entries, a dense 40 x 40, a twisted product
    over F_{4^8} = F_{2^16}, and the one-term products of small corpus
    items."""
    f9 = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
    f4 = FieldDescriptor(p=2, a=2, m=1, kind="finite").field()
    f48 = FieldDescriptor(p=2, a=2, m=8, kind="finite").field()
    mul = operator.mul
    pairs = [
        ("series 12x13/F9", ZSeries, f9, (range(-2, 10), 10), (range(-1, 12), 11)),
        ("series 40x40/F9", ZSeries, f9, (range(40), 40), (range(40), 40)),
        ("skew 8x8/F_{4^8}", SkewPoly, f48, (range(8), INF), (range(8), INF)),
        ("series 1x1/F4", ZSeries, f4, ((0,), 8), ((1,), 8)),
    ]
    return [(label, mul, (_rand_series(cls, K, rng, *a), _rand_series(cls, K, rng, *b)))
            for label, cls, K, a, b in pairs]


def _fresh(s):
    """s without the logs and packed ints a sum of products keeps on it."""
    return type(s)(s.K, s.co, s.hi)


def _sum_workloads(rng):
    """`series.sum_of_products` of 7 signed products of dense windowed
    series, t terms known below z^(t - 1), over F_9 (t = 13, 40, 90) and
    on both sides of the packed path's degree crossover (t = 40). Each
    call gets fresh operands."""
    rows = [("sum 7x13/F9", (3, 1, 2), 13), ("sum 7x40/F9", (3, 1, 2), 40),
            ("sum 7x90/F9", (3, 1, 2), 90), ("sum 7x40/F_{2^8}", (2, 1, 8), 40),
            ("sum 7x40/F_{2^16}", (2, 1, 16), 40)]
    out = []
    for label, (p, a, m), t in rows:
        K = FieldDescriptor(p=p, a=a, m=m, kind="finite").field()
        ops = [(_rand_series(ZSeries, K, rng, range(-1, t - 1), t - 1),
                _rand_series(ZSeries, K, rng, range(-1, t - 1), t - 1), i % 2 == 1)
               for i in range(7)]
        out.append((label, lambda ops: sum_of_products(
            [(_fresh(x), _fresh(y), neg) for x, y, neg in ops]), (ops,)))
    return out


def _matrix_workloads(rng):
    """`zmatrix.mul` and `zmatrix.det` (Laplace minors) on 7 x 7 matrices
    over F_9 of dense windowed entries, 13 terms known below z^12, the
    shape of the `rank` workload's rank-7 inverses. Each call gets fresh
    entries, since a series keeps the logs a sum of products took of it."""
    f9 = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()

    def rand_matrix():
        return [[_rand_series(ZSeries, f9, rng, range(-1, 12), 12) for _ in range(7)]
                for _ in range(7)]

    def fresh(A):
        return [[_fresh(s) for s in row] for row in A]

    A, B = rand_matrix(), rand_matrix()
    return [("matmul 7x7/F9", lambda A, B: zmatrix.mul(fresh(A), fresh(B)), (A, B)),
            ("det 7x7/F9", lambda A: zmatrix.det(fresh(A)), (A,))]


def _field_workloads():
    """The canonical modulus search, uncached, for F_{2^16}, F_{3^10} and
    F_{3^18}; and the exp table of F_9, F_64, F_256, F_4096 and F_{2^16}
    filled both ways, by repeated multiplication (`pure`) and by numpy
    doubling, each from scratch (numpy is loaded by then)."""
    out = [(f"modulus F_{{{p}^{n}}}", basefield._find_modulus.__wrapped__, (p, n))
           for p, n in ((2, 16), (3, 10), (3, 18))]
    for p, n in ((3, 2), (2, 6), (2, 8), (2, 12), (2, 16)):
        ff = basefield.get_field(p, n)
        args = (p, n, ff.gen.c, ff.size - 1)
        out += [(f"fill F_{ff.size} pure", basefield._pure_power_table, args),
                (f"fill F_{ff.size} doubling", basefield._power_table, args)]
    return out


def _level_solve(levels, p):
    """extend_kernel over the levels, then the canonical basis."""
    rows = np.zeros((0, 0), dtype=np.int64)
    for coupling, diag in levels:
        rows = kernels.extend_kernel(rows, coupling, diag, p)
    return kernels.canonical_basis(rows, p)


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
    for label, fn, fargs in _workloads(args.seed):
        best = _time(fn, fargs, args.trials)
        print(f"{label:24} {best * 1e6:9.1f}u")
    return 0


if __name__ == "__main__":
    sys.exit(main())
