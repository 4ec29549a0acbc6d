"""Time the F_p kernels of taumod.kernels and taumod.elimination,
windowed series products and sums of products over tabled fields, the
matrix product and determinant of `zmatrix`, on seeded workloads, and
the field construction of `basefield`: the modulus search, the fills of
the log tables, and the `L1` rows, which weigh a whole fill against the
operations a field runs without tables until its work pays for one
(`FF._rent`); then a product over F_3((zeta)), `zmatrix.inv` over F_9,
series inverses over F_9, F_3((zeta)) and F_{2^16}, the purity search,
`verify`'s replay of a purity certificate, the characteristic
polynomial behind `isocrystal slopes`, the parse of a twist and its
dual, and the JSON writer of the reports.

Rows with a numpy reference in tests/dense_oracle.py (elimination on
shapes the `tower` requests of perfbench solve, a level of the
fixed-point solve of `tate-f64-cyc3`, the table fills) time it too, on
the same input, as `old`; the inverse rows time the inverses that
`Series.inv` and the one sum per entry of `zmatrix.inv` replaced, the
purity rows the search with two Hermite reductions per step, with step
0 on the full A_r, or with v_z(det A) and its residue test by Laplace
expansion, the replay rows the replay that reduced the image of the
full-window A_r, the characteristic polynomial rows the sums of all
principal minors, the slopes row the slopes from the full A, uncut at
the Newton chord, the parse and dual rows the parse that inverted the
twist, and the writer row `json.dumps`, as `old`.

Each of `PROCESSES` fresh interpreters takes the best per-call time of
every row over the trials, or over as many calls as fit in `BUDGET_S`
seconds, one at least; the table prints the median and the minimum of
those bests over the processes, labelled with the kernel lane
(`kernels.BACKEND`). One process can run a row about 20% slower than
the next, for the same code, so the minimum is the steadier figure.

Usage: PYTHONPATH=src python bench/bench_kernels.py [--trials N] [--seed S]
"""

import argparse
import contextlib
import copy
import io
import json
import multiprocessing
import pathlib
import random
import statistics
import sys
import tempfile
import time
from math import inf as INF

import numpy as np

from taumod import basefield, elimination, jsonio, kernels, localfield, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.cli import main as taumod_main
from taumod.drinfeld import DrinfeldModule, m_infinity
from taumod.isocrystal import (Isocrystal, _char_poly, dual, purity_check, simple_pure,
                               slopes_finiteK)
from taumod.series import Series, sum_of_products
from taumod.skew import SkewLaurent, SkewPoly
from taumod.verify import _replay_purity
from taumod.zseries import ZSeries

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
import dense_oracle as dense  # noqa: E402

PROCESSES = 5
# the calls of one side of a row stop once they have taken this long
BUDGET_S = 2.0


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
        diag = _rand_mat(rng, 16, 16, 2)
        diag[:2] = [[0] * 16, [0] * 16]
        levels.append((_rand_mat(rng, 16, 16 * n, 2), diag))
    rows = [
        ("polymulmod deg24/F3", kernels.polymulmod, (a, b, mod, p)),
        ("polypowmod ^3^12", kernels.polypowmod, (a, 3**12, mod, p)),
        ("rref 60x60/F3", elimination.rref_mod_p, ([r[:] for r in sq], p)),
        ("nullspace 80x120/F3", elimination.nullspace_mod_p, ([r[:] for r in rect], 120, p)),
        ("solve 60x60/F3", elimination.solve_mod_p, ([r[:] for r in sq], rhs[:], p)),
        ("levels 32x16/F2", _level_solve, (levels, 2)),
    ] + (_series_workloads(rng) + _matrix_workloads(rng) + _sum_workloads(rng)
         + _field_workloads() + _untabled_workloads(rng) + _local_workloads(rng)
         + _inverse_workloads(rng) + _purity_workloads(rng) + _charpoly_workloads()
         + _parse_workloads() + [_writer_workload()])
    olds = {"rref 60x60/F3": (dense.rref_mod_p, ([r[:] for r in sq], p)),
            "nullspace 80x120/F3": (dense.nullspace_mod_p, ([r[:] for r in rect], 120, p)),
            "levels 32x16/F2": (_dense_level_solve, (_arrays(levels), 2))}
    return ([row if len(row) == 5 else row + olds.get(row[0], (None, None))
             for row in rows] + _tower_workloads())


def _rand_series(cls, K, rng, exps, hi):
    return cls(K, {e: K.random(rng) for e in exps}, hi)


def _series_workloads(rng):
    """Products through `Series.__mul__`: the windowed 12 x 13 term shape
    of the `rank` workload's entries, a dense 40 x 40 over F_9 and over
    F_64 (degree 6, above the packed path's crossover), a twisted product
    over F_{4^8} = F_{2^16}, and the one-term products of small corpus
    items. Each call gets fresh operands, since a product keeps the logs
    and packed ints it took of them."""
    f9 = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
    f4 = FieldDescriptor(p=2, a=2, m=1, kind="finite").field()
    f64 = FieldDescriptor(p=2, a=2, m=3, kind="finite").field()
    f48 = FieldDescriptor(p=2, a=2, m=8, kind="finite").field()
    pairs = [
        ("series 12x13/F9", ZSeries, f9, (range(-2, 10), 10), (range(-1, 12), 11)),
        ("series 40x40/F9", ZSeries, f9, (range(40), 40), (range(40), 40)),
        ("series 40x40/F64", ZSeries, f64, (range(40), 40), (range(40), 40)),
        ("skew 8x8/F_{4^8}", SkewPoly, f48, (range(8), INF), (range(8), INF)),
        ("series 1x1/F4", ZSeries, f4, ((0,), 8), ((1,), 8)),
    ]
    return [(label, lambda x, y: _fresh(x) * _fresh(y),
             (_rand_series(cls, K, rng, *a), _rand_series(cls, K, rng, *b)))
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

    A, B = rand_matrix(), rand_matrix()
    return [("matmul 7x7/F9",
             lambda A, B: zmatrix.mul(_fresh_matrix(A), _fresh_matrix(B)), (A, B)),
            ("det 7x7/F9", lambda A: zmatrix.det(_fresh_matrix(A)), (A,))]


def _field_workloads():
    """The canonical modulus search, uncached, for F_{2^16}, F_{3^10} and
    F_{3^18}; and the exp table by the packed walk (`fill`) against the
    numpy doubling, from F_4 to F_{2^16} and F_{3^9}."""
    out = [(f"modulus F_{{{p}^{n}}}", basefield._find_modulus.__wrapped__, (p, n))
           for p, n in ((2, 16), (3, 10), (3, 18))]
    for p, n in ((2, 2), (3, 2), (2, 5), (7, 2), (2, 6), (2, 8), (2, 12), (2, 16),
                 (3, 9)):
        ff = basefield.get_field(p, n)
        args = (p, n, ff.gen.c, ff.size - 1)
        out.append((f"fill F_{ff.size}", basefield._power_table, args,
                    dense.doubling_table, args))
    return out


def _untabled_workloads(rng):
    """The `L1` rows, over F_{2^16} and F_{3^9}, the two fields that the
    `weil` requests of the perfbench `tower` plan leave untabled: the
    whole fill of the tables (`FF._build_tables` on a fresh field, the
    generator search included), and one product, Frobenius map, power
    (to an exponent of the field's bit length) and inverse without them,
    each on a field kept untabled through every trial."""
    out = []
    for p, n in ((2, 16), (3, 9)):
        name = f"F_{{{p}^{n}}}"
        ff = basefield.FF(p, n)
        ff._due = INF
        x, y = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
        e = rng.randrange(ff.size // 2, ff.size - 1)
        out += [(f"L1 fill {name}", lambda p, n: basefield.FF(p, n)._build_tables(),
                 (p, n)),
                (f"L1 mul {name}", ff.mul_raw, (x, y)),
                (f"L1 frob {name}", ff.frob_raw, (x, 1)),
                (f"L1 pow {name}", ff.pow_raw, (x, e)),
                (f"L1 inv {name}", ff.inv_raw, (x,))]
    return out


def _local_workloads(rng):
    """A product of two 8-term ZSeries over F_3((zeta)) whose coefficients
    are 4-term LocalElems known below a zeta-power, the shape the grouped
    sums of `series._felt_sum` take; and `zmatrix.inv` at precision 12 on
    a 7 x 7 matrix over F_9 of dense windowed entries, 13 terms known
    below z^12, the shape of the rank-7 twist of the `rank` workload,
    against the elimination that took one two-term sum per entry and
    pivot as `old`. Each call gets fresh operands, local coefficients
    included."""
    L = FieldDescriptor(p=3, a=1, m=1, kind="local").field()

    def local(lo):
        co = {e: L.cf.el([rng.randrange(1, 3)]) for e in range(lo, lo + 4)}
        return localfield.LocalElem(L, co, lo + 5)

    def zs():
        return ZSeries(L, {e: local(rng.randrange(-2, 2)) for e in range(-1, 7)}, 7)

    f9 = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
    A = [[_rand_series(ZSeries, f9, rng, range(-1, 12), 12) for _ in range(7)]
         for _ in range(7)]

    def fresh(s):
        return ZSeries(L, {e: _fresh(c) for e, c in s.co.items()}, s.hi)

    return [("series 8x8/F3((zeta))", lambda x, y: fresh(x) * fresh(y), (zs(), zs())),
            ("inv 7x7/F9", lambda A: zmatrix.inv(_fresh_matrix(A), 12), (A,),
             lambda A: dense.incremental_inv(_fresh_matrix(A), 12), (A,))]


def _fresh_matrix(A):
    return [[_fresh(s) for s in row] for row in A]


def _inverse_workloads(rng):
    """`Series.inv`, the one recurrence, against the inverse it replaced
    as `old` (tests/dense_oracle.py): at precision 12 on a ZSeries over
    F_9 of 13 terms known below z^12, the shape of the `rank` workload's
    entries; at the default precision on an 8-term ZSeries over
    F_3((zeta)) whose coefficients are 4-term LocalElems known below a
    zeta-power, against the geometric series of both; and at precision
    16 on a 16-term SkewLaurent over F_{2^16} kept untabled, against the
    old coefficient loop of `skew_inverse`. Each call gets fresh
    operands, local coefficients included."""
    f9 = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
    L = FieldDescriptor(p=3, a=1, m=1, kind="local").field()
    K = basefield.FiniteK(FieldDescriptor(p=2, a=1, m=16, kind="finite"))
    K.ff = basefield.FF(2, 16)
    K.ff._due = INF

    def local(lo):
        co = {e: L.cf.el([rng.randrange(1, 3)]) for e in range(lo, lo + 4)}
        return localfield.LocalElem(L, co, lo + 5)

    def fresh(s):
        return type(s)(s.K, {e: _fresh(c) if isinstance(c, Series) else c
                             for e, c in s.co.items()}, s.hi)

    rows = [("inv 13/F9", _rand_series(ZSeries, f9, rng, range(-1, 12), 12), 12,
             dense.geometric_inv),
            ("inv 8/F3((zeta))",
             ZSeries(L, {e: local(rng.randrange(-2, 2)) for e in range(-1, 7)}, 7),
             None, dense.geometric_inv),
            ("inv skew 16/F_{2^16}", _rand_series(SkewLaurent, K, rng, range(16), 16),
             16, dense.skew_inverse)]
    return [(label, lambda f, prec: fresh(f).inv(prec), (f, prec),
             lambda f, prec, old=old: old(fresh(f), prec), (f, prec))
            for label, f, prec, old in rows]


def _purity_workloads(rng):
    """`isocrystal.purity_check` at z-precision 8, which certifies a step
    by its unimodularity test, against `purity_check_two_hnf`, the two
    Hermite reductions per step it replaced, as `old`
    (tests/dense_oracle.py): at (-1, 3) on m_infinity of a rank-3
    Drinfeld module over F_4((zeta)) whose coefficients have three
    zeta-terms or more, and at (1, 7) on the dense rank-7 twist of the
    `rank` workload at seed 0 (perfbench/inputs.py), over F_9. The rows
    `purity 7/F9` and `purity 12/F9` time the search at (1, r) on that
    twist and on the rank-12 twist of `_twist` against
    `purity_check_full_step0`, whose step 0 tests the full A_r, as
    `old`, and `purity 16/F9` on the rank-16 twist against
    `purity_check_laplace`, which takes v_z(det A) and the residue test
    by Laplace expansion. Each call gets fresh entries, local
    coefficients included, and the v_z(det A) of the parse."""
    L = FieldDescriptor(p=2, a=2, m=1, kind="local").field()

    def terms(lo):
        while True:
            x = L.random(rng, lo, 3)
            if len(x.co) >= 3:
                return x

    local = m_infinity(DrinfeldModule(L, [terms(0)] + [terms(-2) for _ in range(3)]))
    twist = jsonio.parse_isocrystal(_rank_payload("purity-r7"), 8)
    rows = [("purity m_inf r3/F4((zeta))", local, -1, 3, dense.purity_check_two_hnf),
            ("purity twist r7/F9", twist, 1, 7, dense.purity_check_two_hnf),
            ("purity 7/F9", twist, 1, 7, dense.purity_check_full_step0),
            ("purity 12/F9", _twist(12), 1, 12, dense.purity_check_full_step0),
            ("purity 16/F9", _twist(16), 1, 16, dense.purity_check_laplace)]
    return [(label, lambda M, s, r: purity_check(_fresh_crystal(M), s, r, prec=8), (M, s, r),
             lambda M, s, r, old=old: old(_fresh_crystal(M), s, r, prec=8), (M, s, r))
            for label, M, s, r, old in rows] + _replay_workloads(twist)


def _replay_workloads(twist7):
    """`verify`'s replay of the purity certificate at (1, r), which runs
    the search's step once at the certified lattice, against
    `dense_oracle.replay_purity_hnf`, the replay that reduced the image
    of the full-window A_r, as `old`: on the rank-7 twist of the `rank`
    workload at seed 0 and on the rank-16 twist of `_twist`, both over
    F_9 and read at z-precision 8. Both certificates are step 0. Each
    call gets fresh entries and the v_z(det A) of the parse."""
    def timed(replay):
        return lambda M, cert: replay(_fresh_crystal(M), cert, [], "purity", {"z_prec": 8})

    rows = []
    for label, M in (("verify purity 7/F9", twist7), ("verify purity 16/F9", _twist(16))):
        cert = jsonio.render(purity_check(M, 1, M.rank, prec=8))
        rows.append((label, timed(_replay_purity), (M, cert),
                     timed(dense.replay_purity_hnf), (M, cert)))
    return rows


def _fresh_crystal(M):
    """M with fresh entries, local coefficients included, and its v_z(det A)."""
    return Isocrystal(M.K, [[ZSeries(M.K, {e: _fresh(c) if isinstance(c, Series) else c
                                           for e, c in s.co.items()}, s.hi)
                             for s in row] for row in M.A], M.v_det)


def _inputs():
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs


def _rank_payload(name):
    """The input of the request name of the seed-0 `rank` plan."""
    return next(req["payload"] for req in _inputs().rank_requests(0)
                if req["name"] == name)


def _twist(r):
    """P A sigma(P)^-1 for the simple pure A of slope 1/r over F_9 and a
    seeded unipotent P = L U, built as the `rank` workload builds its
    twists (perfbench/inputs.py), and read as a request reads it."""
    inputs = _inputs()
    K = FieldDescriptor(p=3, a=2, m=1, kind="finite").field()
    rng = random.Random(f"bench-kernels:charpoly:{r}")
    L, U = inputs._unipotent(K, rng, r, True), inputs._unipotent(K, rng, r, False)
    P_inv = zmatrix.mul(inputs._unipotent_inverse(U, False),
                        inputs._unipotent_inverse(L, True))
    M = Isocrystal(K, zmatrix.mul(zmatrix.mul(zmatrix.mul(L, U), simple_pure(K, 1, r).A),
                                  zmatrix.sigma(P_inv)))
    return jsonio.parse_isocrystal(jsonio.render(M), 8)


def _charpoly_workloads():
    """`isocrystal._char_poly`, Berkowitz's recursion, against the sums of
    all principal minors (`dense_oracle.laplace_char_poly`) as `old`: on
    the rank-7 twist of the `rank` workload at seed 0, and on the rank-12
    twist of `_twist`, both over F_9 (q = 9, so tau is linear and the
    slopes are read off A itself). Then `slopes_finiteK` on that rank-12
    twist against `dense_oracle.slopes_full_window` as `old`. Each call
    gets fresh entries."""
    twist12 = _twist(12)
    K = twist12.K
    rows = [("charpoly 7/F9", jsonio.parse_isocrystal(_rank_payload("slopes-r7"), 8).A),
            ("charpoly 12/F9", twist12.A)]
    return [(label, lambda A: _char_poly(K, _fresh_matrix(A)), (A,),
             lambda A: dense.laplace_char_poly(K, _fresh_matrix(A)), (A,))
            for label, A in rows] + [
        ("slopes 12/F9", lambda M: slopes_finiteK(_fresh_crystal(M)), (twist12,),
         lambda M: dense.slopes_full_window(_fresh_crystal(M)), (twist12,))]


def _parse_workloads():
    """`jsonio.parse_isocrystal`, which shows a twist invertible by the
    pivots of one elimination and builds no inverse, against
    `dense_oracle.parse_isocrystal_by_inverse`, which inverted it and
    checked A*A^-1 = I, as `old`: on the rank-7 twist of the `rank`
    workload at seed 0 over F_9, read at z-precision 8. Then the work of
    `isocrystal dual` on it, the parse and `dual`, which inverts, against
    that old parse and the transpose of its inverse."""
    d = _rank_payload("slopes-r7")

    def old_dual(d):
        M, A_inv = dense.parse_isocrystal_by_inverse(d, 8)
        return Isocrystal(M.K, zmatrix.transpose(A_inv), -M.v_det)

    return [("parse 7/F9", lambda d: jsonio.parse_isocrystal(d, 8), (d,),
             lambda d: dense.parse_isocrystal_by_inverse(d, 8), (d,)),
            ("dual 7/F9", lambda d: dual(jsonio.parse_isocrystal(d, 8), 8), (d,),
             old_dual, (d,))]


def _writer_workload():
    """`jsonio.dump_tree` on the report of `corpus --jobs 1` over the
    seed-0 corpus, against `json.dumps` with sorted keys and indent 2 as
    `old`."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        taumod_main(["corpus", "--generate", "--seed", "0", "--dir", tmp])
        out.seek(0)
        out.truncate()
        taumod_main(["corpus", "--dir", tmp, "--jobs", "1"])
    tree = json.loads(out.getvalue())
    label = f"write corpus-0 {len(out.getvalue()) // 1000}kB"
    return (label, jsonio.dump_tree, (tree,),
            lambda t: json.dumps(t, sort_keys=True, indent=2) + "\n", (tree,))


def _captured(name, argv, want):
    """A copy of the arguments of the first call of `elimination.<name>`
    for which want(*args) holds, while taumod runs argv."""
    real, got = getattr(elimination, name), []

    def spy(*args):
        if not got and want(*args):
            got.append(copy.deepcopy(args))
        return real(*args)

    setattr(elimination, name, spy)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            taumod_main(argv)
    finally:
        setattr(elimination, name, real)
    return got[0]


def _tower_workloads():
    """Elimination and a level step on inputs taken from the requests of
    the perfbench `tower` plan: the first 16 x 16 system over F_3 of
    `weil-f9-g01` (F_9, phi_t = g + tau^2), and the last of the 16
    fixed-point levels of `tate-f64-cyc3` (`tate --prec-z 16` on cyc3
    over F_64)."""
    f64 = FieldDescriptor(p=2, a=2, m=3, kind="finite").field()
    z, zinv, one, zero = (ZSeries.z(f64), ZSeries.z(f64, -1), ZSeries.one(f64),
                          ZSeries.zero(f64))
    cyc3 = jsonio.dump_canonical(Isocrystal(
        f64, [[zero, zero, z], [one, zero, zero], [zero, zinv, zero]]))
    tate = ["tate", "--prec-z", "16", "--input", cyc3]
    f9 = FieldDescriptor(p=3, a=2, m=1, kind="finite").field()
    weil = ["weil", "--input", jsonio.dump_canonical(
        DrinfeldModule(f9, [f9.gen(), f9.zero(), f9.one()]))]
    square = _captured("rref_mod_p", weil,
                       lambda m, p: p == 3 and (len(m), len(m[0])) == (16, 16))
    level = _captured("extend_kernel", tate, lambda rows, c, d, p: len(c[0]) == 15 * 18)
    rows, coupling, diag, p = level
    [(coupling, diag)] = _arrays([(coupling, diag)])
    old_level = (np.array(rows, dtype=np.int64).reshape(len(rows), -1), coupling, diag, p)
    return [("rref 16x16/F3", elimination.rref_mod_p, square, dense.rref_mod_p, square),
            ("level 16 of cyc3/F2", elimination.extend_kernel, level, dense.extend_kernel,
             old_level)]


def _arrays(levels):
    return [(np.array(c, dtype=np.int64).reshape(len(c), -1), np.array(d, dtype=np.int64))
            for c, d in levels]


def _level_solve(levels, p):
    """extend_kernel over the levels, then the canonical basis."""
    rows = []
    for coupling, diag in levels:
        rows = elimination.extend_kernel(rows, coupling, diag, p)
    return elimination.canonical_basis(rows, p)


def _dense_level_solve(levels, p):
    """`_level_solve` on the numpy references."""
    rows = np.zeros((0, 0), dtype=np.int64)
    for coupling, diag in levels:
        rows = dense.extend_kernel(rows, coupling, diag, p)
    return dense.canonical_basis(rows, p)


def _time(fn, args, trials):
    # fresh copies per call: rref-style kernels may mutate row lists
    best, spent = float("inf"), 0.0
    for _ in range(trials):
        cargs = tuple(
            [r[:] for r in A] if isinstance(A, list) and A and isinstance(A[0], list) else A
            for A in args
        )
        t0 = time.perf_counter()
        fn(*cargs)
        took = time.perf_counter() - t0
        best, spent = min(best, took), spent + took
        if spent >= BUDGET_S:
            break
    return best


def _one_process(seed, trials):
    """{label: [best new, best old or None]} in this process."""
    out = {}
    for label, fn, args, old, old_args in _workloads(seed):
        out[label] = [_time(fn, args, trials),
                      None if old is None else _time(old, old_args, trials)]
    return json.dumps(out)


def _us(times):
    if times[0] is None:
        return f"{'-':>10} {'-':>10}"
    return f"{statistics.median(times) * 1e6:9.1f}u {min(times) * 1e6:9.1f}u"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    # one fresh interpreter at a time
    runs = []
    for _ in range(PROCESSES):
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            runs.append(json.loads(pool.apply(_one_process, (args.seed, args.trials))))
    lane = kernels.BACKEND
    print(f"{'workload':24} {lane + ' med':>10} {lane + ' min':>10} "
          f"{'old med':>10} {'old min':>10}   ({PROCESSES} processes)")
    for label in runs[0]:
        new, old = zip(*(run[label] for run in runs))
        print(f"{label:24} {_us(new)} {_us(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
