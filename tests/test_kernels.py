"""Correctness of the F_p kernels against reference oracles that
recompute products, elimination and kernel membership directly.

Test ids carry the kernel lane name (`kernels.BACKEND`).
"""

import random

import numpy as np
import pytest

from taumod import elimination, kernels

import dense_oracle as dense

LANES = [kernels]


def random_poly(rng, n, p):
    return tuple(rng.randrange(p) for _ in range(n))


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.BACKEND)
class TestPolyOps:
    def test_mulmod_against_direct(self, lane):
        rng = random.Random(11)
        for p, n in [(2, 3), (3, 4), (5, 2), (3, 8)]:
            from taumod.basefield import _find_modulus

            mod = _find_modulus(p, n)
            for _ in range(30):
                a = random_poly(rng, n, p)
                b = random_poly(rng, n, p)
                got = lane.polymulmod(a, b, mod, p)
                # direct: schoolbook then repeated subtraction of shifts
                prod = [0] * (2 * n)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
                for i in range(2 * n - 1, n - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(n + 1):
                            prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
                assert got == tuple(prod[:n])
                assert all(0 <= x < p for x in got)

    def test_powmod_matches_repeated_mul(self, lane):
        from taumod.basefield import _find_modulus

        p, n = 3, 4
        mod = _find_modulus(p, n)
        rng = random.Random(13)
        a = random_poly(rng, n, p)
        acc = tuple([1] + [0] * (n - 1))
        for e in range(20):
            assert lane.polypowmod(a, e, mod, p) == acc
            acc = lane.polymulmod(acc, a, mod, p)


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.BACKEND)
class TestLinear:
    def test_nullspace_members_and_count(self, lane):
        rng = random.Random(17)
        for p in (2, 3, 5):
            for _ in range(20):
                rows = rng.randrange(1, 8)
                cols = rng.randrange(1, 8)
                mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
                basis = elimination.nullspace_mod_p(mat, cols, p)
                for v in basis:
                    for row in mat:
                        assert sum(r * x for r, x in zip(row, v)) % p == 0
                _, pivots = elimination.rref_mod_p(mat, p)
                assert len(basis) == cols - len(pivots)

    def test_solve_verifies_or_detects(self, lane):
        rng = random.Random(19)
        for p in (2, 3):
            for _ in range(30):
                rows = rng.randrange(1, 7)
                cols = rng.randrange(1, 7)
                mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
                if rng.random() < 0.5:
                    x = [rng.randrange(p) for _ in range(cols)]
                    rhs = [sum(r * xi for r, xi in zip(row, x)) % p for row in mat]
                else:
                    rhs = [rng.randrange(p) for _ in range(rows)]
                sol = elimination.solve_mod_p(mat, rhs, p)
                if sol is not None:
                    for row, b in zip(mat, rhs):
                        assert sum(r * x for r, x in zip(row, sol)) % p == b % p


def reference_rref(mat, p):
    """Plain Gauss-Jordan over F_p that clears every other row in every
    column: the full-width elimination the kernels must reproduce."""
    A = [[x % p for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(len(A[0])):
        i = next((i for i in range(r, len(A)) if A[i][c]), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for j in range(len(A)):
            if j != r and A[j][c]:
                f = A[j][c]
                A[j] = [(x - f * y) % p for x, y in zip(A[j], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


def reference_nullspace(R, pivots, ncols, p):
    """One basis vector per free column f: 1 at f, minus column f of the
    reduced rows at the pivot columns."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r][f]) % p
        basis.append(v)
    return basis


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.BACKEND)
@pytest.mark.parametrize("shape", [(12, 40), (30, 200), (40, 12), (200, 30)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_rref_wide_and_tall(lane, shape):
    rows, cols = shape
    rng = random.Random(rows * 1000 + cols)
    for p in (2, 3, 5, 7):
        # low rank half the time, so zero rows and skipped columns occur
        rank = rng.choice([min(rows, cols), max(1, min(rows, cols) // 3)])
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        mat = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
               for row in left]
        R, pivots = elimination.rref_mod_p(mat, p)
        assert ([list(map(int, r)) for r in R], list(pivots)) == reference_rref(mat, p)
        basis = elimination.nullspace_mod_p(mat, cols, p)
        assert basis == reference_nullspace(R, pivots, cols, p)
        for v in basis:
            for row in mat:
                assert sum(r * x for r, x in zip(row, v)) % p == 0


def _levels(rng, p, widths, heights):
    """Sparse random levels of a block lower-triangular system, so that
    the kernel is often nonzero: level i has heights[i] rows over the
    unknowns of levels 0..i. Returns the levels and the whole system."""
    levels, full, left = [], [], 0
    for h, w in zip(heights, widths):
        level = [[rng.randrange(p) if rng.random() < 0.4 else 0
                  for _ in range(left + w)] for _ in range(h)]
        levels.append(level)
        left += w
    full = [row + [0] * (left - len(row)) for level in levels for row in level]
    return levels, full


def _solve_levels(levels, p):
    rows, left = [], 0
    for level in levels:
        rows = elimination.extend_kernel(rows, [row[:left] for row in level],
                                     [row[left:] for row in level], p)
        left = len(level[0])
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extend_kernel_level_by_level(p):
    # a block lower-triangular system solved one level at a time spans
    # the nullspace of the whole system
    rng = random.Random(f"extend:{p}")
    for _ in range(10):
        widths = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        heights = [rng.randrange(1, 4) for _ in widths]
        levels, full = _levels(rng, p, widths, heights)
        rows = _solve_levels(levels, p)
        left = sum(widths)
        want = elimination.nullspace_mod_p(full, left, p)
        assert len(rows) == len(want)
        assert all(len(row) == left for row in rows)
        assert not any(any(kernels.matvec(full, row, p)) for row in rows)
        rank = len(elimination.rref_mod_p(rows, p)[1]) if len(rows) else 0
        assert rank == len(want)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_basis_of_the_levels_is_the_nullspace_basis(p):
    # the last level's rows of a block lower-triangular system, and any
    # other spanning rows, give exactly the nullspace basis of the system
    rng = random.Random(f"canonical:{p}")
    for _ in range(20):
        widths = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
        levels, full = _levels(rng, p, widths, widths)
        rows = _solve_levels(levels, p)
        want = elimination.nullspace_mod_p(full, sum(widths), p)
        assert elimination.canonical_basis(rows, p) == want
        # redundant, reordered rows of the same space give the same basis
        mix = [[rng.randrange(p) for _ in rows] for _ in range(2)]
        mixed = kernels.matmul(mix, rows, p) if rows else []
        assert elimination.canonical_basis(mixed + rows[::-1], p) == want
    assert elimination.canonical_basis([], p) == []


# primes on both sides of the one-byte slots of `elimination.Packing`
PRIMES = [2, 3, 5, 7, 131, 251, 65521]


class TestPacking:
    """Packed rows against the same arithmetic on lists of ints."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_row_arithmetic(self, p):
        rng = random.Random(f"packing:{p}")
        for n in (0, 1, 7, 40):
            P = elimination.Packing(p, n)
            for _ in range(10):
                # unreduced and negative entries are reduced when packed
                a = [rng.randrange(-3 * p, 3 * p) for _ in range(n)]
                b = [rng.randrange(p) for _ in range(n)]
                x, y = P.pack(a), P.pack(b)
                assert P.unpack(x) == [v % p for v in a]
                assert [P.get(x, j) for j in range(n)] == [v % p for v in a]
                assert P.unpack(P.add(x, y)) == [(u + v) % p for u, v in zip(a, b)]
                for f in {1, 2, p - 1, rng.randrange(1, p)} - {0}:
                    assert P.unpack(P.mul(x, f)) == [f * v % p for v in a]
                coeffs = [rng.randrange(-p, 2 * p) for _ in range(5)]
                rows = [[rng.randrange(p) for _ in range(n)] for _ in coeffs]
                want = [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n)]
                assert P.unpack(P.combine(coeffs, [P.pack(r) for r in rows])) == want


class TestAgainstNumpy:
    """The kernels against the numpy versions of `dense_oracle` on seeded
    random inputs: same rows, same pivots, same bases."""

    SHAPES = [(0, 0), (0, 5), (3, 0), (1, 1), (5, 5), (8, 8), (4, 9), (9, 4),
              (16, 16), (30, 12)]

    @staticmethod
    def _mat(rng, p, rows, cols, kind):
        if kind == "zero":
            return [[0] * cols for _ in range(rows)]
        if kind == "full" and rows and cols:
            # full rank: a unit triangular factor times a random one
            k = min(rows, cols)
            lo = [[int(i == j) if j >= i else rng.randrange(p) for j in range(k)]
                  for i in range(rows)]
            up = [[rng.randrange(1, p) if i == j else rng.randrange(p) if j > i else 0
                   for j in range(cols)] for i in range(k)]
            return kernels.matmul(lo, up, p)
        if kind == "unreduced":
            return [[rng.randrange(-300, 300) for _ in range(cols)] for _ in range(rows)]
        return [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(cols)]
                for _ in range(rows)]

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("kind", ["random", "zero", "full", "unreduced"])
    def test_elimination(self, p, kind):
        rng = random.Random(f"numpy:{p}:{kind}")
        for rows, cols in self.SHAPES:
            for _ in range(3):
                mat = self._mat(rng, p, rows, cols, kind)
                R, pivots = elimination.rref_mod_p(mat, p)
                assert (R, pivots) == dense.rref_mod_p(mat, p)
                if kind == "full":
                    assert len(pivots) == min(rows, cols)
                assert (elimination.nullspace_mod_p(mat, cols, p)
                        == dense.nullspace_mod_p(mat, cols, p))
                assert elimination.canonical_basis(mat, p) == dense.canonical_basis(mat, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_levels(self, p):
        rng = random.Random(f"numpy-levels:{p}")
        for _ in range(10):
            widths = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
            heights = [rng.randrange(1, 5) for _ in widths]
            levels, _ = _levels(rng, p, widths, heights)
            rows, ref, left = [], np.zeros((0, 0), dtype=np.int64), 0
            for level in levels:
                split = ([row[:left] for row in level], [row[left:] for row in level])
                # entries off by multiples of p, negative ones too, solve the same
                shifted = [[[x + p * rng.randrange(-2, 3) for x in row] for row in m]
                           for m in split]
                assert (elimination.extend_kernel(rows, *shifted, p)
                        == elimination.extend_kernel(rows, *split, p))
                rows = elimination.extend_kernel(rows, *split, p)
                ref = dense.extend_kernel(ref, *(np.array(m, dtype=np.int64).reshape(
                    len(level), -1) for m in split), p)
                assert rows == ref.tolist()
                left = len(level[0])
            assert elimination.canonical_basis(rows, p) == dense.canonical_basis(ref, p)
