"""Correctness of the F_p kernels against reference oracles that
recompute products, elimination and kernel membership directly.

Test ids carry the kernel lane name (`kernels.BACKEND`).
"""

import random

import pytest

from taumod import kernels

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
                basis = lane.nullspace_mod_p(mat, cols, p)
                for v in basis:
                    for row in mat:
                        assert sum(r * x for r, x in zip(row, v)) % p == 0
                _, pivots = lane.rref_mod_p(mat, p)
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
                sol = lane.solve_mod_p(mat, rhs, p)
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
        R, pivots = lane.rref_mod_p(mat, p)
        assert ([list(map(int, r)) for r in R], list(pivots)) == reference_rref(mat, p)
        basis = lane.nullspace_mod_p(mat, cols, p)
        assert basis == reference_nullspace(R, pivots, cols, p)
        for v in basis:
            for row in mat:
                assert sum(r * x for r, x in zip(row, v)) % p == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extend_kernel_level_by_level(p):
    # a block lower-triangular system solved one level at a time spans
    # the nullspace of the whole system
    import numpy as np

    rng = random.Random(f"extend:{p}")
    for _ in range(10):
        widths = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        heights = [rng.randrange(1, 4) for _ in widths]
        full = np.zeros((sum(heights), sum(widths)), dtype=np.int64)
        rows = np.zeros((0, 0), dtype=np.int64)
        top, left = 0, 0
        for h, w in zip(heights, widths):
            # sparse blocks, so that the kernel is often nonzero
            level = np.array([[rng.randrange(p) if rng.random() < 0.4 else 0
                               for _ in range(left + w)] for _ in range(h)])
            full[top:top + h, :left + w] = level
            rows = kernels.extend_kernel(rows, level[:, :left], level[:, left:], p)
            top, left = top + h, left + w
        want = kernels.nullspace_mod_p(full.tolist(), left, p)
        assert rows.shape == (len(want), left)
        assert not (full @ rows.T % p).any()
        rank = len(kernels.rref_mod_p(rows.tolist(), p)[1]) if len(rows) else 0
        assert rank == len(want)



@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_basis_of_the_levels_is_the_nullspace_basis(p):
    # the last level's rows of a block lower-triangular system, and any
    # other spanning rows, give exactly the nullspace basis of the system
    import numpy as np

    rng = random.Random(f"canonical:{p}")
    for _ in range(20):
        widths = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
        full = np.zeros((sum(widths), sum(widths)), dtype=np.int64)
        rows = np.zeros((0, 0), dtype=np.int64)
        left = 0
        for w in widths:
            level = np.array([[rng.randrange(p) if rng.random() < 0.4 else 0
                               for _ in range(left + w)] for _ in range(w)])
            full[left:left + w, :left + w] = level
            rows = kernels.extend_kernel(rows, level[:, :left], level[:, left:], p)
            left += w
        want = kernels.nullspace_mod_p(full.tolist(), left, p)
        assert kernels.canonical_basis(rows, p) == want
        # redundant, reordered rows of the same space give the same basis
        mix = np.array([[rng.randrange(p) for _ in rows] for _ in range(2)],
                       dtype=np.int64).reshape(2, len(rows))
        assert kernels.canonical_basis(
            np.vstack([mix @ rows % p, rows[::-1]]), p) == want
    assert kernels.canonical_basis(np.zeros((0, 7), dtype=np.int64), p) == []
