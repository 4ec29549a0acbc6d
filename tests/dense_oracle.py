"""Dense numpy references for the F_p kernels and the level solvers.

`taumod` runs on plain lists of ints. This module keeps the numpy
versions of its F_p kernels (elimination, the level step, the canonical
basis, the log-table fills), which tests compare the pure ones against
on the same inputs, and dense solvers for the conjugator and
fixed-point systems: these build the whole N*[L:F_p]-column matrix over
a built field L, with its coefficients coerced along the canonical
embedding, and take one nullspace of it. Tests compare the level solver
against them. `tabled` fills a field's log tables for the tests that
read them or the products that run on them.
"""

import numpy as np

from taumod import kernels
from taumod.basefield import _find_modulus, frobenius_power, mult_matrix
from taumod.semilinear import (
    _fixed_space_terms,
    _fq_basis_from_fp_kernel,
    _mult_mat,
)


def tabled(field):
    """field, an FF or a FiniteK, with the log tables of its FF filled. A
    field fills them on its own only once its work without them pays for
    the fill (`FF._rent`)."""
    ff = getattr(field, "ff", field)
    if ff._log is None:
        ff._build_tables()
    return field


# rows per int64 block when filling and converting a log table
_TABLE_CHUNK = 1 << 12


def rref_mod_p(mat, p):
    """Reduced row echelon form over F_p by numpy: each pivot updates,
    mod p, only the rows nonzero in its column and only the columns from
    it on."""
    if not mat:
        return [], []
    A = np.array(mat, dtype=np.int64) % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = (A[r, c:] * inv) % p
        hit = np.flatnonzero(A[:, c])
        hit = hit[hit != r]
        if hit.size:
            A[hit, c:] = (A[hit, c:] - np.outer(A[hit, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A.tolist(), pivots


def nullspace_mod_p(mat, ncols, p):
    """Basis of {v : mat @ v = 0 (mod p)} from the numpy `rref_mod_p`."""
    if not mat:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    R, pivots = rref_mod_p(mat, p)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots and free:
        basis[:, pivots] = -np.array(R, dtype=np.int64)[: len(pivots)][:, free].T % p
    return basis.tolist()


def extend_kernel(rows, coupling, diag, p):
    """One level of a block lower-triangular system on numpy arrays:
    rows is a k x D array, and a 0 x 0 array starts the levels."""
    k = rows.shape[0]
    d = diag.shape[1]
    A = np.hstack([coupling @ rows.T % p, diag % p])
    ker = np.array(nullspace_mod_p(A.tolist(), k + d, p),
                   dtype=np.int64).reshape(-1, k + d)
    return np.hstack([ker[:, :k] @ rows % p, ker[:, k:]])


def canonical_basis(rows, p):
    """The nullspace basis of the space the rows span, by numpy."""
    rows = np.asarray(rows, dtype=np.int64)
    if not rows.size:
        return []
    R, pivots = rref_mod_p(rows[:, ::-1].tolist(), p)
    return [row[::-1] for row in reversed(R[: len(pivots)])]


def repeated_mul_table(p, n, g, order):
    """Coordinates of g^0, ..., g^(order-1) in F_{p^n}, as tuples, each
    the one before times g (`kernels.polymulmod`)."""
    mod = _find_modulus(p, n)
    exp = [tuple(int(i == 0) for i in range(n))]
    for _ in range(order - 1):
        exp.append(kernels.polymulmod(exp[-1], g, mod, p))
    return exp


def doubling_table(p, n, g, order):
    """The same table by numpy doubling: for M the F_p matrix of
    y -> g*y, the rows [k, 2k) are the rows [0, k) times (M^k)^T mod p,
    so the table costs O(log order) matrix products."""
    table = np.zeros((order, n), dtype=np.min_scalar_type(p - 1))
    table[0, 0] = 1
    step = np.array(mult_matrix(p, n, g), dtype=np.int64).T  # (M^k)^T
    k = 1
    while k < order:
        m = min(k, order - k)
        for lo in range(0, m, _TABLE_CHUNK):
            hi = min(lo + _TABLE_CHUNK, m)
            table[k + lo : k + hi] = table[lo:hi].astype(np.int64) @ step % p
        step = step @ step % p
        k += m
    exp = []
    for lo in range(0, order, _TABLE_CHUNK):
        exp.extend(map(tuple, table[lo : lo + _TABLE_CHUNK].tolist()))
    return exp


def conjugator_kernel(E, L, N):
    """Echelon basis of the solutions of u = tau^{-r} u phi_t mod
    tau^{-N}, as F_p-coordinate vectors over L (u_0, ..., u_{N-1} in
    turn). Row n states sigma^r(u_n) = sum_i sigma^{-jp}(g_i) u_jp with
    jp = i + n - r."""
    ff = L.ff
    p, nL = ff.p, ff.n
    r = E.rank
    g = [L.el(c) for c in E.coeffs]
    Q = np.array(frobenius_power(p, nL, L.desc.a * r), dtype=np.int64)
    dim = N * nL
    big = np.zeros((dim, dim), dtype=np.int64)
    for n in range(N):
        rb = n * nL
        big[rb : rb + nL, rb : rb + nL] += Q
        for i in range(max(0, r - n), r + 1):
            jp = i + n - r
            cb = jp * nL
            big[rb : rb + nL, cb : cb + nL] -= _mult_mat(ff, L.sigma(g[i], -jp))
    big %= p
    return nullspace_mod_p(big.tolist(), dim, p)


def fixed_space_kernel(A, N, e=1, require_unit=True):
    """F_p-kernel basis of v -> A*sigma(v) - v on (L[[z]]/z^N)^r, L the
    degree-e extension, coordinates (component, z-degree, field)."""
    K, r, terms = _fixed_space_terms(A, N, require_unit)
    L = K.extend(e)
    ff = L.ff
    p, nL = ff.p, ff.n
    Q = np.array(frobenius_power(p, nL, K.desc.a), dtype=np.int64)
    dim = r * N * nL
    big = np.zeros((dim, dim), dtype=np.int64)
    for i, j, k, c in terms:
        T = (np.array(_mult_mat(ff, L.el(c)), dtype=np.int64) @ Q) % p
        for l in range(N - k):
            n = l + k
            rb = (i * N + n) * nL
            cb = (j * N + l) * nL
            big[rb : rb + nL, cb : cb + nL] += T
    big -= np.eye(dim, dtype=np.int64)
    big %= p
    return nullspace_mod_p(big.tolist(), dim, p)


def tau_fixed_space(A, N, e=1, require_unit=True):
    """The F_q-basis of the fixed space from the dense kernel."""
    K = A[0][0].K
    L = K.extend(e)
    r = len(A)
    ker = fixed_space_kernel(A, N, e, require_unit)
    return _fq_basis_from_fp_kernel(K, L, ker, r, N, L.ff.n)
