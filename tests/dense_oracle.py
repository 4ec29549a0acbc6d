"""Dense reference solvers for the conjugator and fixed-point systems.

`taumod` solves both systems level by level on F_p-linear data. These
solvers build the whole N*[L:F_p]-column matrix over a built field L,
with its coefficients coerced along the canonical embedding, and take
one nullspace of it. Tests compare the level solver against them.
"""

import numpy as np

from taumod import kernels
from taumod.basefield import frobenius_power
from taumod.semilinear import (
    _fixed_space_terms,
    _fq_basis_from_fp_kernel,
    _mult_mat,
)


def conjugator_kernel(E, L, N):
    """Echelon basis of the solutions of u = tau^{-r} u phi_t mod
    tau^{-N}, as F_p-coordinate vectors over L (u_0, ..., u_{N-1} in
    turn). Row n states sigma^r(u_n) = sum_i sigma^{-jp}(g_i) u_jp with
    jp = i + n - r."""
    ff = L.ff
    p, nL = ff.p, ff.n
    r = E.rank
    g = [L.el(c) for c in E.coeffs]
    Q = frobenius_power(p, nL, L.desc.a * r)
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
    return kernels.nullspace_mod_p(big.tolist(), dim, p)


def fixed_space_kernel(A, N, e=1, require_unit=True):
    """F_p-kernel basis of v -> A*sigma(v) - v on (L[[z]]/z^N)^r, L the
    degree-e extension, coordinates (component, z-degree, field)."""
    K, r, terms = _fixed_space_terms(A, N, require_unit)
    L = K.extend(e)
    ff = L.ff
    p, nL = ff.p, ff.n
    Q = frobenius_power(p, nL, K.desc.a)
    dim = r * N * nL
    big = np.zeros((dim, dim), dtype=np.int64)
    for i, j, k, c in terms:
        T = (_mult_mat(ff, L.el(c)) @ Q) % p
        for l in range(N - k):
            n = l + k
            rb = (i * N + n) * nL
            cb = (j * N + l) * nL
            big[rb : rb + nL, cb : cb + nL] += T
    big -= np.eye(dim, dtype=np.int64)
    big %= p
    return kernels.nullspace_mod_p(big.tolist(), dim, p)


def tau_fixed_space(A, N, e=1, require_unit=True):
    """The F_q-basis of the fixed space from the dense kernel."""
    K = A[0][0].K
    L = K.extend(e)
    r = len(A)
    ker = fixed_space_kernel(A, N, e, require_unit)
    return _fq_basis_from_fp_kernel(K, L, ker, r, N, L.ff.n)
