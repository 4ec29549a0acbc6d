"""F_p kernels: polynomial arithmetic mod a monic modulus and matrix
elimination.

This is the one kernel lane; `BACKEND` names it so the bench and the
benchmark can label their output. Matrix elimination leans on numpy:
each pivot updates, mod p, only the rows that are nonzero in its column
and only the columns from it on, which gives the same pivots and output
as full-width Gauss-Jordan. The polynomial routines are plain loops.
They serve the cold path (modulus search, generator search) and fields
above `basefield.TABLE_LIMIT`: smaller fields multiply through log
tables, which `basefield` fills by doubling with numpy matrix products,
not one `polymulmod` per element.
"""

import numpy as np

BACKEND = "pure"


def polymulmod(a, b, mod, p):
    """(a*b) mod `mod` over F_p. a, b: coefficient tuples of length n;
    mod: monic, length n+1, low-to-high. Returns a length-n tuple."""
    n = len(mod) - 1
    prod = [0] * (2 * n - 1 if n > 0 else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            base = i - n
            for j in range(n):
                if mod[j]:
                    prod[base + j] = (prod[base + j] - c * mod[j]) % p
    return tuple(prod[:n])


def polypowmod(a, e, mod, p):
    """a**e mod `mod` over F_p, e >= 0."""
    n = len(mod) - 1
    result = tuple([1] + [0] * (n - 1))
    base = tuple(a)
    while e > 0:
        if e & 1:
            result = polymulmod(result, base, mod, p)
        base = polymulmod(base, base, mod, p)
        e >>= 1
    return result


def rref_mod_p(mat, p):
    """Reduced row echelon form over F_p.

    mat: list of rows (lists of ints). Returns (rref rows as list of
    lists, pivot column list).
    """
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
        # the pivot row is zero left of column c, so elimination changes
        # only the rows nonzero in column c, and only from column c on
        hit = np.flatnonzero(A[:, c])
        hit = hit[hit != r]
        if hit.size:
            A[hit, c:] = (A[hit, c:] - np.outer(A[hit, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A.tolist(), pivots


def nullspace_mod_p(mat, ncols, p):
    """Basis of {v : mat @ v = 0 (mod p)} for mat with ncols columns.

    Returns a list of length-ncols int lists (possibly empty). mat may
    have zero rows; then the identity basis is returned.
    """
    if not mat:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    R, pivots = rref_mod_p(mat, p)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r][f]) % p
        basis.append(v)
    return basis


def solve_mod_p(mat, rhs, p):
    """One solution of mat @ v = rhs (mod p), or None.

    mat: list of rows, rhs: list of ints of the same length.
    """
    if not mat:
        return None
    ncols = len(mat[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    R, pivots = rref_mod_p(aug, p)
    if ncols in pivots:
        return None
    v = [0] * ncols
    for r, c in enumerate(pivots):
        v[c] = R[r][ncols] % p
    return v
