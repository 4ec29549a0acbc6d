"""F_p kernels: polynomial arithmetic mod a monic modulus and matrix
elimination.

This is the one kernel lane; `BACKEND` names it so the bench and the
benchmark can label their output. Matrix elimination leans on numpy:
each pivot updates, mod p, only the rows that are nonzero in its column
and only the columns from it on, which gives the same pivots and output
as full-width Gauss-Jordan. `extend_kernel` solves a block
lower-triangular system one level at a time; it is the one solver of
the conjugator and fixed-point systems of the extension sweeps, and
`canonical_basis` turns its last level into the basis `nullspace_mod_p`
gives for the whole system. numpy is imported where the elimination
starts, not with this module, so that a request which solves no F_p
system never loads it.

The polynomial routines are plain loops and the package's only F_p
polynomial arithmetic. They serve the modulus search (Ben-Or's
irreducibility test, on `polypowmod` and `polygcd`), the generator
search and the fill of the log tables of small fields, and the
multiplication, inversion and powers in fields above
`basefield.TABLE_LIMIT`. Everything else F_p-linear on a field goes
through numpy matrices: large fields apply Frobenius powers as cached
matrices, and fields above `basefield.PURE_FILL_LIMIT` fill their log
tables by doubling with matrix products.
"""

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


def polygcd(a, b, p):
    """Monic gcd over F_p of a and b, coefficient sequences low-to-high,
    as a tuple; () when both are zero."""
    a, b = list(a), list(b)
    for c in (a, b):
        while c and not c[-1]:
            c.pop()
    while b:
        # a mod b, then the next step of Euclid
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % p
            if c:
                base = i - db
                for j in range(db):
                    if b[j]:
                        a[base + j] = (a[base + j] - c * b[j]) % p
        a, b = b, a[:db]
        while b and not b[-1]:
            b.pop()
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple(x * inv % p for x in a)


def rref_mod_p(mat, p):
    """Reduced row echelon form over F_p.

    mat: list of rows (lists of ints). Returns (rref rows as list of
    lists, pivot column list).
    """
    if not mat:
        return [], []
    import numpy as np
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
    import numpy as np
    R, pivots = rref_mod_p(mat, p)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    # row i: 1 at free column free[i], minus that column of R at the pivots
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots and free:
        basis[:, pivots] = -np.array(R, dtype=np.int64)[: len(pivots)][:, free].T % p
    return basis.tolist()


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


def extend_kernel(rows, coupling, diag, p):
    """One more level of a block lower-triangular homogeneous system.

    rows: k x D array whose rows are a basis of the solutions s of the
    levels so far. The new level's equations are coupling @ s + diag @ x
    = 0 in s and the new unknowns x. Returns an array whose rows are a
    basis of the solutions (s, x) of all levels; start from a 0 x 0
    array, the basis of the one solution of no equations.
    """
    import numpy as np
    k = rows.shape[0]
    d = diag.shape[1]
    A = np.hstack([coupling @ rows.T % p, diag % p])
    ker = np.array(nullspace_mod_p(A.tolist(), k + d, p),
                   dtype=np.int64).reshape(-1, k + d)
    return np.hstack([ker[:, :k] @ rows % p, ker[:, k:]])


def canonical_basis(rows, p):
    """The basis `nullspace_mod_p` returns for the space the rows span.

    That basis is the reduced echelon form on reversed columns: each
    vector ends in a 1 at a (free) column where every other vector is 0,
    and the vectors are ordered by that column. It depends on the space
    alone, so any spanning rows give it.
    """
    import numpy as np
    rows = np.asarray(rows, dtype=np.int64)
    if not rows.size:
        return []
    R, pivots = rref_mod_p(rows[:, ::-1].tolist(), p)
    return [row[::-1] for row in reversed(R[: len(pivots)])]
