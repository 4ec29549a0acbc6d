"""Dense matrices of z-series: the little algebra layer under
isocrystals and the semilinear solvers.

Matrices are lists of rows of ZSeries over a shared base K. Everything
is exact-arithmetic; windows propagate through the entry operations.
Entries multiply through `series.sum_of_products`, the one product entry
of windowed series, one call per sum: each entry of `mul`, each minor of
`laplace_minors` (odd positions negated) and each entry of the row
updates x - f*y of `inv`.
"""

import math

from taumod.errors import InputError, NotInvertible, PrecisionLoss
from taumod.series import sum_of_products
from taumod.zseries import ZSeries

INF = math.inf


def zeros(K, rows, cols):
    return [[ZSeries.zero(K) for _ in range(cols)] for _ in range(rows)]


def identity(K, n):
    out = zeros(K, n, n)
    for i in range(n):
        out[i][i] = ZSeries.one(K)
    return out


def dims(A):
    return len(A), len(A[0]) if A else 0


def mul(A, B):
    n, k = dims(A)
    k2, m = dims(B)
    if k != k2:
        raise InputError(f"matrix shapes {n}x{k} and {k2}x{m} do not compose")
    cols = list(zip(*B))
    return [[sum_of_products([(x, y, False) for x, y in zip(row, col)])
             for col in cols] for row in A]


def matvec(A, v):
    return [col[0] for col in mul(A, [[x] for x in v])]


def sigma(A, k=1):
    return [[a.sigma(k) for a in row] for row in A]


def lift(A, L):
    """A over L, entries lifted along the field inclusion K -> L."""
    return [[s._lift(L) for s in row] for row in A]


def transpose(A):
    return [list(row) for row in zip(*A)]


def kron(A, B):
    """Kronecker product with row-major index pairing:
    (A kron B)[(i,j),(k,l)] = A[i][k] * B[j][l]."""
    n, m = dims(A)
    p, q = dims(B)
    out = []
    for i in range(n):
        for j in range(p):
            row = []
            for k in range(m):
                for l in range(q):
                    row.append(A[i][k] * B[j][l])
            out.append(row)
    return out


def laplace_minors(A, K):
    """Memoised Laplace expansion on the square matrix A.

    Returns minor(rows, cols): the determinant of A on the row and column
    index tuples (of one length), expanded along its first row. It is
    division-free, so windows stay truthful. Exact-zero entries are
    skipped, and a minor with no term left is the exact zero over K.
    """
    memo = {}

    def minor(rows, cols):
        if len(rows) == 1:
            return A[rows[0]][cols[0]]
        key = (rows, cols)
        got = memo.get(key)
        if got is not None:
            return got
        top, rest = A[rows[0]], rows[1:]
        terms = []
        for pos, j in enumerate(cols):
            entry = top[j]
            if not entry.co and entry.hi is INF:
                continue
            sub = minor(rest, cols[:pos] + cols[pos + 1:])
            terms.append((entry, sub, pos % 2 == 1))
        acc = sum_of_products(terms) if terms else ZSeries.zero(K)
        memo[key] = acc
        return acc

    return minor


def det(A):
    """Determinant: the full Laplace minor."""
    n, m = dims(A)
    if n != m:
        raise InputError("determinant of a non-square matrix")
    if n == 0:
        raise InputError("determinant of an empty matrix")
    full = tuple(range(n))
    return laplace_minors(A, A[0][0].K)(full, full)


def agrees(A, B):
    n, m = dims(A)
    n2, m2 = dims(B)
    if (n, m) != (n2, m2):
        return False
    return all(a.agrees_with(b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def inv(A, prec=None):
    """Inverse over K((z)) by Gauss-Jordan elimination.

    Pivots are chosen by least z-order among known-nonzero candidates,
    which keeps windows as wide as the input allows. When a column has
    none: NotInvertible if every candidate is an exact zero, else
    PrecisionLoss with the narrowest window among them.
    """
    n, m = dims(A)
    if n != m:
        raise InputError("inverse of a non-square matrix")
    work = [list(row) for row in A]
    out = identity(A[0][0].K, n) if n else []
    for col in range(n):
        piv, piv_val = None, None
        for r in range(col, n):
            entry = work[r][col]
            if entry.known_nonzero():
                v = entry.valuation()
                if piv_val is None or v < piv_val:
                    piv, piv_val = r, v
        if piv is None:
            windows = [work[r][col].hi for r in range(col, n)
                       if work[r][col].co or work[r][col].hi is not INF]
            if windows:
                raise PrecisionLoss(f"pivot column {col} is zero only to its windows",
                                    window=min(windows))
            raise NotInvertible(f"no usable pivot in column {col}")
        work[col], work[piv] = work[piv], work[col]
        out[col], out[piv] = out[piv], out[col]
        pinv = work[col][col].inv(prec)
        work[col] = [x * pinv for x in work[col]]
        out[col] = [x * pinv for x in out[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                if f.known_nonzero() or f.co:
                    # x - f*y, entry by entry
                    work[r] = [sum_of_products([(x, None, False), (f, y, True)])
                               for x, y in zip(work[r], work[col])]
                    out[r] = [sum_of_products([(x, None, False), (f, y, True)])
                              for x, y in zip(out[r], out[col])]
    return out


def tau_power_matrix(A, k):
    """Matrix of tau^k when tau acts v -> A*sigma(v):
    A_k = A * sigma(A) * ... * sigma^{k-1}(A).

    Over a finite K = F_{q^m}, sigma^m is the identity, so sigma^i(A) is
    built once for each i below m and reused, with the logs and packed
    ints its entries keep."""
    if k < 0:
        raise InputError("negative tau powers need the inverse matrix")
    K = A[0][0].K
    if k == 0:
        return identity(K, len(A))
    period = K.desc.m * K.ext if K.kind == "finite" else k
    twists = [A]
    acc = A
    for i in range(1, k):
        if i < period:
            twists.append(sigma(A, i))
        acc = mul(acc, twists[i % period])
    return acc
