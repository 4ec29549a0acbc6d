"""Dense matrices of z-series: the little algebra layer under
isocrystals and the semilinear solvers.

Matrices are lists of rows of ZSeries over a shared base K. Everything
is exact-arithmetic; windows propagate through the entry operations.
Entries multiply through `series.sum_of_products`, the one product entry
of windowed series, one call per sum: each entry of `mul`, each minor of
`laplace_minors` (odd positions negated), and each entry of `inv`, which
takes all the row updates x - f*y it owes in one sum when it is first
read. Over a local K, each sum in turn sums its coefficients by output
exponent through `sum_of_products`. A sum's window is the least of its
products' windows however they are grouped, so taking an entry's
updates in one sum changes no series."""

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
    """Inverse over K((z)) by left-looking Gauss-Jordan elimination.

    Pivots are chosen by least z-order among known-nonzero candidates,
    which keeps windows as wide as the input allows. When a column has
    none: NotInvertible if every candidate is an exact zero, else
    PrecisionLoss with the narrowest window among them.

    Step k of the elimination subtracts f*y from each entry x right of
    the pivot in every other row, f the row's entry in the pivot column
    and y the normalized pivot row's entry. Each row keeps the updates
    it owes as (f, k) pairs, and an entry takes all of them by one sum
    of products when it is first read: its column as the pivot column,
    its row as the pivot row, and each entry of the inverse at the end.
    A multiplier f that is the exact zero owes nothing, and neither does
    a pair whose y is the exact zero.
    """
    n, m = dims(A)
    if n != m:
        raise InputError("inverse of a non-square matrix")
    work = [list(row) for row in A]
    out = identity(A[0][0].K, n) if n else []
    owed = [[] for _ in range(n)]
    # the normalized pivot row of each step, in work (whose entries right
    # of the pivot are read) and in out
    rights, outs = [], []
    for col in range(n):
        for r in range(n):
            if owed[r]:
                work[r][col] = _settle(work[r][col], owed[r], rights, col)
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
        owed[col], owed[piv] = owed[piv], owed[col]
        pinv = work[col][col].inv(prec)
        row, orow, pending = work[col], out[col], owed[col]
        # the columns of work at or left of col are never read again
        row[col + 1:] = [_settle(row[j], pending, rights, j) * pinv
                         for j in range(col + 1, n)]
        out[col] = [_settle(orow[j], pending, outs, j) * pinv for j in range(n)]
        owed[col] = []
        # a copy: later steps settle the entries of work in place
        rights.append(row[:])
        outs.append(out[col])
        for r in range(n):
            f = work[r][col]
            if r != col and (f.co or f.hi is not INF):
                owed[r].append((f, col))
    for r in range(n):
        if owed[r]:
            out[r] = [_settle(x, owed[r], outs, j) for j, x in enumerate(out[r])]
    return out


def _settle(x, pending, pivots, j):
    """x - sum of f*y over the (f, k) of pending, y = pivots[k][j]: one
    sum of products, or x itself when every y is the exact zero."""
    terms = [(x, None, False)]
    for f, k in pending:
        y = pivots[k][j]
        if y.co or y.hi is not INF:
            terms.append((f, y, True))
    return x if len(terms) == 1 else sum_of_products(terms)


def check_tau_matrix(A, N):
    """Check that A can carry the tau-fixed-point system v = A*sigma(v)
    at z-precision N: square over a finite base, invertible mod z, and
    every entry in K[[z]] and known below z^N, in that order. Returns
    (K, r)."""
    K = A[0][0].K
    if K.kind != "finite":
        raise InputError("tau-fixed points are computed over finite bases")
    r, r2 = dims(A)
    if r != r2:
        raise InputError("square tau matrix required")
    if det(A).valuation() != 0:
        raise InputError("tau matrix not invertible mod z")
    for row in A:
        for entry in row:
            if entry.hi < N:
                raise PrecisionLoss(
                    "tau matrix entry known below the requested z-precision",
                    need=N,
                    window=entry.hi,
                )
            if entry.co and min(entry.co) < 0:
                raise InputError("tau matrix must be over K[[z]] here")
    return K, r


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
