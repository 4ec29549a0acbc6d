"""Dense numpy references for the F_p kernels and the level solvers, and
the series sums, row updates and inverses that one sum of products and
one recurrence replaced.

`taumod` runs on plain lists of ints. This module keeps the numpy
versions of its F_p kernels (elimination, the level step, the canonical
basis, the log-table fills), which tests compare the pure ones against
on the same inputs, and dense solvers for the conjugator and
fixed-point systems: these build the whole N*[L:F_p]-column matrix over
a built field L, with its coefficients coerced along the canonical
embedding, and take one nullspace of it. Tests compare the level solver
against them. `sweep_tate_slope0` finds the Tate space's degree by
sweeping e = 1, 2, ... and solving the fixed points at each, and
`sweep_slope0_corpus` filters the corpus's slope-zero candidates
through it; tests compare the degree rule of `tateweil.split_degree`
and the corpus generator against them. `geometric_inv` and
`skew_inverse` are the two inverses that the one recurrence of
`Series.inv` replaced. `incremental_inv` is the `zmatrix.inv` that took
one two-term sum x - f*y per entry at every pivot, and
`laplace_char_poly` the characteristic polynomial as the sums of the
principal minors, before Berkowitz's recursion. `purity_check_two_hnf`
is the purity search whose every step reduced the image and then the
join, before a unimodularity test certified a step without them and
the join was taken straight from the image's generators, and
`purity_check_full_step0` the search whose step 0 tested the full A_r
rather than A_r from A cut below the window the test reads.
`laplace_det_valuation` and `invertible_mod_z_laplace` take v_z(det A)
and the residue test of the unimodularity test by Laplace expansion, as
before the parse's elimination gave v and a pivot search the residue
test; `purity_check_laplace` is the search with both, and
`slopes_full_window` the slopes from the full A, before they were cut
at the Newton chord. `replay_purity_hnf` is `verify`'s replay of a
purity certificate by a Hermite reduction of the image of T, before it
ran the search's step at T. `parse_isocrystal_by_inverse` is the parse
that inverted a twist, checked A*A^-1 = I and read v_z(det A) off that
inversion's pivots, before the pivots of an elimination with no inverse
showed the twist invertible. `tabled` fills a field's log tables for the
tests that read them or the products that run on them.
"""

import random
from itertools import combinations
from unittest import mock

import numpy as np

from taumod import corpusgen, isocrystal, jsonio, kernels, semilinear, zmatrix
from taumod.basefield import _find_modulus, frobenius_power, mult_matrix
from taumod.errors import (
    BudgetExceeded,
    ExtensionExhausted,
    InputError,
    InvariantError,
    NotInvertible,
    PrecisionLoss,
)
from taumod.isocrystal import (
    Inconclusive,
    Isocrystal,
    Lattice,
    NotPureAt,
    PurityCertificate,
    _certificate,
    _exact_zero,
    _slice_above,
    _unimodular,
    conjugated_matrix,
    hnf_reduce,
    lattice_eq,
    purity_check,
    slopes_finiteK,
    standard_lattice,
)
from taumod.semilinear import (
    _fixed_space_terms,
    _fq_basis_from_fp_kernel,
    _mult_mat,
)
from taumod.series import INF, _window, sum_of_products
from taumod.skew import DEFAULT_TAUINV_PREC
from taumod.tateweil import TateData
from taumod.zseries import DEFAULT_Z_PREC, ZSeries


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


def fixed_space_kernel(A, N, e):
    """F_p-kernel basis of v -> A*sigma(v) - v on (L[[z]]/z^N)^r, L the
    degree-e extension, coordinates (component, z-degree, field)."""
    K, r, terms = _fixed_space_terms(A, N)
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


def tau_fixed_space(A, N, e):
    """The F_q-basis of the fixed space from the dense kernel."""
    K = A[0][0].K
    L = K.extend(e)
    r = len(A)
    ker = fixed_space_kernel(A, N, e)
    return _fq_basis_from_fp_kernel(K, L, ker, r, N, L.ff.n)


def levels_full(A, N, e):
    """Whether every level n < N of `semilinear.fixed_space_levels` has
    F_q-dimension r*(n+1), read level by level: False at the first short
    level, before the later ones are solved, and with no field built."""
    K, r = A[0][0].K, len(A)
    need = K.desc.a * r  # F_p-dimension of F_q^r
    for n, rows in enumerate(semilinear.fixed_space_levels(A, N, e)):
        if len(rows) < need * (n + 1):
            return False
    return True


def sweep_tate_slope0(M, N=4, e_max=8, max_iters=32, prec=None):
    """`tateweil.tate_slope0` as a sweep over the degrees e = 1, 2, ...:
    each degree solves the fixed points level by level up to the first
    short level (`levels_full`), and the first degree whose fixed space
    is full and free is the answer. The degree and the errors
    `split_degree` gives must be this sweep's."""
    K = M.K
    if K.kind != "finite":
        raise InputError("the slope-zero Tate space needs a finite base")
    work = max(N + 4, DEFAULT_Z_PREC) if prec is None else prec
    cert = purity_check(M, 0, 1, max_iters=max_iters, prec=work)
    if isinstance(cert, Inconclusive):
        return cert
    if not isinstance(cert, PurityCertificate):
        raise InputError("input is not pure of slope zero")
    lat = cert.lattice
    B = conjugated_matrix(M, lat, prec=work)
    r = M.rank
    for e in range(1, e_max + 1):
        if not levels_full(B, N, e):
            continue
        basis = semilinear.tau_fixed_space(B, N, e)
        ok, mb = semilinear.free_module_check(K, basis, r, N)
        if not ok:
            continue
        return TateData(rank=r, z_precision=N, extension=e, lattice=lat, twist=B,
                        fq_dimension=len(basis), module_basis=mb,
                        frobenius=semilinear.frobenius_action(K, mb, N))
    raise ExtensionExhausted(
        f"fixed points not free of rank {r} within {e_max} coefficient extensions"
    )


def sweep_slope0_corpus(seed=0, prec=4, ext_max=8):
    """`corpusgen.slope0_corpus` with each candidate filtered through
    `sweep_tate_slope0`."""
    rng = random.Random(("slope0", seed).__repr__())
    out = []
    for p, a in corpusgen.QS:
        for m in (1, 2, 3):
            K = corpusgen.finite_base(p, a, m)
            for tag, A in corpusgen._slope0_candidates(K, rng):
                M = Isocrystal(K, A)
                try:
                    sweep_tate_slope0(M, N=prec, e_max=ext_max)
                except BudgetExceeded:
                    continue
                out.append((f"iso-s0-q{p**a}-m{m}-{tag}", M))
    return out


def chained_sum(terms):
    """`series.sum_of_products(terms)` by the Felt loop, one coefficient
    product at a time into one map, over local bases too; every operand
    is over one K."""
    hi = _window(terms)
    cls, K = type(terms[0][0]), terms[0][0].K
    twist = cls._TWIST
    sigma = cls._ring(K).sigma
    co = {}
    for a, b, neg in terms:
        assert a.K is K and (b is None or b.K is K)
        for e1, c1 in a.co.items():
            if neg:
                c1 = -c1
            if b is None:
                row = ((e1, c1),)
            elif twist:
                k = twist * e1
                row = [(e1 + e2, c1 * sigma(c2, k)) for e2, c2 in b.co.items()
                       if e1 + e2 < hi]
            else:
                row = [(e1 + e2, c1 * c2) for e2, c2 in b.co.items() if e1 + e2 < hi]
            for e, pr in row:
                s = co.get(e)
                co[e] = pr if s is None else s + pr
    return cls(K, co, hi)


def chained_hnf_reduce(K, cols, r, prec=None):
    """`isocrystal.hnf_reduce`, each entry updated as x - q * y."""
    W = DEFAULT_Z_PREC if prec is None else prec
    work = [list(c) for c in cols if not all(_exact_zero(x) for x in c)]
    basis_cols = []
    pivots = []
    for i in range(r):
        best = None
        unknown_bound = INF
        for idx, col in enumerate(work):
            e = col[i]
            if _exact_zero(e):
                continue
            try:
                v = e.valuation()
            except PrecisionLoss:
                unknown_bound = min(unknown_bound, e.val_lower_bound())
                continue
            if best is None or v < best[0]:
                best = (v, idx)
        if best is None and unknown_bound == INF:
            raise InputError(f"generators are not full rank at row {i}")
        if best is None or best[0] > unknown_bound:
            raise PrecisionLoss(
                f"pivot for row {i} is not settled within the window",
                window=unknown_bound,
            )
        v_i, idx = best
        piv = work.pop(idx)
        u = piv[i].shift(-v_i)
        u_inv = u.inv(prec=W)
        piv = [x * u_inv for x in piv]
        piv[i] = ZSeries(K, {v_i: K.one()}, piv[i].hi)
        for col in work:
            if not col[i].co:
                continue
            q = col[i].shift(-v_i)
            for t in range(r):
                col[t] = col[t] - q * piv[t]
        for b in basis_cols:
            if any(n >= v_i for n in b[i].co):
                q = _slice_above(K, b[i], v_i)
                for t in range(r):
                    b[t] = b[t] - q * piv[t]
        basis_cols.append(piv)
        pivots.append(v_i)
    basis = [[basis_cols[j][i] for j in range(r)] for i in range(r)]
    return Lattice(K, basis, pivots)


def chained_inv(A, prec=None):
    """`zmatrix.inv`, every column of every row updated at each pivot by
    `chained_sum`."""
    n = len(A)
    work = [list(row) for row in A]
    out = zmatrix.identity(A[0][0].K, n) if n else []
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
                if f.co or f.hi is not INF:
                    work[r] = [chained_sum([(x, None, False), (f, y, True)])
                               for x, y in zip(work[r], work[col])]
                    out[r] = [chained_sum([(x, None, False), (f, y, True)])
                              for x, y in zip(out[r], out[col])]
    return out


def incremental_inv(A, prec=None):
    """`zmatrix.inv` as it was before it settled each entry by one sum:
    at each pivot, every other row updates its entries right of the
    pivot, and its inverse row, by one two-term sum x - f*y each; x
    itself where y is the exact zero."""
    n, m = zmatrix.dims(A)
    if n != m:
        raise InputError("inverse of a non-square matrix")
    work = [list(row) for row in A]
    out = zmatrix.identity(A[0][0].K, n) if n else []
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
        right = work[col][col + 1:] = [x * pinv for x in work[col][col + 1:]]
        out[col] = [x * pinv for x in out[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                if f.co or f.hi is not INF:
                    work[r][col + 1:] = _minus_product(work[r][col + 1:], f, right)
                    out[r] = _minus_product(out[r], f, out[col])
    return out


def _minus_product(xs, f, ys):
    return [x if not y.co and y.hi is INF
            else sum_of_products([(x, None, False), (f, y, True)])
            for x, y in zip(xs, ys)]


def laplace_char_poly(K, A):
    """Coefficients [c_0..c_r] of det(X*I - A), division-free: c_{r-k} is
    (-1)^k times the sum of the k x k principal minors (`laplace_minors`),
    added one minor at a time."""
    r = len(A)
    minor = zmatrix.laplace_minors(A, K)
    coeffs = [ZSeries.zero(K)] * (r + 1)
    coeffs[r] = ZSeries.one(K)
    for k in range(1, r + 1):
        tot = ZSeries.zero(K)
        for S in combinations(range(r), k):
            tot = tot + minor(S, S)
        coeffs[r - k] = -tot if k % 2 == 1 else tot
    return coeffs

def purity_check_two_hnf(M, s, r, max_iters=32, prec=None):
    """`isocrystal.purity_check` with no unimodularity test: it refutes
    as the search does, before any step, and then every step reduces
    the image of T to its canonical basis and joins it to T. A join
    equal to T certifies when the image is z^s T and is inconclusive
    otherwise."""
    if r <= 0:
        raise InputError("denominator must be positive")
    refuted = purity_check(M, s, r, max_iters=0)
    if isinstance(refuted, NotPureAt):
        return refuted
    n = M.rank
    A_r = M.tau_power(r)
    T = standard_lattice(M.K, n)
    mins = []
    for it in range(max_iters):
        G = zmatrix.mul(A_r, zmatrix.sigma(T.basis, r))
        img = hnf_reduce(M.K, [[G[i][j] for i in range(n)] for j in range(n)], n, prec)
        # z^-s times the image, in its canonical basis
        img = Lattice(M.K, [[x.shift(-s) for x in row] for row in img.basis],
                      [e - s for e in img.pivots])
        joined = hnf_reduce(M.K, T.columns() + img.columns(), n, prec)
        if lattice_eq(joined, T):
            if lattice_eq(img, T):
                return PurityCertificate(
                    s, r, T, it,
                    {"identity": f"tau^{r} T == z^{s} T", "pivots": list(T.pivots)})
            return Inconclusive(f"stable lattice with pivots {T.pivots} strictly "
                                f"contains z^-s tau^r T at iteration {it}")
        T = joined
        mins.append(min(T.pivots))
    return Inconclusive(
        f"no stabilization within {max_iters} iterations; "
        f"pivot trail {mins[-3:]}"
    )


def laplace_det_valuation(M):
    """v_z(det A) by the Laplace `zmatrix.det`: None when the windows
    leave it unsettled, INF when A is singular."""
    try:
        return zmatrix.det(M.A).valuation()
    except PrecisionLoss:
        return None


def invertible_mod_z_laplace(U):
    """`isocrystal._invertible_mod_z` as the Laplace determinant of the
    constant terms, known nonzero."""
    return zmatrix.det([[u.truncate(1) for u in row] for row in U]).known_nonzero()


def purity_check_laplace(M, s, r, max_iters=32, prec=None):
    """`isocrystal.purity_check` with v_z(det A) and the residue test of
    the unimodularity test by Laplace expansion."""
    with mock.patch.multiple(isocrystal, det_valuation=laplace_det_valuation,
                             _invertible_mod_z=invertible_mod_z_laplace):
        return purity_check(M, s, r, max_iters, prec)


def slopes_full_window(M):
    """`isocrystal.slopes_finiteK` with v_z(det A) unknown, which cuts no
    entry of A and drops no coefficient at the chord."""
    with mock.patch.object(isocrystal, "det_valuation", lambda M: None):
        return slopes_finiteK(M)


def purity_check_full_step0(M, s, r, max_iters=32, prec=None):
    """`isocrystal.purity_check` with step 0 on the full A_r, before it
    took A_r from A cut below the window its test reads (see
    `isocrystal._cut_tau_power`). v_z(det A) comes from
    `isocrystal.det_valuation`, as in the search."""
    if r <= 0:
        raise InputError("denominator must be positive")
    K, n = M.K, M.rank
    v = isocrystal.det_valuation(M)
    if v not in (None, INF) and r * v != n * s:
        return NotPureAt(s, r, {"kind": "determinant_valuation", "v_z_det": v, "rank": n})
    T = standard_lattice(K, n)
    mins = []
    for it in range(max_iters):
        if not it:
            G = A_r = M.tau_power(r)
        else:
            G = zmatrix.mul(A_r, zmatrix.sigma(T.basis, r))
        if _unimodular(G, T, s):
            return _certificate(s, r, T, it)
        cols = [[G[i][j].shift(-s) for i in range(n)] for j in range(n)]
        if v == INF:
            hnf_reduce(K, cols, n, prec)
        joined = hnf_reduce(K, T.columns() + cols, n, prec)
        if lattice_eq(joined, T):
            if v is None:
                return Inconclusive(f"stable lattice with pivots {T.pivots}; v_z(det A) "
                                    "is not settled within the window")
            return _certificate(s, r, T, it)
        T = joined
        mins.append(min(T.pivots))
    return Inconclusive(
        f"no stabilization within {max_iters} iterations; "
        f"pivot trail {mins[-3:]}"
    )


def replay_purity_hnf(M, cert_doc, checks, label, policy, slope=None):
    """`verify._replay_purity` before it ran the search's step: it builds
    the full-window A_r, reduces z^-s A_r sigma^r(T) to its canonical
    basis and compares that with the certified T. Like the replay, it
    refuses a certificate off `slope` or off r*v_z(det A) = rank*s before
    tau^r is built, and reads r < 1 as the replay did then."""
    s, r = int(cert_doc["s"]), int(cert_doc["r"])
    v = isocrystal.det_valuation(M)
    if (slope is not None and (s, r) != slope
            or v not in (None, INF) and r * v != M.rank * s):
        checks.append({"name": f"{label}: tau^r T == z^s T", "ok": False, "s": s, "r": r})
        return
    lat = cert_doc["lattice"]
    T = Lattice(M.K, [[jsonio.parse_zseries(M.K, cell) for cell in row]
                      for row in lat["basis"]], [int(e) for e in lat["pivots"]])
    img = zmatrix.mul(M.tau_power(r), zmatrix.sigma(T.basis, r))
    cols = [[img[i][j].shift(-s) for i in range(M.rank)] for j in range(M.rank)]
    ok = lattice_eq(T, hnf_reduce(M.K, cols, M.rank))
    checks.append({"name": f"{label}: tau^r T == z^s T", "ok": ok, "s": s, "r": r})


def parse_isocrystal_by_inverse(d, prec=None):
    """`jsonio.parse_isocrystal` before it built no inverse: (the
    isocrystal of d, A^-1), A inverted at z-precision prec and checked
    by A*A^-1 = I, its v_z(det A) the sum of the valuations of that
    inversion's pivots, and a declared rank checked after."""
    K = jsonio.parse_field(jsonio._need(d, "base", "isocrystal"))
    rows = jsonio._need(d, "tau_matrix", "isocrystal")
    if not isinstance(rows, list) or not rows:
        raise InputError("tau_matrix must be a nonempty square array")
    M = Isocrystal(K, [[jsonio.parse_zseries(K, cell) for cell in row] for row in rows])
    A_inv, M.v_det = zmatrix._eliminate(M.A, prec, True)
    if not zmatrix.agrees(zmatrix.mul(M.A, A_inv), zmatrix.identity(K, M.rank)):
        raise InvariantError("invertibility witness fails A*A_inv = I")
    want = d.get("rank")
    if want is not None and int(want) != M.rank:
        raise InputError(f"declared rank {want} but tau_matrix is {M.rank} x {M.rank}")
    return M, A_inv


def geometric_inv(f, prec=None):
    """`Series.inv` of an untwisted series (`ZSeries`, `LocalElem`) as the
    geometric series: f = c x^v (1 + w), and u = c^-1 x^-v sum_k (-w)^k,
    summed by full products and sums of series."""
    if not f.co:
        if f.hi is INF:
            raise NotInvertible(f._INV_ZERO)
        raise PrecisionLoss(f._INV_WINDOW, window=f.hi)
    v = f.valuation()
    c = f.co[v]
    cinv = c.inv()
    if len(f.co) == 1 and f.hi is INF:
        return f._with({-v: cinv}, INF)
    width = prec if prec is not None else f._default_inv_prec()
    w = f._with({e - v: ce * cinv for e, ce in f.co.items() if e != v},
                f.hi - v if f.hi is not INF else INF)
    out_hi = -v + width
    if f.hi is not INF:
        out_hi = min(out_hi, f.hi - 2 * v)
    acc = term = f.one(f.K)
    wv = w.val_lower_bound()
    neg_w = -w
    k = 1
    while k * wv < out_hi + v:
        term = term * neg_w
        acc = acc + term
        k += 1
    if acc.hi is not INF:
        out_hi = min(out_hi, acc.hi - v)
    return f._with({e - v: cc * cinv for e, cc in acc.co.items() if e - v < out_hi},
                   out_hi)


def skew_inverse(f, prec=DEFAULT_TAUINV_PREC):
    """`SkewLaurent.inv` by its own loop: u_{n-v} = sigma^v(f_v^-1 *
    (delta_{n,0} - sum_{k>v} f_k sigma^{-k}(u_{n-k}))), every coefficient
    of the window kept, zeros included, until the end."""
    if not f.co:
        if f.hi is INF:
            raise NotInvertible("inverse of zero")
        raise PrecisionLoss("inverse of a zero-to-window element", window=f.hi)
    K = f.K
    v = min(f.co)
    fv_inv = K.el(f.co[v]).inv()
    if len(f.co) == 1 and f.hi is INF:
        return type(f)(K, {-v: K.sigma(fv_inv, v)}, INF)
    out_hi = -v + prec
    if f.hi is not INF:
        out_hi = min(out_hi, f.hi - 2 * v)
    u = {}
    for j in range(-v, out_hi):
        n = j + v
        acc = K.one() if n == 0 else K.zero()
        for k, fk in f.co.items():
            if k == v or n - k not in u:
                continue
            acc = acc - K.el(fk) * K.sigma(u[n - k], -k)
        u[j] = K.sigma(fv_inv * acc, v)
    return type(f)(K, u, out_hi)


def random_coeff(K, rng):
    """A seeded element of K; over a local K, one in three is known only
    below a zeta-power, and some of those are zero to their window."""
    c = K.random(rng)
    if K.kind == "local" and rng.random() < 0.3:
        c = c.truncate(rng.randrange(-1, 4))
    return c


def random_entry(K, rng, windowed=True):
    """A seeded z-series over K: the exact zero, zero to its window, or up
    to 8 terms (5 over a local K), most of them windowed if windowed."""
    roll = rng.random()
    if roll < 0.08:
        return ZSeries.zero(K)
    if roll < 0.12 and windowed:
        return ZSeries(K, {}, rng.randrange(0, 5))
    lo = rng.randrange(-1, 2)
    terms = rng.randrange(1, 6 if K.kind == "local" else 9)
    co = {e: random_coeff(K, rng) for e in rng.sample(range(lo, lo + terms + 3), terms)}
    hi = lo + terms + rng.randrange(1, 6) if windowed and rng.random() < 0.7 else INF
    return ZSeries(K, co, hi)


def random_matrix(K, rng, n, m=None, windowed=True):
    return [[random_entry(K, rng, windowed) for _ in range(n if m is None else m)]
            for _ in range(n)]
