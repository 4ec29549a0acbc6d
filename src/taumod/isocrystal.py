"""Isocrystals over K((z)) as invertible twist matrices.

tau acts on column vectors by v -> A*sigma(v). The module provides the
tensor calculus (tensor, dual, direct sum), purity certification, a
Newton-polygon slope oracle over finite bases, and the twist in the
basis of an invariant lattice.

M is pure of slope s/r when some lattice T has tau^r T = z^s T, which
holds exactly when U = z^-s T^-1 A_r sigma^r(T) lies in GL_r(K[[z]]),
A_r the matrix of tau^r (Katz, "Slope filtration of F-crystals").
`purity_check` refutes only by an invariant: v_z(det A) is unchanged by
sigma-conjugation, and purity forces r*v_z(det A) = rank*s. An
isocrystal carries v_z(det A): a twist read from outside gets it from
the pivots of the one elimination that shows it invertible at parse
(`zmatrix.det_valuation`), and the constructions below by a rule;
otherwise `det_valuation` runs that elimination. No determinant is
expanded, and only `dual` builds A^-1. It searches
for T from the standard lattice by `purity_step`, which `verify` runs
once at a certified T.
"""

import math
from itertools import combinations

from . import zmatrix
from .errors import InputError, InvariantError, NotInvertible, PrecisionLoss
from .series import sum_of_products
from .zseries import DEFAULT_Z_PREC, ZSeries

INF = math.inf


class Isocrystal:
    """Free module over K((z)) with an invertible semilinear operator.

    The matrix A gives the action v -> A*sigma(v) on column vectors in
    the standard basis. A twist read from outside is shown invertible
    where it is parsed, by the settled pivots of one elimination
    (`zmatrix.det_valuation`); the constructions below keep it so.
    v_det is v_z(det A) where the parse or the construction gives it,
    else None (see `det_valuation`).
    """

    __slots__ = ("K", "rank", "A", "v_det")

    def __init__(self, K, A, v_det=None):
        r = len(A)
        if not r:
            raise InputError("twist matrix must have positive rank")
        for row in A:
            if len(row) != r:
                raise InputError("twist matrix must be square")
        self.K = K
        self.rank = r
        self.A = A
        self.v_det = v_det

    def tau_power(self, k):
        return zmatrix.tau_power_matrix(self.A, k)


def det_valuation(M):
    """v_z(det A): the one M carries, or else the sum of the pivot
    valuations of `zmatrix.det_valuation`; None when the windows leave
    it unsettled, INF when A is singular."""
    if M.v_det is not None:
        return M.v_det
    try:
        return zmatrix.det_valuation(M.A)
    except PrecisionLoss:
        return None
    except NotInvertible:
        return INF


def unit(K, r=1):
    """The rank-r identity twist: tau acts on K((z))^r as sigma."""
    if r <= 0:
        raise InputError("rank must be positive")
    return Isocrystal(K, zmatrix.identity(K, r), 0)


def simple_pure(K, s, r):
    """Cyclic twist e_0 -> e_1 -> ... -> e_{r-1} -> z^s e_0."""
    if r <= 0:
        raise InputError("rank must be positive")
    if math.gcd(s, r) != 1:
        raise InputError("slope must be in lowest terms")
    A = zmatrix.zeros(K, r, r)
    for j in range(r - 1):
        A[j + 1][j] = ZSeries.one(K)
    A[0][r - 1] = ZSeries.z(K, s)
    return Isocrystal(K, A, s)


def tensor(M, N):
    """The twist A kron B, det(A kron B) = det(A)^rank_N det(B)^rank_M."""
    if M.K is not N.K:
        raise InputError("tensor requires a common base")
    v = (None if M.v_det is None or N.v_det is None
         else N.rank * M.v_det + M.rank * N.v_det)
    return Isocrystal(M.K, zmatrix.kron(M.A, N.A), v)


def dual(M, prec=None):
    """The dual twist A^{-T}: with tau(v) = A*sigma(v), functionals
    transform by A^{-T}. A is inverted at z-precision prec and the
    inverse checked by A*A^-1 = I; det A^{-T} = 1/det A."""
    A_inv = zmatrix.inv(M.A, prec)
    if not zmatrix.agrees(zmatrix.mul(M.A, A_inv), zmatrix.identity(M.K, M.rank)):
        raise InvariantError("invertibility witness fails A*A_inv = I")
    v = None if M.v_det is None else -M.v_det
    return Isocrystal(M.K, zmatrix.transpose(A_inv), v)


def direct_sum(M, N):
    """The block twist diag(A, B), det diag(A, B) = det(A) det(B)."""
    if M.K is not N.K:
        raise InputError("direct sum requires a common base")
    K = M.K
    r, s = M.rank, N.rank
    A = zmatrix.zeros(K, r + s, r + s)
    for i in range(r):
        for j in range(r):
            A[i][j] = M.A[i][j]
    for i in range(s):
        for j in range(s):
            A[r + i][r + j] = N.A[i][j]
    v = None if M.v_det is None or N.v_det is None else M.v_det + N.v_det
    return Isocrystal(K, A, v)


# ---------------------------------------------------------------- lattices

def _exact_zero(s):
    return not s.co and s.hi == INF


class Lattice:
    """Full lattice in K((z))^r, stored by its canonical triangular basis.

    Columns are the basis vectors; column i has a monomial pivot z^{e_i}
    in row i, zeros (to the working window) above-right, and entries
    reduced mod z^{e_i} to the left.
    """

    __slots__ = ("K", "basis", "pivots")

    def __init__(self, K, basis, pivots):
        self.K = K
        self.basis = basis
        self.pivots = pivots

    @property
    def rank(self):
        return len(self.pivots)

    def columns(self):
        r = self.rank
        return [[self.basis[i][j] for i in range(r)] for j in range(r)]


def lattice_eq(T1, T2):
    if T1.pivots != T2.pivots:
        return False
    return zmatrix.agrees(T1.basis, T2.basis)


def _slice_above(K, s, cut):
    """Terms of s with exponent >= cut, divided by z^cut."""
    co = {n - cut: c for n, c in s.co.items() if n >= cut}
    hi = INF if s.hi == INF else s.hi - cut
    return ZSeries(K, co, hi)


def hnf_reduce(K, cols, r, prec=None):
    """Canonical column basis of the K[[z]]-span of the given columns."""
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
        # within its window the pivot entry is exactly the monomial
        piv[i] = ZSeries(K, {v_i: K.one()}, piv[i].hi)
        for col in work:
            if not col[i].co:
                continue
            q = col[i].shift(-v_i)
            for t in range(r):
                col[t] = sum_of_products([(col[t], None, False), (q, piv[t], True)])
        for b in basis_cols:
            if any(n >= v_i for n in b[i].co):
                q = _slice_above(K, b[i], v_i)
                for t in range(r):
                    b[t] = sum_of_products([(b[t], None, False), (q, piv[t], True)])
        basis_cols.append(piv)
        pivots.append(v_i)
    basis = [[basis_cols[j][i] for j in range(r)] for i in range(r)]
    return Lattice(K, basis, pivots)


def standard_lattice(K, r):
    I = zmatrix.identity(K, r)
    return Lattice(K, I, [0] * r)


def _unimodular(G, T, s):
    """Whether U = z^-s T^-1 G is provably in GL_r(K[[z]]).

    T is a canonical basis (`hnf_reduce`): triangular, with monomial
    pivots z^e_i, each known to its window, and zeros above them. So
    T^-1 G is a forward substitution by shifts, with no series inverse:
    row i of U is z^(-s-e_i) (G_i - z^s sum_{k<i} T_ik U_k). U is in
    GL_r(K[[z]]) when every entry is integral with its constant term
    known and U mod z is invertible (`_invertible_mod_z`). False
    whenever that is not proven, on the first entry that is not."""
    r = T.rank
    U = []
    for i in range(r):
        e = T.pivots[i]
        d = T.basis[i][i]
        lower = [(t, U[k]) for k, t in enumerate(T.basis[i][:i]) if not _exact_zero(t)]
        row = []
        for j in range(r):
            y = G[i][j]
            if lower:
                y = sum_of_products([(y, None, False)]
                                    + [(t.shift(s), Uk[j], True) for t, Uk in lower])
            # y / z^(e+s), known to the window y / (z^e + O(z^hi)) z^s has
            u = y.shift(-e - s)
            if d.hi != INF:
                u = u.truncate(d.hi - 2 * e + y.val_lower_bound() - s)
            if u.hi < 1 or (u.co and min(u.co) < 0):
                return False
            row.append(u)
        U.append(row)
    return _invertible_mod_z(U)


def _invertible_mod_z(U):
    """Whether the constant terms of U, each known, form a matrix proven
    invertible over K, by a pivot search: each column takes a pivot known
    nonzero, of least zeta-order over a local K, and the rows below it
    subtract its multiples. Over a local K the constant terms carry
    zeta-windows, and the multipliers divide by the pivots through
    `Series.inv`, whose windows are truthful too (see `series`); so each
    pivot is nonzero in every completion of the windows, and so is the
    determinant, their product up to sign. False when a column has no
    such pivot."""
    K = U[0][0].K
    rows = [[u.coeff(0) for u in row] for row in U]
    n = len(rows)
    for col in range(n):
        known = [i for i in range(col, n) if K.known_nonzero(rows[i][col])]
        if not known:
            return False
        piv = min(known, key=lambda i: min(rows[i][col].co)) if K.kind == "local" else known[0]
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        p_inv = top[col].inv()
        for row in rows[col + 1:]:
            if not K.exact_zero_p(row[col]):
                f = row[col] * p_inv
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], top[col + 1:])]
    return True


# ---------------------------------------------------------- purity verdicts

class Record:
    """A certificate or other result: the values of the fields that
    `_fields` names, given by position or by keyword. `jsonio.render`
    writes a record field by field in that order; records of one class
    compare by value, and the repr is the one a dataclass would have."""

    __slots__ = _fields = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args), **kwargs)
        if len(given) != len(args) + len(kwargs) or given.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name in names:
            setattr(self, name, given[name])

    def _values(self):
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class PurityCertificate(Record):
    __slots__ = _fields = ("s", "r", "lattice", "iterations", "residue")


class NotPureAt(Record):
    __slots__ = _fields = ("s", "r", "witness")


class Inconclusive(Record):
    __slots__ = _fields = ("note",)


def purity_check(M, s, r, max_iters=32, prec=None):
    """Certify ⟨tau^r T⟩ = z^s T for some lattice T, or refute it.

    Refutes only before any step: v = v_z(det A) (`det_valuation`) is a
    sigma-conjugation invariant, and purity forces r*v = rank*s, as
    det A_r = det(A) sigma(det A) ... sigma^(r-1)(det A). Then it runs
    `purity_step` from the standard lattice until a step certifies. At
    max_iters = 0 no step runs: the answer is the refutation, which
    `verify` replays so, or inconclusive.
    """
    if r <= 0:
        raise InputError("denominator must be positive")
    K, n = M.K, M.rank
    v = det_valuation(M)
    if v not in (None, INF) and r * v != n * s:
        return NotPureAt(s, r, {"kind": "determinant_valuation", "v_z_det": v, "rank": n})
    T, A_r = standard_lattice(K, n), None
    mins = []
    for it in range(max_iters):
        certified, joined, A_r = purity_step(M, s, r, T, v, A_r, prec)
        if certified:
            return _certificate(s, r, T, it)
        if joined is T:
            return Inconclusive(f"stable lattice with pivots {T.pivots}; v_z(det A) "
                                "is not settled within the window")
        T = joined
        mins.append(min(T.pivots))
    return Inconclusive(f"no stabilization within {max_iters} iterations; "
                        f"pivot trail {mins[-3:]}")


def purity_step(M, s, r, T, v, A_r=None, prec=None):
    """One step of the purity search at the canonical lattice T, with
    r*v = rank*s checked for v = v_z(det A) (None if unsettled): (whether
    tau^r T = z^s T is proven, the next lattice, A_r once built).

    With G = A_r sigma^r(T), T is certified when z^-s T^-1 G is provably
    in GL_r(K[[z]]) (`_unimodular`). At the standard lattice G = A_r,
    tested as built from A cut below the window the test reads
    (`_cut_tau_power`); the full A_r, built only if that fails, bounds
    the cut's windows. Where the test fails, z^-s G is joined to T by one
    reduction at precision prec. A join equal to T gives z^-s G ⊆ T, of
    T's volume by the invariant, so z^-s G = T: the step certifies when
    v is settled, and else returns T as the next lattice. A singular A
    (v = INF) makes the reduction raise."""
    K, n = M.K, M.rank
    if T.pivots == [0] * n and T.basis == zmatrix.identity(K, n):
        cut = _cut_tau_power(M.A, s, r)
        if _unimodular(cut, T, s):
            return True, T, A_r
        G = A_r = M.tau_power(r)
        for x, y in zip(sum(cut, []), sum(A_r, [])):
            if not min(s + 1, y.hi) <= x.hi <= y.hi:
                raise InvariantError(f"cut tau^{r} has window {x.hi}, the full one {y.hi}")
    else:
        A_r = M.tau_power(r) if A_r is None else A_r
        G = zmatrix.mul(A_r, zmatrix.sigma(T.basis, r))
        if _unimodular(G, T, s):
            return True, T, A_r
    cols = [[G[i][j].shift(-s) for i in range(n)] for j in range(n)]
    if v == INF:
        hnf_reduce(K, cols, n, prec)  # z^-s G is singular: raises
    joined = hnf_reduce(K, T.columns() + cols, n, prec)
    if lattice_eq(joined, T):
        return v is not None, T, A_r
    return False, joined, A_r


def _cut_tau_power(A, s, r):
    """A_r = A sigma(A) ... sigma^(r-1)(A) from A cut below z^h, for
    `purity_step` at the standard lattice: h = max(s + 1, r m) - (r - 1) m,
    m = min(0, the least exponent of A's entries); exact zeros stay exact.

    At the standard lattice `_unimodular` reads only the coefficients of
    A_r below z^(s+1) and whether its windows reach s + 1, and the cut
    A_r settles both as the full one does. A product's window is
    min(a.hi + v_b, b.hi + v_a), v the order (`series._window`). Every
    entry of A, cut or not, has order at least m, and a cut entry has
    window min(hi, h) and order min(v, h). By induction on k, using
    h >= m, each entry of the cut A_k has a window at least
    min(h + (k - 1) m, the full entry's window) and at most that full
    window, and agrees with the full entry below its own window. At
    k = r the cut window is at least min(s + 1, the full window), so the
    test certifies on the cut A_r exactly when it does on the full one.
    (When s + 1 < r m, every entry of A_r has order above s, and neither
    certifies.)"""
    m = _least_order(A)
    h = max(s + 1, r * m) - (r - 1) * m
    return zmatrix.tau_power_matrix(_cut(A, h), r)


def _least_order(A):
    """min(0, the least exponent of A's entries), the window of an entry
    known zero below it counting as its exponent."""
    return min(0, min(x.val_lower_bound() for row in A for x in row))


def _cut(A, h):
    """A with every entry known only below z^h; exact zeros stay exact."""
    return [[x if x.hi <= h or _exact_zero(x) else x.truncate(h) for x in row]
            for row in A]


def _certificate(s, r, T, it):
    return PurityCertificate(
        s, r, T, it,
        {
            "identity": f"tau^{r} T == z^{s} T",
            "pivots": list(T.pivots),
        },
    )


# ------------------------------------------------------- finite-base slopes

def _char_poly(K, A):
    """Coefficients [c_0..c_r] of det(X*I - A) by Berkowitz's recursion,
    division-free, with O(r^4) products (Berkowitz 1984).

    The polynomial is built up from the trailing blocks
    B = [[a, R], [C, B1]] of A: read leading coefficient first, chi_B is
    the lower triangular Toeplitz matrix with first column
    (1, -a, -R*C, -R*B1*C, ..., -R*B1^(n-2)*C), n the size of B, times
    chi_B1. Each entry of B1*w, each R*w and each coefficient of the
    Toeplitz product is one sum of products, the signs as its negation
    flags. Over windowed entries a coefficient's window can come out
    narrower than that of the Laplace sum of its principal minors, or
    wider.
    """
    r = len(A)
    chi = [ZSeries.one(K)]
    for k in range(r - 1, -1, -1):
        R = A[k][k + 1:]
        B1 = [row[k + 1:] for row in A[k + 1:]]
        s = [A[k][k]]
        w = [row[k] for row in A[k + 1:]]
        for j in range(r - k - 1):
            if j:
                w = [_dot([(x, y, False) for x, y in zip(row, w)], K) for row in B1]
            s.append(_dot([(x, y, False) for x, y in zip(R, w)], K))
        # chi_B[i] = chi_B1[i] - sum over l < i of s[i - l - 1] chi_B1[l]
        n = len(chi)
        chi = [_dot(([(chi[i], None, False)] if i < n else [])
                    + [(s[i - l - 1], chi[l], True) for l in range(min(i, n))], K)
               for i in range(n + 1)]
    return chi[::-1]


def _dot(terms, K):
    """`sum_of_products` of the terms with no exact-zero factor; the exact
    zero over K when none is left."""
    terms = [t for t in terms if not _exact_zero(t[0])
             and (t[1] is None or not _exact_zero(t[1]))]
    return sum_of_products(terms) if terms else ZSeries.zero(K)


def slopes_finiteK(M):
    """Multiset of slopes via the Newton polygon of the linearized power.

    Over K = F_{q^m}, sigma^m is the identity, so tau^m is K((z))-linear
    and its eigenvalue valuations divided by m are the slopes. The
    coefficients c_0..c_n of its characteristic polynomial come from
    `_char_poly`; a coefficient whose valuation its window leaves
    unsettled is taken again as the Laplace sum of its principal minors,
    so the slopes are those of the sums of minors wherever those settle
    every valuation.

    With v = v_z(det A) known (`det_valuation`), c_0 = +-det A_m has
    valuation V = m v, and the lower hull of the points (k, v_z(c_k))
    lies on or below the chord from (0, V) to (n, 0). So c_k is read
    only below z^(t_k + 1), t_k = floor(V (n - k) / n); one known zero
    there lies above the chord and is dropped before any Laplace sum.
    A is cut below z^h first, h = max over 0 < k < n of
    t_k + 1 - ((n - k) m - 1) u, u = min(0, the least exponent of A)
    (`_least_order`). Every quantity formed from A is a sum of products
    of D of its entries for one D (D = (n - k) m for c_k and its
    minors), so of order at least D u. By the window rule of
    `series._window` and induction on D, as for `_cut_tau_power`, each
    one formed from the cut A agrees with the full one below both
    windows and has a window at least min(h + (D - 1) u, the full
    one's), as h > u (V >= n m u). For c_k that bound is at least
    t_k + 1, so below z^(t_k + 1) the cut A settles every c_k that the
    full A settles, to the same terms. With v unknown (None) or A
    singular (INF), nothing is cut or dropped.
    """
    from fractions import Fraction

    if M.K.kind != "finite":
        raise InputError("slope oracle needs a finite base")
    m_tot = M.K.desc.m * M.K.ext
    n = M.rank
    v = det_valuation(M)
    A, top = M.A, None
    if v not in (None, INF):
        V = m_tot * v
        top = [V * (n - k) // n for k in range(n + 1)]
        u = _least_order(A)
        # u < every t_k + 1 - ((n - k) m - 1) u, and the only bound at n = 1
        A = _cut(A, max([u] + [top[k] + 1 - ((n - k) * m_tot - 1) * u
                               for k in range(1, n)]))
    A_m = zmatrix.tau_power_matrix(A, m_tot)
    coeffs = _char_poly(M.K, A_m)
    minor = None
    pts = []
    for k, c in enumerate(coeffs):
        if top is not None and not k:
            pts.append((0, V))
            continue
        if not c.co and c.hi is not INF and (top is None or c.hi <= top[k]):
            # c_k is (-1)^size times the sum of the principal minors of
            # this size
            minor = minor or zmatrix.laplace_minors(A_m, M.K)
            size = n - k
            c = _dot([(minor(S, S), None, size % 2 == 1)
                      for S in combinations(range(n), size)], M.K)
        if _exact_zero(c) or top is not None and c.val_lower_bound() > top[k]:
            continue  # no point, or one above the chord
        pts.append((k, c.valuation()))
    # lower convex hull, k ascending
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        lam = Fraction(v1 - v2, k2 - k1)
        out.extend([lam / m_tot] * (k2 - k1))
    if len(out) != M.rank:
        raise InvariantError("Newton polygon does not account for the rank")
    return sorted(out)


# ------------------------------------------------------- slope-0 lattices

def conjugated_matrix(M, lattice, prec=None):
    """The twist matrix in the basis of the given invariant lattice."""
    Linv = zmatrix.inv(lattice.basis, prec=prec)
    return zmatrix.mul(zmatrix.mul(Linv, M.A), zmatrix.sigma(lattice.basis, 1))
