"""Isocrystals over K((z)) as invertible twist matrices.

tau acts on column vectors by v -> A*sigma(v). The module provides the
tensor calculus (tensor, dual, direct sum), purity certification, a
Newton-polygon slope oracle over finite bases, and the twist in the
basis of an invariant lattice.

M is pure of slope s/r when some lattice T has tau^r T = z^s T, which
holds exactly when U = z^-s T^-1 A_r sigma^r(T) lies in GL_r(K[[z]]),
A_r the matrix of tau^r (Katz, "Slope filtration of F-crystals").
`purity_check` searches for T from the standard lattice: each step tests
U with no series inverse and certifies T when U is provably unimodular;
only a step the test cannot settle reduces the image of T to its
canonical basis (`hnf_reduce`) to move T or refute.
"""

import math
from fractions import Fraction
from itertools import combinations

from . import zmatrix
from .errors import InputError, InvariantError, PrecisionLoss
from .series import sum_of_products
from .zseries import DEFAULT_Z_PREC, ZSeries

INF = math.inf


class Isocrystal:
    """Free module over K((z)) with an invertible semilinear operator.

    The matrix A gives the action v -> A*sigma(v) on column vectors in
    the standard basis. A twist read from outside is inverted where it
    is parsed (`twist_inverse`); the constructions below keep it so.
    """

    __slots__ = ("K", "rank", "A")

    def __init__(self, K, A):
        r = len(A)
        if not r:
            raise InputError("twist matrix must have positive rank")
        for row in A:
            if len(row) != r:
                raise InputError("twist matrix must be square")
        self.K = K
        self.rank = r
        self.A = A

    def tau_power(self, k):
        return zmatrix.tau_power_matrix(self.A, k)


def twist_inverse(M, prec=None):
    """A^-1 at z-precision prec, checked by A*A^-1 = I: NotInvertible if
    A is singular, PrecisionLoss if the windows settle no pivot."""
    A_inv = zmatrix.inv(M.A, prec=prec)
    if not zmatrix.agrees(zmatrix.mul(M.A, A_inv), zmatrix.identity(M.K, M.rank)):
        raise InvariantError("invertibility witness fails A*A_inv = I")
    return A_inv


def unit(K, r=1):
    """The rank-r identity twist: tau acts on K((z))^r as sigma."""
    if r <= 0:
        raise InputError("rank must be positive")
    return Isocrystal(K, zmatrix.identity(K, r))


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
    return Isocrystal(K, A)


def tensor(M, N):
    if M.K is not N.K:
        raise InputError("tensor requires a common base")
    return Isocrystal(M.K, zmatrix.kron(M.A, N.A))


def dual(M, prec=None, A_inv=None):
    """The dual twist A^{-T}: with tau(v) = A*sigma(v), functionals
    transform by A^{-T}. A is inverted at z-precision prec unless its
    checked inverse A_inv is given."""
    if A_inv is None:
        A_inv = twist_inverse(M, prec)
    return Isocrystal(M.K, zmatrix.transpose(A_inv))


def direct_sum(M, N):
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
    return Isocrystal(K, A)


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

    def scale_z(self, s):
        if s == 0:
            return self
        B = [[x.shift(s) for x in row] for row in self.basis]
        return Lattice(self.K, B, [e + s for e in self.pivots])

    def min_pivot(self):
        return min(self.pivots)


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
    known and the constant terms have a determinant known nonzero in K
    (`zmatrix.det` is division free, so zeta-windows stay truthful over
    a local K). False whenever that is not proven, on the first entry
    that is not."""
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
    return zmatrix.det([[u.truncate(1) for u in row] for row in U]).known_nonzero()


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

    Iterates from the standard lattice. Each step computes
    G = A_r sigma^r(T) once and certifies T if z^-s T^-1 G is provably
    in GL_r(K[[z]]) (`_unimodular`). That test only certifies or falls
    through; it never refutes. A step it does not settle reduces G to
    the canonical basis of the image and joins z^-s times it to T. A
    join equal to T certifies when the image is z^s T and refutes with
    a strict inclusion; otherwise the join is the next T. Divergence is
    declared when the minimal pivot drops strictly on r*d + 1
    consecutive steps; that cutoff is a design choice and is recorded
    in the witness. No step runs at max_iters = 0: inconclusive.
    """
    if r <= 0:
        raise InputError("denominator must be positive")
    rd = r  # d = 1 throughout
    K, n = M.K, M.rank
    A_rd = M.tau_power(rd)
    T = standard_lattice(K, n)
    mins = []
    for it in range(max_iters):
        # sigma^rd fixes the standard lattice's basis
        G = A_rd if it == 0 else zmatrix.mul(A_rd, zmatrix.sigma(T.basis, rd))
        if _unimodular(G, T, s):
            return _certificate(s, r, T, it)
        img = hnf_reduce(K, [[G[i][j] for i in range(n)] for j in range(n)], n, prec)
        joined = hnf_reduce(K, T.columns() + img.scale_z(-s).columns(), n, prec)
        if lattice_eq(joined, T):
            target = T.scale_z(s)
            if lattice_eq(img, target):
                return _certificate(s, r, T, it)
            return NotPureAt(
                s, r,
                {
                    "kind": "stable_lattice_strict_inclusion",
                    "pivots_image": list(img.pivots),
                    "pivots_scaled": list(target.pivots),
                    "iterations": it,
                },
            )
        T = joined
        mins.append(T.min_pivot())
        run = rd + 1
        if len(mins) >= run:
            tail = mins[-run:]
            if all(tail[k + 1] < tail[k] for k in range(run - 1)):
                return NotPureAt(
                    s, r,
                    {
                        "kind": "elementary_divisor_drift",
                        "drift": tail,
                        "rule": f"strictly decreasing over {run} steps",
                    },
                )
    return Inconclusive(
        f"no stabilization within {max_iters} iterations; "
        f"pivot trail {mins[-3:]}"
    )


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
    """Coefficients [c_0..c_r] of det(X*I - A), division-free: c_{r-k} is
    (-1)^k times the sum of the k x k principal minors."""
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


def slopes_finiteK(M):
    """Multiset of slopes via the Newton polygon of the linearized power.

    Over K = F_{q^m}, sigma^m is the identity, so tau^m is K((z))-linear
    and its eigenvalue valuations divided by m are the slopes.
    """
    if M.K.kind != "finite":
        raise InputError("slope oracle needs a finite base")
    m_tot = M.K.desc.m * M.K.ext
    A_m = M.tau_power(m_tot)
    coeffs = _char_poly(M.K, A_m)
    pts = []
    for k, c in enumerate(coeffs):
        if _exact_zero(c):
            continue
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
