"""Tate spaces of slope-zero twists and Weil-action valuations.

Three layers. The slope-zero layer turns a pure twist into linear
algebra: an invariant lattice makes the matrix integral with unit
determinant, and fixed points over a swept coefficient extension
assemble into a free F_q[[z]]/z^N-module carrying the coefficient
Frobenius. The formal layer expands the inverse of phi_t in the skew
Laurent field K((tau^{-1})) and reads a companion module back off the
expansion. The Weil layer conjugates the expansion onto the normal
form iota(z) = tau^{-r} and measures tau^{-1}-valuations of the
resulting Frobenius cocycle.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from taumod import kernels, zmatrix
from taumod.basefield import fp_extension, frobenius_power
from taumod.errors import ExtensionExhausted, InputError, InvariantError
from taumod.isocrystal import (
    Inconclusive,
    Isocrystal,
    PurityCertificate,
    conjugated_matrix,
    pure0_lattice,
    purity_check,
)
from taumod.semilinear import (
    _mult_mat,
    fixed_space_is_full,
    frobenius_action,
    free_module_check,
    tau_fixed_space,
)
from taumod.skew import DEFAULT_TAUINV_PREC, SkewLaurent, skew_inverse
from taumod.zseries import DEFAULT_Z_PREC, INF, ZSeries


# ---------------------------------------------------------------- slope zero


@dataclass
class TateData:
    """Free-module description of the z-adic fixed points of a pure
    slope-zero twist, together with the coefficient Frobenius action
    written in the module basis."""

    rank: int
    z_precision: int
    extension: int
    lattice: object
    twist: list
    fq_dimension: int
    module_basis: list
    frobenius: list


def tate_slope0(M, N=4, e_max=8, max_iters=32, prec=None):
    """Tate space of a pure slope-zero twist at z-precision N.

    Finds an invariant lattice, conjugates the twist onto it, then
    sweeps coefficient extensions until the fixed points form a free
    F_q[[z]]/z^N-module of rank equal to the rank of M. The sweep is
    necessary: the integral form only trivializes after a finite
    coefficient extension. Each degree above 1 is first decided level by
    level in z on F_p-linear data (`semilinear.fixed_space_is_full`: by
    Lang's bound the fixed space must have F_q-dimension r*n at every
    precision n), and only a degree that passes builds its field and
    runs `tau_fixed_space` and `free_module_check` there; degree 1 is
    the base field and runs them at once. Raises ExtensionExhausted when
    e_max does not suffice; purity budget failures surface as
    Inconclusive.
    """
    K = M.K
    if K.kind != "finite":
        raise InputError("the slope-zero Tate space needs a finite base")
    work = max(N + 4, DEFAULT_Z_PREC) if prec is None else prec
    cert = purity_check(M, 0, 1, max_iters=max_iters, prec=work)
    if isinstance(cert, Inconclusive):
        return cert
    if not isinstance(cert, PurityCertificate):
        raise InputError("input is not pure of slope zero")
    lat = pure0_lattice(M, cert, prec=work)
    if isinstance(lat, Inconclusive):
        return lat
    B = conjugated_matrix(M, lat, prec=work)
    r = M.rank
    for e in range(1, e_max + 1):
        # degree 1 is the base field itself: nothing to build
        if e > 1 and not fixed_space_is_full(B, N, e):
            continue
        basis = tau_fixed_space(B, N, e=e)
        if len(basis) != r * N:
            continue
        ok, mb = free_module_check(K, basis, r, N)
        if not ok:
            continue
        C = frobenius_action(K, mb, N)
        v = zmatrix.det(C).valuation()
        if v != 0:
            raise InvariantError(
                f"coefficient Frobenius not invertible, det valuation {v}"
            )
        return TateData(
            rank=r,
            z_precision=N,
            extension=e,
            lattice=lat,
            twist=B,
            fq_dimension=len(basis),
            module_basis=mb,
            frobenius=C,
        )
    raise ExtensionExhausted(
        f"fixed points not free of rank {r} within {e_max} coefficient extensions"
    )


# ------------------------------------------------------------- formal layer


@dataclass
class FormalMotive:
    """Expansion of the module structure at infinity: z = 1/t maps to
    the inverse of phi_t inside K((tau^{-1}))."""

    K: object
    rank: int
    phi_t: object
    phi_z: object
    precision: int

    def t_image(self, n):
        """Image of t^n, any integer n."""
        if n >= 0:
            return (self.phi_t**n).to_laurent()
        return self.phi_z ** (-n)

    def z_image(self, n):
        return self.t_image(-n)

    def evaluate(self, co):
        """Image of the Laurent polynomial sum_n c_n t^n, co = {n: c_n}."""
        acc = SkewLaurent.zero(self.K)
        for n, c in co.items():
            acc = acc + self.t_image(n).scale(self.K.el(c))
        return acc


def formal_motive(E, N=DEFAULT_TAUINV_PREC):
    """Expand z to N tau^{-1}-terms; valuation must equal the rank."""
    if E.K.kind != "finite":
        raise InputError("the formal expansion needs a finite base")
    phi_t = E.phi_t()
    phi_z = skew_inverse(phi_t.to_laurent(), prec=N)
    v = phi_z.v_tau_inv()
    if v != E.rank:
        raise InvariantError(
            f"inverse of phi_t has valuation {v}, expected the rank {E.rank}"
        )
    return FormalMotive(K=E.K, rank=E.rank, phi_t=phi_t, phi_z=phi_z, precision=N)


def isocrystal_of_formal(V, prec=None):
    """Companion module of a formal expansion.

    K((tau^{-1})) is free over the z-line through phi_z with basis
    tau^0, ..., tau^{-(r-1)}; left multiplication by tau is semilinear
    for that structure. Its matrix is recovered by greedy peeling of
    leading tau^{-1}-terms: the exponent v = j + r*k of a leading term
    selects the unique basis monomial tau^{-j} phi_z^k carrying it.
    The result is pure of slope -1/r.
    """
    del prec  # the window is dictated by the expansion itself
    K = V.K
    r = V.rank
    g = SkewLaurent(K, {-1: K.one()}, INF)
    pows = {}

    def zpow(k):
        if k not in pows:
            pows[k] = V.z_image(k)
        return pows[k]

    coeffs = [{} for _ in range(r)]
    window = INF
    while g.co:
        v = min(g.co)
        j = v % r
        k = (v - j) // r
        mono = zpow(k) if j == 0 else SkewLaurent.tau_inv(K, j) * zpow(k)
        a = g.co[v] * mono.coeff(v).inv()
        coeffs[j][k] = a
        g = g - mono.scale(a)
        window = g.hi
    A = [[ZSeries(K, {}, INF) for _ in range(r)] for _ in range(r)]
    for j in range(1, r):
        A[j - 1][j] = ZSeries(K, {0: K.one()}, INF)
    for j in range(r):
        hi = INF if window is INF else -((window - j) // -r)
        A[j][0] = ZSeries(K, coeffs[j], hi)
    return Isocrystal(K, A)


# ---------------------------------------------------- normal-form conjugation


@dataclass
class ConjugatorData:
    """A unit conjugating the formal expansion onto tau^{-r}."""

    u: object
    u0: object
    extension: int
    precision: int


def _conjugator_kernel(E, L, N):
    """Echelon basis of the solutions of u = tau^{-r} u phi_t mod
    tau^{-N}, as F_p-coordinate vectors over L.

    Row n states sigma^r(u_n) = sum_i sigma^{-jp}(g_i) u_jp with
    jp = i + n - r; every admissible truncated conjugator, for every
    choice of leading root and of the per-level additive freedom, is an
    F_p-combination of these vectors, so solvability over L is decided
    exactly.
    """
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


def _vector_to_unit(L, w, N):
    """Read a kernel vector back as a SkewLaurent, None unless the
    leading coefficient is nonzero."""
    ff = L.ff
    p, nL = ff.p, ff.n
    co = {}
    for n in range(N):
        xn = ff.el([int(x) % p for x in w[n * nL : (n + 1) * nL]])
        if not xn.is_zero():
            co[n] = xn
    if 0 not in co:
        return None
    return SkewLaurent(L, co, N)


def _levels_admit_unit(E, e, N):
    """Whether u = tau^{-r} u phi_t mod tau^{-N} has a solution with
    u_0 != 0 over the degree-e extension of E's base, decided on F_p-linear
    data alone (`basefield.FpExtension`), with no field built.

    The rows of `_conjugator_kernel` are block lower-triangular: row n
    reads u_0 .. u_n only. So the solutions of rows 0..n are extended one
    level at a time, and once none of them has u_0 != 0, no solution of
    the full system has either.
    """
    K = E.K
    ext = fp_extension(K.ff.p, K.ff.n, K.ff.n * e)
    p, nL = ext.p, ext.n
    r = E.rank
    g = [K.el(c) for c in E.coeffs]
    Q = ext.frob(K.desc.a * r)
    rows = np.zeros((0, 0), dtype=np.int64)
    for n in range(N):
        coupling = np.zeros((nL, n * nL), dtype=np.int64)
        for i in range(max(0, r - n), r):
            jp = i + n - r
            coupling[:, jp * nL : (jp + 1) * nL] = -ext.base_mult(K.sigma(g[i], -jp))
        diag = Q - ext.base_mult(K.sigma(g[r], -n))
        rows = kernels.extend_kernel(rows, coupling, diag, p)
        if not rows[:, :nL].any():
            return False
    return True


def iota_conjugator(E, N=DEFAULT_TAUINV_PREC, e_max=8):
    """A unit u with u * phi(z) * u^{-1} = tau^{-r}, to N terms.

    Equivalent to the polynomial relation u = tau^{-r} * u * phi_t,
    which is homogeneous F_p-linear in the coefficients u_0 .. u_{N-1}:
    one nullspace computation over a coefficient field yields every
    truncated conjugator at once, and any kernel vector with u_0 != 0 is
    a unit. Coefficient extensions are swept up to degree e_max; the
    tower of fields genuinely grows with N for most inputs (the leading
    equation u_0^{q^r-1} = g_r and each later level add algebraic
    conditions), so exhaustion is a real outcome, reported as
    ExtensionExhausted. Each degree above 1 is first decided level by
    level on F_p-linear data (`_levels_admit_unit`), and only a degree
    that passes builds its field and runs the nullspace there; degree 1
    is the base field and runs the nullspace at once. The returned unit
    is the first echelon kernel vector with invertible leading
    coefficient; any other conjugator differs from it by a left unit
    commuting with tau^{-r}.
    """
    K = E.K
    if K.kind != "finite":
        raise InputError("conjugation to the normal form needs a finite base")
    for e in range(1, e_max + 1):
        # degree 1 is the base field itself: nothing to build
        if e > 1 and not _levels_admit_unit(E, e, N):
            continue
        L = K.extend(e)
        for w in _conjugator_kernel(E, L, N):
            u = _vector_to_unit(L, w, N)
            if u is None:
                continue
            if not conjugator_resubstitutes(E, u):
                raise InvariantError("conjugator re-substitution failed")
            return ConjugatorData(u=u, u0=u.co[0], extension=e, precision=N)
    raise ExtensionExhausted(
        f"no conjugator within extension degree {e_max} at precision {N}"
    )


def conjugator_resubstitutes(E, u):
    """u = tau^{-r} * u * phi_t on the common window, for u over an
    extension of E's base."""
    L = u.K
    g = [L.el(c) for c in E.coeffs]
    phi = SkewLaurent(L, {-i: c for i, c in enumerate(g) if not c.is_zero()}, INF)
    rhs = (SkewLaurent.tau_inv(L, E.rank) * u) * phi
    return rhs.agrees_with(u)


# -------------------------------------------------------------- Weil action


@dataclass
class WeilData:
    """Valuations of the Frobenius cocycle on the normal-form line."""

    lam: Fraction
    frobenius_ord: int
    rho_valuation: Fraction
    admissible: bool
    extension: int
    precision: int
    conjugator: object
    table: list
    commutes_with_iota: bool


def weil_valuation(E, N=DEFAULT_TAUINV_PREC, e_max=8, k_max=4):
    """The Weil table of the conjugator that `iota_conjugator` finds."""
    _check_k_max(k_max)
    return weil_table(E, iota_conjugator(E, N=N, e_max=e_max).u, k_max)


def _check_k_max(k_max):
    if k_max < 1:
        raise InputError(f"k_max must be at least 1, got {k_max}")


def weil_table(E, u, k_max):
    """tau^{-1}-valuations of rho(gamma) = tau^{ord} * gamma(u) * u^{-1}.

    u is a conjugator of E onto iota(z) = tau^{-r}, known to the
    precision of its window. gamma runs over powers of the geometric
    Frobenius of the base, acting on coefficients by alpha ->
    alpha^{1/#K}, with ord equal to the F_q-degree m of the base for
    the first power. Admissibility is the exact identity
    v_D(rho(gamma)) = lam * ord(gamma), where v_D = v_tauinv / r and
    lam = -1/r, checked for all k <= k_max together with commutation
    with iota(z) = tau^{-r}.
    """
    _check_k_max(k_max)
    K = E.K
    r = E.rank
    L = u.K
    aa = K.desc.a
    m_tot = K.desc.m * K.ext
    uinv = skew_inverse(u, prec=u.hi)
    lam = Fraction(-1, r)
    iota_z = SkewLaurent.tau_inv(L, r)
    table = []
    admissible = True
    commutes = True
    rho1_val = None
    prec1 = None
    for k in range(1, k_max + 1):
        ordk = m_tot * k
        gu = u.map_coeffs(lambda c, t=aa * ordk: c.frob(-t))
        rho = SkewLaurent(L, {-ordk: L.one()}, INF) * gu * uinv
        v = rho.v_tau_inv()
        vd = Fraction(v, r)
        ok = vd == lam * ordk
        admissible = admissible and ok
        if k == 1:
            rho1_val = vd
            prec1 = rho.hi
            commutes = (rho * iota_z).agrees_with(iota_z * rho)
            admissible = admissible and commutes
        table.append(
            {"k": k, "ord": ordk, "v_tauinv": v, "v_D": vd, "admissible": ok}
        )
    return WeilData(
        lam=lam,
        frobenius_ord=m_tot,
        rho_valuation=rho1_val,
        admissible=admissible,
        extension=L.ext // K.ext,
        precision=prec1,
        conjugator=u,
        table=table,
        commutes_with_iota=commutes,
    )
