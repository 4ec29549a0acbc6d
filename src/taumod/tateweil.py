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

Both coefficient-extension sweeps solve their F_p-linear system once
per degree, level by level on `basefield.FpExtension` data
(`semilinear.tau_fixed_space` in z, `_conjugator_levels` in
tau^{-1}): a degree is dropped at the first level that rules it out,
and the degree that passes builds its field and reads its answer off
the last level.
"""

from fractions import Fraction

from taumod import kernels, zmatrix
from taumod.basefield import fp_extension
from taumod.errors import ExtensionExhausted, InputError, InvariantError
from taumod.isocrystal import (
    Inconclusive,
    Isocrystal,
    PurityCertificate,
    Record,
    conjugated_matrix,
    pure0_lattice,
    purity_check,
)
from taumod.semilinear import (
    frobenius_action,
    free_module_check,
    tau_fixed_space,
)
from taumod.skew import DEFAULT_TAUINV_PREC, SkewLaurent, skew_inverse
from taumod.zseries import DEFAULT_Z_PREC, INF, ZSeries


# ---------------------------------------------------------------- slope zero


class TateData(Record):
    """Free-module description of the z-adic fixed points of a pure
    slope-zero twist, together with the coefficient Frobenius action
    written in the module basis."""

    __slots__ = _fields = ("rank", "z_precision", "extension", "lattice",
                           "twist", "fq_dimension", "module_basis", "frobenius")


def tate_slope0(M, N=4, e_max=8, max_iters=32, prec=None):
    """Tate space of a pure slope-zero twist at z-precision N.

    Finds an invariant lattice, conjugates the twist onto it, then
    sweeps coefficient extensions until the fixed points form a free
    F_q[[z]]/z^N-module of rank equal to the rank of M. The sweep is
    necessary: the integral form only trivializes after a finite
    coefficient extension. Each degree is one call of
    `tau_fixed_space(..., full=True)`, solved level by level in z on
    F_p-linear data, and only a degree whose fixed space is full builds
    its field, reads its F_q-basis off the last level and runs
    `free_module_check` there. Raises ExtensionExhausted when e_max
    does not suffice; purity budget failures surface as Inconclusive.
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
        basis = tau_fixed_space(B, N, e=e, full=True)
        if basis is None:
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


class FormalMotive(Record):
    """Expansion of the module structure at infinity: z = 1/t maps to
    the inverse of phi_t inside K((tau^{-1}))."""

    __slots__ = _fields = ("K", "rank", "phi_t", "phi_z", "precision")

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


def isocrystal_of_formal(V):
    """Companion module of a formal expansion.

    K((tau^{-1})) is free over the z-line through phi_z with basis
    tau^0, ..., tau^{-(r-1)}; left multiplication by tau is semilinear
    for that structure. Its matrix is recovered by greedy peeling of
    leading tau^{-1}-terms: the exponent v = j + r*k of a leading term
    selects the unique basis monomial tau^{-j} phi_z^k carrying it.
    The result is pure of slope -1/r.
    """
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


class ConjugatorData(Record):
    """A unit conjugating the formal expansion onto tau^{-r}."""

    __slots__ = _fields = ("u", "u0", "extension", "precision")


def _conjugator_levels(E, e, N):
    """Solve u = tau^{-r} u phi_t mod tau^{-N} over the degree-e extension
    of E's base one tau^{-1}-level at a time, on F_p-linear data alone
    (`basefield.FpExtension`), with no field built.

    Level n states sigma^r(u_n) = sum_i sigma^{-jp}(g_i) u_jp with
    jp = i + n - r, so it reads u_0 .. u_n only. After each level n < N
    this yields the rows of `kernels.extend_kernel`: an F_p-basis of the
    solutions of levels 0..n, with the coordinates of u_0 .. u_n in turn.
    Every admissible truncated conjugator, for every choice of leading
    root and of the per-level additive freedom, is an F_p-combination of
    the last level's rows, so solvability is decided exactly.
    """
    K = E.K
    ext = fp_extension(K.ff.p, K.ff.n, K.ff.n * e)
    p, nL = ext.p, ext.n
    r = E.rank
    g = [K.el(c) for c in E.coeffs]
    Q = ext.frob(K.desc.a * r)
    rows = []
    for n in range(N):
        coupling = [[0] * (n * nL) for _ in range(nL)]
        for i in range(max(0, r - n), r):
            jp = i + n - r
            kernels.add_block(coupling, 0, jp * nL, ext.base_mult(K.sigma(g[i], -jp)), -1)
        diag = [list(row) for row in Q]
        kernels.add_block(diag, 0, 0, ext.base_mult(K.sigma(g[r], -n)), -1)
        rows = kernels.extend_kernel(rows, coupling, diag, p)
        yield rows


def _conjugator_rows(E, e, N):
    """The last level of `_conjugator_levels(E, e, N)`, or None at the
    first level where no solution has u_0 != 0: then no solution of the
    full system has either."""
    nL = E.K.ff.n * e
    rows = []
    for rows in _conjugator_levels(E, e, N):
        if not any(any(row[:nL]) for row in rows):
            return None
    return rows


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


def iota_conjugator(E, N=DEFAULT_TAUINV_PREC, e_max=8):
    """A unit u with u * phi(z) * u^{-1} = tau^{-r}, to N terms.

    Equivalent to the polynomial relation u = tau^{-r} * u * phi_t,
    which is homogeneous F_p-linear in the coefficients u_0 .. u_{N-1}
    and block lower-triangular in them: solving it level by level
    (`_conjugator_levels`) yields every truncated conjugator at once, and
    any solution with u_0 != 0 is a unit. Coefficient extensions are
    swept up to degree e_max; the tower of fields genuinely grows with N
    for most inputs (the leading equation u_0^{q^r-1} = g_r and each
    later level add algebraic conditions), so exhaustion is a real
    outcome, reported as ExtensionExhausted. A degree is dropped at the
    first level with no unit left, and only a degree that passes builds
    its field. The returned unit is the first vector with invertible
    leading coefficient of the canonical basis of the last level
    (`kernels.canonical_basis`); any other conjugator differs from it by
    a left unit commuting with tau^{-r}.
    """
    K = E.K
    if K.kind != "finite":
        raise InputError("conjugation to the normal form needs a finite base")
    for e in range(1, e_max + 1):
        rows = _conjugator_rows(E, e, N)
        if rows is None:
            continue
        L = K.extend(e)
        for w in kernels.canonical_basis(rows, L.ff.p):
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


class WeilData(Record):
    """Valuations of the Frobenius cocycle on the normal-form line."""

    __slots__ = _fields = ("lam", "frobenius_ord", "rho_valuation", "admissible",
                           "extension", "precision", "conjugator", "table",
                           "commutes_with_iota")


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
