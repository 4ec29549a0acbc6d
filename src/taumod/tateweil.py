"""Tate spaces of slope-zero twists and Weil-action valuations.

Two layers. The slope-zero layer turns a pure twist into linear
algebra: an invariant lattice makes the matrix integral with unit
determinant, and its fixed points over the coefficient extension that
splits it assemble into a free F_q[[z]]/z^N-module carrying the
coefficient Frobenius. The Weil layer conjugates the image of z = 1/t,
the inverse of phi_t in the skew Laurent field K((tau^{-1})), onto the
normal form iota(z) = tau^{-r} and measures tau^{-1}-valuations of the
resulting Frobenius cocycle.

The slope-zero layer needs no sweep. By Lang's theorem the fixed
points of v = B*sigma(v) span over the algebraic closure, and over
K = F_{q^m} they are all rational over the degree-e extension exactly
when N(B)^e = 1 mod z^N, with N(B) = B*sigma(B)*...*sigma^{m-1}(B)
(Dieudonne-Manin; Katz 1979). `split_degree` reads the degree off the
powers of N(B), and `tate_slope0` solves the F_p-linear system once, at
that degree (`semilinear.tau_fixed_space`), with no test of its levels
on the way: the count of the last level's basis decides them all. The
Weil layer still sweeps its degrees: it needs one solution of
`_conjugator_levels` with a nonzero leading term, not the whole rational
solution space, so it solves each degree level by level in tau^{-1},
drops it at the first level that rules it out, and builds only the
field of the degree that passes.
"""

from fractions import Fraction

from taumod import kernels, semilinear, zmatrix
from taumod.basefield import fp_extension
from taumod.errors import ExtensionExhausted, InputError, InvariantError
from taumod.isocrystal import (
    Inconclusive,
    PurityCertificate,
    Record,
    conjugated_matrix,
    purity_check,
)
from taumod.skew import DEFAULT_TAUINV_PREC, SkewLaurent, skew_inverse
from taumod.zseries import DEFAULT_Z_PREC, INF


# ---------------------------------------------------------------- slope zero


class TateData(Record):
    """Free-module description of the z-adic fixed points of a pure
    slope-zero twist, together with the coefficient Frobenius action
    written in the module basis."""

    __slots__ = _fields = ("rank", "z_precision", "extension", "lattice",
                           "twist", "fq_dimension", "module_basis", "frobenius")


def unit_twist(M, N=4, max_iters=32, prec=None):
    """(lattice, B) for a pure slope-zero twist M over a finite base, or
    the Inconclusive of a purity search that ran out.

    The lattice is that of the (0, 1) purity certificate, tau T == T, at
    the working z-precision `prec` (by default max(N + 4,
    DEFAULT_Z_PREC)), and B is M's matrix in its basis: a matrix over
    K[[z]] that is a unit mod z."""
    K = M.K
    if K.kind != "finite":
        raise InputError("the slope-zero Tate space needs a finite base")
    work = max(N + 4, DEFAULT_Z_PREC) if prec is None else prec
    cert = purity_check(M, 0, 1, max_iters=max_iters, prec=work)
    if isinstance(cert, Inconclusive):
        return cert
    if not isinstance(cert, PurityCertificate):
        raise InputError("input is not pure of slope zero")
    return cert.lattice, conjugated_matrix(M, cert.lattice, prec=work)


def _norm_powers(B, N):
    """N(B), N(B)^2, ... mod z^N, where N(B) = B*sigma(B)*...*sigma^{d-1}(B)
    and d = [K : F_q]; B is checked (`zmatrix.check_tau_matrix`) when
    the first power is asked for."""
    K, _ = zmatrix.check_tau_matrix(B, N)
    P = _truncate(zmatrix.tau_power_matrix(_truncate(B, N), K.desc.m * K.ext), N)
    acc = P
    while True:
        yield acc
        acc = _truncate(zmatrix.mul(acc, P), N)


def _truncate(A, N):
    return [[x.truncate(N) for x in row] for row in A]


def split_degree(B, N, e_max):
    """The least degree e <= e_max of the coefficient extension over which
    every fixed point of v = B*sigma(v) mod z^N is rational.

    The fixed points over the algebraic closure are U*F_q[[z]]^r for a
    solution U of U = B*sigma(U) that is invertible (Lang's theorem,
    for B a unit mod z), and sigma^{me}(U) = N(B)^{-e}*U over
    K = F_{q^m}. So they are all rational over the degree-e extension,
    and then free of rank r over F_q[[z]]/z^N, exactly when
    N(B)^e = 1 mod z^N. Raises ExtensionExhausted when no e <= e_max
    has it. B is checked (`zmatrix.check_tau_matrix`) as
    `semilinear.tau_fixed_space` checks it, before the first degree is
    decided; with e_max < 1 none is, and B is not checked.
    """
    identity = zmatrix.identity(B[0][0].K, len(B))
    for e, P in zip(range(1, e_max + 1), _norm_powers(B, N)):
        if zmatrix.agrees(P, identity):
            return e
    raise ExtensionExhausted(
        f"fixed points not free of rank {len(B)} within {e_max} coefficient extensions"
    )


def tate_slope0(M, N=4, e_max=8, max_iters=32, prec=None):
    """Tate space of a pure slope-zero twist at z-precision N.

    Finds an invariant lattice and conjugates the twist onto it
    (`unit_twist`); the integral form trivializes only after a finite
    coefficient extension, whose degree `split_degree` reads off the
    twist's norm. The fixed points are solved there once, level by
    level in z on F_p-linear data (`semilinear.tau_fixed_space`), and
    form a free F_q[[z]]/z^N-module of rank equal to the rank of M
    (`free_module_check`). Its count r*N also shows every level full:
    by Lang's theorem level n has F_q-dimension at most r*(n+1), and
    the fixed points mod z^N that vanish mod z^(n+1) are z^(n+1)*w for
    fixed points w mod z^(N-n-1), of dimension at most r*(N-n-1); so a
    count of r*N leaves each level n exactly r*(n+1). The theorem
    behind the degree rules out any other outcome, which is an
    InvariantError. Raises ExtensionExhausted when e_max does not
    suffice; purity budget failures surface as Inconclusive.
    """
    got = unit_twist(M, N, max_iters, prec)
    if isinstance(got, Inconclusive):
        return got
    lat, B = got
    r = M.rank
    e = split_degree(B, N, e_max)
    basis = semilinear.tau_fixed_space(B, N, e)
    ok, mb = semilinear.free_module_check(M.K, basis, r, N)
    if not ok:
        raise InvariantError(f"fixed points not free of rank {r} at the split degree {e}")
    C = semilinear.frobenius_action(M.K, mb, N)
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


# ---------------------------------------------------- normal-form conjugation


class ConjugatorData(Record):
    """A unit conjugating the image of z in K((tau^{-1})) onto tau^{-r}."""

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
