"""Semilinear solvers.

Two solvers around the q-power twist:

  * solve_scalar: sigma(x) = a*x + b over a tagged subring of K((z)),
    resolved coefficientwise. The z-order of `a` picks the regime:
    positive order forces q-th roots from the bottom up, negative order
    gives a z-adic contraction (no roots at all), order zero reduces to
    additive per-coefficient equations over finite bases.
  * tau_fixed_space / frobenius_action: Lang-style fixed points of
    v -> A*sigma(v) on (F_{q^{m e}}[[z]]/z^N)^r as exact F_p-linear
    algebra solved one z-level at a time (`fixed_space_levels`), plus
    the coefficient-Galois action on the fixed space.

No-backtracking note: x -> x^q is injective in characteristic p, so
whenever the recursion forces a coefficient there is exactly one
candidate; the solvers never branch.

F_p matrices are lists of int rows, solved by `elimination`.
"""

import math
from fractions import Fraction

from taumod import elimination, embedding, kernels, rings
from taumod.basefield import Felt, frobenius_power, get_field, mult_matrix
from taumod.errors import (
    InputError,
    InvariantError,
    NoRoot,
    NotStable,
    PrecisionLoss,
)
from taumod.zseries import DEFAULT_Z_PREC, ZSeries
from taumod import zmatrix

INF = math.inf


# ---------------------------------------------------------------------------
# scalar equation


def solve_scalar(a, b, tag="BK", prec=None):
    """Solve sigma(x) = a*x + b for x in the ring named by `tag`.

    Returns an outcome dict: verdict "solution" carries the series and
    its membership certificate; "no_solution" carries a reason from
    {QthRootMissing, UnboundedCoefficientValuations,
    PrincipalPartViolation, CoefficientNotIntegral,
    CoefficientEquationUnsolvable} and a witness that re-checks without
    the solver; "inconclusive" reports what the windows could not
    settle.
    """
    N = prec if prec is not None else DEFAULT_Z_PREC
    if a.K is not b.K:
        raise InputError("a and b must live over the same base")
    K = a.K
    try:
        va = a.valuation()
    except PrecisionLoss as exc:
        return _inconclusive(tag, N, f"z-order of a unsettled: {exc}")
    if va is INF:
        return _solve_sigma_only(b, tag, N)
    if va > 0:
        return _solve_root_regime(a, b, tag, N)
    if va < 0:
        return _solve_contraction(a, b, va, tag, N)
    return _solve_additive(a, b, tag, N)


def _inconclusive(tag, N, note, partial=None):
    out = {
        "kind": "solve_outcome",
        "verdict": "inconclusive",
        "ring": tag,
        "requested_precision": N,
        "note": note,
    }
    if partial is not None:
        out["x"] = partial
    return out


def _no_solution(tag, N, reason, witness, x_bk=None):
    out = {
        "kind": "solve_outcome",
        "verdict": "no_solution",
        "ring": tag,
        "requested_precision": N,
        "reason": reason,
        "witness": witness,
    }
    if x_bk is not None:
        out["x_bk"] = x_bk
    return out


def _residual_ok(a, b, x, hi):
    """sigma(x) - (a*x + b) is zero below z^hi, as far as it is known."""
    res = x.sigma() - (a * x + b)
    return not any(e < min(hi, res.hi) and res.K.known_nonzero(c)
                   for e, c in res.co.items())


def _finish(a, b, x, tag, N, dim=None, extra_note=None):
    """Re-substitute, then certify tag membership of a computed x."""
    if not _residual_ok(a, b, x, min(N, x.hi)):
        raise InvariantError("solver output fails re-substitution")
    cert = rings.membership(x, tag)
    out = {
        "kind": "solve_outcome",
        "ring": tag,
        "requested_precision": N,
        "achieved_precision": None if x.hi is INF else x.hi,
        "membership": cert,
        "x": x,
    }
    if dim is not None:
        out["solution_space"] = {"per_coefficient_dim_fq": dim}
    if x.growth is not None:
        out["growth"] = x.growth
    if extra_note:
        out["note"] = extra_note
    if cert["verdict"] == "yes":
        out["verdict"] = "solution"
        return out
    if cert["verdict"] == "no":
        reason = {
            "AK": "PrincipalPartViolation",
            "BOK": "CoefficientNotIntegral",
            "Bbar": "UnboundedCoefficientValuations",
        }[cert["ring"]]
        return _no_solution(tag, N, reason, cert.get("witness"), x_bk=x)
    out["verdict"] = "inconclusive"
    out["note"] = "solution found in BK; tag membership unsettled by windows"
    return out


def _solve_sigma_only(b, tag, N):
    """a = 0: x = sigma^{-1}(b)."""
    try:
        x = b.sigma(-1)
    except NoRoot as exc:
        return _no_solution(
            tag, N, "QthRootMissing", {"equation": "sigma(x) = b", **(exc.witness or {})}
        )
    return _finish(ZSeries.zero(b.K), b, x, tag, N, dim=0)


def _profile_bound(s):
    """min(0, all coefficient zeta-valuations of s); None if unknowable."""
    out = 0
    for e in s.support():
        c = s.co[e]
        if s.K.kind == "finite":
            continue
        if not c.co:
            return None
        out = min(out, min(c.co))
    return out


def _solve_root_regime(a, b, tag, N):
    K = a.K
    try:
        if b.is_zero():
            return _finish(a, b, ZSeries.zero(K), tag, N, dim=0)
    except PrecisionLoss:
        return _inconclusive(tag, N, "b is zero only to its window")
    co, n_hi, miss = force_roots(a, b, N)
    if miss is not None:
        return _no_solution(tag, N, "QthRootMissing", miss)
    if n_hi <= b.valuation():
        return _inconclusive(tag, N, "windows end before the first forced coefficient")
    x = ZSeries(K, co, n_hi)
    return _finish(a, b, x.with_growth(growth_annotation(a, b, x)), tag, N, dim=0)


def growth_annotation(a, b, x):
    """The growth annotation of the solver's x for sigma(x) = a*x + b,
    from a, b and x alone, so that `verify` re-derives it: the root
    regime's bound for v_z(a) > 0, the valuation recursion of
    `_growth_certificate` for an exact a = c*z^-k, None otherwise (and
    for b = 0, solved by x = 0). b is tested only in those two regimes,
    where the solver has settled b != 0; elsewhere b may be zero only to
    its window."""
    va = a.valuation()
    if va is INF or va == 0:
        return None
    if va < 0:
        if len(a.co) != 1 or not a.is_exact() or b.is_zero():
            return None
        return _growth_certificate(x, b, -va, a.co[va])
    if b.is_zero():
        return None
    # coefficient valuations stay >= min(0, profiles of a, b):
    # v(x_n) = v(rhs)/q and rhs only mixes b_n with a_k x_{n-k}
    ca, cb = _profile_bound(a), _profile_bound(b)
    if ca is None or cb is None:
        return None
    return {"kind": "root_regime_bound", "conclusion": "bounded_below",
            "bound": min(ca, cb)}


def force_roots(a, b, N):
    """The root-regime recursion x_n^q = b_n + sum_k a_k x_{n-k}
    (v_z(a) > 0, b != 0), forced from the bottom up for v_z(b) <= n < hi,
    where hi is N or the first exponent the windows of a and b leave
    undetermined.

    Returns (coefficients, hi, None), or (coefficients below n, hi,
    witness) at the first n whose right-hand side has no q-th root.
    """
    w = b.valuation()
    hi = N
    if b.hi is not INF:
        hi = min(hi, b.hi)
    if a.hi is not INF:
        hi = min(hi, w + (a.hi - a.valuation()))
    K = a.K
    co = {}
    for n in range(w, hi):
        rhs = b.coeff(n)
        for k in a.support():
            j = n - k
            if j in co:
                rhs = rhs + a.co[k] * co[j]
        try:
            xn = K.qth_root(rhs)
        except NoRoot as exc:
            return co, hi, {"z_exponent": n, "equation": f"x_{n}^q = rhs",
                            "rhs": rhs, **(exc.witness or {})}
        if not K.exact_zero_p(xn):
            co[n] = xn
    return co, hi, None


def _solve_contraction(a, b, va, tag, N):
    K = a.K
    if len(a.co) == 1 and a.is_exact():
        return _solve_contraction_monomial(a, b, va, tag, N)
    # fixed-point iteration x <- a^{-1}(sigma(x) - b); contraction by |va|
    ainv = a.inv(prec=N + 2 * abs(va) + 4)
    x = (-ainv * b).truncate(N)
    steps = 2 + max(0, (N - x.val_lower_bound())) // abs(va) + 1
    for _ in range(steps):
        x = (ainv * (x.sigma() - b)).truncate(N)
    return _finish(a, b, x, tag, N, dim=0)


def _solve_contraction_monomial(a, b, va, tag, N):
    """a = c*z^{-k} exactly: x_n = c^{-1}(x_{n-k}^q - b_{n-k}) upward,
    with a closed-form valuation recursion that can certify coefficient
    valuations unbounded below (the only sound source of a Bbar 'no')."""
    K = a.K
    k = -va
    c = a.co[va]
    cinv = K.el(c).inv()
    try:
        if b.is_zero():
            return _finish(a, b, ZSeries.zero(K), tag, N, dim=0)
    except PrecisionLoss:
        return _inconclusive(tag, N, "b is zero only to its window")
    vb = b.valuation()
    w = k + vb
    n_hi = N if b.hi is INF else min(N, b.hi + k)
    co = {}
    for n in range(w, n_hi):
        acc = -b.coeff(n - k)
        prev = co.get(n - k)
        if prev is not None:
            acc = acc + K.sigma(prev, 1)
        xn = cinv * acc
        if not K.exact_zero_p(xn):
            co[n] = xn
    x = ZSeries(K, co, n_hi)
    return _finish(a, b, x.with_growth(growth_annotation(a, b, x)), tag, N, dim=0)


def _growth_certificate(x, b, k, c):
    """Valuation recursion v(x_{n+k}) = q v(x_n) - v(c) past b's support.

    With mu = v(c)/(q-1) the recursion's fixed point: a coefficient in
    the pure regime with v < mu is forced down geometrically forever;
    v >= mu for all seed residues means bounded below. Only emitted for
    exact local data, where the closed form is airtight.
    """
    K = x.K
    if K.kind != "local" or not b.is_exact():
        return None
    if any(not cc.is_exact() for cc in b.co.values()) or not c.is_exact():
        return None
    if not c.co:
        return None
    vc = min(c.co)
    mu = Fraction(vc, K.q - 1)
    pure_from = (max(b.support()) if b.co else 0) + k + 1
    vals = {n: x.co[n].valuation() for n in x.support()}
    below = [(n, v) for n, v in vals.items() if n >= pure_from and v < mu]
    if not below and not vals:
        return None
    out = {"kind": "geometric_valuation_growth", "step": k, "q": K.q, "v_c": vc,
           "mu": [mu.numerator, mu.denominator]}
    if below:
        return dict(out, conclusion="unbounded_below", witness_exponent=below[0][0],
                    witness_valuation=below[0][1])
    return dict(out, conclusion="bounded_below", bound=min(min(vals.values()), 0))


def _solve_additive(a, b, tag, N):
    """v_z(a) = 0: per-coefficient additive equations x_n^q - a_0 x_n = r_n."""
    K = a.K
    a0 = a.coeff(0)
    const_a = a.support() == [0] and a.is_exact()
    if K.kind == "local":
        one_a = const_a and a0 == K.one()
        try:
            hom = b.is_zero()
        except PrecisionLoss:
            hom = False
        if one_a and hom:
            x = ZSeries.zero(K)
            return _finish(a, b, x, tag, N, dim=1,
                           extra_note="fixed ring of sigma: constants F_q")
        return _inconclusive(
            tag, N, "order-zero a over a local base: no structural solver applies"
        )
    if not const_a:
        return _solve_additive_window(a, b, tag, N)
    # constant a: equations decouple per z-exponent
    ff = K.ff
    p = ff.p
    Lmat = _additive_map(K, a0)
    ker = elimination.nullspace_mod_p(Lmat, ff.n, p)
    dim_fq = len(ker) // K.desc.a if ker else 0
    try:
        hom = b.is_zero()
    except PrecisionLoss:
        hom = False
    if hom:
        return _finish(a, b, ZSeries.zero(K), tag, N, dim=dim_fq,
                       extra_note="homogeneous additive equation; canonical solution 0")
    n_hi = N if b.hi is INF else min(N, b.hi)
    co = {}
    for n in sorted(b.support()):
        if n >= n_hi:
            continue
        rhs = list(b.co[n].c)
        sol = elimination.solve_mod_p(Lmat, rhs, p)
        if sol is None:
            return _no_solution(
                tag,
                N,
                "CoefficientEquationUnsolvable",
                {
                    "z_exponent": n,
                    "equation": "x^q - a0*x = b_n",
                    "a0": a0,
                    "rhs": b.co[n],
                },
            )
        xn = ff.el(sol)
        if not xn.is_zero():
            co[n] = xn
    x = ZSeries(K, co, n_hi)
    return _finish(a, b, x, tag, N, dim=dim_fq)


def _solve_additive_window(a, b, tag, N):
    """Non-constant order-zero a over a finite base: joint window system.

    Support floor at v(b): a consistent system yields a solution; an
    inconsistent one is only reported inconclusive, since homogeneous
    components below the floor could repair it.
    """
    K = a.K
    ff = K.ff
    p = ff.p
    try:
        if b.is_zero():
            # fall back to the constant-coefficient kernel at a single n
            return _inconclusive(tag, N, "homogeneous non-constant additive equation")
    except PrecisionLoss:
        return _inconclusive(tag, N, "b is zero only to its window")
    lo = min(b.valuation(), 0)
    n_hi = N if b.hi is INF else min(N, b.hi)
    if a.hi is not INF:
        n_hi = min(n_hi, a.hi)
    idx = {n: i for i, n in enumerate(range(lo, n_hi))}
    nn = len(idx)
    nL = ff.n
    Q = frobenius_power(p, ff.n, K.desc.a)
    big = [[0] * (nn * nL) for _ in range(nn * nL)]
    rhs = [0] * (nn * nL)
    for n, i in idx.items():
        elimination.add_block(big, i * nL, i * nL, Q)
        for k in a.support():
            j = idx.get(n - k)
            if j is not None:
                elimination.add_block(big, i * nL, j * nL, _mult_mat(ff, a.co[k]), -1)
        if n < b.hi:
            rhs[i * nL : (i + 1) * nL] = b.coeff(n).c
    sol = elimination.solve_mod_p(big, rhs, p)
    if sol is None:
        return _inconclusive(
            tag,
            N,
            "window system inconsistent; support below the floor could repair it",
        )
    co = {}
    for n, i in idx.items():
        xn = ff.el(sol[i * nL : (i + 1) * nL])
        if not xn.is_zero():
            co[n] = xn
    return _finish(a, b, ZSeries(K, co, n_hi), tag, N)


# ---------------------------------------------------------------------------
# F_p-linearization helpers


def _mult_mat(ff, alpha):
    """n x n matrix over F_p of y -> alpha*y on ff, columns = images of
    the power basis."""
    return mult_matrix(ff.p, ff.n, alpha.c if isinstance(alpha, Felt) else alpha)


def _additive_map(K, a0):
    """F_p matrix of x -> x^q - a0*x on the field of a finite base K."""
    lin = [list(row) for row in frobenius_power(K.ff.p, K.ff.n, K.desc.a)]
    elimination.add_block(lin, 0, 0, _mult_mat(K.ff, a0), -1)
    return lin


def _vec_coords(vec, N, nL):
    """F_p coordinates of a vector of ZSeries, layout (component, z, field)."""
    out = []
    for s in vec:
        for n in range(N):
            c = s.coeff(n)
            out.extend(c.c)
    return out


def _coords_vec(K, coords, r, N, nL):
    out = []
    for i in range(r):
        co = {}
        for n in range(N):
            base = (i * N + n) * nL
            c = K.ff.el(coords[base : base + nL])
            if not c.is_zero():
                co[n] = c
        out.append(ZSeries(K, co, N))
    return out


# ---------------------------------------------------------------------------
# tau-fixed points


def tau_fixed_space(A, N, e):
    """F_q-basis of {v over F_{q^{m ext e}}[[z]]/z^N : A*sigma(v) = v}.

    A is an r x r matrix of ZSeries over a finite base with entries in
    K[[z]], invertible mod z, which makes the fixed points a module over
    F_q[[z]]/z^N. The defect map is F_q-linear (not L-linear); the
    returned basis is over F_q, found inside the exact F_p-kernel that
    `fixed_space_levels` reaches at its last level, and the field L of
    degree e is built for it.

    By Lang's theorem the basis has at most r*N vectors, and exactly
    r*N when the fixed points over the algebraic closure are all
    rational mod z^N, which `tateweil.split_degree` decides from the
    powers of the twist's norm.
    """
    K, r = A[0][0].K, len(A)
    rows = []
    for rows in fixed_space_levels(A, N, e):
        pass
    # the rows, permuted to the coordinates (component, z-degree, field),
    # brought to the basis a nullspace of the whole system gives
    L = K.extend(e)
    nL = L.ff.n
    perm = [(n * r + i) * nL + t for i in range(r) for n in range(N) for t in range(nL)]
    ker = elimination.canonical_basis([[row[j] for j in perm] for row in rows], L.ff.p)
    return _fq_basis_from_fp_kernel(K, L, ker, r, N, nL)


def _fixed_space_terms(A, N):
    """Check A for the fixed-point system at z-precision N
    (`zmatrix.check_tau_matrix`); return (K, r, terms) with one term
    (i, j, k, c) per coefficient c of z^k, k < N, in A[i][j]."""
    K, r = zmatrix.check_tau_matrix(A, N)
    terms = [(i, j, k, entry.co[k])
             for i, row in enumerate(A) for j, entry in enumerate(row)
             for k in entry.support() if k < N]
    return K, r, terms


def fixed_space_levels(A, N, e):
    """Solve v = A*sigma(v) over the degree-e extension one z-level at a
    time, on F_p-linear data alone (`embedding.FpExtension`), with no
    field built.

    The system is block lower-triangular in the z-degree: level n reads
    v_0 .. v_n. After each level n < N this yields the rows of
    `elimination.extend_kernel`, an F_p-basis of the fixed points mod
    z^(n+1), with coordinates level-major: (z-degree, component, field).
    """
    K, r, terms = _fixed_space_terms(A, N)
    ext = embedding.fp_extension(K.ff.p, K.ff.n, K.ff.n * e)
    p, nL, w = ext.p, ext.n, r * ext.n
    Q = ext.frob(K.desc.a)
    T = {}  # k -> matrix of the z^k terms of v -> A sigma(v) on one level
    for i, j, k, c in terms:
        blk = T.setdefault(k, [[0] * w for _ in range(w)])
        elimination.add_block(blk, i * nL, j * nL, kernels.matmul(ext.base_mult(c), Q, p))
    zero = [[0] * w for _ in range(w)]
    diag = [[x - (t == u) for u, x in enumerate(row)] for t, row in enumerate(T.get(0, zero))]
    rows = []
    for n in range(N):
        blocks = [T.get(n - l, zero) for l in range(n)]
        coupling = [[x for blk in blocks for x in blk[t]] for t in range(w)]
        rows = elimination.extend_kernel(rows, coupling, diag, p)
        yield rows


def _fq_basis_from_fp_kernel(K, L, ker, r, N, nL):
    """Greedy F_q-basis of an F_q-space given by an F_p-kernel basis."""
    picked = _fq_greedy(L, K.desc.a, ker)
    if len(picked) * K.desc.a != len(ker):
        raise InvariantError("fixed space is not an F_q-vector space")
    return [_coords_vec(L, ker[i], r, N, nL) for i in picked]


def _fq_greedy(L, a, coords):
    """Indices of the vectors that a greedy pass keeps as an F_q-basis,
    F_q = F_{p^a} acting on each block of L-coordinates."""
    p, nL = L.ff.p, L.ff.n
    gq = _mult_mat(L.ff, fq_generator(L, a))
    span = elimination.FpSpan(p)
    picked = []
    for i, w in enumerate(coords):
        if span.add(w):
            picked.append(i)
            v = w
            for _ in range(a - 1):
                blocks = (v[t : t + nL] for t in range(0, len(v), nL))
                v = [x for b in blocks for x in (kernels.matvec(gq, b, p) if any(b) else b)]
                span.add(v)
    return picked


def fq_generator(L, a):
    """The canonical generator of F_q = F_{p^a} (the residue class of X
    modulo its canonical modulus) as an element of L's field; 1 when
    a = 1. Its powers 1, g, ..., g^(a-1) are an F_p-basis of F_q."""
    if a == 1:
        return L.ff.one
    return embedding.coerce_into(get_field(L.ff.p, a).el([0, 1]), L.ff)


def free_module_check(K, basis, r, N):
    """Decide whether span_Fq(basis) is a free F_q[[z]]/z^N-module of
    rank r; on success return (True, module_basis) with r generators
    picked by mod-z reduction, else (False, None)."""
    a = K.desc.a
    if len(basis) != r * N:
        return False, None
    if not basis:
        return (r == 0), []
    red = [[c for s in vec for c in s.coeff(0).c] for vec in basis]
    picked = _fq_greedy(basis[0][0].K, a, red)
    if len(picked) != r:
        return False, None
    return True, [basis[i] for i in picked]


def frobenius_action(K, module_basis, N):
    """Matrix of the #K-power coefficient Frobenius on the fixed space,
    in the given free-module basis; entries in F_q[[z]]/z^N.

    Raises NotStable when the Frobenius image leaves the span.
    """
    if not module_basis:
        return []
    L = module_basis[0][0].K
    ff = L.ff
    p, nL = ff.p, ff.n
    r = len(module_basis)
    aq = K.desc.a
    kpow = aq * K.desc.m * K.ext  # log_p of |K|
    # an F_p-basis of F_q, the powers of its generator, in L and in K
    gL, gK = fq_generator(L, aq), fq_generator(K, aq)
    big_pows = [gL**t for t in range(aq)]
    cols = []
    meta = []
    for i in range(r):
        for n in range(N):
            for t in range(aq):
                probe = [
                    (s.shift(n).truncate(N)).scale(big_pows[t])
                    for s in module_basis[i]
                ]
                cols.append(_vec_coords(probe, N, nL))
                meta.append((i, n, t))
    mat = list(zip(*cols))
    # the images of all basis vectors, solved by one elimination
    imgs = [_vec_coords([_series_frob(s, kpow) for s in module_basis[j]], N, nL)
            for j in range(r)]
    out_rows = elimination.solve_columns_mod_p(mat, imgs, p)
    for j, sol in enumerate(out_rows):
        if sol is None:
            raise NotStable(f"Frobenius image of basis vector {j} leaves the span")
    C = zmatrix.zeros(K, r, r)
    for j, sol in enumerate(out_rows):
        for idx, (i, n, t) in enumerate(meta):
            if sol[idx] % p:
                term = ZSeries(K, {n: gK**t * sol[idx]}, INF)
                C[i][j] = C[i][j] + term
    C = [[entry.truncate(N) for entry in row] for row in C]
    return C


def _series_frob(s, kpow):
    return ZSeries(s.K, {e: c.frob(kpow) for e, c in s.co.items()}, s.hi)
