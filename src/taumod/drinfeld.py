"""Drinfeld F_q[t]-modules of rank r: the motive as a companion-shaped
t-structure, its Laurent isocrystal at t = 1/z, coordinate-scaling
reduction analysis over a local base, good models, and the cross-check
between the two sides of the reduction criterion."""

import math
from fractions import Fraction

from . import zmatrix
from .errors import InputError, InvariantError
from .isocrystal import (
    Inconclusive,
    Isocrystal,
    PurityCertificate,
    Record,
    model_verify,
)
from .zseries import ZSeries

INF = math.inf


def _elt_pow(x, n):
    if n >= 0:
        return x**n
    return x.inv() ** (-n)


class DrinfeldModule:
    """phi_t = g_0 + g_1 tau + ... + g_r tau^r with g_r != 0.

    Over a local base the image g_0 of t must be integral; that keeps
    every reduction-theoretic operation applicable.
    """

    __slots__ = ("K", "coeffs", "rank")

    def __init__(self, K, coeffs):
        coeffs = [K.el(c) for c in coeffs]
        r = len(coeffs) - 1
        if r < 1:
            raise InputError("t must act with positive tau-degree")
        if not K.known_nonzero(coeffs[r]):
            raise InputError("top coefficient must be nonzero")
        if K.kind == "local" and K.known_nonzero(coeffs[0]):
            if coeffs[0].valuation() < 0:
                raise InputError("the image of t must be integral")
        self.K = K
        self.coeffs = coeffs
        self.rank = r


class MotiveData(Record):
    """matrix: the r x r ZSeries matrix, exponent = t-power."""

    __slots__ = _fields = ("matrix", "coker")


# what the two checks of `motive` establish about every motive it returns
MOTIVE_COKER = {"dimension": 1, "t_acts_by": "g0", "support": "t - g0",
                "checks": ["det(A)*g_r ~ t - g0", "row 0 vanishes at t = g0"]}


def _eval_at(K, s, c):
    acc = K.el(0)
    for n, coeff in s.co.items():
        acc = acc + coeff * _elt_pow(c, n)
    return acc


def motive(E):
    """t-action matrix on the basis {1, tau, ..., tau^{r-1}} of K{tau}.

    The skew algebra is a K[t]-module by f -> f*phi_t; tau acts by left
    multiplication.  Column r-1 rewrites tau^r through phi_t.  The
    construction is validated by two executable checks: det(A)*g_r is a
    unit multiple of (t - g_0), and the top row vanishes at t = g_0, so
    the cokernel of the linearized action is K[t]/(t - g_0)
    (`MOTIVE_COKER`), and A is invertible over K((t)).
    """
    K = E.K
    r = E.rank
    g = E.coeffs
    gr_inv = g[r].inv()
    A = zmatrix.zeros(K, r, r)
    for j in range(r - 1):
        A[j + 1][j] = ZSeries.one(K)
    top = {1: gr_inv}
    g0c = gr_inv * g[0]
    if K.known_nonzero(g0c):
        top[0] = -g0c
    A[0][r - 1] = ZSeries(K, top, INF)
    for i in range(1, r):
        c = gr_inv * g[i]
        if K.known_nonzero(c):
            A[i][r - 1] = ZSeries(K, {0: -c}, INF)
    d = zmatrix.det(A) * ZSeries.const(K, g[r])
    lin = ZSeries(
        K,
        {1: K.el(1), **({0: -g[0]} if K.known_nonzero(g[0]) else {})},
        INF,
    )
    if not (d.agrees_with(lin) or d.agrees_with(-lin)):
        raise InvariantError("motive determinant is not a unit times t - g0")
    edge = _eval_at(K, A[0][r - 1], g[0])
    if K.known_nonzero(edge):
        raise InvariantError("motive top row does not vanish at t = g0")
    return MotiveData(A, MOTIVE_COKER)


def m_infinity(E):
    """The isocrystal at the place t = infinity, via t = 1/z, with both
    checks of `motive` run on its matrix."""
    mot = motive(E)
    K = E.K
    Az = [
        [ZSeries(K, {-n: c for n, c in s.co.items()}, INF) for s in row]
        for row in mot.matrix
    ]
    return Isocrystal(K, Az)


# ------------------------------------------------------------- reduction

class ReductionReport(Record):
    """verdict: Good | Stable | PotentiallyGood | BadNotPotentiallyGood;
    m: the scaling exponent (a Fraction) in stored (ramified) valuation
    units, m_normalized the same in unramified units."""

    __slots__ = _fields = ("verdict", "m", "m_normalized", "stable_rank",
                           "ramification", "certificates")


def reduction_type(E):
    """Classify reduction by scanning coordinate scalings g_i u^{1-q^i}.

    With v(u) = -m the i-th valuation moves to v(g_i) + m(q^i - 1); the
    top coefficient becomes a unit exactly at m = -v(g_r)/(q^r - 1), and
    that choice keeps everything integral iff it dominates all the other
    candidate ratios.
    """
    K = E.K
    if K.kind != "local":
        raise InputError("reduction analysis needs a valued base")
    q = K.desc.q
    r = E.rank
    cands = {}
    for i in range(1, r + 1):
        g = E.coeffs[i]
        if K.known_nonzero(g):
            cands[i] = Fraction(-g.valuation(), q**i - 1)
    m_star = max(cands.values())
    S = sorted(i for i, lam in cands.items() if lam == m_star)
    scaled = {
        i: Fraction(E.coeffs[i].valuation()) + m_star * (q**i - 1)
        for i in cands
    }
    for i, lam in cands.items():
        want = Fraction(E.coeffs[i].valuation()) + m_star * (q**i - 1)
        if scaled[i] != want:
            raise InvariantError("scaled valuation replay mismatch")
    certificates = {
        "candidates": {i: [lam.numerator, lam.denominator]
                       for i, lam in sorted(cands.items())},
        "argmax": S,
        "scaled_valuations": {i: [v.numerator, v.denominator]
                              for i, v in sorted(scaled.items())},
    }
    if r in S:
        if m_star.denominator == 1:
            verdict, st, ram = "Good", 0, 1
        else:
            verdict, st, ram = "PotentiallyGood", 0, m_star.denominator
    else:
        verdict, st, ram = "Stable", max(S), 1
    return ReductionReport(
        verdict=verdict,
        m=m_star,
        m_normalized=m_star / K.ram,
        stable_rank=st,
        ramification=ram,
        certificates=certificates,
    )


class GoodModel(Record):
    """module: the scaled DrinfeldModule, with integral coefficients;
    m: the realized scaling exponent, in stored units; u: the scaling
    element, v(u) = -m; A: the module's infinity-isocrystal matrix,
    entries integral; verify: the `model_verify` output; residue: the
    mod-zeta reduction, a DrinfeldModule."""

    __slots__ = _fields = ("module", "m", "u", "A", "verify", "residue")


def good_model(E, report=None):
    """Scale to an integral model with unit top coefficient and verify."""
    K = E.K
    if report is None:
        report = reduction_type(E)
    if report.verdict != "Good":
        raise InputError(f"no good model at verdict {report.verdict}")
    m = int(report.m)
    q = K.desc.q
    u = K.zeta(-m) if m != 0 else K.one()
    g2 = [E.coeffs[0]]
    for i in range(1, E.rank + 1):
        g2.append(E.coeffs[i] * _elt_pow(u, 1 - q**i))
    E2 = DrinfeldModule(K, g2)
    A = m_infinity(E2).A
    ver = model_verify(K, A)
    if ver["verdict"] != "yes":
        raise InvariantError(f"scaled model fails verification: {ver}")
    k = K.residue_K()
    gbar = [k.el(c.residue()) for c in g2]
    Ebar = DrinfeldModule(k, gbar)
    return GoodModel(module=E2, m=m, u=u, A=A, verify=ver, residue=Ebar)


def _reramify(K2, x):
    """Move a local element into the same field with finer uniformizer."""
    e = K2.ram // x.K.ram
    co = {exp * e: K2.cf.el(c) for exp, c in x.co.items()}
    hi = INF if x.hi == INF else x.hi * e
    from .basefield import LocalElem

    return LocalElem(K2, co, hi)


def base_change_agrees(E, M, gm):
    """The good model's infinity isocrystal is M = m_infinity(E) after the
    change of basis A_model == diag(u^{q^i})^{-1} A diag(u^{q^{i+1}})."""
    q = E.K.desc.q
    r = E.rank
    u = gm.u
    A = M.A
    upow = [_elt_pow(u, q**k) for k in range(r + 1)]
    uinv = [_elt_pow(u, -(q**k)) for k in range(r + 1)]
    conj = [[(A[i][j].scale(uinv[i])).scale(upow[j + 1]) for j in range(r)]
            for i in range(r)]
    return zmatrix.agrees(gm.A, conj)


def ramified(E, e):
    """E over the extension of its local base with ramification index e."""
    K2 = E.K.ramify(e)
    return DrinfeldModule(K2, [_reramify(K2, g) for g in E.coeffs])


def crit_crosscheck(E, M, purity):
    """Play the two sides of the reduction criterion against each other.

    M = m_infinity(E) and purity = purity_check(M, -1, r) are the
    caller's.  Good: the scaled model must equal M after the diagonal
    change of basis diag(u^{q^i}).  Stable: record the obstruction pair
    (purity, the smaller residue rank), which any integral model would
    have to reconcile against hom-vanishing between distinct slopes.
    PotentiallyGood: inconclusive over the base, rerun over the ramified
    extension, where E is Good and needs no purity.
    """
    rep = reduction_type(E)
    r = E.rank
    if rep.verdict == "Good":
        gm = good_model(E, rep)
        if not base_change_agrees(E, M, gm):
            raise InvariantError("good model does not match the infinity "
                                 "isocrystal after base change")
        return {
            "kind": "crit_crosscheck",
            "verdict": "agree",
            "reduction": rep,
            "model_verify": gm.verify,
            "base_change": "A_model == diag(u^{q^i})^{-1} A diag(u^{q^{i+1}})",
        }
    if rep.verdict == "Stable":
        obstruction = {
            "kind": "stable_obstruction",
            "generic_purity_at": [-1, r],
            "generic_purity": (
                {"pivots": purity.lattice.pivots, "iterations": purity.iterations}
                if isinstance(purity, PurityCertificate)
                else {"unexpected": repr(purity)}
            ),
            "stable_rank": rep.stable_rank,
            "residue_slope": [-1, rep.stable_rank],
            "scaled_valuations": rep.certificates["scaled_valuations"],
            "mechanism": (
                "an integral model would equate pure pieces of slopes "
                f"-1/{r} and -1/{rep.stable_rank}, but homs across "
                "distinct slopes vanish"
            ),
        }
        return {
            "kind": "crit_crosscheck",
            "verdict": "obstruction_recorded",
            "reduction": rep,
            "obstruction": obstruction,
        }
    # PotentiallyGood: inconclusive over the base itself
    e = rep.ramification
    E2 = ramified(E, e)
    rep2 = reduction_type(E2)
    if rep2.verdict != "Good":
        raise InvariantError(
            f"expected Good over the index-{e} extension, got {rep2.verdict}"
        )
    sub = crit_crosscheck(E2, m_infinity(E2), None)
    return {
        "kind": "crit_crosscheck",
        "verdict": "agree_after_extension",
        "base_outcome": Inconclusive(
            f"scaling exponent {rep.m} needs ramification index {e}"
        ),
        "extension": e,
        "reduction": rep,
        "extended": sub,
    }
