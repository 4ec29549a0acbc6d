"""Certificate replays, one registry entry per report kind.

`REGISTRY[command]` is the replay of that kind of report: `replay(input,
result, checks, policy)` re-derives the result's claims from the
report's input, read under the report's `policy`, without re-running
the search that produced them, appending one {"name", "ok", ...} entry
to `checks` per claim. The verdict a result implies comes from
`taumod.verdicts`, which every command reads without running this
module.
"""

from taumod import (
    __version__,
    drinfeld,
    elimination,
    jsonio,
    rings,
    semilinear,
    tateweil,
    zmatrix,
)
from taumod.errors import ExtensionExhausted, InputError, NoRoot, PrecisionLoss
from taumod.isocrystal import Lattice, conjugated_matrix, hnf_reduce, lattice_eq
from taumod.verdicts import verdict_of
from taumod.zseries import DEFAULT_Z_PREC, INF


def _check(checks, name, ok, **detail):
    entry = {"name": name, "ok": bool(ok)}
    entry.update(detail)
    checks.append(entry)


def _z_prec(policy):
    """The z-precision the report's input was read at."""
    return int(policy["z_prec"])


def _parse_matrix(K, rows):
    return [[jsonio.parse_zseries(K, cell) for cell in row] for row in rows]


def _replay_purity(M, cert_doc, checks, label, slope=None):
    """Re-check stability of the certified lattice, not the search; a
    certificate off `slope`, the one (s, r) a command certifies, fails."""
    s, r = int(cert_doc["s"]), int(cert_doc["r"])
    if slope is not None and (s, r) != slope:
        _check(checks, f"{label}: tau^r T == z^s T", False, s=s, r=r)
        return
    lat = cert_doc["lattice"]
    T = Lattice(M.K, _parse_matrix(M.K, lat["basis"]),
                [int(e) for e in lat["pivots"]])
    A_r = M.tau_power(r)
    img = zmatrix.mul(A_r, zmatrix.sigma(T.basis, r))
    cols = [[img[i][j].shift(-s) for i in range(M.rank)]
            for j in range(M.rank)]
    T_img = hnf_reduce(M.K, cols, M.rank)
    _check(checks, f"{label}: tau^r T == z^s T", lattice_eq(T, T_img),
           s=s, r=r)


def _crosscheck_ok(E, M, doc):
    """The crosscheck verdict and its data follow from E's reduction
    report. Good re-checks the base-change identity of the good model
    against M = m_infinity(E); PotentiallyGood replays the extended
    block over the ramified base; Stable re-runs no purity search."""
    rep = drinfeld.reduction_type(E)
    rd = jsonio.render(rep)
    if doc["reduction"] != rd:
        return False
    if rep.verdict == "Good":
        gm = drinfeld.good_model(E, rep)
        return (doc["verdict"] == "agree"
                and doc["model_verify"] == jsonio.render(gm.verify)
                and drinfeld.base_change_agrees(E, M, gm))
    if rep.verdict == "Stable":
        ob = doc["obstruction"]
        return (doc["verdict"] == "obstruction_recorded"
                and ob["generic_purity_at"] == [-1, E.rank]
                and ob["stable_rank"] == rep.stable_rank
                and ob["residue_slope"] == [-1, rep.stable_rank]
                and ob["scaled_valuations"]
                == rd["certificates"]["scaled_valuations"])
    e = rep.ramification
    E2 = drinfeld.ramified(E, e)
    return (doc["verdict"] == "agree_after_extension"
            and doc["extension"] == e
            and _crosscheck_ok(E2, drinfeld.m_infinity(E2), doc["extended"]))


def _replay_analyze(inp, result, checks, policy):
    E = jsonio.parse_drinfeld(inp)
    M = drinfeld.m_infinity(E)
    cert = result.get("infinity_purity", {})
    if cert.get("kind") == "purity_certificate":
        # analyze certifies slope -1/rank only
        _replay_purity(M, cert, checks, "infinity purity", (-1, E.rank))
    if "reduction" in result:
        _check(checks, "reduction: valuation table re-evaluates",
               jsonio.render(drinfeld.reduction_type(E)) == result["reduction"])
        _check(checks, "crosscheck: verdict and data follow from the reduction",
               _crosscheck_ok(E, M, result["crosscheck"]))


def _replay_isocrystal_purity(inp, result, checks, policy):
    M = jsonio.parse_isocrystal(inp, _z_prec(policy))
    cert = result.get("certificate", {})
    if cert.get("kind") == "purity_certificate":
        _replay_purity(M, cert, checks, "purity")
    else:
        _check(checks, "purity: no lattice claimed", True)


def _regrown(a, b, x_doc, *claimed):
    """The series x_doc with the growth annotation re-derived from a, b and
    its coefficients, and whether x_doc and the `claimed` copies carry
    exactly that annotation."""
    x = jsonio.parse_zseries(a.K, x_doc)
    growth = jsonio.render(semilinear.growth_annotation(a, b, x))
    return (x.with_growth(growth),
            all(c == growth for c in (x_doc.get("growth"),) + claimed))


def _replay_solve(inp, outcome, checks, policy):
    K = jsonio.parse_field(inp["base"])
    verdict = outcome["verdict"]
    ring = outcome["ring"]
    a = jsonio.parse_scalar(K, inp["a"])
    b = jsonio.parse_scalar(K, inp["b"])
    if verdict == "solution":
        x, growth_ok = _regrown(a, b, outcome["x"], outcome.get("growth"))
        _check(checks, "solve: re-substitution",
               semilinear._residual_ok(a, b, x, x.hi))
        cert = rings.membership(x, ring)
        _check(checks, "solve: membership re-check",
               growth_ok and cert["verdict"] == "yes"
               and jsonio.render(cert) == outcome.get("membership"), ring=ring)
    elif verdict == "no_solution":
        reason = outcome["reason"]
        wit = outcome.get("witness") or {}
        if reason == "QthRootMissing":
            va = a.valuation()
            if va is INF:
                try:
                    b.sigma(-1)
                    ok = False
                except NoRoot:
                    ok = True
            else:
                # the root regime: the solver's recursion, replayed, must
                # stop at the witnessed exponent with the witnessed rhs
                ok = va > 0 and b.known_nonzero()
                if ok:
                    miss = semilinear.force_roots(
                        a, b, int(outcome["requested_precision"]))[2]
                    ok = miss is not None and jsonio.render(miss) == wit
            _check(checks, "solve: missing q-th root re-check", ok)
        elif reason in ("CoefficientNotIntegral", "PrincipalPartViolation",
                        "UnboundedCoefficientValuations"):
            x, growth_ok = _regrown(a, b, outcome["x_bk"])
            _check(checks, "solve: big-field solution re-substitutes",
                   semilinear._residual_ok(a, b, x, x.hi))
            cert = rings.membership(x, ring)
            _check(checks, f"solve: {reason} re-check",
                   growth_ok and cert["verdict"] == "no"
                   and jsonio.render(cert.get("witness")) == outcome.get("witness"),
                   ring=ring)
        elif reason == "CoefficientEquationUnsolvable":
            a0 = jsonio.parse_elem(K, wit["a0"])
            rhs = jsonio.parse_elem(K, wit["rhs"])
            n = int(wit["z_exponent"])
            # the solver meets this equation for an exact constant a = a0
            # over finite bases only; x -> x^q - a0*x is F_p-linear
            # there, so the equation has no root iff rhs lies outside
            # its image
            ok = (K.kind == "finite" and a.support() == [0] and a.is_exact()
                  and a.coeff(0) == a0 and n < b.hi and b.coeff(n) == rhs)
            if ok:
                ok = elimination.solve_mod_p(semilinear._additive_map(K, a0),
                                         list(rhs.c), K.ff.p) is None
            _check(checks, "solve: unsolvable coefficient equation", ok)
        else:
            _check(checks, f"solve: unknown reason {reason}", False)
    else:
        _check(checks, "solve: inconclusive makes no claim", True)


def _replay_tate(inp, result, checks, policy):
    if "tate" not in result:
        _check(checks, "tate: no certificate claimed", True)
        return
    M = jsonio.parse_isocrystal(inp, _z_prec(policy))
    tate_doc = result["tate"]
    N = int(tate_doc["z_precision"])
    e = int(tate_doc["extension"])
    r = M.rank
    K = M.K
    B = _parse_matrix(K, tate_doc["twist"])
    lat = tate_doc["lattice"]
    T = Lattice(K, _parse_matrix(K, lat["basis"]), [int(v) for v in lat["pivots"]])
    # a canonical basis has monomial pivots z^e_i, so T is invertible
    # over K((z)); the twist must be T^-1 A sigma(T), i.e. T B = A sigma(T),
    # known on a common window that reaches the z-precision
    lattice_ok = (lat["kind"] == "lattice" and lat["base"] == jsonio.render_field(K)
                  and lat["rank"] == r == T.rank
                  and lattice_eq(hnf_reduce(K, T.columns(), r), T))
    _check(checks, "tate: lattice is a canonical full lattice", lattice_ok)
    twist_ok = False
    if lattice_ok:
        got = conjugated_matrix(M, T, prec=max(N + 4, DEFAULT_Z_PREC))
        twist_ok = all(b.agrees_with(c) and min(b.hi, c.hi) >= N
                       for rb, rc in zip(B, got) for b, c in zip(rb, rc))
    _check(checks, "tate: twist is the input in the lattice basis", twist_ok)
    if not twist_ok:
        # the degree is read off the report's twist, at a cost that its
        # claimed extension would set
        return
    # the theorem behind `split_degree`: N(B)^e = 1 mod z^N, and no
    # smaller power of N(B) is
    try:
        least = tateweil.split_degree(B, N, e)
    except (ExtensionExhausted, InputError):
        least = None
    _check(checks, "tate: extension is the least degree that splits the twist",
           least == e)
    if least != e:
        # the rest is replayed over the claimed degree's field, whose
        # size the report would set
        return
    L = K.extend(e)
    BL = zmatrix.lift(B, L)
    mb = _parse_matrix(L, tate_doc["module_basis"])

    def agree(got, want):
        return all(g.truncate(N).agrees_with(w.truncate(N))
                   for g, w in zip(got, want))

    _check(checks, "tate: module generators are fixed",
           all(agree(zmatrix.matvec(BL, [s.sigma(1) for s in vec]), vec)
               for vec in mb), extension=e)
    # freeness: the p-span of z^n g^t mb_i must have full dimension r N a,
    # where g generates the q-element coefficient field over the prime field
    ff = L.ff
    p, nL = ff.p, ff.n
    aq = K.desc.a
    gen = semilinear.fq_generator(L, aq)
    rows = []
    for vec in mb:
        scaled = vec
        for _ in range(aq):
            for n in range(N):
                probe = [s.shift(n).truncate(N) for s in scaled]
                rows.append(semilinear._vec_coords(probe, N, nL))
            scaled = [s.scale(gen) for s in scaled]
    full = len(elimination.rref_mod_p(rows, p)[1]) == r * N * aq
    _check(checks, "tate: span has full free-module dimension", full,
           dimension=r * N * aq)
    F = _parse_matrix(K, tate_doc["frobenius"])
    dv = zmatrix.det(F).valuation()
    _check(checks, "tate: frobenius determinant is a unit", dv == 0)
    # column j of the action: Frob(mb_j) == sum_i mb_i F[i][j]
    act = zmatrix.mul(zmatrix.transpose(mb), zmatrix.lift(F, L))
    kpow = aq * K.desc.m * K.ext
    _check(checks, "tate: frobenius matrix reproduces the action",
           all(agree([row[j] for row in act],
                     [semilinear._series_frob(s, kpow) for s in mb[j]])
               for j in range(r)))


def _replay_weil(inp, result, checks, policy):
    """Re-substitute the conjugator u and, once it holds, recompute the
    whole Weil block from u and compare renderings."""
    if "weil" not in result:
        _check(checks, "weil: no certificate claimed", True)
        return
    E = jsonio.parse_drinfeld(inp)
    claimed = dict(result["weil"])
    e = int(claimed["extension"])
    # L, of the report's degree, is built for coefficient arrays of it only
    n = E.K.desc.a * E.K.desc.m * E.K.ext * e
    if e < 1 or any(len(c) != n for _, c in claimed["conjugator"]["tauinv_coeffs"]):
        _check(checks, "weil: conjugator re-substitutes", False, extension=e)
        return
    L = E.K.extend(e)
    u = jsonio.parse_skewlaurent(L, claimed["conjugator"])
    resubstitutes = tateweil.conjugator_resubstitutes(E, u)
    _check(checks, "weil: conjugator re-substitutes", resubstitutes)
    if not resubstitutes:
        # the table is read off the conjugator, which the report has
        # just been shown not to hold
        return
    k_max = len(claimed["table"])
    # an empty table is no evidence, and recomputes to nothing
    got = jsonio.render(tateweil.weil_table(E, u, k_max)) if k_max else {}
    commutes = got.pop("commutes_with_iota", None)
    claimed_commutes = claimed.pop("commutes_with_iota")
    _check(checks, "weil: table is linear and admissible", got == claimed)
    _check(checks, "weil: commutes with the twist", commutes == claimed_commutes)


REGISTRY = {
    "analyze": _replay_analyze,
    "isocrystal purity": _replay_isocrystal_purity,
    "tate": _replay_tate,
    "weil": _replay_weil,
    "solve": _replay_solve,
}


def verify_report(doc):
    """Replay every claim of a report; the list of checks."""
    cmd = doc.get("command", "")
    checks = []
    replay = REGISTRY.get(cmd)
    if replay is None:
        _check(checks, f"no replay defined for {cmd!r}", False)
        return checks
    result = doc.get("result", {})
    try:
        replay(doc.get("input"), result, checks, doc.get("policy", {}))
    except PrecisionLoss as exc:
        _check(checks, "replay: the report's windows cover its claims", False,
               detail=str(exc))
    expected = verdict_of(cmd, result)
    if doc.get("verdict") != expected:
        _check(checks, "verdict: the report's verdict matches its result", False,
               claimed=doc.get("verdict"), expected=expected)
    return checks


def run_verify(doc):
    """The verify report of the report doc, and its exit code: 0 when
    every check replays, else 4."""
    if doc.get("kind") != "report":
        raise InputError("verify expects a report produced by this tool")
    try:
        checks = verify_report(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(
            f"report is missing fields the replay needs: {exc!r}"
        ) from None
    ok = all(c["ok"] for c in checks)
    out = {
        "kind": "verify_report",
        "tool": {"name": "taumod", "version": __version__},
        "command": doc.get("command"),
        "checks": checks,
        "verdict": "ok" if ok else "failed",
    }
    return out, (0 if ok else 4)
