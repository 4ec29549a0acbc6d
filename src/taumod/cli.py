"""Deterministic command line driver.

Every command reads JSON, computes, and writes a report whose bytes
depend only on the input and the echoed precision policy: keys are
sorted, timings are never recorded, and parallel corpus runs aggregate
in a fixed order.  JSON is the source of truth; --format md renders
the same tree for reading.

Exit codes: 0 for a definite result (definite negatives such as
no_solution or not_pure included), 2 for malformed input, 3 when a
window or budget ends before a verdict (the partial report is still
written), 4 when an internal invariant fails or a certificate does
not replay.
"""

import argparse
import concurrent.futures
import json
import pathlib
import sys
from dataclasses import asdict, dataclass

from taumod import __version__, corpusgen, jsonio
from taumod.drinfeld import crit_crosscheck, m_infinity, motive, reduction_type
from taumod.errors import (
    BudgetExceeded,
    CoercionError,
    InputError,
    InvariantError,
    NoRoot,
    NotInvertible,
    PrecisionLoss,
    TaumodError,
)
from taumod.isocrystal import (
    Inconclusive,
    Lattice,
    NotPureAt,
    dual,
    hnf_reduce,
    lattice_eq,
    purity_check,
    slopes_finiteK,
    tensor,
)
import numpy as np

from taumod import kernels
from taumod.semilinear import (
    _frob_mat, _mult_mat, _series_frob, _vec_coords, fq_generator, solve_scalar,
)
from taumod.skew import SkewLaurent, SkewPoly
from taumod.tateweil import tate_slope0, weil_valuation
from taumod.zseries import INF, ZSeries
from taumod import zmatrix

_SCHEMA_ERRORS = (InputError, CoercionError, NotInvertible)
_BUDGET_ERRORS = (PrecisionLoss, BudgetExceeded, NoRoot)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Knobs echoed verbatim into every report.

    ext_max bounds the degree [L : K] of the coefficient extension that
    the tate and weil sweeps try, degree by degree from 1.  A tower that
    needs a larger degree ends budget_exhausted (exit 3).
    """

    z_prec: int = 8
    zeta_window: tuple = (-8, 8)
    tauinv_prec: int = 16
    ext_max: int = 8
    purity_max_iters: int = 32
    seed: int = None

    def as_dict(self):
        d = asdict(self)
        d["zeta_window"] = list(self.zeta_window)
        return d


def _policy(args):
    return PrecisionPolicy(
        z_prec=args.prec_z,
        tauinv_prec=args.prec_tau,
        ext_max=args.ext_max,
        purity_max_iters=args.max_iters,
        seed=args.seed,
    )


def _report(command, policy, input_obj, result, verdict):
    return {
        "kind": "report",
        "tool": {"name": "taumod", "version": __version__},
        "command": command,
        "policy": policy.as_dict(),
        "input": input_obj,
        "result": result,
        "verdict": verdict,
    }


def _load_json_arg(val):
    """A CLI value is inline JSON if it looks like an object, else a path."""
    if val.lstrip().startswith("{"):
        return jsonio.loads(val)
    try:
        text = pathlib.Path(val).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {val}: {exc}") from None
    return jsonio.loads(text)


# -- analyze ----------------------------------------------------------------


def run_analyze(E, policy):
    """Rank, t-image, motive checks, infinity purity; reduction if valued."""
    r = E.rank
    mot = motive(E)
    M = m_infinity(E)
    cert = purity_check(M, -1, r, max_iters=policy.purity_max_iters,
                        prec=policy.z_prec)
    if isinstance(cert, NotPureAt):
        raise InvariantError(
            "the infinity twist of a module input must be pure of slope -1/r"
        )
    result = {
        "rank": r,
        "q": E.K.q,
        "iota": {"t_image": jsonio.render(E.coeffs[0])},
        "motive_checks": jsonio.render(mot.coker),
        "infinity_purity": jsonio.render(cert),
    }
    verdict = "inconclusive" if isinstance(cert, Inconclusive) else "ok"
    if E.K.kind == "finite":
        result["slopes"] = jsonio.render(slopes_finiteK(M))
    else:
        rep = reduction_type(E)
        result["reduction"] = jsonio.render(rep)
        result["crosscheck"] = jsonio.render(
            crit_crosscheck(E, max_iters=policy.purity_max_iters,
                            prec=policy.z_prec)
        )
    return result, verdict


def cmd_analyze(args):
    policy = _policy(args)
    E = jsonio.parse_drinfeld(_load_json_arg(args.input))
    result, verdict = run_analyze(E, policy)
    doc = _report("analyze", policy, jsonio.render(E), result, verdict)
    return doc, (3 if verdict == "inconclusive" else 0)


# -- isocrystal -------------------------------------------------------------


def _purity_verdict(cert_doc):
    """Verdict of a rendered purity certificate."""
    return {"purity_certificate": "pure",
            "not_pure_at": "not_pure"}.get(cert_doc["kind"], "inconclusive")


def cmd_isocrystal(args):
    policy = _policy(args)
    M = jsonio.parse_isocrystal(_load_json_arg(args.input))
    if args.op == "tensor":
        if args.other is None:
            raise InputError("tensor needs --other")
        N2 = jsonio.parse_isocrystal(_load_json_arg(args.other))
        T = tensor(M, N2)
        result = {"rank": T.rank, "product": jsonio.render(T)}
        verdict, code = "ok", 0
    elif args.op == "dual":
        D = dual(M)
        result = {"rank": D.rank, "dual": jsonio.render(D)}
        verdict, code = "ok", 0
    elif args.op == "purity":
        if args.s is None or args.r is None:
            raise InputError("purity needs --s and --r")
        cert = purity_check(M, args.s, args.r,
                            max_iters=policy.purity_max_iters,
                            prec=policy.z_prec)
        result = {"certificate": jsonio.render(cert)}
        verdict = _purity_verdict(result["certificate"])
        code = 3 if verdict == "inconclusive" else 0
    elif args.op == "slopes":
        sl = slopes_finiteK(M)
        result = {"slopes": jsonio.render(sl)}
        verdict, code = "ok", 0
    else:  # tate
        return _tate_doc(M, policy, "isocrystal tate")
    doc = _report(f"isocrystal {args.op}", policy, jsonio.render(M),
                  result, verdict)
    return doc, code


def _tate_doc(M, policy, command):
    try:
        td = tate_slope0(M, N=policy.z_prec, e_max=policy.ext_max,
                         prec=policy.z_prec + 4)
    except BudgetExceeded as exc:
        doc = _report(command, policy, jsonio.render(M),
                      {"error": type(exc).__name__, "detail": str(exc)},
                      "budget_exhausted")
        return doc, 3
    if isinstance(td, Inconclusive):
        doc = _report(command, policy, jsonio.render(M),
                      {"certificate": jsonio.render(td)}, "inconclusive")
        return doc, 3
    doc = _report(command, policy, jsonio.render(M),
                  {"tate": jsonio.render(td)}, "ok")
    return doc, 0


def cmd_tate(args):
    policy = _policy(args)
    M = jsonio.parse_isocrystal(_load_json_arg(args.input))
    return _tate_doc(M, policy, "tate")


# -- solve ------------------------------------------------------------------


def _parse_solve_sides(a_doc, b_doc):
    Ka = jsonio.parse_field(jsonio._need(a_doc, "base", "solve input a"))
    Kb = jsonio.parse_field(jsonio._need(b_doc, "base", "solve input b"))
    if jsonio.render_field(Ka) != jsonio.render_field(Kb):
        raise InputError("a and b must live over the same base")
    a = jsonio.parse_scalar(Ka, jsonio._need(a_doc, "value", "solve input a"))
    b = jsonio.parse_scalar(Ka, jsonio._need(b_doc, "value", "solve input b"))
    return Ka, a, b


def cmd_solve(args):
    policy = _policy(args)
    K, a, b = _parse_solve_sides(_load_json_arg(args.a), _load_json_arg(args.b))
    out = solve_scalar(a, b, args.ring, prec=policy.z_prec)
    input_echo = {
        "base": jsonio.render_field(K),
        "a": jsonio.render(a),
        "b": jsonio.render(b),
        "ring": args.ring,
    }
    verdict = out["verdict"]
    doc = _report("solve", policy, input_echo, jsonio.render(out), verdict)
    return doc, (3 if verdict == "inconclusive" else 0)


# -- weil -------------------------------------------------------------------


def cmd_weil(args):
    policy = _policy(args)
    E = jsonio.parse_drinfeld(_load_json_arg(args.input))
    try:
        wd = weil_valuation(E, N=policy.tauinv_prec, e_max=policy.ext_max,
                            k_max=args.k_max)
    except BudgetExceeded as exc:
        doc = _report("weil", policy, jsonio.render(E),
                      {"error": type(exc).__name__, "detail": str(exc)},
                      "budget_exhausted")
        return doc, 3
    doc = _report("weil", policy, jsonio.render(E),
                  {"weil": jsonio.render(wd)},
                  "admissible" if wd.admissible else "not_admissible")
    return doc, 0


# -- corpus -----------------------------------------------------------------


def _corpus_item(name, payload, policy):
    kind = payload.get("kind") if isinstance(payload, dict) else None
    try:
        if kind == "drinfeld":
            E = jsonio.parse_drinfeld(payload)
            result, verdict = run_analyze(E, policy)
            return {"name": name, "command": "analyze",
                    "result": result, "verdict": verdict}
        if kind == "isocrystal":
            M = jsonio.parse_isocrystal(payload)
            result = {"rank": M.rank}
            sr = payload.get("purity")
            if sr is not None:
                cert = purity_check(M, int(sr[0]), int(sr[1]),
                                    max_iters=policy.purity_max_iters,
                                    prec=policy.z_prec)
                result["certificate"] = jsonio.render(cert)
                verdict = _purity_verdict(result["certificate"])
            else:
                verdict = "ok"
            if M.K.kind == "finite":
                result["slopes"] = jsonio.render(slopes_finiteK(M))
            return {"name": name, "command": "isocrystal",
                    "result": result, "verdict": verdict}
        if kind == "solve_problem":
            K = jsonio.parse_field(jsonio._need(payload, "base", name))
            a = jsonio.parse_scalar(K, jsonio._need(payload, "a", name))
            b = jsonio.parse_scalar(K, jsonio._need(payload, "b", name))
            ring = payload.get("ring", "BK")
            prec = int(payload.get("prec", policy.z_prec))
            out = solve_scalar(a, b, ring, prec=prec)
            return {"name": name, "command": "solve",
                    "result": {"outcome": jsonio.render(out)},
                    "verdict": out["verdict"]}
        raise InputError(f"unknown payload kind {kind!r}")
    except _SCHEMA_ERRORS as exc:
        return {"name": name, "command": "error", "verdict": "input_error",
                "error": {"type": type(exc).__name__, "detail": str(exc)}}
    except _BUDGET_ERRORS as exc:
        return {"name": name, "command": "error", "verdict": "inconclusive",
                "error": {"type": type(exc).__name__, "detail": str(exc)}}
    except TaumodError as exc:
        return {"name": name, "command": "error",
                "verdict": "invariant_violation",
                "error": {"type": type(exc).__name__, "detail": str(exc)}}


def cmd_corpus(args):
    policy = _policy(args)
    root = pathlib.Path(args.dir)
    if args.generate:
        root.mkdir(parents=True, exist_ok=True)
        files = corpusgen.corpus_files(policy.seed or 0)
        for fname, payload in files:
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            (root / fname).write_text(text)
        doc = _report("corpus generate", policy, {"seed": policy.seed or 0},
                      {"count": len(files)}, "ok")
        return doc, 0
    if not root.is_dir():
        raise InputError(f"corpus directory {root} does not exist")
    paths = sorted(root.rglob("*.json"), key=lambda p: p.name)
    names = [p.name for p in paths]
    for i in range(1, len(names)):
        if names[i] == names[i - 1]:
            raise InputError(f"duplicate corpus filename {names[i]!r}")
    payloads = []
    for p in paths:
        payloads.append((p.name, jsonio.loads(p.read_text())))

    def work(pair):
        return _corpus_item(pair[0], pair[1], policy)

    if args.jobs > 1 and len(payloads) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as ex:
            items = list(ex.map(work, payloads))
    else:
        items = [work(pair) for pair in payloads]
    counts = {}
    for item in items:
        counts[item["verdict"]] = counts.get(item["verdict"], 0) + 1
    doc = _report("corpus", policy, {"count": len(items)},
                  {"verdict_counts": counts, "items": items}, "ok")
    return doc, 0


# -- verify -----------------------------------------------------------------


def _check(checks, name, ok, **detail):
    entry = {"name": name, "ok": bool(ok)}
    entry.update(detail)
    checks.append(entry)


def _fp_row_rank(rows, p):
    mat = np.array(rows, dtype=np.int64) % p
    ker = kernels.nullspace_mod_p(mat.T.tolist(), mat.shape[0], p)
    return mat.shape[0] - len(ker)


def _parse_lattice(K, d):
    basis = [[jsonio.parse_zseries(K, cell) for cell in row]
             for row in d["basis"]]
    return Lattice(K, basis, [int(e) for e in d["pivots"]])


def _replay_purity(M, cert_doc, checks, label):
    """Re-check stability of the certified lattice, not the search."""
    s, r = int(cert_doc["s"]), int(cert_doc["r"])
    T = _parse_lattice(M.K, cert_doc["lattice"])
    A_r = M.tau_power(r)
    img = zmatrix.mul(A_r, zmatrix.sigma(T.basis, r))
    cols = [[img[i][j].shift(-s) for i in range(M.rank)]
            for j in range(M.rank)]
    T_img = hnf_reduce(M.K, cols, M.rank)
    _check(checks, f"{label}: tau^r T == z^s T", lattice_eq(T, T_img),
           s=s, r=r)


def _replay_solve(inp, outcome, checks):
    K = jsonio.parse_field(inp["base"])
    verdict = outcome["verdict"]
    ring = outcome["ring"]
    a = jsonio.parse_scalar(K, inp["a"])
    b = jsonio.parse_scalar(K, inp["b"])

    def residual_zero(x):
        res = x.sigma() - (a * x + b)
        hi = min(res.hi, x.hi if x.hi is not INF else res.hi)
        lo = x.val_lower_bound()
        return not any(K.known_nonzero(c) for e, c in res.co.items()
                       if lo <= e < hi)

    if verdict == "solution":
        x = jsonio.parse_zseries(K, outcome["x"])
        _check(checks, "solve: re-substitution", residual_zero(x))
        cert = x.membership(ring)
        _check(checks, "solve: membership re-check",
               cert["verdict"] == "yes", ring=ring)
    elif verdict == "no_solution":
        reason = outcome["reason"]
        wit = outcome.get("witness") or {}
        if reason == "QthRootMissing":
            ok = False
            try:
                if "rhs" in wit:
                    K.qth_root(jsonio.parse_elem(K, wit["rhs"]))
                else:
                    b.sigma(-1)
            except NoRoot:
                ok = True
            _check(checks, "solve: missing q-th root re-check", ok)
        elif reason in ("CoefficientNotIntegral", "PrincipalPartViolation",
                        "UnboundedCoefficientValuations"):
            x = jsonio.parse_zseries(K, outcome["x_bk"])
            _check(checks, "solve: big-field solution re-substitutes",
                   residual_zero(x))
            cert = x.membership(ring)
            _check(checks, f"solve: {reason} re-check",
                   cert["verdict"] == "no", ring=ring)
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
                ff = K.ff
                lin = (_frob_mat(ff, K.desc.a) - _mult_mat(ff, a0)) % ff.p
                ok = kernels.solve_mod_p(lin.tolist(), list(rhs.c), ff.p) is None
            _check(checks, "solve: unsolvable coefficient equation", ok)
        else:
            _check(checks, f"solve: unknown reason {reason}", False)
    else:
        _check(checks, "solve: inconclusive makes no claim", True)


def _replay_tate(M, tate_doc, checks):
    N = int(tate_doc["z_precision"])
    e = int(tate_doc["extension"])
    r = M.rank
    K = M.K
    L = K.extend(e)
    B = [[jsonio.parse_zseries(K, cell) for cell in row]
         for row in tate_doc["twist"]]
    mb = [[jsonio.parse_zseries(L, cell) for cell in vec]
          for vec in tate_doc["module_basis"]]
    BL = zmatrix.lift(B, L)
    ok = True
    for vec in mb:
        img = zmatrix.matvec(BL, [s.sigma(1) for s in vec])
        for got, want in zip(img, vec):
            if not got.truncate(N).agrees_with(want.truncate(N)):
                ok = False
    _check(checks, "tate: module generators are fixed", ok, extension=e)
    # freeness: the p-span of z^n g^t mb_i must have full dimension r N a,
    # where g generates the q-element coefficient field over the prime field
    ff = L.ff
    p, nL = ff.p, ff.n
    aq = K.desc.a
    gen = fq_generator(L, aq)
    rows = []
    for vec in mb:
        scaled = vec
        for _ in range(aq):
            for n in range(N):
                probe = [s.shift(n).truncate(N) for s in scaled]
                rows.append(_vec_coords(probe, N, nL))
            scaled = [s.scale(gen) for s in scaled]
    full = _fp_row_rank(rows, p) == r * N * aq
    _check(checks, "tate: span has full free-module dimension", full,
           dimension=r * N * aq)
    F = [[jsonio.parse_zseries(K, cell) for cell in row]
         for row in tate_doc["frobenius"]]
    dv = zmatrix.det(F).valuation()
    _check(checks, "tate: frobenius determinant is a unit", dv == 0)
    # column j of the action: Frob(mb_j) == sum_i F[i][j] mb_i
    FL = zmatrix.lift(F, L)
    kpow = aq * K.desc.m * K.ext
    ok = True
    for j in range(r):
        img = [_series_frob(s, kpow) for s in mb[j]]
        for coord in range(r):
            acc = ZSeries.zero(L)
            for i in range(r):
                acc = acc + FL[i][j] * mb[i][coord]
            if not acc.truncate(N).agrees_with(img[coord].truncate(N)):
                ok = False
    _check(checks, "tate: frobenius matrix reproduces the action", ok)


def _replay_weil(E, weil_doc, checks):
    e = int(weil_doc["extension"])
    L = E.K.extend(e)
    u = jsonio.parse_skewlaurent(L, weil_doc["conjugator"])
    r = E.rank
    phi = SkewPoly(L, {i: L.coerce(c) for i, c in
                       enumerate(E.coeffs)}).to_laurent()
    rhs = (SkewLaurent.tau_inv(L, r) * u) * phi
    _check(checks, "weil: conjugator re-substitutes", u.agrees_with(rhs))
    lam_n, lam_d = weil_doc["lam"]
    ok_rows = True
    for row in weil_doc["table"]:
        vd_n, vd_d = row["v_D"]
        if bool(row["admissible"]) != (vd_n * lam_d == lam_n * row["ord"] * vd_d):
            ok_rows = False
        if row["v_tauinv"] != row["k"] * weil_doc["table"][0]["v_tauinv"]:
            ok_rows = False
    _check(checks, "weil: table is linear and admissible", ok_rows)
    _check(checks, "weil: commutes with the twist",
           bool(weil_doc["commutes_with_iota"]))


def _replay_reduction(E, rep_doc, checks):
    rep = reduction_type(E)
    got = jsonio.render(rep)
    same = (got["verdict"] == rep_doc["verdict"]
            and got["m"] == rep_doc["m"]
            and got["certificates"] == rep_doc["certificates"])
    _check(checks, "reduction: valuation table re-evaluates", same)


def _expected_verdict(cmd, result):
    """The top-level verdict that `result` implies, or None for commands
    that have no replay."""
    if cmd == "solve":
        return result["verdict"]
    if cmd == "isocrystal purity":
        return _purity_verdict(result["certificate"])
    if cmd == "weil":
        if "weil" not in result:
            return "budget_exhausted"
        return "admissible" if result["weil"]["admissible"] else "not_admissible"
    if cmd in ("tate", "isocrystal tate"):
        if "tate" in result:
            return "ok"
        return "inconclusive" if "certificate" in result else "budget_exhausted"
    if cmd == "analyze":
        cert = result["infinity_purity"]
        return "inconclusive" if cert["kind"] == "inconclusive" else "ok"
    return None


def verify_report(doc):
    cmd = doc.get("command", "")
    checks = []
    inp = doc.get("input")
    result = doc.get("result", {})
    if cmd == "analyze":
        E = jsonio.parse_drinfeld(inp)
        cert = result.get("infinity_purity", {})
        if cert.get("kind") == "purity_certificate":
            _replay_purity(m_infinity(E), cert, checks, "infinity purity")
        if "reduction" in result:
            _replay_reduction(E, result["reduction"], checks)
    elif cmd == "isocrystal purity":
        M = jsonio.parse_isocrystal(inp)
        cert = result.get("certificate", {})
        if cert.get("kind") == "purity_certificate":
            _replay_purity(M, cert, checks, "purity")
        else:
            _check(checks, "purity: no lattice claimed", True)
    elif cmd in ("tate", "isocrystal tate"):
        M = jsonio.parse_isocrystal(inp)
        if "tate" in result:
            _replay_tate(M, result["tate"], checks)
        else:
            _check(checks, "tate: no certificate claimed", True)
    elif cmd == "weil":
        E = jsonio.parse_drinfeld(inp)
        if "weil" in result:
            _replay_weil(E, result["weil"], checks)
        else:
            _check(checks, "weil: no certificate claimed", True)
    elif cmd == "solve":
        _replay_solve(inp, result, checks)
    else:
        _check(checks, f"no replay defined for {cmd!r}", False)
    expected = _expected_verdict(cmd, result)
    if expected is not None and doc.get("verdict") != expected:
        _check(checks, "verdict: the report's verdict matches its result", False,
               claimed=doc.get("verdict"), expected=expected)
    return checks


def cmd_verify(args):
    doc = _load_json_arg(args.input)
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


# -- rendering --------------------------------------------------------------


def _md_scalar(v):
    return json.dumps(v, sort_keys=True)


def _md_walk(obj, depth, lines):
    ind = "  " * depth
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{ind}- **{k}**:")
                _md_walk(v, depth + 1, lines)
            else:
                lines.append(f"{ind}- **{k}**: {_md_scalar(v)}")
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(f"{ind}- {_md_scalar(obj)}")
        else:
            for i, v in enumerate(obj):
                lines.append(f"{ind}- [{i}]:")
                _md_walk(v, depth + 1, lines)


def to_markdown(doc):
    head = doc.get("command") or doc.get("kind", "report")
    lines = [f"# taumod {head}", ""]
    _md_walk(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _emit(doc, fmt, stream):
    if fmt == "md":
        stream.write(to_markdown(doc))
    else:
        stream.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# -- argument parsing -------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec-z", type=int, default=8,
                        help="z-adic working precision")
    common.add_argument("--prec-tau", type=int, default=16,
                        help="inverse-twist expansion precision")
    common.add_argument("--ext-max", type=int, default=8,
                        help="largest degree of coefficient field extension "
                             "to sweep; a tower needing more ends "
                             "budget_exhausted (exit 3)")
    common.add_argument("--max-iters", type=int, default=32,
                        help="iteration budget for lattice searches")
    common.add_argument("--seed", type=int, default=None,
                        help="seed echoed in reports and used by --generate")
    common.add_argument("--format", choices=("json", "md"), default="json")

    ap = argparse.ArgumentParser(
        prog="taumod",
        description="semilinear algebra over function fields: "
                    "certificates, slopes, and reduction reports",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full report for one module input")
    p.add_argument("--input", required=True)

    p = sub.add_parser("isocrystal", parents=[common],
                       help="operations on twist matrices")
    p.add_argument("op", choices=("tensor", "dual", "purity", "slopes", "tate"))
    p.add_argument("--input", required=True)
    p.add_argument("--other", default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--r", type=int, default=None)

    p = sub.add_parser("solve", parents=[common],
                       help="sigma(x) = a x + b in a named ring")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--ring", choices=("AK", "BOK", "Bbar", "BK"),
                   default="BK")

    p = sub.add_parser("tate", parents=[common],
                       help="fixed points of a slope-zero twist")
    p.add_argument("--input", required=True)

    p = sub.add_parser("weil", parents=[common],
                       help="Frobenius valuation of the induced action")
    p.add_argument("--input", required=True)
    p.add_argument("--k-max", type=int, default=4)

    p = sub.add_parser("corpus", parents=[common],
                       help="run every instance file in a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--generate", action="store_true",
                   help="write the seeded instance families instead")

    p = sub.add_parser("verify", parents=[common],
                       help="replay the certificates inside a report")
    p.add_argument("--input", required=True)
    return ap


_HANDLERS = {
    "analyze": cmd_analyze,
    "isocrystal": cmd_isocrystal,
    "solve": cmd_solve,
    "tate": cmd_tate,
    "weil": cmd_weil,
    "corpus": cmd_corpus,
    "verify": cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        doc, code = _HANDLERS[args.cmd](args)
    except _SCHEMA_ERRORS as exc:
        doc, code = _error_doc(exc, 2), 2
    except _BUDGET_ERRORS as exc:
        doc, code = _error_doc(exc, 3), 3
    except TaumodError as exc:
        doc, code = _error_doc(exc, 4), 4
    _emit(doc, args.format, sys.stdout)
    return code


def _error_doc(exc, code):
    return {
        "kind": "error_report",
        "tool": {"name": "taumod", "version": __version__},
        "error": type(exc).__name__,
        "detail": str(exc),
        "exit": code,
    }


if __name__ == "__main__":
    sys.exit(main())
