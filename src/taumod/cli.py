"""Deterministic command line driver.

Every command reads JSON, computes, and writes a report whose bytes
depend only on the input and the echoed precision policy: keys are
sorted, timings are never recorded, and parallel corpus runs aggregate
in a fixed order.  JSON is the source of truth; --format md renders
the same tree for reading.

Exit codes: a report's exit code is a function of its verdict, which
the report kind's entry in `taumod.verdicts.VERDICTS` derives from the
result: 3 for inconclusive or budget_exhausted (the partial report is
still written), else 0, definite negatives such as no_solution or
not_pure included.  An error report exits 2 for malformed input, 3 for
an exhausted window or budget, 4 for a failed internal invariant;
`verify` exits 4 when a certificate does not replay.
"""

import argparse
import functools
import json
import os
import pathlib
import sys

from taumod import __version__, drinfeld, jsonio, semilinear, tateweil, verify
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
    NotPureAt,
    dual,
    purity_check,
    slopes_finiteK,
    tensor,
)
from taumod.verdicts import verdict_of

_SCHEMA_ERRORS = (InputError, CoercionError, NotInvertible)
_BUDGET_ERRORS = (PrecisionLoss, BudgetExceeded, NoRoot)


def _error_class(exc):
    """(corpus item verdict, exit code) of a library error."""
    if isinstance(exc, _SCHEMA_ERRORS):
        return "input_error", 2
    if isinstance(exc, _BUDGET_ERRORS):
        return "inconclusive", 3
    return "invariant_violation", 4


class PrecisionPolicy:
    """Knobs echoed verbatim into every report.

    ext_max bounds the degree [L : K] of the coefficient extension that
    tate and weil may use: weil sweeps the degrees from 1, and tate reads
    its degree off the twist (`tateweil.split_degree`).  A tower that
    needs a larger degree ends budget_exhausted (exit 3). zeta_window
    echoes the default window of `FieldDescriptor`; no flag sets it, and
    a base read from the input may carry its own.
    """

    __slots__ = ("z_prec", "tauinv_prec", "ext_max", "purity_max_iters", "seed")
    zeta_window = (-8, 8)

    def __init__(self, z_prec=8, tauinv_prec=16, ext_max=8, purity_max_iters=32,
                 seed=None):
        self.z_prec = z_prec
        self.tauinv_prec = tauinv_prec
        self.ext_max = ext_max
        self.purity_max_iters = purity_max_iters
        self.seed = seed

    def as_dict(self):
        return {"z_prec": self.z_prec, "zeta_window": list(self.zeta_window),
                "tauinv_prec": self.tauinv_prec, "ext_max": self.ext_max,
                "purity_max_iters": self.purity_max_iters, "seed": self.seed}


def _policy(args):
    if args.prec_z < 1:
        raise InputError(f"--prec-z must be at least 1, got {args.prec_z}")
    if args.prec_tau < 1:
        raise InputError(f"--prec-tau must be at least 1, got {args.prec_tau}")
    return PrecisionPolicy(
        z_prec=args.prec_z,
        tauinv_prec=args.prec_tau,
        ext_max=args.ext_max,
        purity_max_iters=args.max_iters,
        seed=args.seed,
    )


def _report(command, policy, input_obj, result):
    """The report and its exit code, both functions of the verdict that
    the result implies."""
    verdict = verdict_of(command, result)
    doc = {
        "kind": "report",
        "tool": {"name": "taumod", "version": __version__},
        "command": command,
        "policy": policy.as_dict(),
        "input": input_obj,
        "result": result,
        "verdict": verdict,
    }
    return doc, (3 if verdict in ("inconclusive", "budget_exhausted") else 0)


def _budgeted(key, compute):
    """The rendered outcome of compute() under `key` (an inconclusive one
    under "certificate"), or the record of the budget it exhausted."""
    try:
        out = compute()
    except BudgetExceeded as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}
    return {"certificate" if isinstance(out, Inconclusive) else key:
            jsonio.render(out)}


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
    M = drinfeld.m_infinity(E)
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
        "motive_checks": jsonio.render(drinfeld.MOTIVE_COKER),  # run by m_infinity
        "infinity_purity": jsonio.render(cert),
    }
    if E.K.kind == "finite":
        result["slopes"] = jsonio.render(slopes_finiteK(M))
    else:
        rep = drinfeld.reduction_type(E)
        result["reduction"] = jsonio.render(rep)
        result["crosscheck"] = jsonio.render(drinfeld.crit_crosscheck(E, M, cert))
    return result


def cmd_analyze(args):
    policy = _policy(args)
    E = jsonio.parse_drinfeld(_load_json_arg(args.input))
    return _report("analyze", policy, jsonio.render(E), run_analyze(E, policy))


# -- isocrystal -------------------------------------------------------------


def cmd_isocrystal(args):
    policy = _policy(args)
    M, A_inv = jsonio.parse_isocrystal(_load_json_arg(args.input), policy.z_prec, True)
    if args.op == "tensor":
        if args.other is None:
            raise InputError("tensor needs --other")
        N2 = jsonio.parse_isocrystal(_load_json_arg(args.other), policy.z_prec)
        T = tensor(M, N2)
        result = {"rank": T.rank, "product": jsonio.render(T)}
    elif args.op == "dual":
        D = dual(M, A_inv=A_inv)
        result = {"rank": D.rank, "dual": jsonio.render(D)}
    elif args.op == "purity":
        if args.s is None or args.r is None:
            raise InputError("purity needs --s and --r")
        cert = purity_check(M, args.s, args.r,
                            max_iters=policy.purity_max_iters,
                            prec=policy.z_prec)
        result = {"certificate": jsonio.render(cert)}
    else:
        result = {"slopes": jsonio.render(slopes_finiteK(M))}
    return _report(f"isocrystal {args.op}", policy, jsonio.render(M), result)


def cmd_tate(args):
    policy = _policy(args)
    M = jsonio.parse_isocrystal(_load_json_arg(args.input), policy.z_prec)
    result = _budgeted("tate", lambda: tateweil.tate_slope0(
        M, N=policy.z_prec, e_max=policy.ext_max,
        max_iters=policy.purity_max_iters, prec=policy.z_prec + 4))
    return _report("tate", policy, jsonio.render(M), result)


# -- solve ------------------------------------------------------------------


def _parse_solve_sides(a_doc, b_doc):
    Ka = jsonio.parse_field(jsonio._need(a_doc, "base", "solve input a"))
    Kb = jsonio.parse_field(jsonio._need(b_doc, "base", "solve input b"))
    if Ka is not Kb:
        raise InputError("a and b must live over the same base")
    a = jsonio.parse_scalar(Ka, jsonio._need(a_doc, "value", "solve input a"))
    b = jsonio.parse_scalar(Ka, jsonio._need(b_doc, "value", "solve input b"))
    return Ka, a, b


def cmd_solve(args):
    policy = _policy(args)
    K, a, b = _parse_solve_sides(_load_json_arg(args.a), _load_json_arg(args.b))
    out = semilinear.solve_scalar(a, b, args.ring, prec=policy.z_prec)
    input_echo = {
        "base": jsonio.render_field(K),
        "a": jsonio.render(a),
        "b": jsonio.render(b),
        "ring": args.ring,
    }
    return _report("solve", policy, input_echo, jsonio.render(out))


# -- weil -------------------------------------------------------------------


def cmd_weil(args):
    policy = _policy(args)
    E = jsonio.parse_drinfeld(_load_json_arg(args.input))
    result = _budgeted("weil", lambda: tateweil.weil_valuation(
        E, N=policy.tauinv_prec, e_max=policy.ext_max, k_max=args.k_max))
    return _report("weil", policy, jsonio.render(E), result)


# -- corpus -----------------------------------------------------------------


def _corpus_item(name, payload, policy):
    kind = payload.get("kind") if isinstance(payload, dict) else None
    try:
        if kind == "drinfeld":
            E = jsonio.parse_drinfeld(payload)
            command, result = "analyze", run_analyze(E, policy)
            verdict = verdict_of(command, result)
        elif kind == "isocrystal":
            M = jsonio.parse_isocrystal(payload, policy.z_prec)
            command, result, verdict = "isocrystal", {"rank": M.rank}, "ok"
            sr = payload.get("purity")
            if sr is not None:
                cert = purity_check(M, int(sr[0]), int(sr[1]),
                                    max_iters=policy.purity_max_iters,
                                    prec=policy.z_prec)
                result["certificate"] = jsonio.render(cert)
                verdict = verdict_of("isocrystal purity", result)
            if M.K.kind == "finite":
                result["slopes"] = jsonio.render(slopes_finiteK(M))
        elif kind == "solve_problem":
            K = jsonio.parse_field(jsonio._need(payload, "base", name))
            a = jsonio.parse_scalar(K, jsonio._need(payload, "a", name))
            b = jsonio.parse_scalar(K, jsonio._need(payload, "b", name))
            ring = payload.get("ring", "BK")
            prec = int(payload.get("prec", policy.z_prec))
            out = jsonio.render(semilinear.solve_scalar(a, b, ring, prec=prec))
            command, result = "solve", {"outcome": out}
            verdict = verdict_of(command, out)
        else:
            raise InputError(f"unknown payload kind {kind!r}")
        return {"name": name, "command": command, "result": result,
                "verdict": verdict}
    except TaumodError as exc:
        return {"name": name, "command": "error", "verdict": _error_class(exc)[0],
                "error": {"type": type(exc).__name__, "detail": str(exc)}}


def cmd_corpus(args):
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    policy = _policy(args)
    root = pathlib.Path(args.dir)
    if args.generate:
        from taumod import corpusgen

        root.mkdir(parents=True, exist_ok=True)
        files = corpusgen.corpus_files(policy.seed or 0)
        for fname, payload in files:
            (root / fname).write_text(jsonio.dump_tree(payload))
        return _report("corpus generate", policy, {"seed": policy.seed or 0},
                       {"count": len(files)})
    if not root.is_dir():
        raise InputError(f"corpus directory {root} does not exist")
    paths = sorted(root.rglob("*.json"), key=lambda p: p.name)
    names = [p.name for p in paths]
    for i in range(1, len(names)):
        if names[i] == names[i - 1]:
            raise InputError(f"duplicate corpus filename {names[i]!r}")
    payloads = [jsonio.loads(p.read_text()) for p in paths]
    work = functools.partial(_corpus_item, policy=policy)
    # worker processes, since threads share one interpreter lock
    workers = min(args.jobs, os.cpu_count() or 1, len(payloads))
    if workers > 1:
        # imported here: `-X importtime` puts the two at about 10 ms,
        # which every request that runs no pool would pay
        import concurrent.futures
        import multiprocessing

        # forked, so a worker starts with the package imported and the
        # fields built; a fresh interpreter per worker costs more than
        # a corpus of small items takes. The modules the items run load
        # on first use (see taumod/__init__.py): run them once, here,
        # rather than once in every worker.
        _ = drinfeld.m_infinity, semilinear.solve_scalar
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork")) as ex:
            items = list(ex.map(work, names, payloads))
    else:
        items = list(map(work, names, payloads))
    counts = {}
    for item in items:
        counts[item["verdict"]] = counts.get(item["verdict"], 0) + 1
    return _report("corpus", policy, {"count": len(items)},
                   {"verdict_counts": counts, "items": items})


# -- verify -----------------------------------------------------------------


def cmd_verify(args):
    doc = _load_json_arg(args.input)
    if doc.get("kind") != "report":
        raise InputError("verify expects a report produced by this tool")
    try:
        checks = verify.verify_report(doc)
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
        stream.write(jsonio.dump_tree(doc))


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
    p.add_argument("op", choices=("tensor", "dual", "purity", "slopes"))
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
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per core and item")
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
    except TaumodError as exc:
        code = _error_class(exc)[1]
        doc = _error_doc(exc, code)
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
