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
import json
import pathlib
import sys

from taumod import __version__, commands, jsonio, tateweil, verify
from taumod.errors import (
    BudgetExceeded,
    CoercionError,
    InputError,
    NoRoot,
    NotInvertible,
    PrecisionLoss,
    TaumodError,
)
from taumod.isocrystal import Inconclusive, dual, purity_check, slopes_finiteK, tensor
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


# -- weil -------------------------------------------------------------------


def cmd_weil(args):
    policy = _policy(args)
    E = jsonio.parse_drinfeld(_load_json_arg(args.input))
    result = _budgeted("weil", lambda: tateweil.weil_valuation(
        E, N=policy.tauinv_prec, e_max=policy.ext_max, k_max=args.k_max))
    return _report("weil", policy, jsonio.render(E), result)


# -- verify -----------------------------------------------------------------


def cmd_verify(args):
    return verify.run_verify(_load_json_arg(args.input))


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
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{ind}- [{i}]:")
                    _md_walk(v, depth + 1, lines)
                else:
                    lines.append(f"{ind}- [{i}]: {_md_scalar(v)}")


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


# the handlers of analyze, solve and corpus are `taumod.commands.cmd_<name>`
_HANDLERS = {
    "isocrystal": cmd_isocrystal,
    "tate": cmd_tate,
    "weil": cmd_weil,
    "verify": cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = _HANDLERS.get(args.cmd) or getattr(commands, f"cmd_{args.cmd}")
    try:
        doc, code = handler(args)
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
