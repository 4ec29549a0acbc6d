"""Deterministic command line driver.

Every command reads JSON, computes, and writes a report whose bytes
depend only on the input and the echoed precision policy: keys are
sorted, timings are never recorded, and parallel corpus runs aggregate
in a fixed order.  JSON is the source of truth; --format md renders
the same tree for reading.

The command line is `taumod [-h | --version] COMMAND [OP] [FLAGS]`, read
by `parse_args` from one table (`COMMANDS`, plus `_COMMON`, the flags of
every command). Flags and the isocrystal operation OP come in any order
after COMMAND; a flag takes its value as the next word or inline
(`--prec-z=12`), a value may be a negative number (`--s -1`), a long
flag may be shortened to any prefix that names it alone (`--prec-t 8`),
and when a flag repeats its last value counts. `-h`/`--help` prints the
usage of every command, or of one after its name, and exits 0. A
malformed command line writes its usage and `taumod: error: ...` on
stderr, nothing on stdout, and exits 2, as `argparse` did; the table
parser spares each request the import of argparse, gettext and locale.

Exit codes: a report's exit code is a function of its verdict, which
the report kind's entry in `taumod.verdicts.VERDICTS` derives from the
result: 3 for inconclusive or budget_exhausted (the partial report is
still written), else 0, definite negatives such as no_solution or
not_pure included.  An error report exits 2 for malformed input, 3 for
an exhausted window or budget, 4 for a failed internal invariant;
`verify` exits 4 when a certificate does not replay.
"""

import atexit
import json
import os
import pathlib
import re
import sys
from types import SimpleNamespace

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


# -- command line -----------------------------------------------------------

# A flag: (name, kind, default, required, help), kind int, str, bool (a
# switch, set by its name alone) or the tuple of its choices. The parsed
# value goes to the attribute named as the flag without its leading
# dashes, each "-" an "_" (`--prec-z` -> `prec_z`).
_COMMON = (
    ("--prec-z", int, 8, False, "z-adic working precision"),
    ("--prec-tau", int, 16, False, "inverse-twist expansion precision"),
    ("--ext-max", int, 8, False,
     "largest degree of coefficient field extension to sweep; a tower "
     "needing more ends budget_exhausted (exit 3)"),
    ("--max-iters", int, 32, False, "iteration budget for lattice searches"),
    ("--seed", int, None, False, "seed echoed in reports and used by --generate"),
    ("--format", ("json", "md"), "json", False, "report format"),
)
_INPUT = ("--input", str, None, True, "input: inline JSON object or a file")
# command -> (help, (positional name, choices) or None, its own flags)
COMMANDS = {
    "analyze": ("full report for one module input", None, (_INPUT,)),
    "isocrystal": ("operations on twist matrices",
                   ("op", ("tensor", "dual", "purity", "slopes")), (
        _INPUT,
        ("--other", str, None, False, "second twist, for tensor"),
        ("--s", int, None, False, "slope numerator, for purity"),
        ("--r", int, None, False, "slope denominator, for purity"))),
    "solve": ("sigma(x) = a x + b in a named ring", None, (
        ("--a", str, None, True, "coefficient a: inline JSON object or a file"),
        ("--b", str, None, True, "coefficient b: inline JSON object or a file"),
        ("--ring", ("AK", "BOK", "Bbar", "BK"), "BK", False, "ring of the solution"))),
    "tate": ("fixed points of a slope-zero twist", None, (_INPUT,)),
    "weil": ("Frobenius valuation of the induced action", None, (
        _INPUT, ("--k-max", int, 4, False, "largest power of Frobenius in the Weil table"))),
    "corpus": ("run every instance file in a directory", None, (
        ("--dir", str, None, True, "directory of instance files"),
        ("--jobs", int, 1, False, "worker processes, at most one per core and item"),
        ("--generate", bool, False, False,
         "write the seeded instance families instead"))),
    "verify": ("replay the certificates inside a report", None, (
        ("--input", str, None, True, "report: inline JSON object or a file"),)),
}
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _dest(name):
    return name[2:].replace("-", "_")


def _flag_line(flag):
    name, kind, default, required, text = flag
    if kind is not bool:
        name += " " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                       else _dest(name).upper())
    note = " (required)" if required else "" if default in (None, False) else (
        f" (default {default})")
    return f"  {name:28} {text}{note}"


def _usage(cmd):
    if cmd is None:
        return f"usage: taumod [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    pos = COMMANDS[cmd][1]
    return f"usage: taumod {cmd} [-h]{' {' + ','.join(pos[1]) + '}' if pos else ''} [options]"


def _help(cmd):
    """The usage, then every command (or the one named) with its help
    and flags, then the flags of every command."""
    lines = [_usage(cmd), ""]
    if cmd is None:
        lines += ["semilinear algebra over function fields: certificates, slopes, "
                  "and reduction reports", ""]
    for name in COMMANDS if cmd is None else (cmd,):
        text, pos, flags = COMMANDS[name]
        lines.append(f"{name}: {text}")
        if pos:
            lines.append(f"  {pos[0]:28} one of {', '.join(pos[1])}")
        lines += map(_flag_line, flags)
    lines += ["options of every command:", *map(_flag_line, _COMMON)]
    return "\n".join(lines) + "\n"


def _fail(cmd, message):
    """Refuse a malformed command line as argparse does: usage and error
    on stderr, nothing on stdout, exit 2."""
    sys.stderr.write(f"{_usage(cmd)}\ntaumod: error: {message}\n")
    raise SystemExit(2)


def _choice(cmd, name, value, choices):
    if value not in choices:
        listed = ", ".join(f"'{c}'" for c in choices)
        _fail(cmd, f"argument {name}: invalid choice: '{value}' (choose from {listed})")


def _option(tok, names, cmd):
    """(flag name or "" if unknown, explicit value or None) of an
    option-like token, or None for a value: a token not starting with "-",
    "-" or "--" itself, a negative number, or a token with a space. A
    "--" name may be shortened to a unique prefix, and "--name=value"
    gives its value inline."""
    if tok[:1] != "-" or tok in ("-", "--"):
        return None
    if tok in names:
        return tok, None
    head, eq, value = tok.partition("=")
    if eq and head in names:
        return head, value
    hits = [n for n in names if n.startswith(head)] if tok[:2] == "--" else ()
    if len(hits) > 1:
        _fail(cmd, f"ambiguous option: {head} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    return None if _NEGATIVE.match(tok) or " " in tok else ("", None)


def parse_args(argv=None):
    """The command line as an object with one attribute per flag (see
    `_COMMON`), plus `cmd` and, for isocrystal, `op`; the accepted
    grammar is in the module docstring. Before the command only -h,
    --help and --version are flags."""
    argv = list(sys.argv[1:] if argv is None else argv)
    cmd, names, flags, pos = None, ("-h", "--help", "--version"), {}, None
    if argv and _option(argv[0], names, None) is None:
        cmd = argv.pop(0)
        _choice(None, "cmd", cmd, COMMANDS)
        _, pos, own = COMMANDS[cmd]
        flags = {flag[0]: flag for flag in own + _COMMON}
        names = ("-h", "--help", *flags)
    args = SimpleNamespace(cmd=cmd, **{_dest(n): flag[2] for n, flag in flags.items()})
    words, given, rest = [], set(), iter(argv)
    for tok in rest:
        if tok == "--":
            words += rest  # every word after "--" is a value
            break
        got = _option(tok, names, cmd)
        if got is None:
            words.append(tok)
            continue
        name, value = got
        kind = flags[name][1] if name in flags else None
        if not name:
            _fail(cmd, f"unrecognized arguments: {tok}")
        if kind in (None, bool) and value is not None:
            _fail(cmd, f"argument {name}: ignored explicit argument '{value}'")
        if kind is None:
            sys.stdout.write(f"{__version__}\n" if name == "--version" else _help(cmd))
            raise SystemExit(0)
        if kind is bool:
            value = True
        elif value is None:
            value = next(rest, "--")
            if value == "--" or _option(value, names, cmd):
                _fail(cmd, f"argument {name}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(cmd, f"argument {name}: invalid int value: '{value}'")
        elif isinstance(kind, tuple):
            _choice(cmd, name, value, kind)
        setattr(args, _dest(name), value)
        given.add(name)
    if pos and words:
        _choice(cmd, pos[0], words[0], pos[1])
        setattr(args, pos[0], words.pop(0))
        pos = None
    missing = ["cmd"] if cmd is None else [pos[0]] if pos else []
    missing += [name for name, flag in flags.items() if flag[3] and name not in given]
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if words:
        _fail(cmd, f"unrecognized arguments: {' '.join(words)}")
    return args


# the handlers of analyze, solve and corpus are `taumod.commands.cmd_<name>`
_HANDLERS = {
    "isocrystal": cmd_isocrystal,
    "tate": cmd_tate,
    "weil": cmd_weil,
    "verify": cmd_verify,
}


def main(argv=None):
    args = parse_args(argv)
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


def run(argv=None):
    """Answer one request as the process's last act: exit with the code
    of `main(argv)`, skipping the interpreter's teardown when nothing
    needs it.

    A request is a fresh process, and after its report is written
    CPython's finalization clears every module and frees every object
    left alive, which the end of the process releases anyway. Measured
    with `bench/startup.py` (median CPU of 9 fresh processes per
    request, shared 2-vCPU machine), ending by `sys.exit` after `main`
    cost a median 7.4 ms more than ending by `run` over the 26 requests
    it lists (the `rank` and `tower` benchmark plans, their verifies and
    `corpus`), 172 ms in all; `python3 -c pass` itself ends 8 ms sooner
    by `os._exit` than by `sys.exit`, for the modules its `site`
    imports. So once `main` returns, `run` calls the callbacks
    registered with `atexit` and flushes stdout and stderr, in the
    interpreter's order, and ends the process by `os._exit`.

    It keeps the interpreter's exit, `sys.exit(code)`, where teardown
    may still be needed:
      * a tracer or profiler is set (`sys.gettrace`, `sys.getprofile`
        or a `sys.monitoring` tool): its wrapper, such as `python -m
        cProfile`, writes its output after the program ends;
      * a thread besides the main one is alive: the interpreter joins it
        before the `atexit` callbacks;
      * the interpreter goes on after the program (`python -i`);
      * flushing stdout or stderr raises, as on a closed pipe: the
        interpreter reports it as it does without `run`.
    An exception or `SystemExit` from `main` (a malformed command line,
    `--help`, `--version`) propagates as it does from `main`. The process
    writes the bytes and exits with the code of `sys.exit(main(argv))`;
    in-process callers call `main`.
    """
    code = main(argv)
    threading = sys.modules.get("threading")  # threads start through it
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    if (sys.gettrace() or sys.getprofile() or sys.flags.inspect
            or (monitoring and any(map(monitoring.get_tool, range(6))))  # tool ids
            or (threading and threading.active_count() > 1)):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
