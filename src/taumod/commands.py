"""Handlers of the `analyze`, `solve` and `corpus` commands.

`taumod.cli` parses every command and runs `isocrystal`, `tate`, `weil`
and `verify` itself; the requests of those commands never run these
handlers, so this module loads on first use (see taumod/__init__.py).
`corpus` runs the analysis or the solve of each item's kind, loads
`corpusgen` only for `--generate`, and runs no `tateweil`.
"""

import functools
import os
import pathlib

from taumod import drinfeld, jsonio, localfield, rings, semilinear
from taumod.cli import _error_class, _load_json_arg, _policy, _report
from taumod.errors import InputError, InvariantError, TaumodError
from taumod.isocrystal import NotPureAt, purity_check, slopes_finiteK
from taumod.verdicts import verdict_of


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
                if not (isinstance(sr, list) and len(sr) == 2
                        and all(type(v) is int for v in sr)):
                    raise InputError(f"'purity' must be [s, r], two integers, got {sr!r}")
                cert = purity_check(M, sr[0], sr[1],
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
            prec = payload.get("prec", policy.z_prec)
            if type(prec) is not int or prec < 1:
                raise InputError(f"'prec' must be an integer of at least 1, got {prec!r}")
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
        _ = drinfeld.m_infinity, semilinear.solve_scalar, localfield.LocalK, rings.membership
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
