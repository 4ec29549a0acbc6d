"""The command line grammar against the argparse parser it replaced.

`taumod.cli.parse_args` reads the command line from one table. The
reference below is the argparse parser the CLI used before, kept as
`dense_oracle` keeps old kernels: on well-formed command lines both give
the same attributes, and both refuse malformed ones with exit 2.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

import pytest

from taumod import __version__, cli
from taumod.zseries import ZSeries

from test_cli import F3L, solve_side

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

del sys.path[0]


def argparse_parser():
    """The parser of `taumod.cli` before its table."""
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


def _parsed(parse, argv):
    """(exit code or None, attributes, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return None, got, out.getvalue(), err.getvalue()


def exits(argv):
    """(exit code, stdout, stderr) of `taumod.cli.main` on a command line
    that it answers before any command runs."""
    code, _, out, err = _parsed(cli.main, argv)
    return code, out, err


def both(argv):
    """The attributes of argv under the table and under argparse, which
    must be equal."""
    got = _parsed(cli.parse_args, list(argv))
    want = _parsed(argparse_parser().parse_args, list(argv))
    assert got[0] is want[0] is None, (argv, got, want)
    assert got[1] == want[1], argv
    return got[1]


def _plan_argvs(tmp_path):
    argvs = []
    for workload in ("rank", "tower"):
        for seed in (0, 1):
            d = tmp_path / f"{workload}{seed}"
            inputs.write_plan(workload, seed, d)
            for req in json.loads((d / "plan.json").read_text()):
                argvs.append(req["argv"])
                if req["verify"]:
                    argvs.append(["verify", "--input", f"{req['name']}.report.json"])
    return argvs


def base_argvs(tmp_path):
    K = F3L.field()
    a, b = ZSeries.z(K, -1), ZSeries(K, {-1: -K.zeta(-1)})
    return _plan_argvs(tmp_path) + [
        ["analyze", "--input", "module.json"],
        ["corpus", "--dir", str(tmp_path), "--jobs", "1"],
        ["corpus", "--generate", "--seed", "3", "--dir", str(tmp_path)],
        ["solve", "--ring", "BK", "--prec-z", "6",
         "--a", solve_side(K, a), "--b", solve_side(K, b)],
    ]


# shortened flags, each a prefix that names one flag of every command
# that has it
PREFIXES = {"--input": "--inp", "--prec-tau": "--prec-t", "--ext-max": "--ext",
            "--jobs": "--j", "--generate": "--gen", "--seed": "--se", "--dir": "--d",
            "--ring": "--ri", "--k-max": "--k"}


def _pairs(argv):
    """(command words, [flag, value or None] pairs) of a well-formed argv."""
    head = argv[:2] if argv[0] == "isocrystal" else argv[:1]
    pairs, rest = [], argv[len(head):]
    while rest:
        if rest[0] == "--generate":
            pairs.append([rest.pop(0), None])
        else:
            pairs.append([rest.pop(0), rest.pop(0)])
    return head, pairs


def _join(head, pairs, inline=False):
    out = list(head)
    for flag, value in pairs:
        if value is None:
            out.append(flag)
        elif inline:
            out.append(f"{flag}={value}")
        else:
            out += [flag, value]
    return out


def variants(argv):
    head, pairs = _pairs(argv)
    yield argv
    yield _join(head, pairs, inline=True)
    # options before the isocrystal operation, and in reverse order
    yield _join(head[:1], pairs[::-1]) + head[1:]
    yield _join(head, [[PREFIXES.get(f, f), v] for f, v in pairs])
    yield argv + ["--prec-t", "8"]
    # --s is the slope numerator of isocrystal and a prefix of --seed
    # elsewhere
    yield argv + ["--s", "-1"]
    yield _join(head, [["--s", "-1"]] + pairs, inline=True)
    yield argv + ["--prec-z", "9", "--max-iters", "3", "--prec-z", "11"]


def test_well_formed_argvs_parse_as_argparse_did(tmp_path):
    seen = set()
    for argv in base_argvs(tmp_path):
        for variant in variants(argv):
            got = both(variant)
            seen.add(got["cmd"])
    assert seen == set(cli.COMMANDS)
    # the variants reach each rule: the last value of a repeated flag,
    # negative values, prefixes and inline values
    got = both(["isocrystal", "--s=-2", "--prec-t=5", "--s", "3", "purity",
                "--inp", "x", "--r", "4"])
    assert (got["s"], got["prec_tau"], got["input"], got["op"]) == (3, 5, "x", "purity")
    got = both(["weil", "--s", "-1", "--input", "-", "--k", "2"])
    assert (got["seed"], got["input"], got["k_max"]) == (-1, "-", 2)
    got = both(["isocrystal", "--input", "-3", "--format", "md", "--", "dual"])
    assert (got["input"], got["format"], got["op"]) == ("-3", "md", "dual")


MALFORMED = {
    "no command": [],
    "unknown command": ["frobnicate", "--input", "x"],
    "unknown flag": ["tate", "--input", "x", "--bogus", "1"],
    "unknown short flag": ["tate", "-x", "--input", "x"],
    "missing required flag": ["tate"],
    "missing operation": ["isocrystal", "--input", "x"],
    "bad int": ["isocrystal", "purity", "--s", "one", "--r", "1", "--input", "x"],
    "bad choice": ["isocrystal", "slopes", "--format", "xml", "--input", "x"],
    "bad operation": ["isocrystal", "trace", "--input", "x"],
    "flag with no value": ["tate", "--input"],
    "flag followed by a flag": ["tate", "--input", "--prec-z", "3"],
    "extra positional": ["tate", "--input", "x", "extra"],
    "second operation": ["isocrystal", "slopes", "dual", "--input", "x"],
    "ambiguous prefix": ["tate", "--prec", "3", "--input", "x"],
    "value on a switch": ["corpus", "--dir", "d", "--generate=yes"],
    "flag before the command": ["--prec-z", "3", "tate", "--input", "x"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_argv_exits_2_with_usage_on_stderr(case):
    argv = MALFORMED[case]
    code, out, err = exits(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: taumod") and "\ntaumod: error: " in err
    assert _parsed(argparse_parser().parse_args, argv)[0] == 2


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["isocrystal", "-h"],
                                  ["corpus", "--dir", "d", "--he"]])
def test_help_lists_every_flag_and_exits_0(argv):
    code, out, err = exits(argv)
    assert (code, err) == (0, "") and out.startswith("usage: taumod")
    shown = set(cli.COMMANDS) if argv[0] in ("-h", "--help") else {argv[0]}
    for cmd in shown:
        text, pos, flags = cli.COMMANDS[cmd]
        assert text in out
        for flag in flags + cli._COMMON:
            assert f"{flag[0]} " in out and flag[4] in out
    if argv == ["isocrystal", "-h"]:
        assert "{tensor,dual,purity,slopes}" in out and "--dir" not in out


def test_version():
    for argv in (["--version"], ["--vers", "tate"]):
        assert exits(argv) == (0, f"{__version__}\n", "")
