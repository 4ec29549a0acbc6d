"""CLI surface: exit codes, report shapes, replayability, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from taumod import corpusgen, jsonio, rings, semilinear, zmatrix
from taumod.basefield import FieldDescriptor, get_field
from taumod.cli import PrecisionPolicy, main, to_markdown
from taumod.drinfeld import DrinfeldModule
from taumod.errors import NotInvertible, PrecisionLoss
from taumod.isocrystal import Isocrystal, simple_pure, unit
from taumod.zseries import ZSeries

from dense_oracle import tabled

INF = math.inf
SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "v1"

# sha256 of `taumod corpus --jobs 1` on the corpus of `corpus --generate --seed 0`
SEED0_CORPUS_SHA256 = "9213789ffe1791f7da5c17d001a672f1032d59c708eab707b8424159f08ce9f7"

F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
F3F = FieldDescriptor(p=3, a=1, m=1, kind="finite")
F9F = FieldDescriptor(p=3, a=2, m=1, kind="finite")


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv)
    return code, json.loads(out)


def _registry():
    resources = []
    for p in sorted(SCHEMA_DIR.glob("*.schema.json")):
        doc = json.loads(p.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validate(name, doc):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    Draft202012Validator(schema, registry=REGISTRY).validate(doc)


def finite_module():
    K = F9F.field()
    return DrinfeldModule(K, [K.gen(), K.one(), K.one()])


def local_module():
    K = F3L.field()
    return DrinfeldModule(K, [K.zeta(), K.el(1), K.el(1) + K.zeta(1)])


def monomial_module():
    # phi_t = g + tau^2 over F_9: rank r = 2, base degree m = 1
    K = F9F.field()
    return DrinfeldModule(K, [K.gen(), K.zero(), K.one()])


def mono(K, c, k=0):
    return ZSeries(K, {k: K.el(c)} if c else {}, INF)


def pivot_window_twist():
    """P A sigma(P)^-1 over F_25 for a constant A in GL_3: (K, the twist
    matrix, the isocrystal input). Its inverse needs more than the
    default z-precision to settle its last pivot column."""
    K = FieldDescriptor(p=5, a=1, m=2, kind="finite").field()
    rng = random.Random("pivot-window")
    P = [[mono(K, 1), mono(K, 1, -2), mono(K, 1, -1)],
         [mono(K, 0), mono(K, 1, 1), mono(K, 1, -1)],
         [mono(K, 0), mono(K, 0), mono(K, 1)]]
    while True:
        A = [[ZSeries(K, {0: K.random(rng)}, INF) for _ in range(3)]
             for _ in range(3)]
        if zmatrix.det(A).valuation() == 0:
            break
    B = zmatrix.mul(zmatrix.mul(P, A), zmatrix.sigma(zmatrix.inv(P), 1))
    inp = {"base": jsonio.render_field(K),
           "tau_matrix": [[jsonio.render(x) for x in row] for row in B]}
    return K, B, inp


def dense_twist():
    """A dense rank-4 twist P A sigma(P)^-1 over F_9 of the pure A of
    slope 1/4, P = I + N with N strictly lower triangular, so that
    P^-1 = I - N + N^2 - N^3."""
    K = F9F.field()
    r = 4
    rng = random.Random("numpy-free-twist")
    N = zmatrix.zeros(K, r, r)
    for i in range(r):
        for j in range(i):
            N[i][j] = ZSeries(K, {0: K.el([rng.randrange(3), 1]),
                                  1: K.el([1, rng.randrange(3)])}, INF)
    P, P_inv, term = zmatrix.identity(K, r), zmatrix.identity(K, r), N
    for k in range(1, r):
        P_inv = [[x - y if k % 2 else x + y for x, y in zip(rx, ry)]
                 for rx, ry in zip(P_inv, term)]
        term = zmatrix.mul(term, N)
    P = [[x + y for x, y in zip(rx, ry)] for rx, ry in zip(P, N)]
    A = zmatrix.mul(zmatrix.mul(P, simple_pure(K, 1, r).A), zmatrix.sigma(P_inv))
    return Isocrystal(K, A)


def solve_side(K, x):
    return json.dumps({
        "base": json.loads(jsonio.dump_canonical(K)),
        "value": json.loads(jsonio.dump_canonical(x)),
    })


class TestAnalyze:
    def test_finite_report_shape(self):
        code, doc = run_json(["analyze", "--input", jsonio.dump_canonical(finite_module())])
        assert code == 0
        validate("report.schema.json", doc)
        assert doc["command"] == "analyze"
        assert doc["policy"]["z_prec"] == 8
        assert doc["result"]["infinity_purity"]["kind"] == "purity_certificate"
        assert doc["result"]["slopes"] == [[-1, 2]] * 2

    def test_local_report_has_reduction(self):
        code, doc = run_json(["analyze", "--input", jsonio.dump_canonical(local_module())])
        assert code == 0
        red = doc["result"]["reduction"]
        assert red["kind"] == "reduction_report"
        assert doc["result"]["crosscheck"]["verdict"] in (
            "agree", "agree_after_extension", "obstruction_recorded")

    def test_same_input_same_bytes(self):
        arg = jsonio.dump_canonical(finite_module())
        _, out1 = run(["analyze", "--input", arg])
        _, out2 = run(["analyze", "--input", arg])
        assert out1 == out2

    def test_stable_analyze_builds_each_object_once(self, monkeypatch):
        # the Stable module of the crosscheck tests: one motive, one purity
        # search, and the obstruction copies that search's outcome
        import taumod.commands
        import taumod.drinfeld

        calls = {"motive": 0, "purity_check": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        motive = counted("motive", taumod.drinfeld.motive)
        purity = counted("purity_check", taumod.commands.purity_check)
        for mod in (taumod.commands, taumod.drinfeld):
            monkeypatch.setattr(mod, "motive", motive, raising=False)
            monkeypatch.setattr(mod, "purity_check", purity, raising=False)
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-1), K.one()])
        code, doc = run_json(["analyze", "--input", jsonio.dump_canonical(E)])
        assert code == 0 and calls == {"motive": 1, "purity_check": 1}
        res = doc["result"]
        assert res["crosscheck"]["verdict"] == "obstruction_recorded"
        cert = res["infinity_purity"]
        assert res["crosscheck"]["obstruction"]["generic_purity"] == {
            "pivots": cert["lattice"]["pivots"],
            "iterations": cert["iterations"]}

    def test_policy_flags_echoed(self):
        code, doc = run_json(["analyze", "--prec-z", "6", "--seed", "5",
                              "--input", jsonio.dump_canonical(finite_module())])
        assert code == 0
        assert doc["policy"]["z_prec"] == 6 and doc["policy"]["seed"] == 5


class TestErrors:
    def test_malformed_json_exits_2(self):
        code, doc = run_json(["analyze", "--input", "{broken"])
        assert code == 2
        validate("error_report.schema.json", doc)

    def test_missing_file_exits_2(self):
        code, doc = run_json(["analyze", "--input", "/nonexistent/path.json"])
        assert code == 2 and doc["error"] == "InputError"

    def test_wrong_payload_kind_exits_2(self):
        code, doc = run_json(["tate", "--input", jsonio.dump_canonical(finite_module())])
        assert code == 2

    def test_tate_rejects_nonzero_slope(self):
        M = simple_pure(F9F.field(), -1, 2)
        code, doc = run_json(["tate", "--input", jsonio.dump_canonical(M)])
        assert code == 2 and doc["kind"] == "error_report"

    def test_pivot_zero_only_to_its_window_exits_3(self):
        # at the default precision the candidates of the inverse's last
        # pivot column are zero only to their windows: a precision loss
        K, B, inp = pivot_window_twist()
        code, doc = run_json(["isocrystal", "slopes", "--input", json.dumps(inp)])
        assert code == 3 and doc["error"] == "PrecisionLoss"
        with pytest.raises(PrecisionLoss):
            zmatrix.inv(B)
        assert zmatrix.agrees(zmatrix.mul(B, zmatrix.inv(B, prec=30)),
                              zmatrix.identity(K, 3))
        # a pivot column of exact zeros is singular
        with pytest.raises(NotInvertible):
            zmatrix.inv([[mono(K, 1), mono(K, 1, 1)], [mono(K, 0), mono(K, 0)]])

    def test_prec_z_widens_the_inverse_window(self):
        # the same input read at --prec-z 30 inverts: slopes and purity
        # answer, and the purity report replays at the precision it echoes
        _, _, inp = pivot_window_twist()
        code, doc = run_json(["isocrystal", "slopes", "--prec-z", "30",
                              "--input", json.dumps(inp)])
        assert code == 0 and doc["result"]["slopes"] == [[0, 1]] * 3
        code, doc = run_json(["isocrystal", "purity", "--s", "0", "--r", "1",
                              "--prec-z", "30", "--input", json.dumps(inp)])
        assert code == 0 and doc["verdict"] == "pure"
        code, ver = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 0 and ver["verdict"] == "ok"

    def test_prec_z_reaches_tensor_and_dual(self):
        # the input is inverted once, at --prec-z, where it is read; the
        # product is not inverted again, and the dual inverts at --prec-z
        K, B, inp = pivot_window_twist()
        code, doc = run_json(["isocrystal", "tensor", "--prec-z", "30",
                              "--input", json.dumps(inp),
                              "--other", jsonio.dump_canonical(unit(K, 1))])
        assert code == 0 and doc["result"]["product"]["rank"] == 3
        code, doc = run_json(["isocrystal", "dual", "--prec-z", "30",
                              "--input", json.dumps(inp)])
        assert code == 0 and doc["result"]["dual"]["rank"] == 3
        D = jsonio.parse_isocrystal(doc["result"]["dual"], 30)
        assert zmatrix.agrees(zmatrix.mul(zmatrix.transpose(D.A), B),
                              zmatrix.identity(K, 3))

    def test_dual_inverts_once(self, monkeypatch):
        # the inverse that checks the input where it is read is the one
        # the dual transposes
        _, _, inp = pivot_window_twist()
        calls, inv = [], zmatrix.inv

        def counted(*args, **kwargs):
            calls.append(args)
            return inv(*args, **kwargs)

        monkeypatch.setattr(zmatrix, "inv", counted)
        code, doc = run_json(["isocrystal", "dual", "--prec-z", "30",
                              "--input", json.dumps(inp)])
        assert code == 0 and doc["result"]["dual"]["rank"] == 3
        assert len(calls) == 1

    def test_corpus_prec_z_reaches_the_parse(self, tmp_path):
        # the corpus reads an isocrystal item at --prec-z, so the twist
        # whose inverse needs it answers
        _, _, inp = pivot_window_twist()
        item = dict(inp, kind="isocrystal", purity=[0, 1])
        (tmp_path / "pivot.json").write_text(json.dumps(item))
        code, doc = run_json(["corpus", "--dir", str(tmp_path), "--jobs", "1",
                              "--prec-z", "30"])
        assert code == 0
        [got] = doc["result"]["items"]
        assert got["verdict"] == "pure"

    def test_empty_twist_is_refused_where_it_is_read(self):
        # the parser refuses an empty tau_matrix before any isocrystal is
        # built, with the same bytes for every command that reads one
        inp = json.dumps({"base": jsonio.render_field(F9F.field()), "tau_matrix": []})
        for argv in (["isocrystal", "slopes"], ["isocrystal", "dual"], ["tate"]):
            code, out = run(argv + ["--input", inp])
            assert code == 2 and json.loads(out) == {
                "kind": "error_report", "tool": {"name": "taumod", "version": "0.1.0"},
                "error": "InputError",
                "detail": "tau_matrix must be a nonempty square array", "exit": 2}

    def test_singular_twist_exits_2(self):
        # an exactly singular twist is not an isocrystal: bad input
        K = F9F.field()
        z = ZSeries.z(K)
        inp = json.dumps({"base": jsonio.render_field(K),
                          "tau_matrix": [[jsonio.render(x) for x in row]
                                         for row in [[ZSeries.one(K), z],
                                                     [z, z * z]]]})
        for argv in (["isocrystal", "slopes"],
                     ["isocrystal", "purity", "--s", "0", "--r", "1"],
                     ["isocrystal", "dual"],
                     ["tate"]):
            code, doc = run_json(argv + ["--input", inp])
            assert code == 2 and doc["error"] == "NotInvertible", argv


    @pytest.mark.parametrize("prec", ["0", "-1"])
    def test_nonpositive_prec_z_exits_2(self, prec):
        # a z-precision below 1 is bad input, refused before the twist is
        # read, whatever the command would have answered
        inp = jsonio.dump_canonical(unit(F3F.field(), 1))
        for argv in (["tate"], ["isocrystal", "purity", "--s", "0", "--r", "1"],
                     ["isocrystal", "dual"]):
            code, doc = run_json(argv + ["--prec-z", prec, "--input", inp])
            assert code == 2 and doc["error"] == "InputError", argv
            assert doc["detail"] == f"--prec-z must be at least 1, got {prec}"

    @pytest.mark.parametrize("prec", ["0", "-1"])
    def test_nonpositive_prec_tau_exits_2(self, prec):
        # a tau^-1-precision below 1 is bad input: weil would otherwise
        # sweep every degree up to --ext-max and answer budget_exhausted
        K = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
        inp = jsonio.dump_canonical(DrinfeldModule(K, [K.zero(), K.gen()]))
        for argv in (["weil"], ["analyze"]):
            code, doc = run_json(argv + ["--prec-tau", prec, "--input", inp])
            assert code == 2 and doc["error"] == "InputError", argv
            assert doc["detail"] == f"--prec-tau must be at least 1, got {prec}"


class TestIsocrystal:
    def test_purity_certifies(self):
        M = simple_pure(F9F.field(), -1, 2)
        code, doc = run_json(["isocrystal", "purity", "--s", "-1", "--r", "2",
                              "--input", jsonio.dump_canonical(M)])
        assert code == 0 and doc["verdict"] == "pure"
        assert doc["result"]["certificate"]["kind"] == "purity_certificate"

    def test_purity_refutes(self):
        M = simple_pure(F9F.field(), -1, 2)
        code, doc = run_json(["isocrystal", "purity", "--s", "0", "--r", "1",
                              "--input", jsonio.dump_canonical(M)])
        assert code == 0 and doc["verdict"] == "not_pure"
        assert doc["result"]["certificate"]["kind"] == "not_pure_at"

    def test_slopes(self):
        M = simple_pure(F9F.field(), 1, 3)
        code, doc = run_json(["isocrystal", "slopes",
                              "--input", jsonio.dump_canonical(M)])
        assert code == 0
        assert doc["result"]["slopes"] == [[1, 3]] * 3

    def test_tensor_needs_other(self):
        M = simple_pure(F9F.field(), 1, 2)
        code, _ = run_json(["isocrystal", "tensor",
                            "--input", jsonio.dump_canonical(M)])
        assert code == 2

    def test_tensor_rank(self):
        M = simple_pure(F9F.field(), 1, 2)
        N = simple_pure(F9F.field(), -1, 3)
        code, doc = run_json(["isocrystal", "tensor",
                              "--input", jsonio.dump_canonical(M),
                              "--other", jsonio.dump_canonical(N)])
        assert code == 0 and doc["result"]["product"]["rank"] == 6


class TestSolve:
    def test_bk_solution(self):
        K = F3L.field()
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -K.zeta(-1)})
        code, doc = run_json(["solve", "--ring", "BK", "--prec-z", "6",
                              "--a", solve_side(K, a), "--b", solve_side(K, b)])
        assert code == 0 and doc["verdict"] == "solution"
        validate("report.schema.json", doc)

    def test_bbar_refusal_with_reason(self):
        K = F3L.field()
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -K.zeta(-1)})
        code, doc = run_json(["solve", "--ring", "Bbar", "--prec-z", "6",
                              "--a", solve_side(K, a), "--b", solve_side(K, b)])
        assert code == 0 and doc["verdict"] == "no_solution"
        assert doc["result"]["reason"] == "UnboundedCoefficientValuations"

    def test_additive_local_inconclusive_exits_3(self):
        K = F3L.field()
        code, doc = run_json(["solve", "--ring", "BK",
                              "--a", solve_side(K, ZSeries.one(K)),
                              "--b", solve_side(K, ZSeries(K, {0: K.zeta()}))])
        assert code == 3 and doc["verdict"] == "inconclusive"

    def test_mismatched_bases_rejected(self):
        K = F3L.field()
        K2 = FieldDescriptor(p=3, a=1, m=2, kind="local").field()
        code, _ = run_json(["solve", "--ring", "BK",
                            "--a", solve_side(K, ZSeries.one(K)),
                            "--b", solve_side(K2, ZSeries.one(K2))])
        assert code == 2


class TestSolvePathsReplay:
    """The solver paths that only a `solve` request reaches: each runs
    through `main`, is seen to reach its path, and replays through
    `verify`."""

    F9M2 = FieldDescriptor(p=3, a=1, m=2, kind="finite")

    def _replays(self, K, a, b, ring="BK"):
        code, out = run(["solve", "--ring", ring, "--prec-z", "6",
                         "--a", solve_side(K, a), "--b", solve_side(K, b)])
        assert code == 0
        vcode, vr = run_json(["verify", "--input", out])
        assert vcode == 0 and vr["verdict"] == "ok"
        assert vr["checks"] and all(c["ok"] for c in vr["checks"])
        return json.loads(out)

    @staticmethod
    def _spy(monkeypatch, owner, name):
        calls = []
        fn = getattr(owner, name)

        def spy(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_ring_ak(self, monkeypatch):
        calls = self._spy(monkeypatch, rings, "_member_ak")
        K = self.F9M2.field()
        # root regime: x has no z^-n terms; contraction from b = z^-2: x
        # has a z^-1 term, a principal part
        doc = self._replays(K, ZSeries.z(K, 1), ZSeries.one(K), "AK")
        assert doc["verdict"] == "solution"
        assert doc["result"]["membership"]["verdict"] == "yes"
        doc = self._replays(K, ZSeries.z(K, -1), ZSeries(K, {-2: K.one()}), "AK")
        assert doc["verdict"] == "no_solution"
        assert doc["result"]["reason"] == "PrincipalPartViolation"
        assert calls

    def test_a_zero(self, monkeypatch):
        calls = self._spy(monkeypatch, semilinear, "_solve_sigma_only")
        K = self.F9M2.field()
        b = ZSeries(K, {0: K.el([0, 1]), 2: K.one()})
        doc = self._replays(K, ZSeries.zero(K), b)
        assert doc["verdict"] == "solution"
        # zeta has no cube root in F_3((zeta))
        KL = F3L.field()
        doc = self._replays(KL, ZSeries.zero(KL), ZSeries(KL, {0: KL.zeta(1)}))
        assert doc["result"]["reason"] == "QthRootMissing"
        assert calls == ["_solve_sigma_only"] * 2

    def test_nonconstant_order_zero_a_over_a_finite_base(self, monkeypatch):
        calls = self._spy(monkeypatch, semilinear, "_solve_additive_window")
        K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
        a = ZSeries(K, {0: K.el(2), 1: K.one()})
        doc = self._replays(K, a, ZSeries.z(K, 1))
        assert doc["verdict"] == "solution"
        assert calls == ["_solve_additive_window"]


class TestVerify:
    def _analyze_report(self):
        _, out = run(["analyze", "--input", jsonio.dump_canonical(finite_module())])
        return out

    def test_analyze_report_replays(self, tmp_path):
        rp = tmp_path / "r.json"
        rp.write_text(self._analyze_report())
        code, doc = run_json(["verify", "--input", str(rp)])
        assert code == 0 and doc["verdict"] == "ok"
        validate("verify_report.schema.json", doc)
        assert all(c["ok"] for c in doc["checks"])

    def test_solve_report_replays(self):
        K = F3L.field()
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -K.zeta(-1)})
        _, out = run(["solve", "--ring", "BK", "--prec-z", "6",
                      "--a", solve_side(K, a), "--b", solve_side(K, b)])
        code, doc = run_json(["verify", "--input", out])
        assert code == 0 and doc["verdict"] == "ok"

    def test_tampered_solution_fails(self):
        K = F3L.field()
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -K.zeta(-1)})
        _, out = run(["solve", "--ring", "BK", "--prec-z", "6",
                      "--a", solve_side(K, a), "--b", solve_side(K, b)])
        doc = json.loads(out)
        # corrupt one solution coefficient, keep the shape intact
        pair = doc["result"]["x"]["z_coeffs"][0]
        pair[1]["coeffs"][0][1][0] = (pair[1]["coeffs"][0][1][0] + 1) % 3
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"

    def _unsolvable_report(self):
        # x^3 - x = 1 has no root in F_9: x^3 - x has trace 0 over F_3
        K = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
        one = ZSeries.one(K)
        code, out = run(["solve", "--ring", "BK",
                         "--a", solve_side(K, one), "--b", solve_side(K, one)])
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "no_solution"
        assert doc["result"]["reason"] == "CoefficientEquationUnsolvable"
        code, vr = run_json(["verify", "--input", out])
        assert code == 0 and vr["verdict"] == "ok"
        x = K.el([0, 1])  # generates F_9 over F_3
        return K, doc, x**3 - x

    def test_tampered_unsolvable_rhs_fails(self):
        # x^3 - x = -1 has no root either, but -1 is not b's coefficient
        K, doc, _ = self._unsolvable_report()
        doc["result"]["witness"]["rhs"] = jsonio.render(K.el(-1))
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"

    def test_tampered_unsolvable_a0_fails(self):
        # x^3 - X*x = 1 has no root either, but X is not a's coefficient
        K, doc, _ = self._unsolvable_report()
        doc["result"]["witness"]["a0"] = jsonio.render(K.el([0, 1]))
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"

    def test_tampered_unsolvable_equation_fails(self):
        # x^3 - x = X^3 - X has the root X in F_9 \ F_3, outside the
        # prime field that an enumeration over int encodings reaches
        K, doc, solvable = self._unsolvable_report()
        doc["result"]["witness"]["rhs"] = jsonio.render(solvable)
        doc["input"]["b"] = jsonio.render(ZSeries(K, {0: solvable}))
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"
        assert [c["name"] for c in vr["checks"]] == [
            "solve: unsolvable coefficient equation"]

    def test_tampered_purity_lattice_fails(self):
        M = simple_pure(F9F.field(), -1, 2)
        _, out = run(["isocrystal", "purity", "--s", "-1", "--r", "2",
                      "--input", jsonio.dump_canonical(M)])
        doc = json.loads(out)
        doc["result"]["certificate"]["s"] = 0
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"

    def _assert_verdict_tamper_fails(self, out, honest, forged):
        doc = json.loads(out)
        assert doc["verdict"] == honest
        code, vr = run_json(["verify", "--input", out])
        assert code == 0 and vr["verdict"] == "ok"
        assert not any(c["name"].startswith("verdict:") for c in vr["checks"])
        doc["verdict"] = forged
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"
        failed = [c for c in vr["checks"] if not c["ok"]]
        assert len(failed) == 1 and failed[0]["name"].startswith("verdict:")
        assert failed[0]["claimed"] == forged and failed[0]["expected"] == honest

    def test_tampered_solve_verdict_fails(self):
        K = F3L.field()
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -K.zeta(-1)})
        _, out = run(["solve", "--ring", "Bbar", "--prec-z", "6",
                      "--a", solve_side(K, a), "--b", solve_side(K, b)])
        self._assert_verdict_tamper_fails(out, "no_solution", "solution")

    def test_tampered_purity_verdict_fails(self):
        M = simple_pure(F9F.field(), -1, 2)
        _, out = run(["isocrystal", "purity", "--s", "-1", "--r", "2",
                      "--input", jsonio.dump_canonical(M)])
        self._assert_verdict_tamper_fails(out, "pure", "not_pure")

    def test_non_report_input_exits_2(self):
        code, _ = run_json(["verify", "--input",
                            jsonio.dump_canonical(finite_module())])
        assert code == 2

    def test_truncated_report_exits_2(self):
        rep = json.loads(self._analyze_report())
        del rep["result"]["infinity_purity"]["lattice"]
        code, _ = run_json(["verify", "--input", json.dumps(rep)])
        assert code == 2


# runs the CLI on its arguments, then reports on stderr whether numpy was
# loaded
NUMPY_PROBE = """
import sys
from taumod.cli import main
code = main(sys.argv[1:])
sys.stderr.write("numpy loaded" if "numpy" in sys.modules else "numpy free")
sys.exit(code)
"""
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def probe_numpy(argv, cwd):
    """(exit code, stdout, whether numpy was loaded) of one CLI request
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE] + argv, cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=120)
    loaded = out.stderr.endswith("numpy loaded")
    assert loaded or out.stderr.endswith("numpy free"), out.stderr
    return out.returncode, out.stdout, loaded


class TestNumpyFree:
    """No request loads numpy: not over small fields, and not the
    extension sweeps, which solve F_p systems and build fields of up to
    2^16 elements."""

    @staticmethod
    def _free_and_verified(argv, tmp_path):
        """The report of a request, checked to run without numpy, as is
        the `verify` of it."""
        code, out, loaded = probe_numpy(argv, tmp_path)
        assert code == 0 and not loaded
        (tmp_path / "report.json").write_text(out)
        code, ver, loaded = probe_numpy(["verify", "--input", "report.json"], tmp_path)
        assert code == 0 and not loaded
        assert json.loads(ver)["verdict"] == "ok"
        return json.loads(out)

    def test_weil_over_f_2_16(self, tmp_path):
        # F_4 as q = 2, m = 2: the conjugator lives in F_{2^16}, the
        # largest tabled field
        K = FieldDescriptor(p=2, a=1, m=2, kind="finite").field()
        E = DrinfeldModule(K, [K.one(), K.zero(), K.one()])
        doc = self._free_and_verified(
            ["weil", "--input", jsonio.dump_canonical(E)], tmp_path)
        assert doc["verdict"] == "admissible"
        assert doc["result"]["weil"]["extension"] == 8

    def test_tate_over_f64(self, tmp_path):
        # cyc3: e0 -> e1 -> e2 -> z e0 up to z-shifts, over F_64 = F_{4^3}
        K = FieldDescriptor(p=2, a=2, m=3, kind="finite").field()
        z, zinv, one, zero = (ZSeries.z(K), ZSeries.z(K, -1), ZSeries.one(K),
                              ZSeries.zero(K))
        M = Isocrystal(K, [[zero, zero, z], [one, zero, zero], [zero, zinv, zero]])
        doc = self._free_and_verified(
            ["tate", "--prec-z", "16", "--input", jsonio.dump_canonical(M)], tmp_path)
        assert doc["result"]["tate"]["rank"] == 3
        assert doc["result"]["tate"]["fq_dimension"] == 48

    def test_solve_and_analyze_over_a_local_base(self, tmp_path):
        K = F3L.field()
        a, b = ZSeries.z(K, -1), ZSeries(K, {-1: -K.zeta(-1)})
        code, out, loaded = probe_numpy(
            ["solve", "--ring", "BK", "--prec-z", "6",
             "--a", solve_side(K, a), "--b", solve_side(K, b)], tmp_path)
        assert code == 0 and not loaded
        assert json.loads(out)["verdict"] == "solution"
        code, out, loaded = probe_numpy(
            ["analyze", "--input", jsonio.dump_canonical(local_module())], tmp_path)
        assert code == 0 and not loaded

    def test_slopes_purity_and_verify(self, tmp_path):
        (tmp_path / "twist.json").write_text(jsonio.dump_canonical(dense_twist()))
        code, out, loaded = probe_numpy(
            ["isocrystal", "slopes", "--input", "twist.json"], tmp_path)
        assert code == 0 and not loaded
        assert json.loads(out)["result"]["slopes"] == [[1, 4]] * 4
        code, out, loaded = probe_numpy(
            ["isocrystal", "purity", "--s", "1", "--r", "4", "--input", "twist.json"],
            tmp_path)
        assert code == 0 and not loaded
        assert json.loads(out)["verdict"] == "pure"
        (tmp_path / "purity.json").write_text(out)
        code, out, loaded = probe_numpy(["verify", "--input", "purity.json"], tmp_path)
        assert code == 0 and not loaded
        assert json.loads(out)["verdict"] == "ok"

    def test_corpus(self, tmp_path):
        # the first three items of each kind of the seed-0 corpus
        kinds = {}
        for name, payload in corpusgen.corpus_files(seed=0):
            if len(kinds.setdefault(payload["kind"], [])) < 3:
                kinds[payload["kind"]].append(name)
                (tmp_path / name).write_text(jsonio.dump_canonical(payload))
        assert sorted(kinds) == ["drinfeld", "isocrystal", "solve_problem"]
        code, out, loaded = probe_numpy(["corpus", "--dir", ".", "--jobs", "1"],
                                        tmp_path)
        assert code == 0 and not loaded
        assert len(json.loads(out)["result"]["items"]) == 9

    def test_weil_over_a_tower_still_answers(self, tmp_path):
        # Carlitz over F_3 at --ext-max 9 builds F_{3^9}
        F3 = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
        carlitz = DrinfeldModule(F3, [F3.one(), F3.one()])
        doc = self._free_and_verified(
            ["weil", "--prec-tau", "8", "--ext-max", "9",
             "--input", jsonio.dump_canonical(carlitz)], tmp_path)
        assert doc["verdict"] == "admissible"
        assert doc["result"]["weil"]["extension"] == 9


# runs the CLI on its arguments, then writes on stderr, as JSON, the
# taumod modules whose bodies ran and whether dataclasses was loaded. A
# module that loads on first use (taumod/__init__.py) sits in sys.modules
# as a subclass of ModuleType until its body runs, and `-X importtime`
# prints no line when it does run, so the probe reads the module's type.
MODULE_PROBE = """
import json, sys, types
from taumod.cli import main
code = main(sys.argv[1:])
ran = sorted(n.split(".", 1)[1] for n, m in sys.modules.items()
             if n.startswith("taumod.") and type(m) is types.ModuleType)
sys.stderr.write(json.dumps({"ran": ran, "dataclasses": "dataclasses" in sys.modules,
                             "parsing": [n for n in ("argparse", "gettext", "locale")
                                         if n in sys.modules]}))
sys.exit(code)
"""
# runs the CLI on its arguments, then writes on stderr the taumod modules
# it ran and the (p, n) of every field F_{p^n} it built
GENERATE_PROBE = """
import json, sys, types
from taumod import basefield
from taumod.cli import main
built = []
init = basefield.FF.__init__
def recorded(ff, p, n):
    built.append((p, n))
    init(ff, p, n)
basefield.FF.__init__ = recorded
code = main(sys.argv[1:])
ran = sorted(n.split(".", 1)[1] for n, m in sys.modules.items()
             if n.startswith("taumod.") and type(m) is types.ModuleType)
sys.stderr.write(json.dumps({"ran": ran, "built": built}))
sys.exit(code)
"""
# the modules that a request runs only if its command uses them
ON_USE = {"commands", "drinfeld", "elimination", "embedding", "localfield", "rings",
          "semilinear", "skew", "tateweil", "verify", "corpusgen"}


def probe_modules(argv, loads=()):
    """(exit code, stdout, set of taumod modules run, whether dataclasses
    was loaded) of one CLI request in a fresh interpreter, whose report
    is checked to be the bytes of the same request run in-process. The
    request loads none of argparse, gettext and locale but those in
    `loads`: the command line is read from a table
    (`taumod.cli.parse_args`), not by argparse, which imports the other
    two."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", MODULE_PROBE] + argv, env=env,
                         capture_output=True, text=True, timeout=120)
    seen = json.loads(out.stderr)
    assert (out.returncode, out.stdout) == run(argv)
    assert set(seen["parsing"]) <= set(loads), argv
    return out.returncode, out.stdout, set(seen["ran"]), seen["dataclasses"]


class TestModulesRun:
    """A request runs the bodies of only the modules its command uses."""

    def test_slopes_purity_and_verify_run_no_lazy_module(self, tmp_path):
        twist = tmp_path / "twist.json"
        twist.write_text(jsonio.dump_canonical(dense_twist()))
        report = tmp_path / "purity.json"
        for argv in (["isocrystal", "slopes", "--input", str(twist)],
                     ["isocrystal", "purity", "--s", "1", "--r", "4",
                      "--input", str(twist)],
                     ["verify", "--input", str(report)]):
            code, out, ran, dataclasses = probe_modules(argv)
            # a request takes its verdict from `verdicts`; only `verify`
            # runs the replays
            assert code == 0 and not dataclasses
            assert ran & ON_USE == ({"verify"} if argv[0] == "verify" else set())
            if argv[1] == "purity":
                assert json.loads(out)["verdict"] == "pure"
                report.write_text(out)
        assert json.loads(out)["verdict"] == "ok"

    def test_analyze_runs_no_tateweil(self):
        argv = ["analyze", "--input", jsonio.dump_canonical(finite_module())]
        code, out, ran, _ = probe_modules(argv)
        assert code == 0 and json.loads(out)["command"] == "analyze"
        assert {"commands", "drinfeld"} <= ran
        assert not ran & {"tateweil", "verify", "corpusgen"}

    def test_tate_runs_no_drinfeld(self):
        argv = ["tate", "--input", jsonio.dump_canonical(unit(F9F.field(), 2))]
        code, out, ran, _ = probe_modules(argv)
        assert code == 0 and json.loads(out)["verdict"] == "ok"
        assert {"tateweil", "semilinear", "skew", "elimination", "embedding"} <= ran
        assert not ran & {"drinfeld", "verify", "corpusgen", "commands", "localfield", "rings"}

    def test_weil_and_its_verify_run_no_semilinear(self, tmp_path):
        K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
        E = DrinfeldModule(K, [K.zero(), K.zero(), K.one()])
        report = tmp_path / "weil.json"
        for argv in (["weil", "--input", jsonio.dump_canonical(E)],
                     ["verify", "--input", str(report)]):
            code, out, ran, _ = probe_modules(argv)
            assert code == 0
            assert {"tateweil", "drinfeld", "skew"} <= ran
            assert not ran & {"semilinear", "corpusgen", "commands", "localfield", "rings"}
            report.write_text(out)
        assert json.loads(out)["verdict"] == "ok"

    def test_generate_builds_only_base_fields_and_runs_no_semilinear(self, tmp_path):
        # the slope-zero filter decides the degree alone: it builds no
        # extension field and solves no fixed-point system
        out = subprocess.run(
            [sys.executable, "-c", GENERATE_PROBE, "corpus", "--generate", "--seed",
             "0", "--dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120)
        assert out.returncode == 0
        seen = json.loads(out.stderr)
        bases = set()
        for path in tmp_path.glob("*.json"):
            base = json.loads(path.read_text())["base"]
            bases.add((base["p"], base["a"] * base["m"]))
        assert len(bases) == 8
        assert {tuple(f) for f in seen["built"]} == bases
        assert "tateweil" in seen["ran"] and "semilinear" not in seen["ran"]

    def test_corpus_runs_no_generator_and_no_tateweil(self, tmp_path):
        # the first two items of each kind of the seed-0 corpus
        kinds = {}
        for name, payload in corpusgen.corpus_files(seed=0):
            if len(kinds.setdefault(payload["kind"], [])) < 2:
                kinds[payload["kind"]].append(name)
                (tmp_path / name).write_text(jsonio.dump_canonical(payload))
        code, out, ran, _ = probe_modules(["corpus", "--dir", str(tmp_path),
                                           "--jobs", "1"])
        assert code == 0 and len(json.loads(out)["result"]["items"]) == 6
        assert {"commands", "drinfeld", "semilinear"} <= ran
        assert not ran & {"corpusgen", "tateweil", "verify"}

    def test_fresh_jobs_equal_bytes(self, tmp_path):
        # in a fresh process the lazily loaded modules have not run yet:
        # forked workers must give the bytes of one process, and the
        # parent runs the modules the items use before it forks
        for name, payload in corpusgen.corpus_files(seed=3)[:6]:
            (tmp_path / name).write_text(jsonio.dump_canonical(payload))
        _, one, _, _ = probe_modules(["corpus", "--dir", str(tmp_path), "--jobs", "1"])
        # multiprocessing, which the workers need, imports locale
        _, three, ran, _ = probe_modules(["corpus", "--dir", str(tmp_path),
                                          "--jobs", "3"], loads={"locale"})
        assert three == one
        if (os.cpu_count() or 1) > 1:
            assert {"drinfeld", "semilinear", "localfield", "rings"} <= ran


# runs the CLI on its arguments, then writes on stderr whether F_{2^16}
# filled its log tables
TABLE_PROBE = """
import sys
from taumod.basefield import get_field
from taumod.cli import main
code = main(sys.argv[1:])
sys.stderr.write("tabled" if get_field(2, 16)._log is not None else "untabled")
sys.exit(code)
"""


def test_weil_leaves_f_2_16_untabled():
    # F_4 as q = 2, m = 2: the conjugator lives in F_{2^16}, where the
    # request runs far fewer operations than a fill has entries
    K = FieldDescriptor(p=2, a=1, m=2, kind="finite").field()
    E = DrinfeldModule(K, [K.one(), K.zero(), K.one()])
    argv = ["weil", "--input", jsonio.dump_canonical(E)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", TABLE_PROBE] + argv, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == "untabled"
    assert json.loads(out.stdout)["result"]["weil"]["extension"] == 8
    # the same bytes with the tables filled first
    tabled(get_field(2, 16))
    assert run(argv) == (0, out.stdout)


# the "module:attribute" targets of the benchmark's layer tracer (`SPANS`
# in perfbench/layertrace.py), which looks each module up in sys.modules
# right after `import taumod.cli` and each attribute on it
TRACED_TARGETS = (
    "kernels:polymulmod", "kernels:polypowmod", "kernels:rref_mod_p", "kernels:solve_mod_p",
    "kernels:nullspace_mod_p", "basefield:FF.__init__", "basefield:_embedding_powers",
    "basefield:coerce_into", "basefield:FiniteK.extend", "zseries:ZSeries.__mul__",
    "zseries:ZSeries.__add__", "zseries:ZSeries.inv", "basefield:LocalElem.__mul__",
    "basefield:LocalElem.inv", "skew:SkewLaurent.__mul__", "skew:SkewPoly.__mul__",
    "skew:skew_inverse", "zmatrix:mul", "zmatrix:inv", "zmatrix:det",
    "zmatrix:tau_power_matrix", "isocrystal:hnf_reduce", "isocrystal:purity_check",
    "isocrystal:slopes_finiteK", "semilinear:solve_scalar", "semilinear:tau_fixed_space",
    "tateweil:tate_slope0", "tateweil:iota_conjugator", "tateweil:weil_valuation",
    "drinfeld:m_infinity", "drinfeld:motive", "drinfeld:reduction_type",
    "drinfeld:crit_crosscheck", "jsonio:loads", "jsonio:parse_field", "jsonio:parse_elem",
    "jsonio:parse_zseries", "jsonio:parse_scalar", "jsonio:parse_skewpoly",
    "jsonio:parse_skewlaurent", "jsonio:parse_isocrystal", "jsonio:parse_drinfeld",
    "jsonio:render", "jsonio:render_field", "jsonio:dump_canonical", "cli:_emit")
# the names perfbench/inputs.py imports from taumod
BENCH_IMPORTS = ("taumod:jsonio", "taumod:zmatrix", "basefield:FieldDescriptor",
                 "drinfeld:DrinfeldModule", "isocrystal:Isocrystal",
                 "isocrystal:simple_pure", "zseries:INF", "zseries:ZSeries")
# resolves each "module:attribute" of its arguments as the tracer does,
# right after `import taumod.cli`
RESOLVE_PROBE = """
import functools, sys, taumod.cli
for target in sys.argv[1:]:
    mod, attr = target.split(":")
    owner = sys.modules["taumod" if mod == "taumod" else f"taumod.{mod}"]
    functools.reduce(getattr, attr.split("."), owner)
"""


def test_traced_modules_are_in_sys_modules_after_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", RESOLVE_PROBE, *TRACED_TARGETS, *BENCH_IMPORTS],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_policy_as_dict_keys():
    assert list(PrecisionPolicy().as_dict().items()) == [
        ("z_prec", 8), ("zeta_window", [-8, 8]), ("tauinv_prec", 16),
        ("ext_max", 8), ("purity_max_iters", 32), ("seed", None)]
    assert PrecisionPolicy(z_prec=12, seed=3).as_dict()["z_prec"] == 12


class TestCorpus:
    def _seed_dir(self, tmp_path, n=4):
        files = corpusgen.corpus_files(seed=3)[:n]
        for name, payload in files:
            (tmp_path / name).write_text(jsonio.dump_canonical(payload))
        return [name for name, _ in files]

    def test_runs_and_counts(self, tmp_path):
        names = self._seed_dir(tmp_path)
        code, doc = run_json(["corpus", "--dir", str(tmp_path)])
        assert code == 0
        items = doc["result"]["items"]
        assert [i["name"] for i in items] == sorted(names)
        total = sum(doc["result"]["verdict_counts"].values())
        assert total == len(names)

    def test_jobs_equal_bytes(self, tmp_path):
        self._seed_dir(tmp_path, n=6)
        _, out1 = run(["corpus", "--dir", str(tmp_path), "--jobs", "1"])
        _, out2 = run(["corpus", "--dir", str(tmp_path), "--jobs", "3"])
        assert out1 == out2

    def test_jobs_below_one_rejected(self, tmp_path):
        self._seed_dir(tmp_path, n=2)
        code, doc = run_json(["corpus", "--dir", str(tmp_path), "--jobs", "0"])
        assert code == 2 and doc["error"] == "InputError"

    def test_seed0_report_bytes_are_pinned(self, tmp_path):
        # the byte-identity gate for refactors: the seed-0 corpus report
        # must not change unless a change means to change an answer
        run(["corpus", "--generate", "--seed", "0", "--dir", str(tmp_path)])
        _, out = run(["corpus", "--dir", str(tmp_path), "--jobs", "1"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == SEED0_CORPUS_SHA256

    def test_empty_dir_ok(self, tmp_path):
        code, doc = run_json(["corpus", "--dir", str(tmp_path)])
        assert code == 0 and doc["result"]["items"] == []

    def test_duplicate_basenames_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        payload = jsonio.dump_canonical(finite_module())
        (tmp_path / "a" / "item.json").write_text(payload)
        (tmp_path / "b" / "item.json").write_text(payload)
        code, _ = run_json(["corpus", "--dir", str(tmp_path)])
        assert code == 2

    def test_broken_item_isolated(self, tmp_path):
        self._seed_dir(tmp_path, n=2)
        (tmp_path / "zz-broken.json").write_text('{"kind": "drinfeld", "q": 9}')
        code, doc = run_json(["corpus", "--dir", str(tmp_path)])
        assert code == 0
        assert doc["result"]["verdict_counts"].get("input_error") == 1

    def test_malformed_fields_are_their_items_input_errors(self, tmp_path):
        # a malformed purity or solve prec is its own item's input_error,
        # which names the field; the other items answer as they do alone
        files = dict(corpusgen.corpus_files(seed=0))
        iso = next(n for n, p in files.items() if p["kind"] == "isocrystal")
        sol = next(n for n, p in files.items() if p["kind"] == "solve_problem")
        for name in (iso, sol):
            (tmp_path / name).write_text(jsonio.dump_canonical(files[name]))
        _, alone = run_json(["corpus", "--dir", str(tmp_path)])
        bad = {}
        for field, name, values in (
                ("purity", iso, (["x", 1], 5, [1], [0, 1, 2], [0.0, 1], "01")),
                ("prec", sol, ("x", 1.5, [4], True, 0, None))):
            for i, value in enumerate(values):
                bad[f"zz-{field}-{i}.json"] = field
                (tmp_path / f"zz-{field}-{i}.json").write_text(
                    json.dumps(dict(files[name], **{field: value})))
        code, doc = run_json(["corpus", "--dir", str(tmp_path)])
        assert code == 0
        items = {item["name"]: item for item in doc["result"]["items"]}
        assert [items[item["name"]] for item in alone["result"]["items"]] == (
            alone["result"]["items"])
        assert set(items) == {iso, sol, *bad}
        for name, field in bad.items():
            item = items[name]
            assert (item["verdict"], item["error"]["type"]) == ("input_error", "InputError")
            assert item["error"]["detail"].startswith(f"'{field}' must be")

    def test_generate_writes_families(self, tmp_path):
        code, doc = run_json(["corpus", "--dir", str(tmp_path), "--generate",
                              "--seed", "3"])
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("*.json"))
        assert doc["result"]["count"] == len(written) and written


class TestMarkdown:
    def test_renders_headline_and_tracks_json(self):
        M = simple_pure(F9F.field(), 0, 1)
        code, out = run(["isocrystal", "slopes", "--format", "md",
                         "--input", jsonio.dump_canonical(M)])
        assert code == 0
        assert out.startswith("# taumod isocrystal")
        assert "slopes" in out
        _, out2 = run(["isocrystal", "slopes", "--format", "md",
                       "--input", jsonio.dump_canonical(M)])
        assert out == out2

    def test_scalar_beside_containers_keeps_its_value(self):
        assert to_markdown({"a": [0, [0, 1]]}).splitlines()[2:] == [
            "- **a**:", "  - [0]: 0", "  - [1]:", "    - [0, 1]"]
        assert "- [1]: []" in to_markdown({"a": [{"b": 1}, []]})

    def test_every_int_of_a_report_is_in_its_markdown(self):
        # each z_coeffs pair [e, [c...]] puts its exponent e beside a list
        argv = ["isocrystal", "dual", "--input", jsonio.dump_canonical(dense_twist())]
        code, out = run(argv)
        _, md = run(argv + ["--format", "md"])
        assert code == 0 and md == to_markdown(json.loads(out))
        # the ints of the markdown, with strings and list positions left out
        text = re.sub(r"\[\d+\]:", "", re.sub(r'"(?:[^"\\]|\\.)*"', "", md))
        found = sorted(int(x) for x in re.findall(r"-?\d+", text))
        assert found == sorted(_ints(json.loads(out)))


def _ints(tree):
    """The int leaves of a JSON tree, bools left out."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [x for v in tree for x in _ints(v)]
    return [tree] if type(tree) is int else []


class TestWeil:
    def test_monomial_admissible(self):
        # at tau^-1-precision 16 the conjugator of this module lives only
        # over F_{9^9}, so it needs --ext-max 9
        code, doc = run_json(["weil", "--ext-max", "9",
                              "--input", jsonio.dump_canonical(monomial_module())])
        assert code == 0 and doc["verdict"] == "admissible"
        wd = doc["result"]["weil"]
        assert wd["kind"] == "weil_data"
        assert wd["extension"] == 9
        # v_D(rho(Frob)) = -m/r with m = 1, r = 2
        assert wd["frobenius_ord"] == 1
        assert wd["rho_valuation"] == [-1, 2]
        # ext_max bounds the field degree, so under the default bound of 8
        # the same run ends budget_exhausted with exit 3
        code, doc = run_json(["weil", "--input",
                              jsonio.dump_canonical(monomial_module())])
        assert code == 3 and doc["verdict"] == "budget_exhausted"
        assert doc["result"]["error"] == "ExtensionExhausted"
        assert doc["policy"]["ext_max"] == 8

    def test_report_replays(self):
        _, out = run(["weil", "--ext-max", "9",
                      "--input", jsonio.dump_canonical(monomial_module())])
        code, doc = run_json(["verify", "--input", out])
        assert code == 0 and doc["verdict"] == "ok"
        weil_checks = [c for c in doc["checks"] if c["name"].startswith("weil:")]
        assert [c["name"] for c in weil_checks] == [
            "weil: conjugator re-substitutes",
            "weil: table is linear and admissible",
            "weil: commutes with the twist",
        ]
        assert all(c["ok"] for c in weil_checks)


    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_k_max_below_one_is_input_error(self, k_max):
        # no row of the table would be computed, so there is no evidence
        # for admissibility
        F3 = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
        carlitz = DrinfeldModule(F3, [F3.one(), F3.one()])
        code, doc = run_json(["weil", "--prec-tau", "8", "--ext-max", "9",
                              "--k-max", k_max,
                              "--input", jsonio.dump_canonical(carlitz)])
        assert code == 2 and doc["error"] == "InputError"


class TestTate:
    def test_unit_twist_report_and_replay(self):
        M = unit(F9F.field(), 2)
        _, out = run(["tate", "--input", jsonio.dump_canonical(M)])
        doc = json.loads(out)
        assert doc["verdict"] == "ok"
        assert doc["result"]["tate"]["kind"] == "tate_data"
        code, vr = run_json(["verify", "--input", out])
        assert code == 0 and vr["verdict"] == "ok"

    @pytest.mark.parametrize("field", ["module_basis", "frobenius"])
    def test_tampered_tate_report_fails(self, field):
        # q = 9 is not prime, so the freeness replay scales by the
        # canonical F_9 generator
        M = unit(F9F.field(), 2)
        _, out = run(["tate", "--input", jsonio.dump_canonical(M)])
        doc = json.loads(out)
        tate = doc["result"]["tate"]
        if field == "module_basis":
            tate["module_basis"][1] = tate["module_basis"][0]
        else:
            tate["frobenius"][0][0]["z_coeffs"][0][1] = [2, 0]
        code, vr = run_json(["verify", "--input", json.dumps(doc)])
        assert code == 4 and vr["verdict"] == "failed"

    def test_max_iters_bounds_the_purity_search(self):
        # --max-iters is the budget of tate's purity search: with none,
        # the search stops before its first step, inconclusive
        argv = ["tate", "--input", jsonio.dump_canonical(unit(F3F.field(), 1))]
        code, doc = run_json(argv)
        assert code == 0 and doc["result"]["tate"]["rank"] == 1
        code, doc = run_json(argv + ["--max-iters", "0"])
        assert code == 3 and doc["verdict"] == "inconclusive"
        assert doc["policy"]["purity_max_iters"] == 0
        assert doc["result"]["certificate"]["kind"] == "inconclusive"


# the reference for `python -m taumod`: `cli.main`, then the
# interpreter's own exit
MAIN_PROBE = "import sys\nfrom taumod.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def fresh(args, cwd, stdout=subprocess.PIPE):
    """`python3 args` in a fresh interpreter, stdout block-buffered as
    when PYTHONUNBUFFERED is unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


@pytest.fixture(scope="module")
def request_dir(tmp_path_factory):
    """A directory of request inputs: twists, modules, solve sides, a
    small corpus, and a purity report with a forged copy."""
    d = tmp_path_factory.mktemp("requests")
    K3, KL = F3F.field(), F3L.field()
    inputs = {
        "twist.json": jsonio.dump_canonical(dense_twist()),
        "unit.json": jsonio.dump_canonical(unit(F9F.field(), 2)),
        "module.json": jsonio.dump_canonical(finite_module()),
        "weil.json": jsonio.dump_canonical(
            DrinfeldModule(K3, [K3.zero(), K3.zero(), K3.one()])),
        "pivot.json": json.dumps(pivot_window_twist()[2]),
        "a.json": solve_side(KL, ZSeries.z(KL, -1)),
        "b.json": solve_side(KL, ZSeries(KL, {-1: -KL.zeta(-1)})),
    }
    for name, text in inputs.items():
        (d / name).write_text(text)
    (d / "corpus").mkdir()
    kinds = {}
    for name, payload in corpusgen.corpus_files(seed=0):
        if len(kinds.setdefault(payload["kind"], [])) < 2:
            kinds[payload["kind"]].append(name)
            (d / "corpus" / name).write_text(jsonio.dump_canonical(payload))
    _, out = run(["isocrystal", "purity", "--s", "1", "--r", "4",
                  "--input", str(d / "twist.json")])
    (d / "purity.report.json").write_text(out)
    doc = json.loads(out)
    doc["result"]["certificate"]["s"] = 0
    (d / "forged.report.json").write_text(json.dumps(doc))
    return d


class TestProcessExit:
    """`python -m taumod` ends through `cli.run`, without the interpreter's
    teardown, yet writes the bytes and exits with the code of `cli.main`
    followed by `sys.exit`, on every command and every exit path."""

    @pytest.mark.parametrize("argv,code", [
        (["analyze", "--input", "module.json"], 0),
        (["isocrystal", "tensor", "--input", "twist.json", "--other", "unit.json"], 0),
        (["isocrystal", "dual", "--input", "twist.json"], 0),
        (["isocrystal", "purity", "--s", "1", "--r", "4", "--input", "twist.json"], 0),
        (["isocrystal", "slopes", "--input", "twist.json"], 0),
        (["tate", "--input", "unit.json"], 0),
        (["weil", "--input", "weil.json"], 0),
        (["solve", "--ring", "BK", "--prec-z", "6", "--a", "a.json", "--b", "b.json"], 0),
        (["verify", "--input", "purity.report.json"], 0),
        (["corpus", "--dir", "corpus", "--jobs", "1"], 0),
        (["corpus", "--dir", "corpus", "--jobs", "2"], 0),
        (["isocrystal", "slopes", "--format", "md", "--input", "twist.json"], 0),
        (["--version"], 0),
        (["isocrystal", "bogus", "--input", "twist.json"], 2),
        (["analyze", "--input", "{broken"], 2),
        (["isocrystal", "slopes", "--input", "pivot.json"], 3),
        (["verify", "--input", "forged.report.json"], 4),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_same_bytes_and_code_as_main(self, request_dir, argv, code):
        new = fresh(["-m", "taumod", *argv], request_dir)
        old = fresh(["-c", MAIN_PROBE, *argv], request_dir)
        assert (new.returncode, new.stdout, new.stderr) == (
            old.returncode, old.stdout, old.stderr)
        assert new.returncode == code

    def test_generate_writes_complete_files(self, request_dir):
        new = fresh(["-m", "taumod", "corpus", "--generate", "--dir", "gen-run"],
                    request_dir)
        old = fresh(["-c", MAIN_PROBE, "corpus", "--generate", "--dir", "gen-main"],
                    request_dir)
        assert (new.returncode, new.stdout, new.stderr) == (0, old.stdout, old.stderr)
        written = {p.name: p.read_bytes() for p in (request_dir / "gen-run").iterdir()}
        assert written == {p.name: p.read_bytes()
                           for p in (request_dir / "gen-main").iterdir()}
        assert len(written) == json.loads(new.stdout)["result"]["count"]
        assert all(json.loads(text) for text in written.values())

    def test_closed_stdout_is_reported_as_by_main(self, request_dir):
        # the small error report stays buffered until the exit, whose
        # flush fails on the closed pipe: the interpreter reports it
        argv = ["analyze", "--input", "{broken"]
        outs = []
        for args in (["-m", "taumod", *argv], ["-c", MAIN_PROBE, *argv]):
            r, w = os.pipe()
            os.close(r)
            try:
                outs.append(fresh(args, request_dir, stdout=w))
            finally:
                os.close(w)
        new, old = outs
        assert (new.returncode, new.stderr) == (old.returncode, old.stderr)
        assert new.returncode == 120 and b"BrokenPipeError" in new.stderr


# records how the process ends and registers an `atexit` callback, then
# answers the request through `cli.run`; after "thread" a second thread
# is alive until the process ends
EXIT_PROBE = r"""
import atexit, os, sys, threading
from taumod import cli
ended = threading.Event()

def recorded(name, end):
    def record(code):
        sys.stderr.write(f"{name}({code})\n")
        sys.stderr.flush()
        ended.set()
        end(code)
    return record

sys.exit, os._exit = recorded("sys.exit", sys.exit), recorded("os._exit", os._exit)
atexit.register(sys.stderr.write, "atexit callback\n")
if sys.argv[1] == "thread":
    threading.Thread(target=ended.wait).start()
cli.run(sys.argv[2:])
"""


class TestExitFallbacks:
    """`cli.run` keeps the interpreter's exit where teardown is needed."""

    @pytest.mark.parametrize("thread,argv,code,stderr", [
        ("none", ["isocrystal", "slopes", "--input", "twist.json"], 0,
         "atexit callback\nos._exit(0)\n"),
        ("none", ["isocrystal", "slopes", "--input", "pivot.json"], 3,
         "atexit callback\nos._exit(3)\n"),
        ("thread", ["isocrystal", "slopes", "--input", "twist.json"], 0,
         "sys.exit(0)\natexit callback\n"),
    ])
    def test_atexit_once_and_sys_exit_with_a_thread(self, request_dir, thread, argv,
                                                     code, stderr):
        out = fresh(["-c", EXIT_PROBE, thread, *argv], request_dir)
        assert (out.returncode, out.stderr.decode()) == (code, stderr)
        assert out.stdout == fresh(["-c", MAIN_PROBE, *argv], request_dir).stdout

    def test_profiled_request_prints_its_profile(self, request_dir):
        argv = ["isocrystal", "purity", "--s", "1", "--r", "4", "--input", "twist.json"]
        out = fresh(["-m", "cProfile", "-m", "taumod", *argv], request_dir)
        report = fresh(["-c", MAIN_PROBE, *argv], request_dir).stdout
        assert out.stdout.startswith(report)
        profile = out.stdout[len(report):].decode()
        assert "function calls" in profile and "purity_check" in profile
