"""CLI surface: exit codes, report shapes, replayability, determinism."""

import contextlib
import hashlib
import io
import json
import math
import pathlib

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from taumod import corpusgen, jsonio
from taumod.basefield import FieldDescriptor
from taumod.cli import main
from taumod.drinfeld import DrinfeldModule
from taumod.isocrystal import simple_pure, unit
from taumod.zseries import ZSeries

INF = math.inf
SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "v1"

# sha256 of `taumod corpus --jobs 1` on the corpus of `corpus --generate --seed 0`
SEED0_CORPUS_SHA256 = "9213789ffe1791f7da5c17d001a672f1032d59c708eab707b8424159f08ce9f7"

F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
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
