"""The known-answer checker accepts true answers and flags mutated ones."""

import contextlib
import copy
import io
import json

import pytest

import inputs
import oracle
from taumod import jsonio
from taumod.basefield import FieldDescriptor
from taumod.cli import main
from taumod.isocrystal import simple_pure

F9 = FieldDescriptor(p=3, a=2, m=1, kind="finite")


def cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def rank3(tmp_path_factory):
    """Plan entries and real reports for one dense rank-3 twist."""
    path = tmp_path_factory.mktemp("rank") / "m.json"
    path.write_text(jsonio.dump_canonical(simple_pure(F9.field(), 1, 3)))
    slopes = {"name": "slopes-r3", "verdict": "ok",
              "fields": [[["result", "slopes"], [[1, 3]] * 3]]}
    purity = {"name": "purity-r3", "verdict": "pure",
              "fields": [[["result", "certificate", "s"], 1]]}
    s_doc = cli(["isocrystal", "slopes", "--input", str(path)])
    p_doc = cli(["isocrystal", "purity", "--s", "1", "--r", "3", "--input", str(path)])
    return (slopes, s_doc), (purity, p_doc)


def test_true_answers_pass(rank3):
    for req, (code, doc) in rank3:
        assert oracle.check_request(req, code, doc) == oracle.OK


def test_mutated_slope_is_wrong(rank3):
    (req, (code, doc)), _ = rank3
    bad = copy.deepcopy(doc)
    bad["result"]["slopes"][0] = [1, 2]
    assert oracle.check_request(req, code, bad)[0] == "wrong"


def test_mutated_verdict_is_wrong(rank3):
    _, (req, (code, doc)) = rank3
    bad = dict(doc, verdict="not_pure")
    assert oracle.check_request(req, code, bad)[0] == "wrong"


def test_exhausted_budget_is_a_failure_not_a_wrong_answer():
    req = {"name": "w", "verdict": "admissible", "fields": []}
    doc = {"verdict": "budget_exhausted", "result": {"error": "ExtensionExhausted"}}
    status, reason = oracle.check_request(req, 3, doc)
    assert status == "failed" and "budget_exhausted" in reason
    assert oracle.check_request(req, None, None)[0] == "failed"


def test_verify_must_replay_a_claim():
    ok = {"verdict": "ok", "checks": [{"name": "purity: tau^r T == z^s T", "ok": True}]}
    empty = {"verdict": "ok", "checks": [{"name": "weil: no certificate claimed", "ok": True}]}
    refuted = {"verdict": "failed", "checks": [{"name": "purity: x", "ok": False}]}
    assert oracle.check_verify(0, ok) == oracle.OK
    assert oracle.check_verify(0, empty) == ("failed", "verify says ok but replayed nothing")
    assert oracle.check_verify(4, refuted)[0] == "wrong"
    assert oracle.check_verify(2, {"kind": "error_report", "error": "InputError"})[0] == "failed"


def _items():
    return [
        {"name": "dm-q4-r2-rand.json", "command": "analyze", "verdict": "ok",
         "result": {"slopes": [[-1, 2], [-1, 2]]}},
        {"name": "dm-q3-r1-val2.json", "command": "analyze", "verdict": "ok",
         "result": {"reduction": {"verdict": "Good"}}},
        {"name": "dm-val-stable-05.json", "command": "analyze", "verdict": "ok",
         "result": {"reduction": {"verdict": "Stable"}}},
        {"name": "iso-s0-q2-m1-cyc3.json", "command": "isocrystal", "verdict": "pure",
         "result": {"rank": 3, "slopes": [[0, 1]] * 3, "certificate": {"s": 0}}},
        {"name": "solve-mixed-bbar.json", "command": "solve", "verdict": "no_solution",
         "result": {"outcome": {"reason": "UnboundedCoefficientValuations"}}},
    ]


def test_corpus_items_pass_and_mutations_are_caught():
    items = _items()
    assert [oracle.check_corpus_item(it) for it in items] == [oracle.OK] * len(items)
    items[0]["result"]["slopes"][1] = [-1, 1]
    items[2]["result"]["reduction"]["verdict"] = "Good"
    items[3]["verdict"] = "not_pure"
    items[4]["result"]["outcome"]["reason"] = "QthRootMissing"
    statuses = [oracle.check_corpus_item(it)[0] for it in items]
    assert statuses == ["wrong", "ok", "wrong", "wrong", "wrong"]


def test_corpus_error_items_fail():
    item = {"name": "dm-q2-r1-unit.json", "command": "error", "verdict": "inconclusive",
            "error": {"type": "PrecisionLoss", "detail": "window"}}
    assert oracle.check_corpus_item(item)[0] == "failed"
    assert oracle.check_corpus_item({"name": "mystery.json", "verdict": "ok"})[0] == "failed"


def test_unipotent_inverse_is_exact():
    import random

    K = F9.field()
    rng = random.Random(0)
    for lower in (True, False):
        T = inputs._unipotent(K, rng, 4, lower)
        X = inputs._unipotent_inverse(T, lower)
        prod = inputs.zmatrix.mul(T, X)
        assert inputs.zmatrix.agrees(prod, inputs.zmatrix.identity(K, 4))
        assert all(c.hi == float("inf") for row in X for c in row)
