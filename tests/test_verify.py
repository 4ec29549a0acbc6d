"""`taumod verify` refutes tampered certificates of every report kind.

Every command in `verify.REGISTRY` has one cheap honest report below,
and `CERTIFIED` lists the JSON paths of each report whose values the
replay re-derives. Changing any leaf under a certified path, with its
JSON shape kept, must be refused: exit 4, or exit 2 where the parser
rejects the value.
"""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taumod import basefield, corpusgen, jsonio, tateweil, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.embedding import coerce_into
from taumod.cli import main
from taumod.drinfeld import DrinfeldModule
from taumod.isocrystal import Isocrystal, simple_pure, unit
from taumod.verify import REGISTRY
from taumod.zseries import INF, ZSeries

F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
F3F = FieldDescriptor(p=3, a=1, m=1, kind="finite")
F4F = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F9F = FieldDescriptor(p=3, a=2, m=1, kind="finite")
F9M2 = FieldDescriptor(p=3, a=1, m=2, kind="finite")


def run_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def verify(doc):
    return run_json(["verify", "--input", json.dumps(doc)])


def solve_side(K, x):
    return json.dumps({"base": jsonio.render_field(K), "value": jsonio.render(x)})


def local_module():
    K = F3L.field()
    return DrinfeldModule(K, [K.zeta(), K.el(1), K.el(1) + K.zeta(1)])


def _honest_argv(command):
    K3, K9, K9m2 = F3L.field(), F9F.field(), F9M2.field()
    if command == "analyze":
        return ["analyze", "--input", jsonio.dump_canonical(local_module())]
    if command == "isocrystal purity":
        return ["isocrystal", "purity", "--s", "-1", "--r", "2",
                "--input", jsonio.dump_canonical(simple_pure(K9, -1, 2))]
    if command == "tate":
        K = F3F.field()
        g = ZSeries(K, {0: K.gen()}, INF)
        M = Isocrystal(K, [[ZSeries.zero(K), ZSeries.one(K)], [g, ZSeries.zero(K)]])
        return ["tate", "--input", jsonio.dump_canonical(M)]
    if command == "weil":
        E = DrinfeldModule(K9m2, [K9m2.zero(), K9m2.gen()])
        return ["weil", "--prec-tau", "12", "--input", jsonio.dump_canonical(E)]
    if command == "solve":
        a, b = ZSeries.z(K3, -1), ZSeries(K3, {-1: -K3.zeta(-1)})
        return ["solve", "--ring", "BK", "--prec-z", "6",
                "--a", solve_side(K3, a), "--b", solve_side(K3, b)]
    raise KeyError(f"no honest report for {command!r}")


@functools.lru_cache(maxsize=None)
def honest(command):
    code, doc = run_json(_honest_argv(command))
    assert code == 0
    return json.dumps(doc)


_PURITY = [("s",), ("r",), ("lattice", "basis"), ("lattice", "pivots")]
_TATE = [("result", "tate", key)
         for key in ("extension", "lattice", "twist", "module_basis", "frobenius")]

# Paths whose every leaf the replay re-derives. Left out: descriptive
# strings, search trivia (iteration counts, residue pivots), echoes of
# the input, and claims that only get weaker when changed (a smaller
# precision).
CERTIFIED = {
    "analyze": [("verdict",), ("result", "reduction"),
                ("result", "crosscheck", "verdict"),
                ("result", "crosscheck", "reduction"),
                ("result", "crosscheck", "model_verify")]
    + [("result", "infinity_purity") + p for p in _PURITY],
    "isocrystal purity": [("verdict",)]
    + [("result", "certificate") + p for p in _PURITY],
    "tate": [("verdict",)] + _TATE,
    "weil": [("verdict",), ("result", "weil")],
    "solve": [("verdict",), ("result", "verdict"), ("result", "x", "z_coeffs"),
              ("result", "x", "growth"), ("result", "growth"),
              ("result", "membership")],
}

_WORDS = ["ok", "pure", "not_pure", "inconclusive", "budget_exhausted",
          "admissible", "not_admissible", "solution", "no_solution", "agree",
          "agree_after_extension", "obstruction_recorded", "Good", "Stable",
          "PotentiallyGood", "AK", "BOK", "Bbar", "BK", "yes", "no"]


def _leaves(node, path):
    """(path, value) of every int, bool and str leaf under node, windows
    left out: a window's lower end restates the lowest exponent, and a
    replay reads each series only below the precision its certificate
    names."""
    if isinstance(node, dict):
        for key, val in node.items():
            if key != "window":
                yield from _leaves(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaves(val, path + (i,))
    elif node is not None:
        yield path, node


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations(value):
    """Changes of a leaf that keep its JSON type; an integer moves by one,
    which also changes it as a residue mod p."""
    if isinstance(value, bool):
        return st.just(not value)
    if isinstance(value, int):
        return st.sampled_from([value + 1, value - 1])
    return st.sampled_from([w for w in _WORDS if w != value] + [value + "x"])


def test_every_registry_command_has_certified_paths():
    assert set(CERTIFIED) == set(REGISTRY)


@pytest.mark.parametrize("command", sorted(REGISTRY))
def test_honest_report_verifies(command):
    code, vr = verify(json.loads(honest(command)))
    assert code == 0 and vr["verdict"] == "ok"
    assert all(c["ok"] for c in vr["checks"])


@pytest.mark.parametrize("command", sorted(REGISTRY))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_tampered_certified_leaf_is_refused(command, data):
    doc = json.loads(honest(command))
    leaves = [leaf for path in CERTIFIED[command]
              for leaf in _leaves(_at(doc, path), path)]
    path, value = data.draw(st.sampled_from(leaves))
    forged = data.draw(_mutations(value))
    _at(doc, path[:-1])[path[-1]] = forged
    code, vr = verify(doc)
    assert code in (2, 4), (path, value, forged, vr)


# -- the report sets no work --------------------------------------------------
#
# A replay does the work that its input asks for, whatever numbers a
# report claims. Each int leaf of an honest result, scaled by 10 and by
# 1000, must keep the replay within the honest reports' reach: no field
# larger than one they live in, no power of a twist above their purity
# certificates' r. The r of `isocrystal purity` is the `--r` the command
# was asked at, which its report keeps only in the certificate, so there
# the replay's tau^r follows the leaf, as the command's own does. A
# scaled leaf under `CERTIFIED` that changes the claim must be refused.

ASKED = {"isocrystal purity": ("result", "certificate", "r")}


def _int_leaves(node, path):
    """(path, value) of every int leaf under node, windows included."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _int_leaves(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _int_leaves(val, path + (i,))
    elif type(node) is int:
        yield path, node


def _same_claim(path, old, new, p):
    """Whether new says at path what old said: the same number, a window
    (left out as in the tamper test above), or a coordinate of a field
    element that is the same mod p."""
    if new == old or "window" in path:
        return True
    coordinate = (len(path) >= 4 and path[-2] == 1
                  and path[-4] in ("z_coeffs", "tauinv_coeffs", "coeffs"))
    return coordinate and (new - old) % p == 0


def _honest_reach():
    """The largest field degree over F_p and the largest purity
    denominator r of the honest reports."""
    degree = power = 1
    for command in REGISTRY:
        doc = json.loads(honest(command))
        base = doc["input"]["base"]
        leaves = list(_int_leaves(doc["result"], ()))
        ext = max([v for path, v in leaves if path[-1] == "extension"], default=1)
        degree = max(degree, base["a"] * base["m"] * base["ext"] * ext)
        power = max([power] + [v for path, v in leaves if path[-1] == "r"])
    return degree, power


@pytest.mark.parametrize("command", sorted(REGISTRY))
def test_scaled_leaf_sets_no_work(command, monkeypatch):
    degree, power = _honest_reach()
    limit = {}
    init, tau_power = basefield.FF.__init__, Isocrystal.tau_power

    def bounded_field(ff, p, n):
        if n > degree:
            pytest.fail(f"{limit['leaf']}: the replay builds F_{p}^{n}")
        init(ff, p, n)

    def bounded_power(M, k):
        if k > limit["power"]:
            pytest.fail(f"{limit['leaf']}: the replay raises the twist to tau^{k}")
        return tau_power(M, k)

    monkeypatch.setattr(basefield.FF, "__init__", bounded_field)
    monkeypatch.setattr(Isocrystal, "tau_power", bounded_power)
    p = json.loads(honest(command))["input"]["base"]["p"]
    for path, value in _int_leaves(json.loads(honest(command))["result"], ("result",)):
        for factor in (10, 1000):
            doc = json.loads(honest(command))
            forged = _at(doc, path[:-1])[path[-1]] = value * factor
            limit["leaf"] = (path, forged)
            limit["power"] = forged if path == ASKED.get(command) else power
            code, vr = verify(doc)
            if (any(path[:len(c)] == c for c in CERTIFIED[command])
                    and not _same_claim(path, value, forged, p)):
                assert code in (2, 4), (path, forged, vr)


# -- weil ---------------------------------------------------------------------


def _weil_rank2():
    # phi_t = tau^2 over F_3: the conjugator is 1, lam = -1/2
    K = F3F.field()
    E = DrinfeldModule(K, [K.zero(), K.zero(), K.one()])
    code, doc = run_json(["weil", "--input", jsonio.dump_canonical(E)])
    assert code == 0 and doc["result"]["weil"]["lam"] == [-1, 2]
    return doc


def test_weil_forged_not_admissible_is_refused():
    doc = _weil_rank2()
    doc["result"]["weil"]["admissible"] = False
    doc["verdict"] = "not_admissible"
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "weil: table is linear and admissible"]


def test_weil_forged_valuations_are_refused():
    doc = _weil_rank2()
    for row in doc["result"]["weil"]["table"]:
        row["v_tauinv"] = -3 * row["k"]
    code, _ = verify(doc)
    assert code == 4


def test_weil_forged_lambda_with_rescaled_valuations_is_refused():
    doc = _weil_rank2()
    wd = doc["result"]["weil"]
    wd["lam"] = [-1, 1]
    for row in wd["table"]:
        row["v_D"] = [-row["ord"], 1]
        row["v_tauinv"] = -2 * row["ord"]
    wd["rho_valuation"] = wd["table"][0]["v_D"]
    code, _ = verify(doc)
    assert code == 4


def test_weil_forged_extension_builds_no_field_of_its_degree(monkeypatch):
    # restated at extension 2000, the conjugator's coefficients are still
    # arrays of F_{9^2} = F_{3^4}: the report is refused before it is read
    # over F_{9^2000}
    doc = json.loads(honest("weil"))
    assert doc["result"]["weil"]["extension"] == 2
    doc["result"]["weil"]["extension"] = 2000
    init = basefield.FF.__init__

    def bounded(ff, p, n):
        if n > 4:
            pytest.fail(f"the replay builds F_{p}^{n}")
        init(ff, p, n)

    monkeypatch.setattr(basefield.FF, "__init__", bounded)
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "weil: conjugator re-substitutes"]


def test_weil_forged_conjugator_recomputes_no_table(monkeypatch):
    # the Weil table is read off the conjugator, so once the conjugator
    # fails its identity there is nothing left to recompute
    doc = json.loads(honest("weil"))
    coeffs = doc["result"]["weil"]["conjugator"]["tauinv_coeffs"]
    coeffs[-1][1][0] = (coeffs[-1][1][0] + 1) % 3
    calls, table = [], tateweil.weil_table
    monkeypatch.setattr(tateweil, "weil_table",
                        lambda *args: calls.append(args) or table(*args))
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "weil: conjugator re-substitutes"]
    assert not calls


def test_weil_empty_table_is_refused():
    doc = _weil_rank2()
    doc["result"]["weil"]["table"] = []
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "weil: table is linear and admissible", "weil: commutes with the twist"]


# -- analyze crosscheck ---------------------------------------------------------

_VALUED = dict(corpusgen.valued_corpus(0))
_CROSSCHECK = ["agree", "agree_after_extension", "obstruction_recorded"]


def _analyze(E):
    code, doc = run_json(["analyze", "--input", jsonio.dump_canonical(E)])
    assert code == 0
    return doc


@pytest.mark.parametrize("name", ["local", "dm-val-good-06", "dm-val-stable-00",
                                  "dm-val-potentiallygood-13"])
def test_crosscheck_verdict_tamper_is_refused(name):
    doc = _analyze(local_module() if name == "local" else _VALUED[name])
    code, vr = verify(doc)
    assert code == 0
    assert "crosscheck: verdict and data follow from the reduction" in [
        c["name"] for c in vr["checks"]]
    honest_verdict = doc["result"]["crosscheck"]["verdict"]
    for forged in _CROSSCHECK:
        if forged != honest_verdict:
            doc["result"]["crosscheck"]["verdict"] = forged
            code, vr = verify(doc)
            assert code == 4
            assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
                "crosscheck: verdict and data follow from the reduction"]


def test_analyze_forged_denominator_raises_no_power(monkeypatch):
    # analyze certifies slope -1/rank only: a certificate at r = 20 is
    # refused without tau^20 over F_3((zeta))
    doc = json.loads(honest("analyze"))
    cert = doc["result"]["infinity_purity"]
    assert (cert["s"], cert["r"]) == (-1, 2)
    cert["r"] = 20

    def refused(M, k):
        pytest.fail(f"the replay raises the twist to tau^{k}")

    monkeypatch.setattr(Isocrystal, "tau_power", refused)
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "infinity purity: tau^r T == z^s T"]


def test_reduction_verdict_tamper_is_refused():
    doc = _analyze(local_module())
    doc["result"]["reduction"]["verdict"] = "Stable"
    code, vr = verify(doc)
    assert code == 4
    assert "reduction: valuation table re-evaluates" in [
        c["name"] for c in vr["checks"] if not c["ok"]]


# -- solve ----------------------------------------------------------------------


def test_forged_qth_root_missing_is_refused():
    # sigma(x) = z x + (zeta^3 - zeta z) has the exact solution x = zeta;
    # zeta has no cube root, but it is not the rhs the recursion meets
    K = F3L.field()
    a = ZSeries.z(K)
    b = ZSeries(K, {0: K.zeta(3), 1: -K.zeta()})
    code, doc = run_json(["solve", "--ring", "BK", "--prec-z", "4",
                          "--a", solve_side(K, a), "--b", solve_side(K, b)])
    assert code == 0 and doc["verdict"] == "solution"
    doc["verdict"] = "no_solution"
    doc["result"] = {
        "kind": "solve_outcome", "verdict": "no_solution", "ring": "BK",
        "requested_precision": 4, "reason": "QthRootMissing",
        "witness": {"z_exponent": 0, "rhs": jsonio.render(K.zeta())},
    }
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"]] == ["solve: missing q-th root re-check"]


def test_forged_growth_is_refused():
    # the x_bk of an honest Bbar refusal (valuations unbounded below),
    # relabelled bounded below and offered as the solution
    K = F3L.field()
    a, b = ZSeries.z(K, -1), ZSeries(K, {-1: -K.zeta(-1)})
    code, doc = run_json(["solve", "--ring", "Bbar", "--prec-z", "6",
                          "--a", solve_side(K, a), "--b", solve_side(K, b)])
    assert code == 0 and doc["result"]["reason"] == "UnboundedCoefficientValuations"
    assert verify(doc)[0] == 0
    moved = json.loads(json.dumps(doc))
    moved["result"]["witness"]["valuation"] -= 1
    assert verify(moved)[0] == 4
    x = doc["result"]["x_bk"]
    x["growth"] = {"kind": "geometric_valuation_growth",
                   "conclusion": "bounded_below", "bound": -3}
    doc["verdict"] = "solution"
    doc["result"] = {
        "kind": "solve_outcome", "verdict": "solution", "ring": "Bbar",
        "requested_precision": 6, "achieved_precision": 6, "x": x,
        "growth": x["growth"],
        "membership": {"kind": "membership", "ring": "Bbar", "verdict": "yes",
                       "z_window_hi": 6, "bound": -3,
                       "note": "growth annotation bounds valuations below"},
    }
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "solve: membership re-check"]


@pytest.mark.parametrize("a_co", [{0: 1}, {-1: 1, 0: 1}])
def test_b_zero_to_its_window_replays(a_co):
    # b = O(z^3): constant a, and a non-monomial a of z-order -1, both
    # solved by x = 0 below the window; no growth annotation to re-derive
    K = F9F.field()
    a = ZSeries(K, {k: K.el(c) for k, c in a_co.items()})
    code, doc = run_json(["solve", "--ring", "BK", "--prec-z", "6",
                          "--a", solve_side(K, a), "--b", solve_side(K, ZSeries(K, {}, 3))])
    assert code == 0 and doc["verdict"] == "solution"
    code, vr = verify(doc)
    assert code == 0 and vr["verdict"] == "ok"


def test_honest_qth_root_missing_replays():
    name, payload = corpusgen.counterexample_problems()[3]
    assert name == "solve-affine-bk"
    _, doc = run_json([
        "solve", "--ring", payload["ring"], "--prec-z", str(payload["prec"]),
        "--a", json.dumps({"base": payload["base"], "value": payload["a"]}),
        "--b", json.dumps({"base": payload["base"], "value": payload["b"]})])
    assert doc["result"]["reason"] == "QthRootMissing"
    assert verify(doc)[0] == 0
    doc["result"]["witness"]["z_exponent"] += 1
    assert verify(doc)[0] == 4


# -- tate ---------------------------------------------------------------------


def test_tate_result_of_another_module_is_refused():
    # the honest result for unit(F_3, 2), pasted into the honest report
    # for the twist [[0, 1], [2, 0]]: its module is fixed by its own twist,
    # but that twist is not the input's in the lattice basis
    K = F3F.field()
    M = Isocrystal(K, [[ZSeries.zero(K), ZSeries.one(K)],
                       [ZSeries(K, {0: K.el(2)}, INF), ZSeries.zero(K)]])
    code, doc = run_json(["tate", "--input", jsonio.dump_canonical(M)])
    assert code == 0
    code, other = run_json(["tate", "--input", jsonio.dump_canonical(unit(K, 2))])
    assert code == 0
    doc["result"] = other["result"]
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "tate: twist is the input in the lattice basis"]


def test_tate_forged_twist_decides_no_degree(monkeypatch):
    # a twist that is not the input's ends the replay: the least degree
    # would be read off the forged twist, up to the report's extension
    K = F3F.field()
    code, doc = run_json(["tate", "--input", jsonio.dump_canonical(unit(K, 2))])
    assert code == 0
    swap = [[ZSeries.zero(K), ZSeries.one(K)], [ZSeries.one(K), ZSeries.zero(K)]]
    doc["result"]["tate"]["twist"] = [[jsonio.render(x) for x in row] for row in swap]
    doc["result"]["tate"]["extension"] = 7000
    calls, split = [], tateweil.split_degree

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(tateweil, "split_degree", counted)
    code, vr = verify(doc)
    assert code == 4 and calls == []
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "tate: twist is the input in the lattice basis"]


def test_tate_forged_larger_extension_is_refused():
    # the honest report on a constant F_4-twist splits at extension 3;
    # restated at 6, with its module basis moved into F_{4^6}, every
    # other claim still holds there
    K = F4F.field()
    M = Isocrystal(K, [[ZSeries(K, {0: K.gen()}, INF)]])
    code, doc = run_json(["tate", "--prec-z", "16",
                          "--input", jsonio.dump_canonical(M)])
    tate = doc["result"]["tate"]
    assert code == 0 and tate["extension"] == 3
    L3, L6 = K.extend(3), K.extend(6)

    def moved(cell):
        s = jsonio.parse_zseries(L3, cell)
        return jsonio.render(ZSeries(L6, {e: coerce_into(c, L6.ff)
                                          for e, c in s.co.items()}, s.hi))

    tate["extension"] = 6
    tate["module_basis"] = [[moved(cell) for cell in vec]
                            for vec in tate["module_basis"]]
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "tate: extension is the least degree that splits the twist"]


def test_tate_forged_extension_builds_no_field_of_its_degree(monkeypatch):
    # restated at extension 200, the report is refused at the degree
    # check, before the module basis is read over F_{4^200}
    K = F4F.field()
    M = Isocrystal(K, [[ZSeries(K, {0: K.gen()}, INF)]])
    code, doc = run_json(["tate", "--prec-z", "16",
                          "--input", jsonio.dump_canonical(M)])
    assert code == 0 and doc["result"]["tate"]["extension"] == 3
    doc["result"]["tate"]["extension"] = 200
    built = []
    init = basefield.FF.__init__

    def recorded(ff, p, n):
        built.append(n)
        init(ff, p, n)

    monkeypatch.setattr(basefield.FF, "__init__", recorded)
    code, vr = verify(doc)
    assert code == 4
    assert [c["name"] for c in vr["checks"] if not c["ok"]] == [
        "tate: extension is the least degree that splits the twist"]
    # F_{4^3} = F_{2^6} is the largest field of degree at most 3
    assert all(n <= 6 for n in built)


def test_tate_report_with_a_shifted_lattice_verifies():
    # P [[0, 1], [2, 0]] sigma(P)^-1 with P = [[1, z^-2], [0, z]]: the
    # invariant lattice has pivots z^-5 and 1 and finite windows, so
    # T twist and A sigma(T) are known only below z^5 < z^8
    K = F3F.field()

    def mono(c, k=0):
        return ZSeries(K, {k: K.el(c)}, INF)

    P = [[mono(1), mono(1, -2)], [mono(0), mono(1, 1)]]
    A = zmatrix.mul(zmatrix.mul(P, [[mono(0), mono(1)], [mono(2), mono(0)]]),
                    zmatrix.sigma(zmatrix.inv(P), 1))
    code, doc = run_json(["tate", "--input", jsonio.dump_canonical(Isocrystal(K, A))])
    assert code == 0 and doc["result"]["tate"]["lattice"]["pivots"] == [-5, 0]
    code, vr = verify(doc)
    assert code == 0 and all(c["ok"] for c in vr["checks"])
