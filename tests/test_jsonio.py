"""Canonical JSON layer: roundtrips, byte determinism, schema conformance."""

import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from taumod import drinfeld, isocrystal, jsonio, tateweil
from taumod.basefield import FieldDescriptor
from taumod.drinfeld import DrinfeldModule
from taumod.errors import InputError
from taumod.isocrystal import Isocrystal, simple_pure
from taumod.skew import SkewLaurent, SkewPoly
from taumod.zseries import ZSeries

INF = math.inf
SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "v1"

F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
F4F = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F9F = FieldDescriptor(p=3, a=2, m=2, kind="finite")


def _registry():
    resources = []
    for p in sorted(SCHEMA_DIR.glob("*.schema.json")):
        doc = json.loads(p.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validator_for(name, pointer=None):
    doc = json.loads((SCHEMA_DIR / name).read_text())
    if pointer is not None:
        doc = {"$ref": f"{doc['$id']}#{pointer}"}
    return Draft202012Validator(doc, registry=REGISTRY)


def reparse(obj):
    return json.loads(jsonio.dump_canonical(obj))


class TestFieldRoundtrip:
    @pytest.mark.parametrize("desc", [F3L, F4F, F9F])
    def test_descriptor_fixpoint(self, desc):
        K = desc.field()
        doc = reparse(K)
        validator_for("field.schema.json").validate(doc)
        K2 = jsonio.parse_field(doc)
        assert reparse(K2) == doc

    def test_extension_and_ramification_survive(self):
        K = F3L.field().extend(2).ramify(2)
        doc = reparse(K)
        assert doc["ext"] == 2 and doc["ram"] == 2
        K2 = jsonio.parse_field(doc)
        assert K2.q == K.q and K2.ram == K.ram
        assert reparse(K2) == doc

    def test_finite_field_never_carries_ram(self):
        doc = reparse(F9F.field())
        assert "ram" not in doc


class TestScalarRoundtrip:
    def test_finite_elem(self):
        K = F9F.field()
        x = K.gen() ** 5
        doc = reparse(x)
        validator_for("scalar.schema.json", "/$defs/elem").validate(doc)
        assert jsonio.parse_elem(K, doc) == x

    def test_local_elem_window(self):
        K = F3L.field()
        x = K.zeta(-2) + K.zeta(3)
        doc = reparse(x)
        validator_for("scalar.schema.json", "/$defs/elem").validate(doc)
        assert jsonio.parse_elem(K, doc) == x

    @pytest.mark.parametrize("desc", [F4F, F3L])
    def test_zseries_infinite_window(self, desc):
        K = desc.field()
        rng = random.Random(7)
        x = ZSeries(K, {-1: K.random(rng), 0: K.random(rng), 4: K.random(rng)}, INF)
        doc = reparse(x)
        validator_for("scalar.schema.json", "/$defs/zseries").validate(doc)
        assert doc["window"][1] is None
        y = jsonio.parse_zseries(K, doc)
        assert y == x and y.hi is INF

    def test_zseries_finite_window(self):
        K = F4F.field()
        x = ZSeries(K, {0: K.one()}, 5)
        y = jsonio.parse_zseries(K, reparse(x))
        assert y.hi == 5 and y == x

    def test_growth_annotation_restored(self):
        K = F3L.field()
        g = {"mu": [0, 1], "conclusion": "unbounded", "witness_exponent": 1,
             "witness_valuation": -3}
        x = ZSeries(K, {0: K.el(1)}, INF, growth=g)
        y = jsonio.parse_zseries(K, reparse(x))
        assert y.growth == g

    def test_constant_scalar_shorthand(self):
        # bare element accepted where a series is expected
        K = F9F.field()
        x = jsonio.parse_scalar(K, reparse(K.gen()))
        assert isinstance(x, ZSeries) and x.coeff(0) == K.gen()


class TestOperatorRoundtrip:
    def test_skew_poly(self):
        K = F3L.field()
        phi = SkewPoly(K, {0: K.zeta(), 2: K.one()})
        doc = reparse(phi)
        validator_for("skew.schema.json", "/$defs/skew_poly").validate(doc)
        psi = jsonio.parse_skewpoly(K, doc)
        assert reparse(psi) == doc

    def test_skew_laurent(self):
        K = F9F.field()
        u = SkewLaurent.tau_inv(K, 3) + SkewLaurent.one(K)
        doc = reparse(u)
        validator_for("skew.schema.json", "/$defs/skew_laurent").validate(doc)
        v = jsonio.parse_skewlaurent(K, doc)
        assert reparse(v) == doc


class TestModuleRoundtrip:
    def test_isocrystal(self):
        K = F9F.field()
        M = simple_pure(K, -1, 2)
        doc = reparse(M)
        validator_for("isocrystal.schema.json").validate(doc)
        M2 = jsonio.parse_isocrystal(doc)
        assert reparse(M2) == doc

    @pytest.mark.parametrize("desc", [F4F, F3L])
    def test_drinfeld(self, desc):
        K = desc.field()
        g0 = K.zeta() if K.kind == "local" else K.gen()
        E = DrinfeldModule(K, [g0, K.el(1), K.el(1)])
        doc = reparse(E)
        validator_for("drinfeld.schema.json").validate(doc)
        E2 = jsonio.parse_drinfeld(doc)
        assert reparse(E2) == doc

    def test_drinfeld_rejects_wrong_q(self):
        doc = reparse(DrinfeldModule(F4F.field(), [F4F.field().gen(), F4F.field().el(1)]))
        doc["q"] = 5
        with pytest.raises(InputError):
            jsonio.parse_drinfeld(doc)

    def test_isocrystal_rejects_wrong_rank(self):
        doc = reparse(simple_pure(F9F.field(), 1, 2))
        doc["rank"] = 3
        with pytest.raises(InputError):
            jsonio.parse_isocrystal(doc)


class TestCanonicalBytes:
    def test_repeat_dump_identical(self):
        M = simple_pure(F9F.field(), 1, 3)
        assert jsonio.dump_canonical(M) == jsonio.dump_canonical(M)

    def test_key_order_invariance(self):
        a = jsonio.dump_canonical({"b": 1, "a": [2, 3]})
        b = jsonio.dump_canonical({"a": [2, 3], "b": 1})
        assert a == b

    def test_fraction_and_inf_forms(self):
        from fractions import Fraction

        assert json.loads(jsonio.dump_canonical(Fraction(-3, 6))) == [-1, 2]
        assert json.loads(jsonio.dump_canonical(INF)) is None

    def test_int_keys_become_strings(self):
        assert json.loads(jsonio.dump_canonical({2: "x"})) == {"2": "x"}

    def test_trailing_newline(self):
        assert jsonio.dump_canonical(0).endswith("\n")


# the keys, in order, of each kind-tagged record's rendering: those of the
# dataclasses that the records replaced
RECORD_KEYS = {
    "PurityCertificate": ("s", "r", "lattice", "iterations", "residue"),
    "NotPureAt": ("s", "r", "witness"),
    "Inconclusive": ("note",),
    "ReductionReport": ("verdict", "m", "m_normalized", "stable_rank",
                        "ramification", "certificates"),
    "GoodModel": ("module", "m", "u", "A", "verify", "residue"),
    "TateData": ("rank", "z_precision", "extension", "lattice", "twist",
                 "fq_dimension", "module_basis", "frobenius"),
    "WeilData": ("lam", "frobenius_ord", "rho_valuation", "admissible",
                 "extension", "precision", "conjugator", "table",
                 "commutes_with_iota"),
    "ConjugatorData": ("u", "u0", "extension", "precision"),
    "FormalMotive": ("K", "rank", "phi_t", "phi_z", "precision"),
}


def _record_class(name):
    for mod in (isocrystal, drinfeld, tateweil):
        if hasattr(mod, name):
            return getattr(mod, name)
    raise LookupError(name)


class TestRecords:
    def test_every_tag_renders_its_fields_in_order(self):
        assert set(jsonio._KIND_TAGS) == set(RECORD_KEYS)
        for name, keys in RECORD_KEYS.items():
            rec = _record_class(name)(**{k: i for i, k in enumerate(keys)})
            out = jsonio.render(rec)
            assert list(out) == ["kind", *keys]
            assert out["kind"] == jsonio._KIND_TAGS[name]
            assert [out[k] for k in keys] == list(range(len(keys)))

    def test_computed_certificate_renders_by_fields(self):
        M = simple_pure(F9F.field(), 1, 2)
        cert = isocrystal.purity_check(M, 1, 2)
        assert isinstance(cert, isocrystal.PurityCertificate)
        doc = reparse(cert)
        assert doc["kind"] == "purity_certificate" and (doc["s"], doc["r"]) == (1, 2)
        assert doc["lattice"] == reparse(cert.lattice)
        not_pure = reparse(isocrystal.purity_check(M, 0, 1))
        assert not_pure["kind"] == "not_pure_at"
        assert set(not_pure) == {"kind", *RECORD_KEYS["NotPureAt"]}

    def test_positional_keyword_equality_and_repr(self):
        Inconclusive = isocrystal.Inconclusive
        a = isocrystal.NotPureAt(1, 2, witness={"drift": [0]})
        assert a == isocrystal.NotPureAt(s=1, r=2, witness={"drift": [0]})
        assert a != isocrystal.NotPureAt(1, 3, {"drift": [0]})
        assert Inconclusive("x") != a
        # `crit_crosscheck` writes this repr into a report
        assert repr(Inconclusive("no lattice")) == "Inconclusive(note='no lattice')"
        assert repr(a) == "NotPureAt(s=1, r=2, witness={'drift': [0]})"
        for bad in ((), ("x", "y"), ("x",)):
            kwargs = {"note": "y"} if bad == ("x",) else {}
            with pytest.raises(TypeError):
                Inconclusive(*bad, **kwargs)
        with pytest.raises(TypeError):
            Inconclusive(text="x")
        with pytest.raises(AttributeError):
            Inconclusive("x").extra = 1


class TestParseErrors:
    def test_malformed_text(self):
        with pytest.raises(InputError):
            jsonio.loads("{not json")

    def test_missing_field_keys(self):
        with pytest.raises(InputError):
            jsonio.parse_field({"kind": "finite", "p": 3})

    def test_unknown_field_kind(self):
        with pytest.raises(InputError):
            jsonio.parse_field({"kind": "padic", "p": 3, "a": 1, "m": 1})

    def test_elem_shape_rejected(self):
        with pytest.raises(InputError):
            jsonio.parse_elem(F9F.field(), {"coeffs": []})


@st.composite
def zseries_doc(draw):
    K = F4F.field()
    rng = random.Random(draw(st.integers(0, 10**6)))
    exps = draw(st.lists(st.integers(-6, 10), unique=True, max_size=6))
    co = {e: K.random(rng) for e in exps}
    co = {e: c for e, c in co.items() if c != K.zero()}
    hi = draw(st.one_of(st.none(), st.integers(12, 20)))
    return ZSeries(K, co, INF if hi is None else hi)


class TestPropertyRoundtrip:
    @given(zseries_doc())
    @settings(max_examples=60, deadline=None)
    def test_zseries_fixpoint(self, x):
        doc = reparse(x)
        y = jsonio.parse_zseries(x.K, doc)
        assert y == x and reparse(y) == doc
