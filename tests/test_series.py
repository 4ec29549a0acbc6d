"""The windowed-series rules shared by ZSeries, LocalElem, SkewPoly and
SkewLaurent, run through each kind.

SkewPoly elements are built exact, so there the window rules reduce to
exactness.
"""

import math
import random

import pytest

from taumod.basefield import FieldDescriptor, LocalElem
from taumod.errors import CoercionError, InvariantError, NotInvertible, PrecisionLoss
from taumod.series import Series, sum_of_products
from taumod.skew import SkewLaurent, SkewPoly
from taumod.zseries import ZSeries

from dense_oracle import geometric_inv, random_coeff, skew_inverse

INF = math.inf

F4 = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F4L = FieldDescriptor(p=2, a=2, m=1, kind="local")

# (kind, base descriptor, coefficient ring of a base, windowed?)
KINDS = [
    pytest.param(ZSeries, F4, lambda K: K, True, id="ZSeries"),
    pytest.param(LocalElem, F4L, lambda K: K.residue_K(), True, id="LocalElem"),
    pytest.param(SkewPoly, F4, lambda K: K, False, id="SkewPoly"),
    pytest.param(SkewLaurent, F4, lambda K: K, True, id="SkewLaurent"),
]


def make(cls, ring, K, co, hi, windowed):
    R = ring(K)
    return cls(K, {e: R.el(c) for e, c in co.items()}, hi if windowed else INF)


@pytest.mark.parametrize("cls, desc, ring, windowed", KINDS)
class TestSharedRules:
    def test_exact_zero_absorbs(self, cls, desc, ring, windowed):
        K = desc.field()
        a = make(cls, ring, K, {-1: 1, 2: [0, 1]}, 5, windowed)
        zero = cls.zero(K)
        for prod in (a * zero, zero * a):
            assert prod.co == {} and prod.hi is INF
        # a zero known only below a window does not absorb
        if windowed:
            w = cls(K, {}, 4)
            prod = a * w
            assert prod.co == {} and prod.hi == min(5 + 4, 4 + (-1))

    def test_product_window(self, cls, desc, ring, windowed):
        K = desc.field()
        a = make(cls, ring, K, {1: 1, 3: [0, 1]}, 6, windowed)
        b = make(cls, ring, K, {-2: [1, 1], 0: 1}, 2, windowed)
        for x, y in ((a, b), (b, a)):
            prod = x * y
            want = min(x.hi + y.val_lower_bound(), y.hi + x.val_lower_bound())
            assert prod.hi == (want if windowed else INF)
            assert all(e < prod.hi for e in prod.co)
            assert min(prod.co) == -1  # v(a) + v(b), nonzero leading product

    def test_truncate(self, cls, desc, ring, windowed):
        K = desc.field()
        a = make(cls, ring, K, {-1: 1, 0: [1, 1], 2: [0, 1]}, 5, windowed)
        t = a.truncate(1)
        assert t.support() == [-1, 0] and t.hi == 1
        assert a.truncate(9).hi == min(a.hi, 9)
        assert a.truncate(9).co == a.co

    def test_agrees_on_common_window(self, cls, desc, ring, windowed):
        K = desc.field()
        a = make(cls, ring, K, {0: 1, 2: [0, 1]}, 3, windowed)
        if windowed:
            # differs from a only at z^3, where a is not known
            b = make(cls, ring, K, {0: 1, 2: [0, 1], 3: 1}, 6, windowed)
            assert a.agrees_with(b) and b.agrees_with(a)
        c = make(cls, ring, K, {0: 1, 2: [1, 1]}, 3, windowed)
        assert not a.agrees_with(c) and not c.agrees_with(a)
        assert a.agrees_with(a.truncate(1))

    def test_pairs_nested_fields(self, cls, desc, ring, windowed):
        K4 = desc.field()
        K16 = K4.extend(2)
        a = make(cls, ring, K4, {0: [0, 1], 1: 1}, 4, windowed)
        b = make(cls, ring, K16, {0: [1, 0, 1, 1]}, 3, windowed)
        lifted = ring(K16).coerce(ring(K4).el([0, 1]))
        a16 = a._lift(K16)
        for s in (a16 + b, b + a16):
            assert s.K is K16
            assert s.coeff(0) == lifted + ring(K16).el([1, 0, 1, 1])
            assert s.coeff(1) == ring(K16).one()
            assert s.hi == (3 if windowed else INF)
        assert (a16 * b).K is K16 and (b * a16).K is K16
        assert a16.agrees_with(a16 * cls.one(K16))

    def test_rejects_fields_that_do_not_nest(self, cls, desc, ring, windowed):
        K4 = desc.field()
        K16, K64 = K4.extend(2), K4.extend(3)
        a = make(cls, ring, K16, {0: 1, 1: 1}, 4, windowed)
        b = make(cls, ring, K64, {0: 1}, 4, windowed)
        assert_mixed_fields_refused(a, b)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(CoercionError):
                x._lift(y.K)

    def test_rejects_fields_that_nest(self, cls, desc, ring, windowed):
        # one field embeds in the other, and still only an explicit lift
        # moves an operand there
        K4 = desc.field()
        a = make(cls, ring, K4, {0: [0, 1], 1: 1}, 4, windowed)
        b = make(cls, ring, K4.extend(2), {0: [1, 0, 1, 1]}, 3, windowed)
        assert_mixed_fields_refused(a, b)
        with pytest.raises(CoercionError):
            b._lift(K4)


def assert_mixed_fields_refused(a, b):
    """Every operation on a and b, series over two fields, is a fault."""
    for x, y in ((a, b), (b, a)):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: x == y, lambda: x.agrees_with(y),
                   lambda: sum_of_products([(x, x, False), (y, None, True)])):
            with pytest.raises(InvariantError):
                op()


def test_lift_keeps_the_base():
    # F_4 as (p, a, m) = (2, 1, 2) and as (2, 2, 1): one coefficient field,
    # but sigma is the 2-power map on one and the identity on the other
    K = FieldDescriptor(p=2, a=1, m=2, kind="finite").field()
    x = ZSeries(K, {0: K.gen(), 1: K.one()}, 5)
    for L in (F4.field(), F4.field().extend(2), F2.field().extend(2),
              FieldDescriptor(p=2, a=1, m=2, kind="finite", window=(-4, 8)).field(),
              FieldDescriptor(p=2, a=1, m=2, kind="local").field()):
        with pytest.raises(CoercionError):
            x._lift(L)
    L = K.extend(3)
    assert x._lift(L).co == {0: L.el(K.gen()), 1: L.one()} and x._lift(L).hi == 5
    # over a local base the ramification must match too
    KL = F4L.field()
    y = LocalElem(KL, {1: KL.residue_K().one()}, INF)
    with pytest.raises(CoercionError):
        y._lift(KL.ramify(2))
    assert y._lift(KL.extend(2)).K is KL.extend(2)


def test_coefficient_of_another_field_is_refused():
    # a Felt of F_16 is no coefficient over F_4, nor a constant of F_4((zeta))
    K, KL = F4.field(), F4L.field()
    foreign = K.extend(2).gen()
    with pytest.raises(InvariantError):
        ZSeries(K, {0: foreign})
    with pytest.raises(InvariantError):
        KL.one() + foreign
    # nor is an F_4 scalar one of F_16
    with pytest.raises(InvariantError):
        ZSeries.one(K.extend(2)).scale(K.gen())
    assert KL.one() + K.gen() == KL.el(K.gen()) + 1


# -- one inverse ---------------------------------------------------------------
#
# `Series.inv` is one recurrence at every twist. It must give what the two
# inverses it replaced gave (dense_oracle): the geometric series summed by
# full products for the untwisted kinds, and the coefficient loop of the
# old `skew_inverse` for SkewLaurent. `==` compares the windows, and over a
# local K the zeta-windows of the coefficients too.

F2 = FieldDescriptor(p=2, a=1, m=1, kind="finite")
F9 = FieldDescriptor(p=3, a=2, m=1, kind="finite")
F2_16 = FieldDescriptor(p=2, a=1, m=16, kind="finite")
F2L = FieldDescriptor(p=2, a=1, m=1, kind="local")
F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")

# (kind, base, reference inverse, coefficient maker)
INVERSES = [
    pytest.param(ZSeries, desc, geometric_inv, lambda K, rng: K.random(rng),
                 id=f"ZSeries-{label}")
    for label, desc in (("F2", F2), ("F4", F4), ("F9", F9), ("F2^16", F2_16))
] + [
    pytest.param(ZSeries, desc, geometric_inv, random_coeff, id=f"ZSeries-{label}")
    for label, desc in (("F2((zeta))", F2L), ("F3((zeta))", F3L), ("F4((zeta))", F4L))
] + [
    pytest.param(LocalElem, desc, geometric_inv,
                 lambda K, rng: K.residue_K().random(rng), id=f"LocalElem-{label}")
    for label, desc in (("F2((zeta))", F2L), ("F4((zeta))", F4L))
] + [
    pytest.param(SkewLaurent, desc, skew_inverse, lambda K, rng: K.random(rng),
                 id=f"SkewLaurent-{label}")
    for label, desc in (("F2", F2), ("F4", F4), ("F9", F9), ("F2^16", F2_16))
]


def random_invertible(cls, K, rng, coeff):
    """A seeded series: an exact monomial one time in eight, otherwise up
    to 7 terms, windowed two times in three (sometimes below its own
    support); over a local K one coefficient in eight is zero to its
    window."""
    lo = rng.randrange(-3, 3)
    if rng.random() < 0.125:
        exps, hi = [lo], INF
    else:
        exps = rng.sample(range(lo, lo + 9), rng.randrange(1, 8))
        hi = max(exps) + rng.randrange(-2, 5) if rng.random() < 0.67 else INF
    co = {}
    for e in exps:
        if K.kind == "local" and cls is ZSeries and rng.random() < 0.125:
            co[e] = LocalElem(K, {}, rng.randrange(-2, 4))
        else:
            co[e] = coeff(K, rng)
    return cls(K, co, hi)


def inverse_or_error(inv, f, prec):
    try:
        return inv(f) if prec is None else inv(f, prec)
    except (NotInvertible, PrecisionLoss) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, desc, reference, coeff", INVERSES)
def test_inverse_is_that_of_the_replaced_algorithm(cls, desc, reference, coeff):
    K = desc.field()
    rng = random.Random(f"one-inverse:{cls.__name__}:{desc}")
    inverted = windowed = 0
    for _ in range(60):
        f = random_invertible(cls, K, rng, coeff)
        v = min(f.co) if f.co else 0
        precs = [None, 0, 1, rng.randrange(2, 12)]
        if f.hi is not INF:
            # below and above the last exponent the window determines
            precs += [f.hi - v - 1, f.hi - v + 3]
        for prec in precs:
            got = inverse_or_error(type(f).inv, f, prec)
            want = inverse_or_error(reference, f, prec)
            assert type(got) is type(want)
            assert got == want, (f, prec)
            if isinstance(got, Series):
                inverted += 1
                windowed += any(getattr(c, "hi", INF) is not INF
                                for c in got.co.values())
    assert inverted >= 150
    if cls is ZSeries and K.kind == "local":
        assert windowed >= 50


def repeated_squaring(x, e):
    """x^e by square-and-multiply, through the inverse for e < 0: the
    power every series took before exact monomials took one step."""
    if e < 0:
        return repeated_squaring(x.inv(), -e)
    acc, base = x.one(x.K), x
    while e > 0:
        if e & 1:
            acc = acc * base
        base = base * base
        e >>= 1
    return acc


F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")


def _monomials():
    """Exact monomials over F_4, F_3((zeta)) and F_4((zeta)), the last
    two both as LocalElem and as ZSeries whose coefficient is local
    (one of them an exact binomial, one known only below zeta^2)."""
    K4, K3L, K4L = F4.field(), F3L.field(), F4L.field()
    w = K4.gen()
    yield ZSeries(K4, {3: w})
    yield ZSeries(K4, {-2: w * w})
    yield LocalElem(K3L, {-1: K3L.cf.el(2)})
    yield LocalElem(K4L, {2: K4L.cf.gen})
    yield ZSeries(K3L, {1: K3L.zeta(-2)})
    yield ZSeries(K3L, {-1: K3L.one() + K3L.zeta(1)})
    yield ZSeries(K4L, {2: LocalElem(K4L, {0: K4L.cf.gen, 1: K4L.cf.one}, 2)})


@pytest.mark.parametrize("e", [0, 1, 2, 5, 9, 27, -1, -3, -9])
def test_exact_monomial_power_is_repeated_squaring(e):
    for x in _monomials():
        got = x**e
        assert got == repeated_squaring(x, e), (x, e)
        assert got.hi is INF and len(got.co) == 1
