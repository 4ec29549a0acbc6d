"""The windowed-series rules shared by ZSeries, LocalElem, SkewPoly and
SkewLaurent, run through each kind.

SkewPoly elements are built exact, so there the window rules reduce to
exactness.
"""

import math

import pytest

from taumod.basefield import FieldDescriptor, LocalElem
from taumod.errors import CoercionError, InputError
from taumod.skew import SkewLaurent, SkewPoly
from taumod.zseries import ZSeries

INF = math.inf

F4 = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F4L = FieldDescriptor(p=2, a=2, m=1, kind="local")

# (kind, base descriptor, coefficient ring of a base, windowed?, error
# for operands over fields that do not nest)
KINDS = [
    pytest.param(ZSeries, F4, lambda K: K, True, CoercionError, id="ZSeries"),
    pytest.param(LocalElem, F4L, lambda K: K.residue_K(), True, CoercionError,
                 id="LocalElem"),
    pytest.param(SkewPoly, F4, lambda K: K, False, InputError, id="SkewPoly"),
    pytest.param(SkewLaurent, F4, lambda K: K, True, InputError, id="SkewLaurent"),
]


def make(cls, ring, K, co, hi, windowed):
    R = ring(K)
    return cls(K, {e: R.el(c) for e, c in co.items()}, hi if windowed else INF)


@pytest.mark.parametrize("cls, desc, ring, windowed, unpaired", KINDS)
class TestSharedRules:
    def test_exact_zero_absorbs(self, cls, desc, ring, windowed, unpaired):
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

    def test_product_window(self, cls, desc, ring, windowed, unpaired):
        K = desc.field()
        a = make(cls, ring, K, {1: 1, 3: [0, 1]}, 6, windowed)
        b = make(cls, ring, K, {-2: [1, 1], 0: 1}, 2, windowed)
        for x, y in ((a, b), (b, a)):
            prod = x * y
            want = min(x.hi + y.val_lower_bound(), y.hi + x.val_lower_bound())
            assert prod.hi == (want if windowed else INF)
            assert all(e < prod.hi for e in prod.co)
            assert min(prod.co) == -1  # v(a) + v(b), nonzero leading product

    def test_truncate(self, cls, desc, ring, windowed, unpaired):
        K = desc.field()
        a = make(cls, ring, K, {-1: 1, 0: [1, 1], 2: [0, 1]}, 5, windowed)
        t = a.truncate(1)
        assert t.support() == [-1, 0] and t.hi == 1
        assert a.truncate(9).hi == min(a.hi, 9)
        assert a.truncate(9).co == a.co

    def test_agrees_on_common_window(self, cls, desc, ring, windowed, unpaired):
        K = desc.field()
        a = make(cls, ring, K, {0: 1, 2: [0, 1]}, 3, windowed)
        if windowed:
            # differs from a only at z^3, where a is not known
            b = make(cls, ring, K, {0: 1, 2: [0, 1], 3: 1}, 6, windowed)
            assert a.agrees_with(b) and b.agrees_with(a)
        c = make(cls, ring, K, {0: 1, 2: [1, 1]}, 3, windowed)
        assert not a.agrees_with(c) and not c.agrees_with(a)
        assert a.agrees_with(a.truncate(1))

    def test_pairs_nested_fields(self, cls, desc, ring, windowed, unpaired):
        K4 = desc.field()
        K16 = K4.extend(2)
        a = make(cls, ring, K4, {0: [0, 1], 1: 1}, 4, windowed)
        b = make(cls, ring, K16, {0: [1, 0, 1, 1]}, 3, windowed)
        lifted = ring(K16).coerce(ring(K4).el([0, 1]))
        for s in (a + b, b + a):
            assert s.K is K16
            assert s.coeff(0) == lifted + ring(K16).el([1, 0, 1, 1])
            assert s.coeff(1) == ring(K16).one()
            assert s.hi == (3 if windowed else INF)
        assert (a * b).K is K16 and (b * a).K is K16
        assert a.agrees_with(a * cls.one(K16))

    def test_rejects_fields_that_do_not_nest(self, cls, desc, ring, windowed,
                                             unpaired):
        K4 = desc.field()
        K16, K64 = K4.extend(2), K4.extend(3)
        a = make(cls, ring, K16, {0: 1, 1: 1}, 4, windowed)
        b = make(cls, ring, K64, {0: 1}, 4, windowed)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(unpaired):
                x + y
            with pytest.raises(unpaired):
                x * y
