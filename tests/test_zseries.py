"""Series-layer tests: sigma action, windows, ring-tower membership."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from taumod.basefield import FieldDescriptor
from taumod.embedding import coerce_into
from taumod.errors import NoRoot, NotInvertible, PrecisionLoss
from taumod.rings import membership
from taumod.zseries import ZSeries

INF = math.inf

F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
F4F = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F9F = FieldDescriptor(p=3, a=2, m=2, kind="finite")


def rand_series(K, rng, lo=-2, hi=4, density=0.6):
    co = {}
    for e in range(lo, hi):
        if rng.random() < density:
            c = K.random(rng) if K.kind == "finite" else K.random(rng)
            co[e] = c
    return ZSeries(K, co, INF)


class TestSigma:
    def test_coefficientwise_q_power(self):
        K = F4F.field()
        x = ZSeries.from_pairs(K, [(0, K.gen()), (2, K.gen() ** 2), (5, 1)])
        y = x.sigma()
        for e in x.support():
            assert y.coeff(e) == x.coeff(e) ** 4
        assert y.support() == x.support()

    def test_constants_in_fq_fixed(self):
        K = F9F.field()  # q = 9, field F_81
        c = K.gen() ** ((81 - 1) // (9 - 1))  # norm-style element of F_9
        assert K.sigma(c) == c
        x = ZSeries.from_pairs(K, [(3, c)])
        assert x.sigma() == x

    def test_zeta_example(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(-1, K.zeta())])
        y = x.sigma()
        assert y.coeff(-1) == K.zeta(3)

    def test_ring_endomorphism(self):
        import random

        rng = random.Random(7)
        K = F3L.field()
        for _ in range(10):
            x = rand_series(K, rng)
            y = rand_series(K, rng)
            assert (x + y).sigma() == x.sigma() + y.sigma()
            assert (x * y).sigma() == x.sigma() * y.sigma()

    def test_not_surjective_over_local(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(0, K.zeta())])
        with pytest.raises(NoRoot) as exc:
            x.sigma(-1)
        assert exc.value.witness["exponent"] == 1

    def test_sigma_inverse_roundtrip_finite(self):
        K = F4F.field()
        x = ZSeries.from_pairs(K, [(1, K.gen()), (4, K.gen() ** 2)])
        assert x.sigma().sigma(-1) == x


class TestArithmetic:
    def test_z_order_additive(self):
        import random

        rng = random.Random(11)
        K = F4F.field()
        for _ in range(20):
            x = rand_series(K, rng)
            y = rand_series(K, rng)
            if not (x.known_nonzero() and y.known_nonzero()):
                continue
            assert (x * y).valuation() == x.valuation() + y.valuation()

    def test_distributivity(self):
        import random

        rng = random.Random(13)
        K = F3L.field()
        for _ in range(8):
            x, y, w = (rand_series(K, rng) for _ in range(3))
            assert x * (y + w) == x * y + x * w

    def test_monomial_inverse_exact(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(3, K.zeta(-2))])
        xi = x.inv()
        assert xi.is_exact()
        assert (x * xi) == ZSeries.one(K)

    def test_series_inverse_window(self):
        K = F4F.field()
        x = ZSeries.from_pairs(K, [(0, 1), (1, K.gen())])
        xi = x.inv(prec=6)
        assert xi.hi == 6
        assert (x * xi).agrees_with(ZSeries.one(K))
        # geometric series: coefficient at z^n is gen^n
        for n in range(6):
            assert xi.coeff(n) == K.gen() ** n

    def test_inverse_of_zero_rejected(self):
        K = F4F.field()
        with pytest.raises(NotInvertible):
            ZSeries.zero(K).inv()

    def test_mul_window_tracking(self):
        K = F4F.field()
        x = ZSeries(K, {0: K.one()}, hi=3)
        y = ZSeries.from_pairs(K, [(2, 1)])
        assert (x * y).hi == 5
        assert (y * y).hi is INF

    def test_coeff_outside_window(self):
        K = F4F.field()
        x = ZSeries(K, {0: K.one()}, hi=3)
        with pytest.raises(PrecisionLoss):
            x.coeff(3)

    def test_zero_to_window_valuation(self):
        K = F4F.field()
        x = ZSeries(K, {}, hi=4)
        with pytest.raises(PrecisionLoss):
            x.valuation()
        with pytest.raises(PrecisionLoss):
            x.is_zero()
        assert ZSeries.zero(K).is_zero()

    def test_shift_scale(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(0, 1), (2, K.zeta())])
        assert x.shift(3).support() == [3, 5]
        assert x.scale(K.zeta()).coeff(0) == K.zeta()

    def test_cross_extension_coercion(self):
        K = F4F.field()
        K2 = K.extend(3)
        x = ZSeries.from_pairs(K, [(0, K.gen())])
        y = ZSeries.from_pairs(K2, [(1, K2.gen())])
        s = x._lift(K2) + y
        assert s.K is K2
        assert s.coeff(0) == coerce_into(K.gen(), K2.ff)


class TestMembership:
    def test_ak_no_for_principal_part(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(-3, 1)])
        cert = membership(x, "AK")
        assert cert["verdict"] == "no"
        assert cert["witness"]["exponent"] == -3

    def test_ak_yes(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(0, 1), (5, K.zeta(-1))])
        assert membership(x, "AK")["verdict"] == "yes"

    def test_ak_inconclusive_window(self):
        K = F3L.field()
        x = ZSeries(K, {}, hi=-1)
        assert membership(x, "AK")["verdict"] == "inconclusive"

    def test_bok_yes(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(0, 1), (1, K.zeta())])
        assert membership(x, "BOK")["verdict"] == "yes"

    def test_bok_no_with_witness(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(0, 1), (2, K.zeta(-4))])
        cert = membership(x, "BOK")
        assert cert["verdict"] == "no"
        assert cert["witness"] == {"exponent": 2, "valuation": -4}

    def test_bok_inconclusive_on_unsettled_coefficient(self):
        K = F3L.field()
        c = K.zeta().truncate(-2)  # zero to precision zeta^{-2}
        x = ZSeries(K, {1: c}, hi=INF)
        assert membership(x, "BOK")["verdict"] == "inconclusive"

    def test_bk_always_yes(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(-5, K.zeta(-9))])
        assert membership(x, "BK")["verdict"] == "yes"

    def test_finite_base_degenerate_tags(self):
        K = F4F.field()
        x = ZSeries.from_pairs(K, [(-1, K.gen())])
        assert membership(x, "BOK")["verdict"] == "yes"
        assert membership(x, "Bbar")["verdict"] == "yes"
        assert membership(x, "AK")["verdict"] == "no"

    def _growth_x(self, N=6):
        # x = sum alpha^{q^n} z^n, alpha = zeta^{-1}, q = 3
        K = F3L.field()
        alpha = K.zeta(-1)
        co = {}
        c = alpha
        for n in range(N):
            co[n] = c
            c = K.sigma(c)
        return K, ZSeries(K, co, hi=N)

    def test_bbar_inconclusive_without_annotation(self):
        _, x = self._growth_x()
        cert = membership(x, "Bbar")
        assert cert["verdict"] == "inconclusive"
        assert cert["trend"] == "decreasing"
        assert cert["bound"] == -(3**5)

    def test_bbar_no_with_growth_annotation(self):
        _, x = self._growth_x()
        x = x.with_growth(
            {
                "kind": "geometric_valuation_growth",
                "conclusion": "unbounded_below",
                "witness_exponent": 0,
                "witness_valuation": -1,
            }
        )
        cert = membership(x, "Bbar")
        assert cert["verdict"] == "no"
        assert cert["witness"]["valuation"] == -1

    def test_bbar_yes_exact(self):
        K = F3L.field()
        x = ZSeries.from_pairs(K, [(0, K.zeta(-2)), (1, 1)])
        cert = membership(x, "Bbar")
        assert cert["verdict"] == "yes"
        assert cert["bound"] == -2

    def test_monotone_along_tower(self):
        import random

        rng = random.Random(17)
        K = F3L.field()
        order = {"yes": 0, "inconclusive": 1, "no": 2}
        for _ in range(25):
            x = rand_series(K, rng)
            # smaller ring membership must not beat larger ring membership
            bok = order[membership(x, "BOK")["verdict"]]
            bbar = order[membership(x, "Bbar")["verdict"]]
            bk = order[membership(x, "BK")["verdict"]]
            ak = order[membership(x, "AK")["verdict"]]
            assert bok >= bbar >= bk
            assert ak >= bk


def _profile(x):
    """{z-exponent: zeta-valuation} of the stored coefficients of x."""
    return {n: c.valuation() for n, c in x.co.items()}


class TestContentProfile:
    def test_convolution_lower_bound(self):
        import random

        rng = random.Random(23)
        K = F3L.field()
        for _ in range(10):
            x = rand_series(K, rng, lo=0, hi=3, density=0.8)
            y = rand_series(K, rng, lo=0, hi=3, density=0.8)
            if not (x.known_nonzero() and y.known_nonzero()):
                continue
            px, py = _profile(x), _profile(y)
            pxy = _profile(x * y)
            for n, v in pxy.items():
                lower = min(
                    px[i] + py[n - i]
                    for i in px
                    if (n - i) in py
                )
                assert v >= lower
            # equality at the extremal Newton point
            n0 = x.valuation() + y.valuation()
            if n0 in pxy:
                assert pxy[n0] == px[x.valuation()] + py[y.valuation()]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1))
def test_sigma_additive_multiplicative_f3_tower(e1, e2):
    K = F9F.field()
    a = K.ff.el(K.ff._dec(e1 % K.ff.size))
    b = K.ff.el(K.ff._dec(e2 % K.ff.size))
    x = ZSeries.from_pairs(K, [(0, a), (1, b)])
    y = ZSeries.from_pairs(K, [(0, b), (2, a)])
    assert (x * y).sigma() == x.sigma() * y.sigma()
    assert (x + y).sigma() == x.sigma() + y.sigma()
