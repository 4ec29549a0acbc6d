"""Twisted polynomial and tau^{-1}-series tests.

The load-bearing oracle: skew multiplication must match composition of
the associated additive polynomials x -> sum f_i x^{q^i}.
"""

import math
import random

import pytest

from taumod.basefield import FieldDescriptor
from taumod.errors import InputError, NotInvertible, PrecisionLoss
from taumod.skew import (
    SkewLaurent,
    SkewPoly,
    skew_inverse,
)

INF = math.inf

F4 = FieldDescriptor(p=2, a=1, m=2, kind="finite")  # F_4 over q = 2
F9 = FieldDescriptor(p=3, a=2, m=1, kind="finite")  # F_9 = F_q, q = 9
F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")


def rand_poly(K, rng, maxdeg=3):
    return SkewPoly(K, {d: K.random(rng) for d in range(rng.randrange(1, maxdeg + 1))})


def additive(f, x, F):
    """The additive polynomial sum f_i x^{q^i} of f at x in F, an
    extension of f's base into which each coefficient is lifted."""
    acc = F.zero()
    for d, c in f.co.items():
        acc = acc + F.el(c) * F.sigma(x, d)
    return acc


def rand_laurent(K, rng, lo=-2, n=4):
    co = {k: K.random(rng) for k in range(lo, lo + n)}
    return SkewLaurent(K, co, INF)


def conjugate(u, f, prec):
    """u * f * u^-1 within the common window."""
    return (u * f) * skew_inverse(u, prec)


class TestSkewPoly:
    def test_defining_relation_local(self):
        K = F3L.field()
        f = SkewPoly.tau(K) * SkewPoly(K, {0: K.zeta()})
        assert f.support() == [1]
        assert f.coeff(1) == K.zeta(3)

    def test_tau_times_tau(self):
        K = F4.field()
        assert SkewPoly.tau(K) * SkewPoly.tau(K) == SkewPoly.tau(K, 2)

    def test_rank_one_product_formula(self):
        K = F4.field()
        a, b = K.gen(), K.gen() ** 2
        f = SkewPoly.from_pairs(K, [(0, a), (1, 1)])
        g = SkewPoly.from_pairs(K, [(0, b), (1, 1)])
        h = f * g
        assert h.coeff(0) == a * b
        assert h.coeff(1) == a + b**2
        assert h.coeff(2) == K.one()

    def test_product_is_composition(self):
        # brute-force oracle on the sixteen points of F_16
        K = F4.field()
        big = K.extend(2)
        rng = random.Random(3)
        for _ in range(6):
            f, g = rand_poly(K, rng), rand_poly(K, rng)
            h = f * g
            for enc in range(big.ff.size):
                x = big.ff.el(big.ff._dec(enc))
                lhs = additive(h, x, big)
                rhs = additive(f, additive(g, x, big), big)
                assert lhs == rhs

    def test_degree_additive(self):
        K = F9.field()
        rng = random.Random(5)
        for _ in range(10):
            f, g = rand_poly(K, rng), rand_poly(K, rng)
            if f.is_zero() or g.is_zero():
                continue
            assert max((f * g).co) == max(f.co) + max(g.co)

    def test_associative(self):
        K = F4.field()
        rng = random.Random(7)
        for _ in range(8):
            f, g, h = (rand_poly(K, rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)

    def test_local_coefficients(self):
        K = F3L.field()
        f = SkewPoly.from_pairs(K, [(0, K.zeta()), (1, 1)])
        g = f * f
        # (zeta + tau)(zeta + tau) = zeta^2 + (zeta + zeta^3) tau + tau^2
        assert g.coeff(0) == K.zeta(2)
        assert g.coeff(1) == K.zeta() + K.zeta(3)
        assert g.coeff(2) == K.one()

    def test_negative_power_rejected(self):
        K = F4.field()
        with pytest.raises(InputError):
            SkewPoly.tau(K) ** (-1)


class TestSkewLaurent:
    def test_local_base_rejected(self):
        K = F3L.field()
        with pytest.raises(InputError):
            SkewLaurent.zero(K)

    def test_tauinv_relation(self):
        # tau^{-1} * c = c^{1/q} * tau^{-1}
        K = F4.field()
        c = K.gen()
        f = SkewLaurent.tau_inv(K) * SkewLaurent(K, {0: c})
        assert f.co == {1: K.qth_root(c)}
        assert K.sigma(K.qth_root(c)) == c

    def test_v_tau_inv(self):
        K = F4.field()
        assert SkewLaurent.tau_inv(K).v_tau_inv() == 1
        assert SkewLaurent(K, {0: K.gen()}).v_tau_inv() == 0
        assert SkewLaurent.zero(K).v_tau_inv() is INF
        with pytest.raises(PrecisionLoss):
            SkewLaurent(K, {}, hi=5).v_tau_inv()

    def test_valuation_additive(self):
        K = F9.field()
        rng = random.Random(11)
        for _ in range(10):
            f = rand_laurent(K, rng, lo=rng.randrange(-3, 3))
            g = rand_laurent(K, rng, lo=rng.randrange(-3, 3))
            if not (f.co and g.co):
                continue
            assert (f * g).v_tau_inv() == f.v_tau_inv() + g.v_tau_inv()

    def test_mul_window_tracking(self):
        K = F4.field()
        f = SkewLaurent(K, {0: K.one()}, hi=4)
        g = SkewLaurent.tau_inv(K, 2)
        assert (f * g).hi == 6

    def test_inverse_of_tau(self):
        K = F4.field()
        tau = SkewLaurent(K, {-1: K.one()})
        u = skew_inverse(tau, prec=5)
        assert u.co == {1: K.one()}

    def test_inverse_theta_plus_tau(self):
        # oracle: multiply back, compare to 1 within the window
        K = F9.field()
        theta = K.gen()
        f = SkewLaurent.from_pairs(K, [(0, theta), (-1, 1)])
        u = skew_inverse(f, prec=12)
        assert u.v_tau_inv() == 1
        one = SkewLaurent.one(K)
        assert (f * u).agrees_with(one)
        assert (u * f).agrees_with(one)

    def test_inverse_of_zero(self):
        K = F4.field()
        with pytest.raises(NotInvertible):
            skew_inverse(SkewLaurent.zero(K))

    def test_inverse_random_roundtrip(self):
        K = F4.field()
        rng = random.Random(13)
        for _ in range(6):
            f = rand_laurent(K, rng, lo=rng.randrange(-2, 2), n=3)
            if not f.co:
                continue
            u = skew_inverse(f, prec=10)
            assert (f * u).agrees_with(SkewLaurent.one(K))
            assert (u * f).agrees_with(SkewLaurent.one(K))

    def test_rank_two_phi_t_inverse_valuation(self):
        # v_tauinv of the inverse of a rank-2 torsion operator is 2
        K = F9.field()
        phi_t = SkewLaurent.from_pairs(K, [(0, K.gen()), (-1, 1), (-2, 1)])
        assert skew_inverse(phi_t, prec=8).v_tau_inv() == 2

    def test_conjugate_identity(self):
        K = F4.field()
        rng = random.Random(17)
        f = rand_laurent(K, rng)
        assert conjugate(SkewLaurent.one(K), f, prec=10).agrees_with(f)

    def test_conjugate_by_tau(self):
        K = F4.field()
        a = K.gen()
        tau = SkewLaurent(K, {-1: K.one()})
        g = conjugate(tau, SkewLaurent(K, {0: a}), prec=8)
        assert g.coeff(0) == K.sigma(a)

    def test_conjugate_roundtrip(self):
        K = F9.field()
        rng = random.Random(19)
        for _ in range(4):
            u = rand_laurent(K, rng, lo=-1, n=3)
            f = rand_laurent(K, rng, lo=0, n=3)
            if not (u.co and f.co):
                continue
            uinv = skew_inverse(u, prec=10)
            back = conjugate(u, conjugate(uinv, f, prec=10), prec=10)
            assert back.agrees_with(f)
