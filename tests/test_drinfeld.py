"""Drinfeld layer: motive shape and cokernel checks, the t = 1/z
isocrystal and its defining relation in K((tau^{-1})), reduction
classification, good models, and the cross-check."""

import math
import pathlib
import sys
from fractions import Fraction

import pytest

from taumod import jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.drinfeld import (
    DrinfeldModule,
    crit_crosscheck,
    good_model,
    m_infinity,
    motive,
    reduction_type,
)
from taumod.errors import InputError
from taumod.isocrystal import (
    Inconclusive,
    PurityCertificate,
    purity_check,
    slopes_finiteK,
)
from taumod.skew import DEFAULT_TAUINV_PREC, SkewLaurent, skew_inverse
from taumod.zseries import INF, ZSeries

from test_degree_sweep import _case, _module

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

del sys.path[0]

F9 = FieldDescriptor(p=3, a=2, m=1, kind="finite")
F4 = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
F3 = FieldDescriptor(p=3, a=1, m=1, kind="finite")
F9M2 = FieldDescriptor(p=3, a=1, m=2, kind="finite")
F4M2 = FieldDescriptor(p=2, a=1, m=2, kind="finite")


class TestConstruction:
    def test_degenerate_top_rejected(self):
        K = F9.field()
        with pytest.raises(InputError):
            DrinfeldModule(K, [K.gen(), K.el(1), K.el(0)])

    def test_rank_zero_rejected(self):
        K = F9.field()
        with pytest.raises(InputError):
            DrinfeldModule(K, [K.gen()])

    def test_nonintegral_t_image_rejected(self):
        K = F3L.field()
        with pytest.raises(InputError):
            DrinfeldModule(K, [K.zeta(-1), K.one()])


class TestMotive:
    def test_carlitz_rank_one(self):
        K = F9.field()
        theta = K.gen()
        E = DrinfeldModule(K, [theta, 1])
        mot = motive(E)
        A = mot.matrix
        assert len(A) == 1
        assert A[0][0].coeff(1) == K.el(1)
        assert A[0][0].coeff(0) == -theta
        assert mot.coker["dimension"] == 1

    def test_rank_two_companion(self):
        K = F4.field()
        theta = K.gen()
        E = DrinfeldModule(K, [theta, 1, 1])
        A = motive(E).matrix
        assert A[1][0] == ZSeries.one(K)
        assert A[0][0].is_zero()
        # last column: (t - theta, -g_1) with unit top coefficient
        assert A[0][1].coeff(1) == K.el(1)
        assert A[1][1].coeff(0) == -K.el(1)

    def test_local_coefficients(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.one()])
        mot = motive(E)
        assert mot.coker["dimension"] == 1


class TestInfinityIsocrystal:
    def test_carlitz_slope(self):
        K = F9.field()
        E = DrinfeldModule(K, [K.gen(), 1])
        M = m_infinity(E)
        assert M.rank == 1
        assert slopes_finiteK(M) == [Fraction(-1, 1)]
        assert isinstance(purity_check(M, -1, 1), PurityCertificate)

    def test_rank_two_slopes(self):
        K = F4.field()
        E = DrinfeldModule(K, [K.gen(), K.gen(), 1])
        M = m_infinity(E)
        assert slopes_finiteK(M) == [Fraction(-1, 2)] * 2
        assert isinstance(purity_check(M, -1, 2), PurityCertificate)

    def test_rank_three_slopes(self):
        K = F4.field()
        E = DrinfeldModule(K, [K.gen(), 1, K.gen(), 1])
        M = m_infinity(E)
        assert slopes_finiteK(M) == [Fraction(-1, 3)] * 3
        assert isinstance(purity_check(M, -1, 3), PurityCertificate)

    def test_local_base_purity(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.one()])
        M = m_infinity(E)
        assert isinstance(purity_check(M, -1, 2), PurityCertificate)


# -- the defining relation of M_infinity in K((tau^{-1})) ----------------------


def _by_coeffs(D, coeffs):
    def build():
        K = D.field()
        return DrinfeldModule(K, [c(K) if callable(c) else c for c in coeffs])
    return build


def _tower(seed, name):
    def build():
        [req] = [r for r in inputs.tower_requests(seed) if r["name"] == name]
        return jsonio.parse_drinfeld(req["payload"])
    return build


def _sweep(seed):
    def build():
        rng, K, _, _ = _case(seed)
        return _module(rng, K)
    return build


# the finite-base modules whose Weil action the tests compute, and three
# more of rank 2 and 3; a coefficient is an int or a function of the base
FIXED_MODULES = [pytest.param(_by_coeffs(D, co), id=name) for name, D, co in [
    ("carlitz-f3", F3, [1, 1]),
    ("tau2-f3", F3, [0, 0, 1]),
    ("121-f3", F3, [1, 2, 1]),
    ("011-f3", F3, [0, 1, 1]),
    ("g-tau-f9m2", F9M2, [0, lambda K: K.gen()]),
    ("tau-f9m2", F9M2, [0, 1]),
    ("g2-tau-f9m2", F9M2, [0, lambda K: K.gen() ** 2]),
    ("101-f4m2", F4M2, [1, 0, 1]),
    ("g0-tau2-f9", F9, [lambda K: K.gen(), 0, 1]),
    ("1w01-f4", F4, [1, lambda K: K.gen(), 0, 1]),
]]
# with the `weil` inputs of the `tower` workload at two seeds, and the
# seeded modules whose conjugator `test_degree_sweep.py` sweeps
FINITE_MODULES = (
    FIXED_MODULES
    + [pytest.param(_tower(seed, name), id=f"{name}-seed{seed}")
       for seed in (0, 1)
       for name in ("weil-f4mix-101", "weil-carlitz-f3", "weil-f9m2-0g",
                    "weil-f9-g01")]
    + [pytest.param(_sweep(seed), id=f"sweep{seed}") for seed in range(80)]
)


def phi_t(E):
    """phi_t read as the Laurent polynomial sum g_i tau^i in K((tau^{-1}))."""
    return SkewLaurent(E.K, {-i: g for i, g in enumerate(E.coeffs) if not g.is_zero()},
                       INF)


def phi_z(E, N=None):
    """The image of z = 1/t in K((tau^{-1})): phi_t inverted to N
    tau^{-1}-terms (by default `DEFAULT_TAUINV_PREC`)."""
    return skew_inverse(phi_t(E), prec=N)


def column_images(E, A):
    """Column j of A as an element of K((tau^{-1})), where z^n e_i with
    coefficient c stands for c tau^i phi_z^n."""
    K = E.K
    pz = phi_z(E)
    out = []
    for j in range(E.rank):
        acc = SkewLaurent.zero(K)
        for i in range(E.rank):
            for n, c in A[i][j].co.items():
                acc = acc + (SkewLaurent.tau_inv(K, -i) * pz ** n).scale(c)
        out.append(acc)
    return out


def defining_relation_holds(E, A):
    """tau e_j = tau^{j+1}: column j of A maps to tau^{j+1} at every
    tau^{-1}-exponent below DEFAULT_TAUINV_PREC - r, so that the agreement
    is not vacuous."""
    K = E.K
    return all(img.agrees_with(SkewLaurent.tau_inv(K, -(j + 1)))
               and img.hi >= DEFAULT_TAUINV_PREC - E.rank
               for j, img in enumerate(column_images(E, A)))


@pytest.mark.parametrize("build", FINITE_MODULES)
def test_m_infinity_defining_relation(build):
    # M_infinity is K((tau^{-1})) over K((z)) through z -> phi_z with basis
    # e_i = tau^i, i < r, and tau acting by left multiplication
    E = build()
    assert phi_z(E).v_tau_inv() == E.rank
    assert defining_relation_holds(E, m_infinity(E).A)


@pytest.mark.parametrize("build", FIXED_MODULES)
def test_perturbed_m_infinity_fails_the_relation(build):
    E = build()
    K, r = E.K, E.rank
    for extra in (ZSeries.z(K, -2), ZSeries.one(K)):
        A = [list(row) for row in m_infinity(E).A]
        A[0][r - 1] = A[0][r - 1] + extra
        assert not defining_relation_holds(E, A)


class TestReductionType:
    def test_integral_unit_top_good(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.one()])
        rep = reduction_type(E)
        assert rep.verdict == "Good"
        assert rep.m == 0

    def test_potentially_good_eight(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.zeta(-1)])
        rep = reduction_type(E)
        assert rep.verdict == "PotentiallyGood"
        assert rep.ramification == 8
        assert rep.m == Fraction(1, 8)

    def test_stable_rank_one(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-1), K.one()])
        rep = reduction_type(E)
        assert rep.verdict == "Stable"
        assert rep.stable_rank == 1
        assert rep.m == Fraction(1, 2)

    def test_good_after_shift(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-2), K.zeta(-8)])
        rep = reduction_type(E)
        assert rep.verdict == "Good"
        assert rep.m == 1

    def test_rank_one_potentially_good(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-1)])
        rep = reduction_type(E)
        assert rep.verdict == "PotentiallyGood"
        assert rep.ramification == 2

    def test_unit_conjugation_invariance(self):
        K = F3L.field()
        q = 3
        base = DrinfeldModule(K, [K.zeta(), K.zeta(-1), K.one()])
        rep0 = reduction_type(base)
        for u in [
            K.from_pairs([(0, 1), (1, 1)]),
            K.from_pairs([(0, 2), (2, 1)]),
        ]:
            coeffs = [base.coeffs[0]]
            for i in range(1, base.rank + 1):
                coeffs.append(base.coeffs[i] * u ** (1 - q**i))
            rep = reduction_type(DrinfeldModule(K, coeffs))
            assert rep.verdict == rep0.verdict
            assert rep.m == rep0.m
            assert rep.stable_rank == rep0.stable_rank

    def test_finite_base_rejected(self):
        K = F9.field()
        E = DrinfeldModule(K, [K.gen(), 1])
        with pytest.raises(InputError):
            reduction_type(E)


class TestGoodModel:
    def test_identity_scaling(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.one()])
        gm = good_model(E)
        assert gm.m == 0
        assert gm.verify["verdict"] == "yes"
        assert zmatrix.agrees(gm.A, m_infinity(E).A)
        # mod-zeta reduction is a rank-2 module over F_3
        assert gm.residue.rank == 2
        assert gm.residue.K.kind == "finite"

    def test_shifted_scaling(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-2), K.zeta(-8)])
        gm = good_model(E)
        assert gm.m == 1
        for i in range(1, 3):
            assert gm.module.coeffs[i].valuation() == 0
        assert gm.verify["verdict"] == "yes"
        assert gm.residue.K.known_nonzero(gm.residue.coeffs[1])

    def test_refused_for_stable(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-1), K.one()])
        with pytest.raises(InputError):
            good_model(E)

    def test_model_uniqueness_up_to_basis_change(self):
        # two good models from unit-conjugate presentations differ by an
        # integral diagonal change of basis with unit determinant
        K = F3L.field()
        q = 3
        E1 = DrinfeldModule(K, [K.zeta(), K.zeta(-2), K.zeta(-8)])
        c = K.from_pairs([(0, 2), (1, 1)])  # a unit
        coeffs = [E1.coeffs[0]]
        for i in range(1, 3):
            coeffs.append(E1.coeffs[i] * c ** (1 - q**i))
        E2 = DrinfeldModule(K, coeffs)
        g1, g2 = good_model(E1), good_model(E2)
        r = 2
        W = [[ZSeries.zero(K) for _ in range(r)] for _ in range(r)]
        for i in range(r):
            W[i][i] = ZSeries.const(K, c ** (q**i))
        Winv = zmatrix.inv(W)
        conj = zmatrix.mul(zmatrix.mul(Winv, g1.A), zmatrix.sigma(W, 1))
        assert zmatrix.agrees(g2.A, conj)
        for i in range(r):
            assert W[i][i].coeff(0).valuation() == 0


def crosscheck(E):
    """crit_crosscheck on the M_infinity and purity outcome that
    `analyze` hands it."""
    M = m_infinity(E)
    return crit_crosscheck(E, M, purity_check(M, -1, E.rank))


class TestCrossCheck:
    def test_good_agrees(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.one()])
        out = crosscheck(E)
        assert out["verdict"] == "agree"
        assert out["model_verify"]["verdict"] == "yes"

    def test_good_with_scaling_agrees(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-2), K.zeta(-8)])
        out = crosscheck(E)
        assert out["verdict"] == "agree"

    def test_stable_obstruction(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-1), K.one()])
        out = crosscheck(E)
        assert out["verdict"] == "obstruction_recorded"
        ob = out["obstruction"]
        assert ob["stable_rank"] == 1
        assert ob["generic_purity_at"] == [-1, 2]
        assert "pivots" in ob["generic_purity"]

    def test_potentially_good_resolves(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.one(), K.zeta(-1)])
        out = crosscheck(E)
        assert out["verdict"] == "agree_after_extension"
        assert out["extension"] == 8
        assert isinstance(out["base_outcome"], Inconclusive)
        assert out["extended"]["verdict"] == "agree"

    def test_rank_one_extension(self):
        K = F3L.field()
        E = DrinfeldModule(K, [K.zeta(), K.zeta(-1)])
        out = crosscheck(E)
        assert out["verdict"] == "agree_after_extension"
        assert out["extension"] == 2
