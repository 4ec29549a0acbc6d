"""Tate spaces, M_infinity against its expansion at infinity, and Weil
valuations.

Oracle values are frozen from independent computations: companion
matrices recomputed by hand from the defining relations, fixed-space
dimensions cross-checked against the Lang-trivialization sweeps of the
semilinear layer, and every conjugator re-substituted into its
defining identity with the skew arithmetic.
"""

from fractions import Fraction

import pytest

from taumod import isocrystal as ic
from taumod import zmatrix
from taumod.basefield import FieldDescriptor
from taumod.drinfeld import DrinfeldModule, m_infinity
from taumod.errors import ExtensionExhausted, InputError
from taumod.semilinear import tau_fixed_space
from taumod.skew import SkewLaurent, skew_inverse
from taumod.tateweil import (
    ConjugatorData,
    TateData,
    WeilData,
    _vector_to_unit,
    iota_conjugator,
    tate_slope0,
    weil_table,
    weil_valuation,
)
from taumod.zseries import INF, ZSeries

from dense_oracle import conjugator_kernel
from test_drinfeld import defining_relation_holds, phi_t, phi_z

D3 = FieldDescriptor(p=3, a=1, m=1, kind="finite")
D4 = FieldDescriptor(p=2, a=2, m=1, kind="finite")
D9 = FieldDescriptor(p=3, a=1, m=2, kind="finite")
D22 = FieldDescriptor(p=2, a=1, m=2, kind="finite")
F3 = D3.field()
F4 = D4.field()
F9 = D9.field()
F4m = D22.field()


def carlitz(theta=1):
    return DrinfeldModule(F3, [F3.el(theta), F3.el(1)])


def const_crystal(K, c):
    return ic.Isocrystal(K, [[ZSeries(K, {0: K.el(c)}, INF)]])


class TestTateSlope0:
    def test_split_unit_rank2(self):
        M = ic.direct_sum(ic.unit(F4), ic.unit(F4))
        td = tate_slope0(M, N=4, e_max=8)
        assert isinstance(td, TateData)
        assert td.extension == 1
        assert td.fq_dimension == 8
        assert td.rank == 2
        # identity twist fixes the standard basis; Frobenius is identity
        assert zmatrix.agrees(td.frobenius, zmatrix.identity(F4, 2))

    def test_constant_twist_needs_lang_extension(self):
        # alpha*x^4 = x has no solution over F_4 itself; the orbit of
        # alpha under the norm tower first closes at extension 3
        al = F4.gen()
        td = tate_slope0(const_crystal(F4, al), N=4, e_max=8)
        assert td.extension == 3
        assert td.fq_dimension == 4
        # Frobenius of F_4 acts on the trivialized line by alpha^2
        assert td.frobenius[0][0].coeff(0) == al * al

    def test_seesaw_presentation(self):
        # [[0, z], [z^-1, 0]] is slope 0 but not integral; the invariant
        # lattice straightens it out
        A = [
            [ZSeries(F4, {}, INF), ZSeries(F4, {1: F4.one()}, INF)],
            [ZSeries(F4, {-1: F4.one()}, INF), ZSeries(F4, {}, INF)],
        ]
        td = tate_slope0(ic.Isocrystal(F4, A), N=4, e_max=8)
        assert td.lattice.pivots == [0, -1]
        assert td.extension == 2
        assert td.fq_dimension == 8
        assert zmatrix.det(td.frobenius).valuation() == 0

    def test_f9_base_constant_twist(self):
        g = F9.gen()
        td = tate_slope0(const_crystal(F9, g), N=4, e_max=8)
        assert td.fq_dimension == 4
        assert zmatrix.det(td.frobenius).valuation() == 0

    def test_fixed_vectors_actually_fixed(self):
        al = F4.gen()
        td = tate_slope0(const_crystal(F4, al), N=3, e_max=8)
        B = td.twist
        for vec in td.module_basis:
            L = vec[0].K
            img = [
                sum(
                    (B[i][j].truncate(3)._lift(L) * vec[j].sigma(1) for j in range(1)),
                    ZSeries(L, {}, INF),
                )
                for i in range(1)
            ]
            assert img[0].agrees_with(vec[0])

    def test_rejects_nonzero_slope(self):
        with pytest.raises(InputError):
            tate_slope0(ic.simple_pure(F4, 1, 2), N=2, e_max=2)

    def test_rejects_local_base(self):
        KL = FieldDescriptor(p=3, a=1, m=1, kind="local").field()
        with pytest.raises(InputError):
            tate_slope0(ic.unit(KL), N=2)

    def test_budget_exhaustion_reported(self):
        # the fixed points of End(M_infinity) mod z^2 are first free over
        # the degree-18 extension, so a budget of 3 is exhausted
        E = DrinfeldModule(F3, [F3.el(1), F3.el(2), F3.el(1)])
        M = m_infinity(E)
        H = ic.tensor(ic.dual(M), M)
        with pytest.raises(ExtensionExhausted):
            tate_slope0(H, N=2, e_max=3)


class TestFormalMotive:
    def test_carlitz_expansion_inverts(self):
        E = carlitz()
        pz = phi_z(E, 12)
        assert pz.v_tau_inv() == 1
        assert (phi_t(E) * pz).agrees_with(SkewLaurent.one(F3))

    def test_rank2_valuation_is_rank(self):
        E = DrinfeldModule(F3, [F3.el(1), F3.el(2), F3.el(1)])
        pz = phi_z(E, 12)
        assert pz.v_tau_inv() == 2
        assert (pz * phi_t(E)).agrees_with(SkewLaurent.one(F3))


class TestCompanionReadback:
    """m_infinity against the tau^{-1} side: e_i = tau^i, z = phi_z."""

    def test_carlitz_exact_match(self):
        # hand oracle: tau = phi_t - theta, so the entry is z^{-1} - theta
        E = carlitz()
        Minf = m_infinity(E)
        assert Minf.rank == 1
        assert Minf.A[0][0].hi is INF
        assert Minf.A[0][0].co == {-1: F3.one(), 0: -F3.one()}
        assert defining_relation_holds(E, Minf.A)

    def test_rank2_purity_and_slopes(self):
        E = DrinfeldModule(F3, [F3.el(1), F3.el(2), F3.el(1)])
        Minf = m_infinity(E)
        assert defining_relation_holds(E, Minf.A)
        cert = ic.purity_check(Minf, -1, 2)
        assert isinstance(cert, ic.PurityCertificate)
        assert ic.slopes_finiteK(Minf) == [Fraction(-1, 2), Fraction(-1, 2)]

    def test_rank3_over_f4(self):
        al = F4.gen()
        E = DrinfeldModule(F4, [F4.el(1), al, F4.el(0), F4.el(1)])
        Minf = m_infinity(E)
        assert defining_relation_holds(E, Minf.A)
        cert = ic.purity_check(Minf, -1, 3)
        assert isinstance(cert, ic.PurityCertificate)

    def test_companion_shape(self):
        # tau e_0 = e_1 exactly; tau e_1 = tau^2 = z^{-1} - theta - g_1 tau
        E = DrinfeldModule(F3, [F3.el(1), F3.el(2), F3.el(1)])
        A = m_infinity(E).A
        assert not A[0][0].co and A[0][0].hi is INF
        assert A[1][0].co == {0: F3.one()} and A[1][0].hi is INF
        assert A[0][1].co == {-1: F3.one(), 0: -F3.one()}
        assert A[1][1].co == {0: -F3.el(2)}
        assert defining_relation_holds(E, A)


class TestIotaConjugator:
    def test_monomial_rank2_is_immediate(self):
        E = DrinfeldModule(F3, [F3.el(0), F3.el(0), F3.el(1)])
        cd = iota_conjugator(E, N=16, e_max=8)
        assert isinstance(cd, ConjugatorData)
        assert cd.extension == 1
        # phi_t = tau^2 is already in normal form and u is constant
        assert cd.u.support() == [0]
        assert cd.u0 ** 8 == F3.one()

    def test_carlitz_tower_depth(self):
        # frozen tower fact: 8 coefficient levels force F_{3^9}; the
        # level equations x^3 - c x = b obstruct every smaller field
        E = carlitz()
        with pytest.raises(ExtensionExhausted):
            iota_conjugator(E, N=8, e_max=8)
        cd = iota_conjugator(E, N=8, e_max=9)
        assert cd.extension == 9
        assert cd.u0 == cd.u.K.one()

    def test_carlitz_conjugation_identity(self):
        E = carlitz()
        cd = iota_conjugator(E, N=8, e_max=9)
        cj = (cd.u * phi_z(E, 10)._lift(cd.u.K)) * skew_inverse(cd.u, 8)
        target = SkewLaurent.tau_inv(cd.u.K, 1)
        assert cj.agrees_with(target)
        assert cj.hi >= 8

    def test_unit_torsor(self):
        # two kernel vectors with invertible lead differ by a left unit
        # commuting with the normal form
        E = carlitz()
        L = F3.extend(9)
        units = []
        for w in conjugator_kernel(E, L, 6):
            u = _vector_to_unit(L, w, 6)
            if u is not None:
                units.append(u)
            if len(units) == 2:
                break
        assert len(units) == 2
        delta = units[0] * skew_inverse(units[1], prec=6)
        assert delta.v_tau_inv() == 0
        iz = SkewLaurent.tau_inv(L, 1)
        assert (delta * iz).agrees_with(iz * delta)

    def test_mixed_f4_instance(self):
        E = DrinfeldModule(F4m, [F4m.el(1), F4m.el(0), F4m.el(1)])
        cd = iota_conjugator(E, N=16, e_max=8)
        assert cd.extension == 8
        cj = (cd.u * phi_z(E, 20)._lift(cd.u.K)) * skew_inverse(cd.u, 12)
        assert cj.agrees_with(SkewLaurent.tau_inv(cd.u.K, 2))

    def test_rejects_local_base(self):
        KL = FieldDescriptor(p=3, a=1, m=1, kind="local").field()
        E = DrinfeldModule(KL, [KL.zeta(1), KL.el(1)])
        with pytest.raises(InputError):
            iota_conjugator(E)


class TestWeilValuation:
    def test_carlitz_frobenius_valuation(self):
        w = weil_valuation(carlitz(), N=8, e_max=9, k_max=4)
        assert isinstance(w, WeilData)
        assert w.lam == Fraction(-1, 1)
        assert w.frobenius_ord == 1
        assert w.rho_valuation == Fraction(-1)
        assert w.admissible
        assert w.commutes_with_iota
        for row in w.table:
            assert row["v_tauinv"] == -row["k"]
            assert row["admissible"]

    def test_rank2_half(self):
        E = DrinfeldModule(F3, [F3.el(0), F3.el(0), F3.el(1)])
        w = weil_valuation(E, N=16, e_max=8, k_max=4)
        assert w.rho_valuation == Fraction(-1, 2)
        assert w.admissible
        assert w.extension == 1
        for row in w.table:
            assert row["v_D"] == Fraction(-row["k"], 2)

    def test_base_degree_enters_ord(self):
        # over F_9 the geometric Frobenius has ord 2, so v_D doubles
        E = DrinfeldModule(F9, [F9.el(0), F9.gen()])
        w = weil_valuation(E, N=12, e_max=8, k_max=3)
        assert w.frobenius_ord == 2
        assert w.rho_valuation == Fraction(-2)
        assert w.admissible

    def test_mixed_f4_admissible(self):
        E = DrinfeldModule(F4m, [F4m.el(1), F4m.el(0), F4m.el(1)])
        w = weil_valuation(E, N=16, e_max=8, k_max=4)
        assert w.frobenius_ord == 2
        assert w.rho_valuation == Fraction(-1)
        assert w.admissible
        assert w.extension == 8

    def test_table_from_the_conjugator_alone(self):
        E = DrinfeldModule(F9, [F9.el(0), F9.gen()])
        w = weil_valuation(E, N=12, e_max=8, k_max=3)
        assert weil_table(E, iota_conjugator(E, N=12).u, 3) == w
        with pytest.raises(InputError):
            weil_table(E, w.conjugator, 0)
        with pytest.raises(InputError):
            weil_valuation(E, N=12, e_max=8, k_max=-1)

    def test_isomorphism_invariance(self):
        # conjugating phi by a constant c scales g_i by c^{q^i - 1} and
        # must not move the valuation data
        E = DrinfeldModule(F9, [F9.el(0), F9.el(1)])
        c = F9.gen()
        scaled = [F9.el(0), F9.el(1) * c ** (3 - 1)]
        E2 = DrinfeldModule(F9, scaled)
        w1 = weil_valuation(E, N=12, e_max=8, k_max=2)
        w2 = weil_valuation(E2, N=12, e_max=8, k_max=2)
        assert w1.rho_valuation == w2.rho_valuation
        assert w1.admissible and w2.admissible


class TestFormalRoundTrip:
    @pytest.mark.parametrize("coeffs", [[1, 1], [1, 2, 1], [0, 1, 1]])
    def test_nonzero_hom_detected(self, coeffs):
        # m_infinity satisfies the defining relation, and End(M_infinity),
        # pure of slope 0, has a nonzero fixed vector mod z
        E = DrinfeldModule(F3, [F3.el(c) for c in coeffs])
        Minf = m_infinity(E)
        assert defining_relation_holds(E, Minf.A)
        H = ic.tensor(ic.dual(Minf), Minf)
        cert = ic.purity_check(H, 0, 1, prec=8)
        assert isinstance(cert, ic.PurityCertificate)
        lat = cert.lattice
        B = ic.conjugated_matrix(H, lat, prec=8)
        basis = tau_fixed_space(B, 1, e=1)
        assert len(basis) >= 1

    def test_hom_element_is_morphism(self):
        # unpack a fixed vector of End(M_infinity) into a matrix X and
        # replay the morphism identity A sigma(X) = X A mod z
        E = DrinfeldModule(F3, [F3.el(1), F3.el(2), F3.el(1)])
        Minf = m_infinity(E)
        H = ic.tensor(ic.dual(Minf), Minf)
        cert = ic.purity_check(H, 0, 1, prec=8)
        lat = cert.lattice
        B = ic.conjugated_matrix(H, lat, prec=8)
        basis = tau_fixed_space(B, 2, e=1)
        assert basis
        r = 2
        vec = basis[0]
        coords = zmatrix.matvec(
            [[c.truncate(2) for c in row] for row in lat.basis], vec
        )
        X = [[coords[i * r + j] for i in range(r)] for j in range(r)]
        lhs = zmatrix.mul(Minf.A, zmatrix.sigma(X, 1))
        rhs = zmatrix.mul(X, Minf.A)
        assert zmatrix.agrees(lhs, rhs)
