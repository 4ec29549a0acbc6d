"""Isocrystal layer: tensor calculus identities, purity verdicts against
hand-checked lattices, Newton-polygon slopes, and integral models."""

import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taumod import zmatrix
from taumod.drinfeld import model_verify, reduce_matrix
from taumod.basefield import FieldDescriptor
from taumod.errors import InputError, PrecisionLoss
from taumod.isocrystal import (
    Inconclusive,
    Isocrystal,
    NotPureAt,
    PurityCertificate,
    conjugated_matrix,
    direct_sum,
    dual,
    hnf_reduce,
    lattice_eq,
    purity_check,
    simple_pure,
    slopes_finiteK,
    standard_lattice,
    tensor,
    unit,
)
from taumod.semilinear import free_module_check, tau_fixed_space
from taumod.zseries import ZSeries

from dense_oracle import chained_hnf_reduce, random_entry

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import report_gate  # noqa: E402

del sys.path[0]

F2 = FieldDescriptor(p=2, a=1, m=1, kind="finite")
F3 = FieldDescriptor(p=3, a=1, m=1, kind="finite")
F4 = FieldDescriptor(p=2, a=2, m=1, kind="finite")
F9m = FieldDescriptor(p=3, a=1, m=2, kind="finite")
F4M2 = FieldDescriptor(p=2, a=1, m=2, kind="finite")
F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")


def K3():
    return F3.field()


def skewed_constant(seed):
    """P C sigma(P)^-1 over F_4 (q = 2, m = 2) for a seeded invertible
    constant C of rank 3 and an upper unipotent P whose entries are
    c z^k, c != 0, k in [-2, 1]: isomorphic to C, so pure of slope 0."""
    rng = random.Random(f"skewed-constant:{seed}")
    K = F4M2.field()
    while True:
        C = [[ZSeries.const(K, K.random(rng)) for _ in range(3)] for _ in range(3)]
        if zmatrix.det(C).valuation() == 0:
            break
    P = zmatrix.identity(K, 3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = K.zero()
        while K.is_zero(c):
            c = K.random(rng)
        P[i][j] = ZSeries(K, {rng.randint(-2, 1): c})
    return Isocrystal(K, zmatrix.mul(zmatrix.mul(P, C), zmatrix.inv(zmatrix.sigma(P))))


class TestConstructors:
    def test_simple_pure_shapes(self):
        K = K3()
        M = simple_pure(K, 1, 2)
        assert M.A[0][0].is_zero() and M.A[1][1].is_zero()
        assert M.A[1][0] == ZSeries.one(K)
        assert M.A[0][1] == ZSeries.z(K)
        assert simple_pure(K, -1, 1).A[0][0] == ZSeries.z(K, -1)
        assert unit(K).A[0][0] == ZSeries.one(K)

    def test_unit_of_rank_r(self):
        K = K3()
        assert zmatrix.agrees(unit(K, 3).A, zmatrix.identity(K, 3))
        assert slopes_finiteK(unit(K, 2)) == [Fraction(0)] * 2
        for r in (0, -1):
            with pytest.raises(InputError):
                unit(K, r)

    def test_lowest_terms_required(self):
        with pytest.raises(InputError):
            simple_pure(K3(), 2, 4)

    def test_dual_of_simple(self):
        K = K3()
        D = dual(simple_pure(K, 1, 2))
        assert D.A[0][1] == ZSeries.z(K, -1)
        assert D.A[1][0] == ZSeries.one(K)
        assert D.A[0][0].is_zero() and D.A[1][1].is_zero()

    def test_constructions_do_not_invert(self, monkeypatch):
        # only a twist read from outside, or a dual, is inverted; every
        # construction of an invertible twist from invertible ones is not
        from taumod.drinfeld import DrinfeldModule, m_infinity

        K = FieldDescriptor(p=3, a=2, m=1, kind="finite").field()
        E = DrinfeldModule(K, [K.gen(), K.one(), K.one()])

        def refuse(*args, **kwargs):
            raise AssertionError("zmatrix.inv called")

        monkeypatch.setattr(zmatrix, "inv", refuse)
        M = simple_pure(K, 1, 2)
        assert unit(K, 2).rank == 2
        assert tensor(M, simple_pure(K, -1, 3)).rank == 6
        assert direct_sum(M, unit(K)).rank == 3
        assert m_infinity(E).rank == 2

    def test_double_dual_identity(self):
        K = K3()
        rng = random.Random(7)
        for _ in range(5):
            A = [
                [
                    ZSeries.from_pairs(
                        K, [(k, K.random(rng)) for k in range(-1, 2)]
                    )
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            try:
                M = Isocrystal(K, A)
            except Exception:
                continue
            DD = dual(dual(M))
            assert zmatrix.agrees(DD.A, M.A)

    def test_tensor_with_unit(self):
        K = K3()
        M = simple_pure(K, 1, 2)
        T = tensor(unit(K), M)
        assert zmatrix.agrees(T.A, M.A)

    def test_tensor_of_simples(self):
        K = K3()
        T = tensor(simple_pure(K, 1, 2), simple_pure(K, -1, 1))
        assert T.rank == 2
        assert T.A[0][1] == ZSeries.one(K)
        assert T.A[1][0] == ZSeries.z(K, -1)


class TestHnf:
    def test_standard_columns(self):
        K = K3()
        cols = [[ZSeries.one(K), ZSeries.zero(K)],
                [ZSeries.zero(K), ZSeries.one(K)]]
        T = hnf_reduce(K, cols, 2)
        assert T.pivots == [0, 0]

    def test_redundant_generators(self):
        K = K3()
        e0 = [ZSeries.one(K), ZSeries.zero(K)]
        e1 = [ZSeries.zero(K), ZSeries.one(K)]
        s = [ZSeries.one(K), ZSeries.one(K)]
        T = hnf_reduce(K, [e0, e1, s], 2)
        assert T.pivots == [0, 0]
        assert zmatrix.agrees(T.basis, zmatrix.identity(K, 2))

    def test_valuation_pivoting(self):
        K = K3()
        # span of (z, 1) and (z^2, 0): hand reduction gives the
        # triangular basis [[z, 0], [1, z]] with pivots z, z
        c1 = [ZSeries.z(K), ZSeries.one(K)]
        c2 = [ZSeries.z(K, 2), ZSeries.zero(K)]
        T = hnf_reduce(K, [c1, c2], 2)
        assert T.pivots == [1, 1]
        assert T.basis[1][0] == ZSeries.one(K)
        assert zmatrix.det(T.basis).valuation() == 2

    def test_rank_deficiency_detected(self):
        K = K3()
        c = [ZSeries.one(K), ZSeries.one(K)]
        with pytest.raises(InputError):
            hnf_reduce(K, [c, c], 2)

    @staticmethod
    def exact(fn, K, cols, r, prec):
        """The pivots and basis entries (field, window, coefficient map) of
        fn's lattice, or the class, window and message of its error."""
        try:
            T = fn(K, [list(c) for c in cols], r, prec)
        except (InputError, PrecisionLoss) as exc:
            return type(exc).__name__, getattr(exc, "window", None), str(exc)
        return "ok", T.pivots, [[(x.K, x.hi, x.co) for x in row] for row in T.basis]

    @pytest.mark.parametrize("desc", [FieldDescriptor(p=3, a=2, m=1, kind="finite"),
                                      FieldDescriptor(p=2, a=1, m=1, kind="local")],
                             ids=["F9", "F2((zeta))"])
    def test_row_updates_match_the_chain(self, desc):
        # each update x - q*y is one sum of products; the oracle subtracts
        # the product from x
        K = desc.field()
        rng = random.Random(f"test-hnf-rows:{desc.kind}")
        seen = set()
        for i in range(40):
            r = rng.randrange(1, 5)
            cols = [[random_entry(K, rng, windowed=i % 4 != 0) for _ in range(r)]
                    for _ in range(r + rng.randrange(0, 3))]
            if i % 5 == 0:
                # a row of exact zeros: not full rank
                for c in cols:
                    c[-1] = ZSeries.zero(K)
            prec = rng.choice((None, 4, 12))
            got = self.exact(hnf_reduce, K, cols, r, prec)
            assert got == self.exact(chained_hnf_reduce, K, cols, r, prec)
            seen.add(got[0])
        assert seen == {"ok", "InputError", "PrecisionLoss"}


class TestPurity:
    def test_simple_pure_immediate(self):
        K = K3()
        out = purity_check(simple_pure(K, 1, 2), 1, 2)
        assert isinstance(out, PurityCertificate)
        assert out.iterations == 0
        assert out.lattice.pivots == [0, 0]

    def test_unit_wrong_slope_diverges(self):
        out = purity_check(unit(K3()), 1, 1)
        assert isinstance(out, NotPureAt)
        assert out.witness == {"kind": "determinant_valuation", "v_z_det": 0,
                               "rank": 1}

    def test_unit_correct_slope(self):
        out = purity_check(unit(K3()), 0, 1)
        assert isinstance(out, PurityCertificate)

    def test_dual_slope_negated(self):
        K = K3()
        out = purity_check(dual(simple_pure(K, 1, 2)), -1, 2)
        assert isinstance(out, PurityCertificate)

    def test_tensor_slope_adds(self):
        K = K3()
        T = tensor(simple_pure(K, 1, 2), simple_pure(K, -1, 1))
        out = purity_check(T, -1, 2)
        assert isinstance(out, PurityCertificate)

    def test_mixed_sum_never_pure(self):
        K = K3()
        M = direct_sum(unit(K), simple_pure(K, 1, 1))
        for s, r in [(0, 1), (1, 1)]:
            out = purity_check(M, s, r)
            assert isinstance(out, NotPureAt)
        # 2 v_z(det A) = rank * 1: no refutation is proven, and no
        # lattice is certified
        assert not isinstance(purity_check(M, 1, 2), PurityCertificate)

    def test_rank_below_denominator_refused(self):
        K = K3()
        for a_pow in [0, 1, -1, 2]:
            M = Isocrystal(K, [[ZSeries.z(K, a_pow)]])
            out = purity_check(M, 1, 2)
            assert isinstance(out, NotPureAt)

    def test_budget_exhaustion_inconclusive(self):
        # the invariant refutes before any step, whatever the budget
        out = purity_check(unit(K3()), 1, 3, max_iters=2)
        assert isinstance(out, NotPureAt)
        assert out.witness["kind"] == "determinant_valuation"
        # skewed_unit certifies at its third step
        out = purity_check(report_gate.skewed_unit(), 0, 1, max_iters=2)
        assert isinstance(out, Inconclusive)

    @pytest.mark.parametrize("seed", range(80))
    def test_skewed_constant_is_never_refuted(self, seed):
        M = skewed_constant(seed)
        try:
            out = purity_check(M, 0, 1)
        except PrecisionLoss:
            return
        assert not isinstance(out, NotPureAt)
        if isinstance(out, PurityCertificate):
            assert slopes_finiteK(M) == [Fraction(out.s, out.r)] * 3

    def test_slope_well_defined(self):
        # a certificate at (1,2) excludes one at (0,1) and at (1,1)
        K = K3()
        M = simple_pure(K, 1, 2)
        assert isinstance(purity_check(M, 1, 2), PurityCertificate)
        assert isinstance(purity_check(M, 0, 1), NotPureAt)
        assert isinstance(purity_check(M, 1, 1), NotPureAt)

    def test_local_base_purity(self):
        K = F3L.field()
        out = purity_check(simple_pure(K, 1, 2), 1, 2)
        assert isinstance(out, PurityCertificate)

    def test_scaled_basis_same_verdict(self):
        # conjugating the standard simple object by a unit keeps purity
        K = K3()
        M = simple_pure(K, 1, 2)
        g = [[ZSeries.one(K), ZSeries.from_pairs(K, [(1, 2)])],
             [ZSeries.zero(K), ZSeries.one(K)]]
        ginv = zmatrix.inv(g)
        B = zmatrix.mul(zmatrix.mul(ginv, M.A), zmatrix.sigma(g, 1))
        out = purity_check(Isocrystal(K, B), 1, 2)
        assert isinstance(out, PurityCertificate)


class TestSlopes:
    def test_simple_half(self):
        assert slopes_finiteK(simple_pure(K3(), 1, 2)) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    def test_unit_cube(self):
        K = K3()
        M = direct_sum(direct_sum(unit(K), unit(K)), unit(K))
        assert slopes_finiteK(M) == [0, 0, 0]

    def test_diagonal_mixed(self):
        K = K3()
        M = Isocrystal(K, [[ZSeries.one(K), ZSeries.zero(K)],
                           [ZSeries.zero(K), ZSeries.z(K)]])
        assert slopes_finiteK(M) == [0, 1]

    def test_extension_degree_two(self):
        # over F_{q^2} the linearized power is tau^2; a constant twist
        # has slope 0, a z twist slope 1
        K = F9m.field()
        g = ZSeries.const(K, K.gen())
        assert slopes_finiteK(Isocrystal(K, [[g]])) == [0]
        assert slopes_finiteK(Isocrystal(K, [[ZSeries.z(K)]])) == [1]

    def test_q_four_base(self):
        K = F4.field()
        M = simple_pure(K, 1, 2)
        assert slopes_finiteK(M) == [Fraction(1, 2), Fraction(1, 2)]

    def test_agrees_with_purity(self):
        K = K3()
        cases = [
            (simple_pure(K, 1, 2), (1, 2)),
            (simple_pure(K, -1, 2), (-1, 2)),
            (simple_pure(K, 2, 3), (2, 3)),
            (unit(K), (0, 1)),
            (simple_pure(K, -1, 1), (-1, 1)),
        ]
        for M, (s, r) in cases:
            lam = Fraction(s, r)
            assert slopes_finiteK(M) == [lam] * M.rank
            assert isinstance(purity_check(M, s, r), PurityCertificate)

    @settings(max_examples=20, deadline=None)
    @given(
        s1=st.integers(-2, 2),
        r1=st.sampled_from([1, 2, 3]),
        s2=st.integers(-2, 2),
        r2=st.sampled_from([1, 2]),
    )
    def test_tensor_slope_arithmetic(self, s1, r1, s2, r2):
        if math.gcd(s1, r1) != 1 or math.gcd(s2, r2) != 1:
            return
        K = K3()
        M, N = simple_pure(K, s1, r1), simple_pure(K, s2, r2)
        lam = Fraction(s1, r1) + Fraction(s2, r2)
        got = slopes_finiteK(tensor(M, N))
        assert got == [lam] * (r1 * r2)
        assert slopes_finiteK(dual(M)) == [Fraction(-s1, r1)] * r1


class TestHomVanishing:
    def test_equal_slope_full_end_ring(self):
        # End of a simple pure object: the fixed space fills up to rank
        # rM*rN once the scalars are extended far enough (the End ring
        # is a form that splits over an extension, not over F_q itself)
        K = K3()
        N = simple_pure(K, 1, 2)
        H = tensor(dual(N), N)
        cert = purity_check(H, 0, 1)
        assert isinstance(cert, PurityCertificate)
        lat = cert.lattice
        B = conjugated_matrix(H, lat)
        for N_prec in (1, 2):
            dims = [len(tau_fixed_space(B, N_prec, e=e)) for e in (1, 2, 4)]
            assert dims[0] <= dims[1] <= dims[2]
            assert dims[2] == 4 * N_prec
            e_full = (1, 2, 4)[dims.index(4 * N_prec)]
            basis = tau_fixed_space(B, N_prec, e=e_full)
            ok, mb = free_module_check(K, basis, 4, N_prec)
            assert ok and len(mb) == 4


class TestSubquotients:
    def test_block_sub_of_tensor(self):
        # tensor with a split rank-2 trivial factor: the first block is
        # a subobject isomorphic to the simple factor itself
        K = K3()
        M = simple_pure(K, 1, 2)
        E = direct_sum(unit(K), unit(K))
        T = tensor(M, E)
        sub = [[T.A[i][j] for j in (0, 2)] for i in (0, 2)]
        out = purity_check(Isocrystal(K, sub), 1, 2)
        assert isinstance(out, PurityCertificate)


class TestPureZero:
    """The lattice of a (0, 1) certificate is the invariant lattice that
    the slope-zero Tate space is solved on."""

    @staticmethod
    def invariant_lattice(M):
        cert = purity_check(M, 0, 1)
        assert isinstance(cert, PurityCertificate)
        lat = cert.lattice
        # the image tau(T), reduced to its canonical basis, is T itself
        G = zmatrix.mul(M.A, zmatrix.sigma(lat.basis, 1))
        assert lattice_eq(hnf_reduce(M.K, zmatrix.transpose(G), M.rank), lat)
        return lat

    def test_unit_standard(self):
        lat = self.invariant_lattice(unit(K3()))
        assert lat.pivots == [0]

    def test_constant_twist(self):
        K = F4.field()
        lat = self.invariant_lattice(Isocrystal(K, [[ZSeries.const(K, K.gen())]]))
        assert lat.pivots == [0]

    def test_end_lattice_feeds_fixed_points(self):
        K = K3()
        H = tensor(dual(simple_pure(K, 1, 2)), simple_pure(K, 1, 2))
        lat = self.invariant_lattice(H)
        B = conjugated_matrix(H, lat)
        d = zmatrix.det(B)
        assert d.valuation() == 0
        for row in B:
            for x in row:
                if x.known_nonzero():
                    assert x.valuation() >= 0


class TestIntegralModels:
    def test_unit_entry_yes(self):
        K = F3L.field()
        A = [[ZSeries.from_pairs(K, [(0, 1), (1, K.zeta())])]]
        out = model_verify(K, A)
        assert out["verdict"] == "yes"

    def test_residue_zero_no(self):
        K = F3L.field()
        A = [[ZSeries.const(K, K.zeta())]]
        out = model_verify(K, A)
        assert out["verdict"] == "no"
        cond = out["witness"]["condition"]
        assert cond == "determinant_leading_coefficient_not_unit"

    def test_nonintegral_entry_no(self):
        K = F3L.field()
        A = [[ZSeries.const(K, K.zeta(-1))]]
        out = model_verify(K, A)
        assert out["verdict"] == "no"
        assert out["witness"]["condition"] == "entry_not_integral"

    def test_purity_transfers_to_residue(self):
        # constant-coefficient matrix over the valuation ring: purity
        # verdict agrees before and after residue reduction
        K = F3L.field()
        M = simple_pure(K, 1, 2)
        out = purity_check(M, 1, 2)
        assert isinstance(out, PurityCertificate)
        Abar = reduce_matrix(K, M.A)
        k = Abar[0][0].K
        Mbar = Isocrystal(k, Abar)
        assert isinstance(purity_check(Mbar, 1, 2), PurityCertificate)
        assert slopes_finiteK(Mbar) == [Fraction(1, 2), Fraction(1, 2)]

    def test_lift_of_residue_homs(self):
        # constant models, equal slope 0: residue homs lift exactly
        K = F3L.field()
        k = K.residue_K()
        A = [[ZSeries.const(K, 1)]]
        Abar = reduce_matrix(K, A)
        basis = tau_fixed_space(Abar, 1, e=1)
        assert len(basis) == 1
        c = basis[0][0].coeff(0)
        x = ZSeries.const(K, K.coerce(c))
        # the constant lift satisfies x = A sigma(x)
        lhs = A[0][0] * x.sigma()
        assert lhs.agrees_with(x)
