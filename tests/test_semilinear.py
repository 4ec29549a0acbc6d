"""Solver tests: the scalar equation regimes, fixed spaces, and the
Galois action on them."""

import itertools
import math
import random

import pytest

from taumod.basefield import FieldDescriptor
from taumod.errors import InputError, NotStable, PrecisionLoss
from taumod import kernels
from taumod.kernels import FpSpan
from taumod.semilinear import (
    fq_generator,
    free_module_check,
    frobenius_action,
    solve_scalar,
    tau_fixed_space,
)
from taumod.zseries import ZSeries
from taumod import zmatrix

INF = math.inf

F3L = FieldDescriptor(p=3, a=1, m=1, kind="local")
F3 = FieldDescriptor(p=3, a=1, m=1, kind="finite")
F4 = FieldDescriptor(p=2, a=1, m=2, kind="finite")
F9 = FieldDescriptor(p=3, a=2, m=1, kind="finite")


def residual(a, b, x):
    return x.sigma() - (a * x + b)


class TestContractionRegime:
    def _mixed_instance(self):
        # x = alpha + z*sigma(x) with v(alpha) = -1, rewritten as
        # sigma(x) = z^{-1} x - alpha z^{-1}
        K = F3L.field()
        alpha = K.zeta(-1)
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -alpha})
        return K, alpha, a, b

    def test_solution_in_bk(self):
        K, alpha, a, b = self._mixed_instance()
        out = solve_scalar(a, b, "BK", prec=6)
        assert out["verdict"] == "solution"
        x = out["x"]
        # oracle: x_n = alpha^(q^n) by direct powering
        for n in range(6):
            assert x.coeff(n) == alpha ** (3**n)
        # independent re-substitution
        res = residual(a, b, x)
        assert not any(K.known_nonzero(c) for e, c in res.co.items() if e < 5)

    def test_growth_annotation_attached(self):
        _, _, a, b = self._mixed_instance()
        out = solve_scalar(a, b, "BK", prec=6)
        g = out["growth"]
        assert g["conclusion"] == "unbounded_below"
        assert g["mu"] == [0, 1]
        assert g["witness_exponent"] == 1
        assert g["witness_valuation"] == -3

    def test_no_solution_in_bbar(self):
        _, _, a, b = self._mixed_instance()
        out = solve_scalar(a, b, "Bbar", prec=6)
        assert out["verdict"] == "no_solution"
        assert out["reason"] == "UnboundedCoefficientValuations"
        assert out["witness"]["valuation"] == -3

    def test_not_integral_in_bok(self):
        _, _, a, b = self._mixed_instance()
        out = solve_scalar(a, b, "BOK", prec=6)
        assert out["verdict"] == "no_solution"
        assert out["reason"] == "CoefficientNotIntegral"
        assert out["witness"] == {"exponent": 0, "valuation": -1}

    def test_bounded_variant_is_bbar_yes(self):
        K = F3L.field()
        alpha = K.zeta(1)  # v(alpha) = +1: valuations grow upward
        a = ZSeries.z(K, -1)
        b = ZSeries(K, {-1: -alpha})
        out = solve_scalar(a, b, "Bbar", prec=6)
        assert out["verdict"] == "solution"
        assert out["growth"]["conclusion"] == "bounded_below"
        out2 = solve_scalar(a, b, "BOK", prec=6)
        assert out2["verdict"] == "solution"

    def test_nonmonomial_contraction(self):
        K = F3L.field()
        a = ZSeries.from_pairs(K, [(-1, 1), (0, K.zeta())])
        b = ZSeries.one(K)
        out = solve_scalar(a, b, "BK", prec=5)
        assert out["verdict"] == "solution"
        x = out["x"]
        res = residual(a, b, x)
        lo = x.val_lower_bound()
        assert not any(
            K.known_nonzero(c) for e, c in res.co.items() if lo <= e < 4
        )


class TestRootRegime:
    def test_qth_root_missing_zeta(self):
        # sigma(x) = z x - zeta: the z^0 equation forces x_0^q = -zeta
        K = F3L.field()
        a = ZSeries.z(K)
        b = ZSeries(K, {0: -K.zeta()})
        out = solve_scalar(a, b, "BOK", prec=4)
        assert out["verdict"] == "no_solution"
        assert out["reason"] == "QthRootMissing"
        assert out["witness"]["z_exponent"] == 0
        assert out["witness"]["exponent"] == 1
        # witness re-check: the rhs really has no q-th root
        from taumod.errors import NoRoot

        with pytest.raises(NoRoot):
            K.qth_root(out["witness"]["rhs"])

    def test_qth_root_missing_plus_zeta(self):
        K = F3L.field()
        a = ZSeries.z(K)
        b = ZSeries(K, {0: K.zeta()})
        out = solve_scalar(a, b, "BK", prec=4)
        assert out["verdict"] == "no_solution"
        assert out["reason"] == "QthRootMissing"

    def test_solvable_all_ones(self):
        # sigma(x) = z x + 1 has the all-ones solution
        K = F3L.field()
        a = ZSeries.z(K)
        b = ZSeries.one(K)
        out = solve_scalar(a, b, "BOK", prec=5)
        assert out["verdict"] == "solution"
        x = out["x"]
        for n in range(5):
            assert x.coeff(n) == K.one()

    def test_finite_base_always_solvable(self):
        rng = random.Random(31)
        K = F9.field()
        for _ in range(8):
            a = ZSeries.from_pairs(
                K, [(k, K.random(rng)) for k in range(1, 3)]
            )
            b = ZSeries.from_pairs(K, [(k, K.random(rng)) for k in range(0, 4)])
            if not a.co:
                continue
            out = solve_scalar(a, b, "BK", prec=6)
            if out["verdict"] == "solution":
                x = out["x"]
                res = residual(a, b, x)
                assert not any(
                    K.known_nonzero(c)
                    for e, c in res.co.items()
                    if e < min(5, res.hi)
                )

    def test_homogeneous_zero(self):
        K = F3L.field()
        out = solve_scalar(ZSeries.z(K), ZSeries.zero(K), "AK", prec=4)
        assert out["verdict"] == "solution"
        assert out["x"].is_zero()
        assert out["solution_space"]["per_coefficient_dim_fq"] == 0

    def test_principal_part_violation(self):
        # b with negative z-order forces x to start below 0
        K = F3L.field()
        a = ZSeries.z(K)
        b = ZSeries(K, {-2: K.one()})
        out = solve_scalar(a, b, "AK", prec=4)
        assert out["verdict"] == "no_solution"
        assert out["reason"] == "PrincipalPartViolation"
        assert out["witness"]["exponent"] == -2


class TestAdditiveRegime:
    def test_fixed_ring_constants(self):
        for desc in (F3, F9, F3L):
            K = desc.field()
            out = solve_scalar(ZSeries.one(K), ZSeries.zero(K), "AK", prec=4)
            assert out["verdict"] == "solution"
            assert out["x"].is_zero()
            assert out["solution_space"]["per_coefficient_dim_fq"] == 1

    def test_constant_inhomogeneous_solvable(self):
        # x^3 - 2x = 1 over F_3: 2x = 1, x = 2
        K = F3.field()
        a = ZSeries.const(K, 2)
        b = ZSeries.one(K)
        out = solve_scalar(a, b, "BK", prec=3)
        assert out["verdict"] == "solution"
        assert out["x"].coeff(0) == K.el(2)
        assert out["solution_space"]["per_coefficient_dim_fq"] == 0

    def test_constant_inhomogeneous_unsolvable(self):
        # x^3 - x = 1 over F_3 has empty image outside 0
        K = F3.field()
        a = ZSeries.one(K)
        b = ZSeries.one(K)
        out = solve_scalar(a, b, "BK", prec=3)
        assert out["verdict"] == "no_solution"
        assert out["reason"] == "CoefficientEquationUnsolvable"
        n = out["witness"]["z_exponent"]
        assert n == 0
        # independent witness re-check by exhaustion
        for enc in range(3):
            x = K.el(enc)
            assert x**3 - x != K.el(1)

    def test_additive_over_bigger_field(self):
        # x^3 - x = c solvable in F_9 iff trace-type condition holds;
        # verify solver agrees with exhaustion for every c (q = 3, m = 2)
        K = FieldDescriptor(p=3, a=1, m=2, kind="finite").field()
        a = ZSeries.one(K)
        for enc in range(9):
            c = K.ff.el(K.ff._dec(enc))
            b = ZSeries.const(K, c)
            out = solve_scalar(a, b, "BK", prec=2)
            brute = [
                x
                for e2 in range(9)
                for x in [K.ff.el(K.ff._dec(e2))]
                if x**3 - x == c
            ]
            if brute:
                assert out["verdict"] == "solution"
                assert out["x"].coeff(0) ** 3 - out["x"].coeff(0) == c
            else:
                assert out["verdict"] == "no_solution"

    def test_local_additive_inconclusive(self):
        K = F3L.field()
        a = ZSeries.one(K)
        b = ZSeries.from_pairs(K, [(0, K.zeta())])
        out = solve_scalar(a, b, "BK", prec=3)
        assert out["verdict"] == "inconclusive"


F9M = FieldDescriptor(p=3, a=1, m=2, kind="finite")
F4Q = FieldDescriptor(p=2, a=2, m=1, kind="finite")
SMALL_BASES = [F4, F9M, F4Q, F9]


def _elements(K):
    ff = K.ff
    return [ff.el(ff._dec(enc)) for enc in range(ff.size)]


def _sigma_coeff(K, c):
    return c ** K.q  # sigma by plain powering, not through Frobenius matrices


def _equations_hold(K, a, b, x, lo, hi):
    """sigma(x)_n == (a*x + b)_n for lo <= n < hi, coefficient by
    coefficient; a, b, x are dicts exponent -> Felt."""
    zero = K.zero()
    for n in range(lo, hi):
        rhs = b.get(n, zero)
        for k, ak in a.items():
            rhs = rhs + ak * x.get(n - k, zero)
        if _sigma_coeff(K, x.get(n, zero)) != rhs:
            return False
    return True


def _brute_solutions(K, a, b, lo, hi):
    """Every x supported on [lo, hi) that meets the equations there."""
    out = []
    for vals in itertools.product(_elements(K), repeat=hi - lo):
        x = {lo + i: v for i, v in enumerate(vals)}
        if _equations_hold(K, a, b, x, lo, hi):
            out.append(x)
    return out


class TestBruteForceOracle:
    """The window solver (non-constant a of z-order 0) and the a = 0
    solver over finite bases, against exhaustive search over the
    coefficients of x."""

    @pytest.mark.parametrize("D", SMALL_BASES, ids=str)
    @pytest.mark.parametrize("seed", range(6))
    def test_additive_window_solver(self, D, seed):
        K = D.field()
        rng = random.Random(f"window:{D}:{seed}")
        N = 4 if K.ff.size == 4 else 3

        def unit():
            return rng.choice(_elements(K)[1:])

        # z-order 0, not constant; b nonzero and supported in [0, N)
        a = {0: unit(), rng.randrange(1, N): unit()}
        b = {rng.randrange(N): unit()}
        out = solve_scalar(ZSeries(K, a, INF), ZSeries(K, b, INF), "BK", prec=N)
        sols = _brute_solutions(K, a, b, 0, N)
        if not sols:
            assert out["verdict"] == "inconclusive"
            assert "inconsistent" in out["note"]
            return
        assert out["verdict"] == "solution"
        x = out["x"]
        assert x.hi == N and all(0 <= e < N for e in x.co)
        got = {e: x.coeff(e) for e in range(N)}
        assert any(all(got[e] == s[e] for e in range(N)) for s in sols)

    @pytest.mark.parametrize("D", SMALL_BASES, ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_sigma_only_solver(self, D, seed):
        K = D.field()
        rng = random.Random(f"sigma-only:{D}:{seed}")
        N = 4
        b = {e: rng.choice(_elements(K)) for e in rng.sample(range(-2, N), 3)}
        out = solve_scalar(ZSeries.zero(K), ZSeries(K, b, INF), "BK", prec=N)
        assert out["verdict"] == "solution"
        assert out["solution_space"] == {"per_coefficient_dim_fq": 0}
        x = out["x"]
        # the q-th root of each coefficient is unique: one solution per
        # exponent, and nothing where b vanishes
        for e in range(-2, N):
            roots = [y for y in _elements(K)
                     if _sigma_coeff(K, y) == b.get(e, K.zero())]
            assert len(roots) == 1 and x.coeff(e) == roots[0]
        assert all(-2 <= e < N for e in x.co)


class TestTauFixedSpace:
    def test_identity_rank_one(self):
        K = F3.field()
        A = [[ZSeries.one(K)]]
        basis = tau_fixed_space(A, N=1, e=1)
        assert len(basis) == 1
        v = basis[0][0].coeff(0)
        assert v**3 == v and not v.is_zero()

    def test_f4_generator_example(self):
        K = F4.field()
        alpha = K.gen()
        A = [[ZSeries.const(K, alpha)]]
        basis = tau_fixed_space(A, N=1, e=1)
        assert len(basis) == 1
        x = basis[0][0].coeff(0)
        assert x == alpha**2
        assert alpha * x**2 == x

    def test_identity_two_by_two(self):
        K = F3.field()
        A = zmatrix.identity(K, 2)
        basis = tau_fixed_space(A, N=1, e=1)
        assert len(basis) == 2

    def test_extension_sweep_needed(self):
        # 2 x^3 = x has only 0 over F_3; over F_9 a full line appears
        K = F3.field()
        A = [[ZSeries.const(K, 2)]]
        assert tau_fixed_space(A, N=1, e=1) == []
        basis = tau_fixed_space(A, N=1, e=2)
        assert len(basis) == 1
        x = basis[0][0].coeff(0)
        L = K.extend(2)
        assert L.el(2) * x**3 == x

    def test_free_module_rank(self):
        K = F3.field()
        A = [[ZSeries.one(K)]]
        basis = tau_fixed_space(A, N=4, e=1)
        assert len(basis) == 4  # F_q-dimension r*N
        ok, mod_basis = free_module_check(K, basis, 1, 4)
        assert ok
        assert len(mod_basis) == 1

    def test_dimension_nondecreasing_in_e(self):
        K = F4.field()
        A = [[ZSeries.const(K, K.gen())]]
        dims = [len(tau_fixed_space(A, N=2, e=e)) for e in (1, 2, 3)]
        assert dims[0] <= dims[1] <= dims[2]

    def test_requires_invertible_mod_z(self):
        K = F3.field()
        A = [[ZSeries.z(K)]]
        with pytest.raises(InputError):
            tau_fixed_space(A, N=2, e=1)

    def test_window_checked(self):
        K = F3.field()
        A = [[ZSeries(K, {0: K.one()}, hi=1)]]
        with pytest.raises(PrecisionLoss):
            tau_fixed_space(A, N=2, e=1)


def _rank(rows, p):
    return len(kernels.rref_mod_p(rows, p)[1]) if rows else 0


class TestFpSpan:
    @pytest.mark.parametrize("p", [2, 3, 251])
    def test_membership_matches_rref_rank(self, p):
        rng = random.Random(31 + p)
        dim = 12
        for _ in range(5):
            span = FpSpan(p)
            added = []
            for _ in range(40):
                if added and rng.random() < 0.5:
                    # a combination of added vectors: always a member
                    v = [0] * dim
                    for w in added:
                        c = rng.randrange(p)
                        v = [(x + c * y) % p for x, y in zip(v, w)]
                else:
                    v = [rng.randrange(p) if rng.random() < 0.3 else 0
                         for _ in range(dim)]
                member = _rank(added + [v], p) == _rank(added, p)
                assert (not any(span.reduce(v))) == member
                assert span.add(v) == (not member)
                if not member:
                    added.append(v)
            assert len(span.pivots) == _rank(added, p)
            # reduced echelon: the pivot columns of the rows are the identity
            piv = [[row[c] for c in span.pivots] for row in span.rows]
            assert piv == [[int(i == j) for j in range(len(span.pivots))]
                           for i in range(len(span.pivots))]


def test_fq_generator_generates_fq_inside_extension():
    # q = 4 inside L = F_64: the generator lies in F_4 and not in F_2
    L = FieldDescriptor(p=2, a=2, m=1, kind="finite").field().extend(3)
    g = fq_generator(L, 2)
    assert g.ff is L.ff
    assert g.in_subfield(2) and not g.in_subfield(1)
    assert fq_generator(L, 1) == L.ff.one


class TestFrobeniusAction:
    def test_identity_action(self):
        K = F3.field()
        A = zmatrix.identity(K, 2)
        basis = tau_fixed_space(A, N=1, e=1)
        ok, mb = free_module_check(K, basis, 2, 1)
        assert ok
        C = frobenius_action(K, mb, N=1)
        assert zmatrix.agrees(C, zmatrix.identity(K, 2))

    def test_f4_fixed_by_frobenius(self):
        K = F4.field()
        A = [[ZSeries.const(K, K.gen())]]
        basis = tau_fixed_space(A, N=1, e=1)
        ok, mb = free_module_check(K, basis, 1, 1)
        assert ok
        C = frobenius_action(K, mb, N=1)
        assert C[0][0].coeff(0) == K.one()

    def test_generator_twist_action(self):
        # fixed vector of 2*x^3 = x lives over F_9; Frob_3 acts by -1
        K = F3.field()
        A = [[ZSeries.const(K, 2)]]
        basis = tau_fixed_space(A, N=1, e=2)
        ok, mb = free_module_check(K, basis, 1, 1)
        assert ok
        C = frobenius_action(K, mb, N=1)
        assert C[0][0].coeff(0) == K.el(2)
        # oracle: x with x^2 = -1; x^3 = -x
        x = mb[0][0].coeff(0)
        assert x.frob(1) == -x

    def test_invertible_over_oz(self):
        K = F3.field()
        A = [[ZSeries.one(K)]]
        basis = tau_fixed_space(A, N=3, e=1)
        ok, mb = free_module_check(K, basis, 1, 3)
        C = frobenius_action(K, mb, N=3)
        d = zmatrix.det(C)
        assert d.valuation() == 0

    def test_not_stable_detected(self):
        K = F4.field()
        L = K.extend(2)
        beta = L.gen()  # generates F_16, not fixed by Frob_4
        bogus = [[ZSeries(L, {0: beta}, 1)]]
        with pytest.raises(NotStable):
            frobenius_action(K, bogus, N=1)

