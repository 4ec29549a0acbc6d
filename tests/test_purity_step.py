"""The purity search against its two-reduction reference.

Both searches refute only by the determinant invariant, before any
step. Each step of `isocrystal.purity_check` then tests whether
z^-s T^-1 A_r sigma^r(T) is provably in GL_r(K[[z]]) and certifies T if
so, with no Hermite reduction; otherwise it joins z^-s A_r sigma^r(T)
to T by one reduction, and a join equal to T certifies. The reference,
`dense_oracle.purity_check_two_hnf`, reduces the image and the join at
every step and certifies when the image is z^s T. Where the reference
answers, both give the same verdict at the same step and lattice, the
search's windows no narrower; where the reference loses precision, the
search may answer, but never refutes.
"""

import pathlib
import random
import sys

import pytest

from taumod import isocrystal, jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.localfield import LocalElem
from taumod.drinfeld import m_infinity
from taumod.errors import NotInvertible, PrecisionLoss, TaumodError
from taumod.isocrystal import Isocrystal, Lattice, NotPureAt, PurityCertificate, purity_check
from taumod.zseries import DEFAULT_Z_PREC, INF, ZSeries

import dense_oracle as dense
from test_cli import pivot_window_twist
from test_degree_sweep import _case, _slope0
from test_isocrystal import skewed_constant
from test_slopes import FIELDS as SLOPES_FIELDS, _cases as slopes_cases

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "perfbench")]
import inputs  # noqa: E402
import report_gate  # noqa: E402

del sys.path[:2]


def _outcome(fn):
    try:
        return fn()
    except TaumodError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def unimodular(monkeypatch):
    """The verdicts of the unimodularity test, one per step that ran it."""
    seen = []
    test = isocrystal._unimodular
    monkeypatch.setattr(isocrystal, "_unimodular",
                        lambda *args: seen.append(test(*args)) or seen[-1])
    return seen


def same_as_reference(M, s, r, **kw):
    got = _outcome(lambda: purity_check(M, s, r, **kw))
    want = _outcome(lambda: dense.purity_check_two_hnf(M, s, r, **kw))
    if isinstance(want, tuple) and want[0] == "PrecisionLoss":
        assert not isinstance(got, NotPureAt)
    elif isinstance(want, tuple):
        assert got == want
    else:
        assert type(got) is type(want)
        if isinstance(want, NotPureAt):
            assert got == want
        elif isinstance(want, PurityCertificate):
            # the residue names the pivots
            assert ((got.s, got.r, got.iterations, got.residue)
                    == (want.s, want.r, want.iterations, want.residue))
            for row, want_row in zip(got.lattice.basis, want.lattice.basis):
                for x, y in zip(row, want_row):
                    assert x.agrees_with(y) and x.hi >= y.hi
    return got if isinstance(got, tuple) else jsonio.render(got)


@pytest.mark.parametrize("seed", range(80))
def test_slope0_crystals(seed, unimodular):
    rng, K, N, _ = _case(seed)
    M = _slope0(rng, K)
    got = same_as_reference(M, 0, 1, max_iters=32, prec=max(N + 4, DEFAULT_Z_PREC))
    # tau keeps the standard lattice of an A over K[z] invertible mod z
    assert got["kind"] == "purity_certificate" and unimodular == [True]


@pytest.mark.parametrize("seed", range(2))
def test_dense_rank_twists(seed, unimodular):
    for req in inputs.rank_requests(seed):
        if req["kind"] == "purity":
            M = jsonio.parse_isocrystal(req["payload"], DEFAULT_Z_PREC)
            got = same_as_reference(M, 1, M.rank, prec=DEFAULT_Z_PREC)
            assert got["kind"] == "purity_certificate"
    assert unimodular == [True] * len(inputs.RANKS)


@pytest.mark.parametrize("i, p, r", report_gate.LOCAL)
def test_local_m_infinity(i, p, r, unimodular):
    M = m_infinity(report_gate.local_module(i, p, r))
    same_as_reference(M, -1, r, max_iters=32, prec=DEFAULT_Z_PREC)
    assert unimodular


def test_skewed_unit_certifies(unimodular):
    # pure of slope 0 in a skewed basis: the search moves the lattice
    # twice, and the unimodularity test certifies the third
    got = same_as_reference(report_gate.skewed_unit(), 0, 1)
    assert got["kind"] == "purity_certificate" and got["iterations"] == 2
    assert got["lattice"]["pivots"] == [-4, -2, 0]
    assert unimodular == [False, False, True]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("desc", [FieldDescriptor(p=3, a=1, m=2, kind="finite"),
                                  FieldDescriptor(p=3, a=1, m=1, kind="local")])
def test_skewed_pure_twists_certify_at_a_moved_lattice(desc, k, unimodular):
    # P S sigma(P)^-1 with P = 1 + c z^-k e_0 e_last^T and sigma(c) != c:
    # the standard lattice is not stable, its first join is
    K = desc.field()
    c = K.zeta() if desc.kind == "local" else K.gen()
    for S, s, r in ((isocrystal.unit(K, 2), 0, 1),
                    (isocrystal.simple_pure(K, -1, 3), -1, 3)):
        P = zmatrix.identity(K, S.rank)
        P[0][-1] = ZSeries(K, {-k: c})
        A = zmatrix.mul(zmatrix.mul(P, S.A), zmatrix.sigma(zmatrix.inv(P)))
        got = same_as_reference(Isocrystal(K, A), s, r)
        assert got["iterations"] == 1 and got["lattice"]["pivots"][0] == -k
    assert unimodular == [False, True] * 2


def test_unimodular_reads_u_off_the_triangular_lattice():
    # G = T U for T with a nonzero entry below its pivots z^0, z^1: the
    # test recovers U by substitution and decides it by U alone
    K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
    one, z = ZSeries.one(K), ZSeries.z(K)
    T = Lattice(K, [[one, ZSeries.zero(K)], [one + z * z, z]], [0, 1])

    def const(rows):
        return [[ZSeries.const(K, K.el(x)) for x in row] for row in rows]

    # (U, k, s, verdict): G = z^k T U, tested at slope s
    for U, k, s, unimodular in ((const([[1, 1], [2, 1]]), 0, 0, True),
                                (const([[1, 1], [2, 1]]), 1, 1, True),
                                (const([[1, 1], [2, 1]]), 0, 1, False),
                                (const([[1, 2], [2, 1]]), 0, 0, False),
                                ([[z, one], [one, z]], -1, -1, True),
                                ([[z, one], [one, z]], -1, 0, False),
                                ([[one, z], [one + z, one]], 0, 0, True)):
        G = [[x.shift(k) for x in row] for row in zmatrix.mul(T.basis, U)]
        assert isocrystal._unimodular(G, T, s) is unimodular, (U, k, s)


def test_unimodular_keeps_the_window_of_a_pivot():
    # a pivot 1 + O(z) leaves U's first row known only below z^1, and
    # then the second row only below z^0: not proven, though with an
    # exact pivot the same G gives U = 1
    K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
    one, z = ZSeries.one(K), ZSeries.z(K)
    G = [[one, ZSeries.zero(K)], [one, z]]
    for pivot, unimodular in ((ZSeries(K, {0: K.one()}, 1), False), (one, True)):
        T = Lattice(K, [[pivot, ZSeries.zero(K)], [one, z]], [0, 1])
        assert isocrystal._unimodular(G, T, 0) is unimodular


def test_entry_known_only_below_z0_falls_through(unimodular):
    # z^-1 A has an entry known only below z^0: its constant term, and
    # so U's, is unknown. The reductions certify the standard lattice.
    K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
    z = ZSeries.z(K)
    M = Isocrystal(K, [[z, ZSeries(K, {}, 1)], [ZSeries.zero(K), z]])
    got = same_as_reference(M, 1, 1)
    assert got["kind"] == "purity_certificate" and got["iterations"] == 0
    assert unimodular == [False]


def test_constant_term_zero_to_zeta_precision_falls_through(unimodular):
    # over F_3((zeta)), U's constant terms have determinant
    # (1 + c) - 1 = c, with c zero only below zeta^3: no step certifies
    K = FieldDescriptor(p=3, a=1, m=1, kind="local").field()
    c = LocalElem(K, {}, 3)
    one = ZSeries.one(K)
    A = [[one, one], [one, ZSeries(K, {0: K.one() + c, 1: K.one()})]]
    got = same_as_reference(Isocrystal(K, A), 0, 1)
    assert not isinstance(got, dict) or got["kind"] != "purity_certificate"
    assert unimodular == [False]


FIELDS = (FieldDescriptor(p=3, a=1, m=1, kind="finite"),
          FieldDescriptor(p=2, a=2, m=1, kind="finite"),
          FieldDescriptor(p=3, a=1, m=1, kind="local"),
          FieldDescriptor(p=2, a=1, m=2, kind="local"))
# seeds 0-59, and four whose search certifies at a lattice it moved to,
# with pivots known only to a window
SEEDS = (*range(60), 62, 202, 316, 389)


def seeded_crystal(seed):
    """A random windowed twist of rank 1-3 over FIELDS; half of them a
    unit or simple pure twist conjugated by a random basis."""
    rng = random.Random(f"purity-step:{seed}")
    K = rng.choice(FIELDS).field()
    n = rng.randint(1, 3)
    A = dense.random_matrix(K, rng, n, windowed=rng.random() < 0.5)
    if rng.random() < 0.5:
        pure = isocrystal.simple_pure(K, 1, n) if n > 1 else isocrystal.unit(K)
        P = dense.random_matrix(K, rng, n, windowed=False)
        try:
            A = zmatrix.mul(zmatrix.mul(P, pure.A), zmatrix.sigma(zmatrix.inv(P)))
        except (NotInvertible, PrecisionLoss):
            pass
    return Isocrystal(K, A), rng.choice([None, 4, 12])


def test_seeded_windowed_crystals(unimodular):
    iterations = []
    for seed in SEEDS:
        M, prec = seeded_crystal(seed)
        for s, r in [(0, 1), (1, M.rank), (1, 2), (-1, 1)]:
            got = same_as_reference(M, s, r, max_iters=8, prec=prec)
            if isinstance(got, dict) and got["kind"] == "purity_certificate":
                iterations.append(got["iterations"])
    # the test certifies at the standard lattice and at moved ones, and
    # the reductions still certify where it cannot
    assert max(iterations) > 0
    assert 0 < unimodular.count(True) < len(iterations)


# -- step 0 on A cut below the window its test reads ------------------------

LOCAL_BASES = (FieldDescriptor(p=3, a=1, m=1, kind="local"),
               FieldDescriptor(p=2, a=2, m=1, kind="local"))
WINDOWED_BASES = (FieldDescriptor(p=3, a=1, m=1, kind="finite"),
                  FieldDescriptor(p=2, a=2, m=1, kind="finite"),
                  FieldDescriptor(p=3, a=2, m=1, kind="finite")) + LOCAL_BASES


def shifted_crystal(seed):
    """A seeded windowed twist of rank 1-3 over F_3, F_4, F_9 or a local
    base, each entry shifted by z^k, k in [-3, 0], so that entries have
    negative valuation."""
    rng = random.Random(f"purity-step0:{seed}")
    K = WINDOWED_BASES[seed % len(WINDOWED_BASES)].field()
    n = rng.randint(1, 3)
    A = [[x.shift(rng.randint(-3, 0)) for x in row]
         for row in dense.random_matrix(K, rng, n, windowed=True)]
    return Isocrystal(K, A)


def step0_verdicts(M, s, r):
    """The verdicts of the unimodularity test at the standard lattice on
    A_r from the cut A and on the full A_r, checking the window rule of
    `isocrystal._cut_tau_power` on the way."""
    T = isocrystal.standard_lattice(M.K, M.rank)
    cut, full = isocrystal._cut_tau_power(M.A, s, r), M.tau_power(r)
    for row, full_row in zip(cut, full):
        for x, y in zip(row, full_row):
            assert min(s + 1, y.hi) <= x.hi <= y.hi and x.agrees_with(y)
    return isocrystal._unimodular(cut, T, s), isocrystal._unimodular(full, T, s)


def same_as_full_step0(M, s, r, **kw):
    got = _outcome(lambda: purity_check(M, s, r, **kw))
    want = _outcome(lambda: dense.purity_check_full_step0(M, s, r, **kw))
    assert (got if isinstance(got, tuple) else jsonio.render(got)) == (
        want if isinstance(want, tuple) else jsonio.render(want))
    cut, full = step0_verdicts(M, s, r)
    assert cut is full
    return got, cut


@pytest.fixture
def full_tau_powers(monkeypatch):
    """The matrices A whose tau^r a purity search builds as A itself,
    not cut (`zmatrix.tau_power_matrix`)."""
    seen = []
    power = zmatrix.tau_power_matrix
    monkeypatch.setattr(zmatrix, "tau_power_matrix",
                        lambda A, k: seen.append(A) or power(A, k))
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_cut_step0_on_rank_twists(seed, full_tau_powers):
    for req in inputs.rank_requests(seed):
        if req["kind"] != "purity":
            continue
        M = jsonio.parse_isocrystal(req["payload"], DEFAULT_Z_PREC)
        n = M.rank
        for s, r in ((1, n), (0, 1), (2, 2 * n), (-1, 2)):
            step0_verdicts(M, s, r)
        del full_tau_powers[:]
        assert purity_check(M, 1, n, prec=DEFAULT_Z_PREC).iterations == 0
        # the certificate took tau^r of the cut A alone
        assert len(full_tau_powers) == 1 and full_tau_powers[0] is not M.A
        assert same_as_full_step0(M, 1, n, prec=DEFAULT_Z_PREC)[1]


def test_cut_step0_on_skewed_constant_twists():
    verdicts = []
    for seed in range(80):
        got, certified = same_as_full_step0(skewed_constant(seed), 0, 1)
        verdicts.append(certified)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("i, p, r", report_gate.LOCAL)
def test_cut_step0_on_local_m_infinity(i, p, r):
    M = m_infinity(report_gate.local_module(i, p, r))
    same_as_full_step0(M, -1, r, prec=DEFAULT_Z_PREC)


def test_cut_step0_on_shifted_windowed_twists():
    verdicts = set()
    for seed in range(60):
        M = shifted_crystal(seed)
        n = M.rank
        # (-14, 3) and (-9, 2) lie below r times the least exponent of
        # some of these twists
        for s, r in ((0, 1), (1, n), (-1, 1), (-2, n), (1, 2), (-9, 2), (-14, 3)):
            _, certified = same_as_full_step0(M, s, r, max_iters=4, prec=8)
            verdicts.add(certified)
    assert verdicts == {True, False}


def test_step0_certificate_builds_no_full_tau_power(full_tau_powers):
    # a certificate at step 0 takes tau^r of the cut A alone; a step-0
    # test that fails builds the full A_r once, for the join, and does
    # not test it again
    M = jsonio.parse_isocrystal(inputs.rank_requests(0)[-1]["payload"], DEFAULT_Z_PREC)
    assert purity_check(M, 1, M.rank).iterations == 0
    assert len(full_tau_powers) == 1 and full_tau_powers[0] is not M.A
    del full_tau_powers[:]
    M = report_gate.skewed_unit()
    assert purity_check(M, 0, 1).iterations == 2
    assert [A is M.A for A in full_tau_powers] == [False, True]


def test_cut_counts_an_entry_known_only_below_a_negative_power():
    # O(z^-1) has no exponent, but its order is its window: m = -1, so A
    # is cut below z^2. Cut below z^1, the z^2 entry would be O(z^1),
    # and the (0, 0) entry of A_2 would be known only below z^0
    K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
    one, z = ZSeries.one(K), ZSeries.z(K)
    M = Isocrystal(K, [[one, ZSeries(K, {}, -1)], [z * z, one]])
    assert step0_verdicts(M, 0, 2) == (False, False)


# -- v_z(det A) and the residue test by pivot searches ------------------------

@pytest.fixture
def residue_tests(monkeypatch):
    """The verdicts of the residue test of `isocrystal._unimodular`, each
    checked against the Laplace determinant of the constant terms."""
    seen = []
    test = isocrystal._invertible_mod_z

    def checked(U):
        seen.append(test(U))
        assert seen[-1] is dense.invertible_mod_z_laplace(U)
        return seen[-1]

    monkeypatch.setattr(isocrystal, "_invertible_mod_z", checked)
    return seen


def test_residue_test_is_the_laplace_one_in_the_searches(residue_tests):
    for seed in SEEDS:
        M, prec = seeded_crystal(seed)
        for s, r in [(0, 1), (1, M.rank), (1, 2), (-1, 1)]:
            _outcome(lambda: purity_check(M, s, r, max_iters=8, prec=prec))
    for seed in range(60):
        M = shifted_crystal(seed)
        for s, r in ((0, 1), (1, M.rank), (-1, 1), (-2, M.rank)):
            _outcome(lambda: purity_check(M, s, r, max_iters=4, prec=8))
    for i, p, r in report_gate.LOCAL:
        purity_check(m_infinity(report_gate.local_module(i, p, r)), -1, r)
    for seed in range(80):
        _outcome(lambda: purity_check(skewed_constant(seed), 0, 1))
    assert True in residue_tests and False in residue_tests


def test_residue_test_on_zeta_windowed_constants():
    # over a local K, a pivot search and the Laplace sum narrow the
    # zeta-windows differently: here the sum proves one matrix that the
    # search leaves unproven, and over a finite K they agree
    verdicts = {}
    for desc in FIELDS[::2]:
        K = desc.field()
        rng = random.Random(f"residue:{desc}")
        for i in range(300):
            n = rng.randint(1, 4)
            U = [[ZSeries(K, {0: dense.random_coeff(K, rng)} if rng.random() < 0.8 else {},
                          rng.choice([1, 3, INF])) for _ in range(n)] for _ in range(n)]
            got = isocrystal._invertible_mod_z(U), dense.invertible_mod_z_laplace(U)
            verdicts[got] = verdicts.get(got, 0) + 1
            assert desc.kind == "local" or got[0] is got[1]
    assert verdicts == {(True, True): 373, (False, False): 226, (False, True): 1}


# twists built here, not parsed and given v_z(det A) by no rule, whose v
# the pivot search of `isocrystal.det_valuation` leaves unsettled where
# the Laplace sum settles it: the inverses of its pivots narrow the
# windows. A parse at the default window refuses all six (it runs the
# same elimination); searched directly, the three seeded and shifted
# ones lose their refutations, and skewed 60 its certificate at a join.
ONLY_LAPLACE_V = {("seeded", 11), ("shifted", 8), ("shifted", 13),
                  ("skewed", 14), ("skewed", 60), ("skewed", 73)}


def test_pivot_search_valuation_is_the_laplace_one():
    crystals = ([("seeded", seed, seeded_crystal(seed)[0]) for seed in SEEDS]
                + [("shifted", seed, shifted_crystal(seed)) for seed in range(60)]
                + [("skewed", seed, skewed_constant(seed)) for seed in range(80)])
    only_laplace = set()
    for family, seed, M in crystals:
        got, want = isocrystal.det_valuation(M), dense.laplace_det_valuation(M)
        if got is None and want is not None:
            only_laplace.add((family, seed))
            with pytest.raises(PrecisionLoss):
                jsonio.parse_isocrystal(jsonio.render(M), DEFAULT_Z_PREC)
        elif want is not None:
            assert got == want, (family, seed)
    assert only_laplace == ONLY_LAPLACE_V


# the parse against the one it replaced, which inverted the twist and
# read v_z(det A) off that inversion (`dense_oracle`): at each of these
# z-precisions both give the same v, or the same error
PARSE_PRECS = (1, 2, 8, 30)


def test_parse_by_pivots_is_the_parse_by_inverse():
    crystals = ([M for label in sorted(SLOPES_FIELDS) for _, M in slopes_cases(label)]
                + [seeded_crystal(seed)[0] for seed in SEEDS]
                + [shifted_crystal(seed) for seed in range(60)]
                + [skewed_constant(seed) for seed in range(80)])
    docs = [jsonio.render(M) for M in crystals] + [pivot_window_twist()[2]]
    kinds = set()
    for d in docs:
        for prec in PARSE_PRECS:
            got = _outcome(lambda: jsonio.parse_isocrystal(d, prec).v_det)
            want = _outcome(lambda: dense.parse_isocrystal_by_inverse(d, prec)[0].v_det)
            assert got == want, (d, prec)
            kinds.add(got[0] if isinstance(got, tuple) else "v")
    # settled pivots, pivots zero only to their windows, singular twists
    assert kinds == {"v", "PrecisionLoss", "NotInvertible"}
