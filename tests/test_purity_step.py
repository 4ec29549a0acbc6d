"""The purity search against its two-reduction reference.

Each step of `isocrystal.purity_check` first tests whether
z^-s T^-1 A_r sigma^r(T) is provably in GL_r(K[[z]]) and certifies T if
so, with no Hermite reduction; otherwise it runs the step of
`dense_oracle.purity_check_two_hnf`, which reduces the image and the
join at every step. The test may only certify or fall through, so on
every input both searches must give the same rendered result or the
same error.
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
from taumod.isocrystal import Isocrystal, Lattice, purity_check
from taumod.zseries import DEFAULT_Z_PREC, ZSeries

import dense_oracle as dense
from test_degree_sweep import _case, _slope0

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "perfbench")]
import inputs  # noqa: E402
import report_gate  # noqa: E402

del sys.path[:2]


def _outcome(fn):
    try:
        return jsonio.render(fn())
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
    assert got == _outcome(lambda: dense.purity_check_two_hnf(M, s, r, **kw))
    return got


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


def test_skewed_unit_still_drifts(unimodular):
    # pure of slope 0, yet no step certifies: the drift rule refutes
    got = same_as_reference(report_gate.skewed_unit(), 0, 1)
    assert got["kind"] == "not_pure_at"
    assert got["witness"]["kind"] == "elementary_divisor_drift"
    assert got["witness"]["drift"] == [-2, -4]
    assert unimodular == [False, False]


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
