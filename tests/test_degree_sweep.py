"""The degree searches against the exhaustive sweep.

`iota_conjugator` solves each extension degree level by level on
F_p-linear data and builds only the field of the degree that passes;
`tate_slope0` reads its degree off the twist's norm (`split_degree`) and
solves the fixed points at that degree alone. The oracle here is the
exhaustive dense sweep of `dense_oracle`: every degree builds its field
and takes one nullspace of the whole system there. On seeded random
inputs both must give the same extension and the same rendered
conjugator or TateData, or the same ExtensionExhausted message, and the
last level's canonical basis must be the dense nullspace basis at every
degree. The corpus generator, which decides only the degree, must emit
what a filter through the sweep emits.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from taumod import basefield, corpusgen, jsonio, kernels, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.drinfeld import DrinfeldModule
from taumod.errors import ExtensionExhausted, InputError, PrecisionLoss
from taumod.isocrystal import (
    Inconclusive,
    Isocrystal,
    conjugated_matrix,
    purity_check,
)
from taumod.semilinear import free_module_check, frobenius_action, tau_fixed_space
from taumod.tateweil import (
    TateData,
    _conjugator_levels,
    _conjugator_rows,
    _vector_to_unit,
    iota_conjugator,
    split_degree,
    tate_slope0,
)
from taumod.zseries import DEFAULT_Z_PREC, INF, ZSeries

import dense_oracle as dense

# (p, a): q = 2, 4, 3, 9, 5; each with m = 1 or 2
QS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
# the exhaustive sweep builds every field up to p^(a m e_max); e_max is
# capped so that a m e_max <= 16
MAX_DEGREE = 16


def _case(seed):
    rng = random.Random(f"degree-sweep:{seed}")
    p, a = rng.choice(QS)
    m = rng.choice([1, 2])
    K = FieldDescriptor(p=p, a=a, m=m, kind="finite").field()
    return rng, K, rng.choice([4, 8]), rng.randint(1, min(6, MAX_DEGREE // (a * m)))


def _unit(K, rng):
    x = K.random(rng)
    while K.is_zero(x):
        x = K.random(rng)
    return x


# -- oracles: the exhaustive sweep ---------------------------------------------


def unit_at(E, N, e):
    """The first echelon conjugator over the degree-e extension, or None."""
    L = E.K.extend(e)
    for w in dense.conjugator_kernel(E, L, N):
        u = _vector_to_unit(L, w, N)
        if u is not None:
            return u
    return None


def exhaustive_conjugator(E, N, e_max):
    for e in range(1, e_max + 1):
        u = unit_at(E, N, e)
        if u is not None:
            return {"extension": e, "u": u}
    raise ExtensionExhausted(
        f"no conjugator within extension degree {e_max} at precision {N}"
    )


def twist(M, N):
    """The twist of M in the basis of its invariant lattice, or None."""
    work = max(N + 4, DEFAULT_Z_PREC)
    cert = purity_check(M, 0, 1, max_iters=32, prec=work)
    if isinstance(cert, Inconclusive):
        return None
    return cert.lattice, conjugated_matrix(M, cert.lattice, prec=work)


def exhaustive_tate(M, N, e_max):
    K, r = M.K, M.rank
    lat, B = twist(M, N)
    for e in range(1, e_max + 1):
        basis = dense.tau_fixed_space(B, N, e)
        if len(basis) != r * N:
            continue
        ok, mb = free_module_check(K, basis, r, N)
        if not ok:
            continue
        return TateData(rank=r, z_precision=N, extension=e, lattice=lat, twist=B,
                        fq_dimension=len(basis), module_basis=mb,
                        frobenius=frobenius_action(K, mb, N))
    raise ExtensionExhausted(
        f"fixed points not free of rank {r} within {e_max} coefficient extensions"
    )


def _outcome(fn):
    try:
        return jsonio.render(fn())
    except ExtensionExhausted as exc:
        return f"ExtensionExhausted: {exc}"


# -- the differential tests ----------------------------------------------------


def _module(rng, K):
    r = rng.randint(1, 3)
    # each lower coefficient is zero half the time: dense random modules
    # rarely find a conjugator within six degrees
    coeffs = [K.random(rng) if rng.random() < 0.5 else K.zero() for _ in range(r)]
    return DrinfeldModule(K, coeffs + [_unit(K, rng)])


def _slope0(rng, K):
    r = rng.randint(1, 3)
    # an A over K[z] that is invertible mod z is pure of slope zero (tau
    # keeps the standard lattice); constant ones trivialize sooner
    support = rng.choice([[0], [0, 1]])
    while True:
        A = [[ZSeries(K, {k: K.random(rng) for k in support}, INF)
              for _ in range(r)] for _ in range(r)]
        if zmatrix.det(A).valuation() == 0:
            return Isocrystal(K, A)


@pytest.mark.parametrize("seed", range(80))
def test_conjugator_matches_the_exhaustive_sweep(seed):
    rng, K, N, e_max = _case(seed)
    E = _module(rng, K)
    assert ([_conjugator_rows(E, e, N) is not None for e in range(1, e_max + 1)]
            == [unit_at(E, N, e) is not None for e in range(1, e_max + 1)])

    def fast():
        cd = iota_conjugator(E, N=N, e_max=e_max)
        return {"extension": cd.extension, "u": cd.u}

    assert _outcome(fast) == _outcome(lambda: exhaustive_conjugator(E, N, e_max))


@pytest.mark.parametrize("seed", range(20))
def test_tate_matches_the_exhaustive_sweep(seed, monkeypatch):
    rng, K, N, e_max = _case(seed)
    M = _slope0(rng, K)
    r = M.rank
    _, B = twist(M, N)
    built = []
    extend = basefield.FiniteK.extend
    monkeypatch.setattr(basefield.FiniteK, "extend",
                        lambda self, e: built.append(e) or extend(self, e))
    for e in range(1, e_max + 1):
        # the sweep's level test decides a degree on F_p-linear data,
        # before any field is built, and passes it exactly when the
        # dense fixed space is full
        built.clear()
        full = dense.levels_full(B, N, e)
        assert built == []
        assert full == (len(dense.tau_fixed_space(B, N, e)) == r * N)
    monkeypatch.undo()
    assert (_outcome(lambda: tate_slope0(M, N=N, e_max=e_max))
            == _outcome(lambda: exhaustive_tate(M, N, e_max)))


@pytest.mark.parametrize("seed", range(80))
def test_split_degree_is_the_first_degree_of_the_sweep(seed):
    rng, K, N, e_max = _case(seed)
    M = _slope0(rng, K)
    _, B = twist(M, N)
    assert (_outcome(lambda: split_degree(B, N, e_max))
            == _outcome(lambda: exhaustive_tate(M, N, e_max).extension))


def _failure(fn):
    try:
        fn()
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "need", None),
                getattr(exc, "window", None))
    raise AssertionError("no error raised")


def test_tate_errors_are_those_of_the_sweep():
    K = FieldDescriptor(p=2, a=2, m=1, kind="finite").field()
    z = ZSeries.z(K)
    # a constant unit known below z^3, and the same twist in a basis
    # skewed by z^-2: the twist B is checked before any degree is decided
    c = ZSeries(K, {0: K.gen()}, 3)
    P = [[ZSeries.one(K), ZSeries.z(K, -2)], [ZSeries.zero(K), ZSeries.one(K)]]
    D = [[c, ZSeries.zero(K)], [ZSeries.zero(K), c + z]]
    skewed = zmatrix.mul(zmatrix.mul(P, D), zmatrix.sigma(zmatrix.inv(P)))
    for M, prec in ((Isocrystal(K, [[c]]), 3), (Isocrystal(K, skewed), None)):
        for e_max in (0, 8):
            got = _failure(lambda: tate_slope0(M, N=4, e_max=e_max, prec=prec))
            assert got == _failure(
                lambda: dense.sweep_tate_slope0(M, N=4, e_max=e_max, prec=prec))
    assert _failure(lambda: tate_slope0(Isocrystal(K, [[c]]), N=4, prec=3))[:2] == (
        PrecisionLoss.__name__, "tau matrix entry known below the requested z-precision")
    # there is no isocrystal of rank 0 to ask
    assert _failure(lambda: Isocrystal(K, [])) == (
        InputError.__name__, "twist matrix must have positive rank", None, None)


@pytest.mark.parametrize("seed", range(6))
def test_slope0_corpus_is_the_sweep_filter(seed):
    assert ([(name, jsonio.render(M)) for name, M in corpusgen.slope0_corpus(seed)]
            == [(name, jsonio.render(M))
                for name, M in dense.sweep_slope0_corpus(seed)])


@pytest.mark.parametrize("seed", range(40))
def test_conjugator_levels_end_in_the_dense_basis(seed):
    # at every degree, passing or not, the canonical basis of the last
    # level is the dense nullspace basis over the built field
    rng, K, N, e_max = _case(seed)
    E = _module(rng, K)
    for e in range(1, e_max + 1):
        for rows in _conjugator_levels(E, e, N):
            pass
        assert (kernels.canonical_basis(rows, K.ff.p)
                == dense.conjugator_kernel(E, K.extend(e), N))


@pytest.mark.parametrize("seed", range(20))
def test_fixed_space_levels_end_in_the_dense_basis(seed):
    rng, K, N, e_max = _case(seed)
    _, B = twist(_slope0(rng, K), N)
    for e in range(1, e_max + 1):
        assert (jsonio.render(tau_fixed_space(B, N, e))
                == jsonio.render(dense.tau_fixed_space(B, N, e)))


# -- no field for a rejected degree --------------------------------------------

_NO_FIELD = """
import contextlib, hashlib, io
from taumod import basefield, jsonio
from taumod.cli import main
from taumod.drinfeld import DrinfeldModule
K = basefield.FieldDescriptor(p=3, a=2, m=1, kind="finite").field()
inp = jsonio.dump_canonical(DrinfeldModule(K, [K.gen(), K.zero(), K.one()]))
before = basefield.get_field.cache_info()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(["weil", "--ext-max", "8", "--input", inp])
after = basefield.get_field.cache_info()
print(code, before.currsize, after.currsize, after.misses - before.misses,
      hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""

# the budget_exhausted report of phi_t = g + tau^2 over F_9 at --ext-max 8
BUDGET_REPORT_SHA = "242f47596749b3cff9f247e6f1d61b6f32e8c611ae371963eb9fd8572f88cb50"


def test_rejected_degrees_build_no_field():
    # a fresh interpreter, so that no field built by another test hides one
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", _NO_FIELD], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    code, size_before, size_after, misses, sha = out.stdout.split()
    assert code == "3"
    assert size_before == size_after == "1" and misses == "0"
    assert sha == BUDGET_REPORT_SHA
