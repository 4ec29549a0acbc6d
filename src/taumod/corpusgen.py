"""Deterministic instance families for corpus runs and batch checks.

Every generator is a pure function of its seed: the same seed yields
the same objects in the same order, so corpus files regenerate
byte-identically.  Families are chosen to terminate inside the default
budgets; in particular the twist-conjugation instances stay on modules
whose coefficient towers close within a few extensions, and the
slope-zero twists are filtered through the fixed-point certifier
before they are emitted.
"""

import random

from taumod import jsonio
from taumod.basefield import FieldDescriptor
from taumod.drinfeld import DrinfeldModule, reduction_type
from taumod.errors import BudgetExceeded
from taumod.isocrystal import Isocrystal
from taumod.tateweil import tate_slope0
from taumod.zseries import INF, ZSeries

# (p, a) with q = p^a covering q in {2, 3, 4}
QS = [(2, 1), (3, 1), (2, 2)]


def finite_base(p, a, m):
    return FieldDescriptor(p=p, a=a, m=m, kind="finite").field()


def local_base(p, a, m):
    return FieldDescriptor(p=p, a=a, m=m, kind="local").field()


def _nonzero(K, rng):
    x = K.random(rng)
    while not K.known_nonzero(x):
        x = K.random(rng)
    return x


def drinfeld_corpus(seed=0):
    """Modules over finite and valued bases, q in {2,3,4}, rank 1..3."""
    rng = random.Random(("drinfeld", seed).__repr__())
    out = []
    for p, a in QS:
        q = p**a
        for r in (1, 2, 3):
            K1 = finite_base(p, a, 1)
            out.append((f"dm-q{q}-r{r}-unit", DrinfeldModule(
                K1, [[1]] + [[0]] * (r - 1) + [[1]])))
            K2 = finite_base(p, a, 2)
            coeffs = [K2.random(rng) for _ in range(r)] + [_nonzero(K2, rng)]
            out.append((f"dm-q{q}-r{r}-rand", DrinfeldModule(K2, coeffs)))
            KL = local_base(p, a, 1)
            # integral coefficients, unit top: always well posed
            lc = [KL.zeta(rng.randrange(0, 3)) for _ in range(r)]
            lc.append(KL.el(1) + KL.zeta(rng.randrange(1, 3)))
            out.append((f"dm-q{q}-r{r}-val", DrinfeldModule(KL, lc)))
            KL2 = local_base(p, a, 2)
            lc2 = [KL2.zeta(rng.randrange(0, 2)) for _ in range(r)] + [KL2.el(1)]
            out.append((f"dm-q{q}-r{r}-val2", DrinfeldModule(KL2, lc2)))
    return out


def valued_corpus(seed=0, per_verdict=7):
    """Valued-base modules spanning all three reduction verdicts.

    Instances are drawn from a seeded pool and labeled by the library's
    own classifier; the pool keeps going until each verdict has
    `per_verdict` members, so the family always spans the trichotomy.
    """
    rng = random.Random(("valued", seed).__repr__())
    buckets = {"Good": [], "PotentiallyGood": [], "Stable": []}
    trials = 0
    while any(len(v) < per_verdict for v in buckets.values()):
        trials += 1
        if trials > 600:
            raise RuntimeError("valued pool failed to span the verdicts")
        p, a = rng.choice([(2, 1), (3, 1)])
        K = local_base(p, a, 1)
        r = rng.choice([1, 2, 2, 3])
        coeffs = [K.zeta(rng.randrange(0, 2))]
        for _ in range(r - 1):
            coeffs.append(K.zeta(rng.randrange(-4, 2)))
        coeffs.append(K.zeta(rng.randrange(-4, 1)) if rng.random() < 0.7
                      else K.el(1))
        E = DrinfeldModule(K, coeffs)
        rep = reduction_type(E)
        if len(buckets[rep.verdict]) < per_verdict:
            n = sum(len(v) for v in buckets.values())
            tag = rep.verdict.lower()
            buckets[rep.verdict].append((f"dm-val-{tag}-{n:02d}", E))
    out = []
    for verdict in ("Good", "PotentiallyGood", "Stable"):
        out.extend(buckets[verdict])
    return out


def _slope0_candidates(K, rng):
    one = ZSeries.one(K)
    zero = ZSeries.zero(K)
    z = ZSeries.z(K)
    zinv = ZSeries.z(K, -1)
    yield "unit", [[one]]
    c = _nonzero(K, rng)
    yield "const", [[ZSeries(K, {0: c}, INF)]]
    yield "seesaw", [[zero, z], [zinv, zero]]
    s = ZSeries(K, {1: _nonzero(K, rng)}, INF)
    yield "shear", [[one, s], [zero, one]]
    yield "cyc3", [[zero, zero, z], [one, zero, zero], [zero, zinv, zero]]


def slope0_corpus(seed=0, prec=4, ext_max=8):
    """Pure slope-zero twists whose fixed points certify as free.

    Candidates that exhaust the extension budget (constant twists with
    a deep coefficient tower, shears with a trace obstruction) are
    dropped; only instances the certifier accepts are emitted.
    """
    rng = random.Random(("slope0", seed).__repr__())
    out = []
    for p, a in QS:
        for m in (1, 2, 3):
            K = finite_base(p, a, m)
            for tag, A in _slope0_candidates(K, rng):
                M = Isocrystal(K, A)
                try:
                    tate_slope0(M, N=prec, e_max=ext_max)
                except BudgetExceeded:
                    continue
                q = p**a
                out.append((f"iso-s0-q{q}-m{m}-{tag}", M))
    return out


def weil_corpus():
    """Modules with an immediate twist conjugator: g_i = 0 below the top.

    The leading equation then fixes a constant conjugator over the base
    itself, so the Frobenius valuation check runs at extension one and
    the degree of the base enters the answer exactly as -m/r.
    """
    out = []
    for p, a in QS:
        q = p**a
        for m in (1, 2, 3):
            K = finite_base(p, a, m)
            for r in (1, 2):
                E = DrinfeldModule(K, [[0]] * r + [[1]])
                out.append((f"dm-weil-q{q}-m{m}-r{r}", E))
    return out


def counterexample_problems():
    """The three boundary instances of the scalar solver, as files.

    A mixed-regime equation solvable in the big field but with
    coefficient valuations -q^n (solution in one ring, certified
    no-solution in the bounded one), and two root-regime equations
    whose first coefficient equation asks for a q-th root the
    ramified base does not have.
    """
    K = local_base(3, 1, 1)
    alpha = K.zeta(-1)
    a_mixed = ZSeries.z(K, -1)
    b_mixed = ZSeries(K, {-1: -alpha})
    a_root = ZSeries.z(K)
    items = [
        ("solve-mixed-bk", a_mixed, b_mixed, "BK", 6),
        ("solve-mixed-bbar", a_mixed, b_mixed, "Bbar", 6),
        ("solve-root-bok", a_root, ZSeries(K, {0: -K.zeta()}), "BOK", 4),
        ("solve-affine-bk", a_root, ZSeries(K, {0: K.zeta()}), "BK", 4),
    ]
    out = []
    for name, a, b, ring, prec in items:
        out.append((name, {
            "kind": "solve_problem",
            "base": jsonio.render_field(K),
            "a": jsonio.render(a),
            "b": jsonio.render(b),
            "ring": ring,
            "prec": prec,
        }))
    return out


def corpus_files(seed=0):
    """All corpus payloads as (filename, json-ready dict) pairs."""
    out = []
    for name, E in drinfeld_corpus(seed) + valued_corpus(seed):
        out.append((f"{name}.json", jsonio.render(E)))
    for name, M in slope0_corpus(seed):
        d = jsonio.render(M)
        d["purity"] = [0, 1]
        out.append((f"{name}.json", d))
    for name, payload in counterexample_problems():
        out.append((f"{name}.json", payload))
    return out
