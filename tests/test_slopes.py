"""`isocrystal.slopes_finiteK` by Berkowitz's characteristic polynomial,
with its Laplace fallback, against the sums of all principal minors it
replaced (`dense_oracle.laplace_char_poly`), and cut at the Newton chord
against the slopes from the full A (`dense_oracle.slopes_full_window`).

On seeded matrices, most of them windowed, the slopes must be equal
wherever the reference answers. Where only the new route answers, the
inputs are listed below (`ONLY_BERKOWITZ`, `ONLY_CHORD`). On the dense
`rank` twists the two polynomials must be equal, windows included. The
v_z(det A) that the parse reads off its elimination must be the Laplace
one wherever both are settled.
"""

import pathlib
import random
import sys
from fractions import Fraction

import pytest

from taumod import isocrystal, jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.errors import TaumodError
from taumod.isocrystal import Isocrystal, purity_check, simple_pure, slopes_finiteK
from taumod.zseries import DEFAULT_Z_PREC

import dense_oracle as dense

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

del sys.path[0]

FIELDS = {
    "F3": FieldDescriptor(p=3, a=1, m=1, kind="finite"),
    "F4": FieldDescriptor(p=2, a=2, m=1, kind="finite"),
    # q = 2, m = 2: the slopes are read off tau^2
    "F4m2": FieldDescriptor(p=2, a=1, m=2, kind="finite"),
    "F9": FieldDescriptor(p=3, a=2, m=1, kind="finite"),
}
CASES = 100
# the (field, case) pairs of the seeded inputs where the sums of minors
# leave a valuation unsettled and only the new route answers: none. The
# fallback settles 47 of Berkowitz's coefficients here, and 4 of its
# windows are wider than the minors', 183 narrower.
ONLY_BERKOWITZ = set()
# the pairs where the slopes from the full A lose precision and the chord
# cut answers: c_0 is read off v_z(det A), or a coefficient unsettled in
# its window is known zero up to its chord height
ONLY_CHORD = {("F3", 16), ("F3", 41), ("F3", 45), ("F3", 52), ("F3", 75),
              ("F4", 3), ("F4", 4), ("F4", 12), ("F4", 14), ("F4", 29), ("F4", 52),
              ("F4", 55), ("F4m2", 7), ("F4m2", 12), ("F4m2", 15), ("F4m2", 19),
              ("F4m2", 21), ("F4m2", 22), ("F4m2", 27), ("F4m2", 28), ("F4m2", 39),
              ("F4m2", 43), ("F4m2", 48), ("F4m2", 53), ("F4m2", 69), ("F4m2", 71),
              ("F4m2", 84), ("F4m2", 97), ("F4m2", 98), ("F9", 32), ("F9", 37)}


def _outcome(M, slopes=slopes_finiteK):
    try:
        return "ok", slopes(M)
    except TaumodError as exc:
        return type(exc).__name__, str(exc)


def _cases(label):
    K = FIELDS[label].field()
    rng = random.Random(f"test-slopes:{label}")
    for i in range(CASES):
        n = rng.randrange(2, 7)
        A = dense.random_matrix(K, rng, n, windowed=rng.random() < 0.7)
        yield i, Isocrystal(K, A)


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_slopes_match_the_sums_of_minors(label, monkeypatch):
    new, old = {}, {}
    cases = list(_cases(label))
    for i, M in cases:
        new[i] = _outcome(M)
    monkeypatch.setattr(isocrystal, "_char_poly", dense.laplace_char_poly)
    for i, M in cases:
        old[i] = _outcome(M)
    only_new = set()
    for i in new:
        if old[i][0] == "ok":
            assert new[i] == old[i], i
        elif new[i][0] == "ok":
            only_new.add((label, i))
    assert only_new == {c for c in ONLY_BERKOWITZ if c[0] == label}
    assert sum(o[0] == "ok" for o in old.values()) > CASES // 3


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_chord_cut_slopes_equal_the_full_window(label):
    only_new = set()
    for i, M in _cases(label):
        new, old = _outcome(M), _outcome(M, dense.slopes_full_window)
        if old[0] == "ok":
            assert new == old, i
        elif new[0] == "ok":
            only_new.add((label, i))
    assert only_new == {c for c in ONLY_CHORD if c[0] == label}


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_parse_valuation_is_the_laplace_one(label):
    compared = 0
    for i, M in _cases(label):
        try:
            parsed = jsonio.parse_isocrystal(jsonio.render(M), DEFAULT_Z_PREC)
        except TaumodError:
            continue
        want = dense.laplace_det_valuation(M)
        if want is not None:
            assert parsed.v_det == want, i
            compared += 1
    assert compared > CASES * 3 // 4


@pytest.mark.parametrize("seed", [0, 7])
def test_rank_twists_have_the_polynomial_of_the_minors(seed):
    for req in inputs.rank_requests(seed):
        if req["kind"] != "slopes":
            continue
        M = jsonio.parse_isocrystal(req["payload"], None)
        A = M.tau_power(M.K.desc.m * M.K.ext)
        got = isocrystal._char_poly(M.K, A)
        want = dense.laplace_char_poly(M.K, A)
        assert [(c.co, c.hi) for c in got] == [(c.co, c.hi) for c in want]


def test_slopes_of_a_rank_12_twist():
    """P A sigma(P)^-1 for the simple pure A of slope 1/12 over F_9 and a
    seeded unipotent P = L U, as the `rank` plan builds its twists; the
    sums of minors take seconds here."""
    K = FIELDS["F9"].field()
    rng = random.Random("test-slopes:r12")
    r = 12
    L, U = inputs._unipotent(K, rng, r, True), inputs._unipotent(K, rng, r, False)
    P = zmatrix.mul(L, U)
    P_inv = zmatrix.mul(inputs._unipotent_inverse(U, False),
                        inputs._unipotent_inverse(L, True))
    A = zmatrix.mul(zmatrix.mul(P, simple_pure(K, 1, r).A), zmatrix.sigma(P_inv))
    assert slopes_finiteK(Isocrystal(K, A)) == [Fraction(1, r)] * r


def test_rank_16_purity_and_rank_12_slopes_expand_no_determinant(monkeypatch):
    # the twists of the `rank` plan with its ranks extended: v_z(det A)
    # comes from the parse, the residue test is a pivot search, and the
    # slopes need no Laplace sum below the chord
    monkeypatch.setattr(inputs, "RANKS", (12, 16))
    payloads = {req["name"]: req["payload"] for req in inputs.rank_requests(0)}

    def refused(*args):
        pytest.fail("a Laplace expansion ran")

    monkeypatch.setattr(zmatrix, "laplace_minors", refused)
    M = jsonio.parse_isocrystal(payloads["purity-r16"], DEFAULT_Z_PREC)
    assert purity_check(M, 1, 16, prec=DEFAULT_Z_PREC).iterations == 0
    M = jsonio.parse_isocrystal(payloads["slopes-r12"], DEFAULT_Z_PREC)
    assert slopes_finiteK(M) == [Fraction(1, 12)] * 12
