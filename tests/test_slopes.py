"""`isocrystal.slopes_finiteK` by Berkowitz's characteristic polynomial,
with its Laplace fallback, against the sums of all principal minors it
replaced (`dense_oracle.laplace_char_poly`).

On seeded matrices, most of them windowed, the slopes must be equal
wherever the sums of minors settle every coefficient. Where only the
new route answers, the inputs are listed below (`ONLY_BERKOWITZ`). On the dense `rank`
twists the two polynomials must be equal, windows included.
"""

import pathlib
import random
import sys
from fractions import Fraction

import pytest

from taumod import isocrystal, jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.errors import TaumodError
from taumod.isocrystal import Isocrystal, simple_pure, slopes_finiteK

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


def _outcome(M):
    try:
        return "ok", slopes_finiteK(M)
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
