"""`zmatrix.mul`, `zmatrix.det` (through `laplace_minors`) and `zmatrix.inv`
against copies of the product-by-product loops they replaced, which sum
with `+`, negate with unary `-` and multiply with `*` one entry at a time.

Each sum of products now goes through `series.sum_of_products`: in the
log domain over F_9 and F_4, through the same chain over F_2((zeta)).
Every rendered result must be equal, windows included, and so must the
error a loop raises (its class, window and message).

`inv` settles each entry by one sum over the updates it owes, updates
only the columns right of the pivot and skips the exact zeros of the
pivot row; `dense_oracle.chained_inv` updates every column at every
pivot, and `dense_oracle.incremental_inv` the columns right of it, and
each must give the same entries, coefficients and windows alike. Every
window of a windowed inverse must hold for each exact completion of the
input's windows.
"""

import math
import random

import pytest

from taumod import jsonio, zmatrix
from taumod.basefield import FieldDescriptor
from taumod.errors import InputError, NotInvertible, PrecisionLoss
from taumod.zseries import ZSeries

from dense_oracle import chained_inv, incremental_inv, random_matrix

INF = math.inf

FIELDS = {
    # q = 9, m = 1 as in the `rank` benchmark workload
    "F9": FieldDescriptor(p=3, a=2, m=1, kind="finite"),
    "F4": FieldDescriptor(p=2, a=1, m=2, kind="finite"),
    "F2((zeta))": FieldDescriptor(p=2, a=1, m=1, kind="local"),
}
RANKS = range(1, 6)
FINITE_FIELDS = {"F3": FieldDescriptor(p=3, a=1, m=1, kind="finite"),
                 "F4": FIELDS["F4"], "F9": FIELDS["F9"]}


# -- the loops the fused sums replaced -------------------------------------

def chain_mul(A, B):
    n, k = zmatrix.dims(A)
    _, m = zmatrix.dims(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for l in range(1, k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def chain_det(A):
    K = A[0][0].K
    memo = {}

    def minor(rows, cols):
        if len(rows) == 1:
            return A[rows[0]][cols[0]]
        key = (rows, cols)
        if key in memo:
            return memo[key]
        top, rest = A[rows[0]], rows[1:]
        acc = None
        for pos, j in enumerate(cols):
            entry = top[j]
            if not entry.co and entry.hi is INF:
                continue
            term = entry * minor(rest, cols[:pos] + cols[pos + 1:])
            if pos % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = ZSeries.zero(K)
        memo[key] = acc
        return acc

    full = tuple(range(len(A)))
    return minor(full, full)


def chain_inv(A, prec=None):
    n = len(A)
    work = [list(row) for row in A]
    out = zmatrix.identity(A[0][0].K, n)
    for col in range(n):
        piv, piv_val = None, None
        for r in range(col, n):
            entry = work[r][col]
            if entry.known_nonzero():
                v = entry.valuation()
                if piv_val is None or v < piv_val:
                    piv, piv_val = r, v
        if piv is None:
            windows = [work[r][col].hi for r in range(col, n)
                       if work[r][col].co or work[r][col].hi is not INF]
            if windows:
                raise PrecisionLoss(f"pivot column {col} is zero only to its windows",
                                    window=min(windows))
            raise NotInvertible(f"no usable pivot in column {col}")
        work[col], work[piv] = work[piv], work[col]
        out[col], out[piv] = out[piv], out[col]
        pinv = work[col][col].inv(prec)
        work[col] = [x * pinv for x in work[col]]
        out[col] = [x * pinv for x in out[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                if f.co or f.hi is not INF:
                    # x - f*y, written as the sum with the negated product
                    work[r] = [x + -(f * y) for x, y in zip(work[r], work[col])]
                    out[r] = [x + -(f * y) for x, y in zip(out[r], out[col])]
    return out


# -- outcomes and seeded cases (matrices from `dense_oracle.random_matrix`) --

def outcome(fn, *args):
    """The rendered result, or the class, window and message of the error."""
    try:
        return "ok", jsonio.render(fn(*args))
    except (PrecisionLoss, NotInvertible) as exc:
        return type(exc).__name__, getattr(exc, "window", None), str(exc)


def exact(fn, *args):
    """`outcome`, with each entry as its field, window and coefficient map;
    local coefficients compare by their windows and maps too."""
    try:
        return "ok", [[(x.K, x.hi, x.co) for x in row] for row in fn(*args)]
    except (PrecisionLoss, NotInvertible) as exc:
        return type(exc).__name__, getattr(exc, "window", None), str(exc)


def _cases(label, n, count):
    K = FIELDS[label].field()
    rng = random.Random(f"test-zmatrix:{label}:{n}")
    return K, rng, range(count)


# -- the tests ---------------------------------------------------------------

@pytest.mark.parametrize("n", RANKS)
@pytest.mark.parametrize("label", sorted(FIELDS))
def test_mul_matches_the_chain(label, n):
    K, rng, cases = _cases(label, n, 4)
    for _ in cases:
        m = rng.randrange(1, 6)
        A = random_matrix(K, rng, n, m)
        B = random_matrix(K, rng, m, rng.randrange(1, 6))
        assert outcome(zmatrix.mul, A, B) == outcome(chain_mul, A, B)


@pytest.mark.parametrize("n", RANKS)
@pytest.mark.parametrize("label", sorted(FIELDS))
def test_det_matches_the_chain(label, n):
    K, rng, cases = _cases(label, n, 4 if n < 5 else 2)
    for _ in cases:
        A = random_matrix(K, rng, n)
        assert outcome(zmatrix.det, A) == outcome(chain_det, A)
    # the principal minors that `slopes_finiteK` sums where a window
    # leaves a coefficient unsettled
    minor = zmatrix.laplace_minors(A, K)
    rows = tuple(range(0, n, 2))
    assert jsonio.render(minor(rows, rows)) == jsonio.render(
        chain_det([[A[i][j] for j in rows] for i in rows]))


@pytest.mark.parametrize("n", RANKS)
@pytest.mark.parametrize("label", sorted(FIELDS))
def test_inv_matches_the_chain(label, n):
    K, rng, cases = _cases(label, n, 6)
    seen = set()
    for i in cases:
        # exact matrices are invertible unless a pivot column dies; short
        # windows run out
        A = random_matrix(K, rng, n, windowed=i % 2 == 1)
        prec = rng.choice((None, 4, 12))
        got = outcome(zmatrix.inv, A, prec)
        assert got == outcome(chain_inv, A, prec)
        assert exact(zmatrix.inv, A, prec) == exact(chained_inv, A, prec)
        seen.add(got[0])
    assert "ok" in seen


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_inv_errors_match_the_chain(label):
    K = FIELDS[label].field()
    one, z = ZSeries.one(K), ZSeries.z(K)
    zero = ZSeries.zero(K)
    # column 1 exactly zero below the pivot after one elimination
    singular = [[one, z], [z, z * z]]
    # column 1 zero only to its window after one elimination
    windowed = [[one, z], [z, (z * z).truncate(3)]]
    # a column of exact zeros
    empty = [[one, zero], [z, zero]]
    for A, want in ((singular, "NotInvertible"), (windowed, "PrecisionLoss"),
                    (empty, "NotInvertible")):
        got = outcome(zmatrix.inv, A)
        assert got[0] == want
        assert got == outcome(chain_inv, A)
        assert exact(zmatrix.inv, A) == exact(chained_inv, A)


@pytest.mark.parametrize("n", RANKS)
@pytest.mark.parametrize("label", sorted(FINITE_FIELDS))
def test_inv_matches_the_incremental_elimination(label, n):
    """One sum per entry gives the series that one two-term sum per entry
    and pivot gave, windows included, or the same error: a sum's window
    is the least of its products' windows however they are grouped."""
    K = FINITE_FIELDS[label].field()
    rng = random.Random(f"test-zmatrix-incremental:{label}:{n}")
    seen = set()
    for i in range(60 if n < 5 else 25):
        A = random_matrix(K, rng, n, windowed=i % 5 != 0)
        prec = rng.choice((None, 4, 12))
        got = exact(zmatrix.inv, A, prec)
        assert got == exact(incremental_inv, A, prec)
        seen.add(got[0])
    assert "ok" in seen


def complete(A, rng):
    """A with every window filled by a random exact tail of 4 terms: one
    of the exact matrices the windowed A stands for."""
    def fill(x):
        if x.hi is INF:
            return x
        co = dict(x.co)
        co.update({x.hi + i: x.K.random(rng) for i in range(4)})
        return ZSeries(x.K, co)
    return [[fill(x) for x in row] for row in A]


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("label", sorted(FINITE_FIELDS))
def test_inv_windows_hold_for_every_completion(label, n):
    """Whatever the windows of A hide, the inverse of each completion
    agrees with the windowed inverse below its windows."""
    K = FINITE_FIELDS[label].field()
    rng = random.Random(f"test-zmatrix-completions:{label}:{n}")
    checks = 0
    for _ in range(30):
        A = random_matrix(K, rng, n)
        try:
            B = zmatrix.inv(A, 12)
        except (PrecisionLoss, NotInvertible):
            continue
        for _ in range(3):
            try:
                C = zmatrix.inv(complete(A, rng), 24)
            except (PrecisionLoss, NotInvertible):
                continue
            assert zmatrix.agrees(B, C)
            checks += 1
    assert checks >= 30


def test_inv_of_a_multiplier_zero_to_its_window():
    """[[1, 1], [O(z^2), 1]]: the multiplier of the second row is zero only
    to its window, so every entry of the inverse is known below z^2 only."""
    K = FINITE_FIELDS["F3"].field()
    one = ZSeries.one(K)
    B = zmatrix.inv([[one, one], [ZSeries(K, {}, 2), one]])
    assert [[x.hi for x in row] for row in B] == [[2, 2], [2, 2]]


def test_mul_of_shapes_that_do_not_compose():
    K = FIELDS["F9"].field()
    rng = random.Random("test-zmatrix-shapes")
    with pytest.raises(InputError):
        zmatrix.mul(random_matrix(K, rng, 2, 3), random_matrix(K, rng, 2, 3))


def test_inverse_times_matrix_agrees_with_identity():
    K = FIELDS["F9"].field()
    rng = random.Random("test-zmatrix-roundtrip")
    for n in RANKS:
        A = random_matrix(K, rng, n, windowed=False)
        try:
            B = zmatrix.inv(A, prec=16)
        except NotInvertible:
            continue
        assert zmatrix.agrees(zmatrix.mul(A, B), zmatrix.identity(K, n))
