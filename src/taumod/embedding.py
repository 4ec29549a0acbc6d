"""Canonical embeddings between finite fields.

An element of F_{p^k} moves into F_{p^n} (k | n) only by an explicit
lift along the canonical embedding (`coerce_into`, and `FF.el` on an
element of another field), which is computed deterministically
(canonical modulus, canonical root choice) so results never depend on
iteration order or interpreter hash state. `FpExtension` is the one
construction of a canonical embedding: the F_p-linear data of an
extension, which a sweep solves a candidate degree on before it builds
the field itself, and whose rows `coerce_into` reads.

The extension sweeps of `tate` and `weil` and their replays change
field; most other requests never do, so this module loads on first use
(see taumod/__init__.py).
"""

from functools import lru_cache
import random

from taumod import elimination, kernels
from taumod.basefield import (
    _columns,
    _find_modulus,
    _powers,
    frobenius_power,
    get_field,
    mult_matrix,
)
from taumod.errors import CoercionError


# ---------------------------------------------------------------------------
# embeddings: the image of the small field's generator is a root of its
# modulus in the big field; Cantor-Zassenhaus over polynomials with Felt
# coefficients (lists, low-to-high, all in one field `big`) finds the
# root of a minimal polynomial that leads to it


def _ptrim(c):
    """c without its trailing zero coefficients."""
    c = list(c)
    while c and c[-1].is_zero():
        c.pop()
    return c


def _pdivmod(a, b, big):
    """Quotient and remainder of a by b (b nonzero, leading term nonzero)."""
    r = list(a)
    db = len(b) - 1
    # a monic b (every Cantor-Zassenhaus modulus) needs no inverse
    inv = None if b[-1].c == big.one.c else b[-1].inv()
    q = [big.zero] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c.is_zero():
            f = c if inv is None else c * inv
            q[i - db] = f
            # r[i] itself is cancelled and never read again
            for j in range(db):
                r[i - db + j] = r[i - db + j] - f * b[j]
    return _ptrim(q), _ptrim(r[:db])


def _padd(a, b, big):
    out = [big.zero] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _ptrim(out)


def _pmulmod(a, b, mod, big):
    """a*b modulo `mod`."""
    if not a or not b:
        return []
    out = [big.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return _pdivmod(out, mod, big)[1]


def _ppowmod(x, e, mod, big):
    result = [big.one]
    base = list(x)
    while e > 0:
        if e & 1:
            result = _pmulmod(result, base, mod, big)
        base = _pmulmod(base, base, mod, big)
        e >>= 1
    return result


def _pgcd(a, b, big):
    """Monic gcd of a and b ([] when both are zero)."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pdivmod(a, b, big)[1]
    if a:
        inv = a[-1].inv()
        a = [x * inv for x in a]
    return a


def _one_root(fcoeffs, big, rng):
    """One root in `big` of a monic squarefree Felt-poly that splits into
    linears over big. Cantor-Zassenhaus with the rng's choices."""
    f = list(fcoeffs)
    while len(f) - 1 > 1:
        shift = big.el([rng.randrange(big.p) for _ in range(big.n)])
        if big.p == 2:
            # char 2: additive trace splitting, Tr(shift*X) mod f
            acc = tr = [big.zero, shift]
            for _ in range(big.n - 1):
                acc = _pmulmod(acc, acc, f, big)
                tr = _padd(tr, acc, big)
        else:
            # (X + shift)^((size-1)/2) - 1 mod f
            tr = _ppowmod([shift, big.one], (big.size - 1) // 2, f, big)
            tr = _padd(tr, [-big.one], big)
        g = _pgcd(f, tr, big)
        if 0 < len(g) - 1 < len(f) - 1:
            h = _pdivmod(f, g, big)[0]
            f = g if len(g) <= len(h) else h
    return -f[0] / f[1]


@lru_cache(maxsize=None)
def _embedding_powers(p, n_small, n_big):
    """Powers (r^0, ..., r^{n_small-1}) of the canonical image r in
    F_{p^n_big} of the residue generator of F_{p^n_small}: the rows of
    `FpExtension`, read as elements of the big field."""
    big = get_field(p, n_big)
    return tuple(big.el(row) for row in fp_extension(p, n_small, n_big).rows)


class FpExtension:
    """F_{p^n} over a built field `small` = F_{p^k} (k | n) as F_p-linear
    data only, in the power basis of the canonical modulus: the matrices
    of the Frobenius powers (`frobenius_power`) and of multiplication by
    the image of an element of `small` under the canonical embedding. It
    builds no FF, no log table and no element of the big field.

    The canonical embedding sends X to r, the encoding-least root of the
    small canonical modulus. One root is found first: a generator v of
    the subfield ker(y^(p^k) - y) has a minimal polynomial mu of degree k
    over F_p, a root rho of mu in `small` comes from Cantor-Zassenhaus
    there, and h(v) is a root for the h with h(rho) = X. The roots of an
    irreducible modulus form one Frobenius orbit, so r is the
    encoding-least element of that root's orbit. `rows` holds r^0, ...,
    r^(k-1), one row each.
    """

    def __init__(self, small, n):
        p, k = small.p, small.n
        self.p, self.n = p, n
        root = _canonical_root(small, n) if k > 1 else None
        self.rows = [list(r) for r in _powers(root, p, n, k)]
        self._base = [mult_matrix(p, n, w) for w in self.rows]

    def frob(self, k):
        """Matrix of y -> y^(p^k)."""
        return frobenius_power(self.p, self.n, k)

    def base_mult(self, x):
        """Matrix of multiplication by the image of x, a Felt of `small`:
        the images of the powers of X, multiplied out once, combined."""
        p = self.p
        out = [[0] * self.n for _ in range(self.n)]
        for c, M in zip(x.c, self._base):
            if c:
                out = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(out, M)]
        return [[a % p for a in row] for row in out]


def _canonical_root(small, n):
    """Coordinates in F_{p^n} of the encoding-least root of the canonical
    modulus of `small` = F_{p^k}, k > 1 (see `FpExtension`)."""
    p, k = small.p, small.n
    mod = _find_modulus(p, n)
    F = frobenius_power(p, n, k)
    sub = elimination.nullspace_mod_p(
        [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(F)],
        n, p)
    rng = random.Random(f"fpext:{p}:{k}:{n}")
    while True:
        v = kernels.matvec(_columns(sub), [rng.randrange(p) for _ in sub], p)
        pw = _powers(v, p, n, k)  # v^0, ..., v^(k-1)
        if len(elimination.rref_mod_p(pw, p)[1]) == k:
            break
    V = _columns(pw)
    low = elimination.solve_mod_p(V, kernels.polymulmod(pw[-1], v, mod, p), p)
    rho = _one_root([small.el(-c) for c in low] + [small.one], small, rng)
    # h(v) is a root for the h with h(rho) = X; the least of its orbit wins
    h = elimination.solve_mod_p(_columns([(rho**t).c for t in range(k)]),
                            [int(t == 1) for t in range(k)], p)
    root = x = tuple(kernels.matvec(V, h, p))
    for _ in range(k - 1):
        x = kernels.polypowmod(x, p, mod, p)
        root = min(root, x, key=lambda v: v[::-1])
    return root


@lru_cache(maxsize=None)
def fp_extension(p, k, n):
    """The FpExtension F_{p^n} over F_{p^k}."""
    return FpExtension(get_field(p, k), n)


def coerce_into(x, big):
    """Image of Felt x under the canonical embedding into `big`."""
    if x.ff is big:
        return x
    if x.ff.p != big.p or big.n % x.ff.n != 0:
        raise CoercionError(f"cannot embed GF(p^{x.ff.n}) into GF(p^{big.n})")
    powers = _embedding_powers(x.ff.p, x.ff.n, big.n)
    acc = big.zero
    for ci, pw in zip(x.c, powers):
        if ci:
            acc = acc + pw * big.el(ci)
    return acc
