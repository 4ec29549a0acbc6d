"""Coefficient fields: finite towers and local function fields.

Two kinds of base field K appear throughout:

  * finite:  K = F_{q^m},  q = p^a, realized internally as F_p[X]/(f)
    with n = a*m and f the canonical irreducible of degree n (smallest
    integer encoding, see `_find_modulus`);
  * local:   K = F_{q^m}((zeta)), a Laurent-series field over the finite
    case, not perfect (zeta has no q-th root). Its elements, `LocalElem`,
    are the untwisted windowed series of `taumod.series` over the residue
    field, so their precision windows stay truthful under every operation;
    this module adds the zeta-Frobenius, q-th roots and the residue map.

Extension sweeps replace F_{q^m} by F_{q^{m*e}}; all cross-field
arithmetic coerces along the canonical embeddings, which are computed
deterministically (canonical modulus, canonical root choice) so results
never depend on iteration order or interpreter hash state.

sigma always means the q-power Frobenius, acting coefficientwise on
Laurent series and scaling zeta-exponents by q.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import random

import numpy as np

from taumod import kernels
from taumod.errors import (
    CoercionError,
    InputError,
    NoRoot,
    NotInvertible,
    PrecisionLoss,
)
from taumod.series import INF, Series

TABLE_LIMIT = 1 << 16
# rows per int64 block when filling and converting a log table
_TABLE_CHUNK = 1 << 12


def _factor(n):
    """Prime factors of n with multiplicity stripped (set of primes)."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# ---------------------------------------------------------------------------
# F_p polynomial helpers (cold path: modulus search, embeddings)


def _pnorm(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pnorm(out)


def _pmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, p - 2, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = (c * inv) % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _pnorm(a[:db])


def _pgcd(a, b, p):
    a, b = _pnorm(a), _pnorm(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


def _is_irreducible(coeffs, p):
    """coeffs: monic, low-to-high, degree n >= 1."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    mod = tuple(coeffs)
    x = tuple([0, 1] + [0] * (n - 2))
    xq = kernels.polypowmod(x, p**n, mod, p)
    if _pnorm([(xq[i] - x[i]) % p for i in range(n)]):
        return False
    for ell in _factor(n):
        xe = kernels.polypowmod(x, p ** (n // ell), mod, p)
        diff = _pnorm([(xe[i] - x[i]) % p for i in range(n)])
        if len(_pgcd(diff, list(coeffs), p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _find_modulus(p, n):
    """Canonical monic irreducible of degree n over F_p.

    Candidates are enumerated by integer encoding c_0 + c_1 p + ... of
    the non-leading coefficients; the first irreducible wins. Cached per
    (p, n); deterministic across processes.
    """
    if n == 1:
        return (0, 1)
    for enc in range(p**n):
        c, e = [], enc
        for _ in range(n):
            c.append(e % p)
            e //= p
        if c[0] == 0:
            continue
        cand = c + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible found")


def _power_table(M, order, p):
    """Coordinates of g^0, ..., g^(order-1), one row each, for M the F_p
    matrix of y -> g*y.

    Filled by doubling: the rows [k, 2k) are the rows [0, k) times
    (M^k)^T mod p, so the table costs O(log order) matrix products. It is
    stored in the narrowest unsigned dtype that holds F_p; the products
    run in int64 one block of rows at a time.
    """
    table = np.zeros((order, M.shape[0]), dtype=np.min_scalar_type(p - 1))
    table[0, 0] = 1
    step = M.T  # (M^k)^T
    k = 1
    while k < order:
        m = min(k, order - k)
        for lo in range(0, m, _TABLE_CHUNK):
            hi = min(lo + _TABLE_CHUNK, m)
            table[k + lo : k + hi] = table[lo:hi].astype(np.int64) @ step % p
        step = step @ step % p
        k += m
    return table


# ---------------------------------------------------------------------------
# finite fields


class FF:
    """Arithmetic context for F_{p^n}. Obtain via `get_field`.

    Elements are coefficient tuples of length n (low-to-high in the
    residue of X). Fields with at most 2^16 elements carry discrete-log
    tables, making mul/inv/frobenius O(1); larger fields fall back to the
    kernel polynomial arithmetic.

    The tables hang off the canonical generator `gen`, the encoding-least
    element of order p^n - 1. The exp table is filled by doubling
    (`_power_table`) from the F_p matrix of multiplication by `gen`, in
    O(log p^n) numpy products, and converted to tuples block by block;
    the log table is its inverse dict.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.size = p**n
        self.modulus = _find_modulus(p, n)
        self._exp = None
        self._log = None
        self.zero = Felt(self, (0,) * n)
        self.one = Felt(self, tuple([1] + [0] * (n - 1)))
        if self.size <= TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"FF({self.p}^{self.n})"

    def _build_tables(self):
        order = self.size - 1
        primes = _factor(order) if order > 1 else set()
        gen = None
        for enc in range(1, self.size):
            cand = self._dec(enc)
            if all(
                self._pow_raw(cand, order // ell) != self.one.c for ell in primes
            ):
                gen = cand
                break
        # column j of the F_p matrix of y -> gen*y is gen * X^j
        cols = [kernels.polymulmod(gen, self._dec(self.p**j), self.modulus, self.p)
                for j in range(self.n)]
        table = _power_table(np.array(cols, dtype=np.int64).T, order, self.p)
        exp = []
        for lo in range(0, order, _TABLE_CHUNK):
            exp.extend(map(tuple, table[lo : lo + _TABLE_CHUNK].tolist()))
        self._exp = exp
        self._log = dict(zip(exp, range(order)))
        self.gen = Felt(self, gen)

    def _dec(self, enc):
        c, e = [], enc
        for _ in range(self.n):
            c.append(e % self.p)
            e //= self.p
        return tuple(c)

    def enc(self, c):
        out = 0
        for d in reversed(c):
            out = out * self.p + d
        return out

    def el(self, v):
        """Coerce v (int, coeff sequence, or Felt) into this field."""
        if isinstance(v, Felt):
            return coerce_into(v, self)
        if isinstance(v, int):
            c = [v % self.p] + [0] * (self.n - 1)
            return Felt(self, tuple(c))
        c = [int(x) % self.p for x in v]
        if len(c) > self.n:
            raise InputError(f"coefficient tuple longer than degree {self.n}")
        c += [0] * (self.n - len(c))
        return Felt(self, tuple(c))

    # raw tuple ops

    def add_raw(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def sub_raw(self, x, y):
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def neg_raw(self, x):
        p = self.p
        return tuple((-a) % p for a in x)

    def mul_raw(self, x, y):
        if self._log is not None:
            try:
                return self._exp[(self._log[x] + self._log[y]) % (self.size - 1)]
            except KeyError:
                return self.zero.c
        return kernels.polymulmod(x, y, self.modulus, self.p)

    def inv_raw(self, x):
        if x == self.zero.c:
            raise NotInvertible("division by zero")
        if self._log is not None:
            return self._exp[(-self._log[x]) % (self.size - 1)]
        return kernels.polypowmod(x, self.size - 2, self.modulus, self.p)

    def _pow_raw(self, x, e):
        return kernels.polypowmod(x, e, self.modulus, self.p)

    def pow_raw(self, x, e):
        if x == self.zero.c:
            if e < 0:
                raise NotInvertible("zero to a negative power")
            return self.one.c if e == 0 else self.zero.c
        e %= self.size - 1
        if self._log is not None:
            return self._exp[(self._log[x] * e) % (self.size - 1)]
        return self._pow_raw(x, e)

    def frob_raw(self, x, k):
        """x^(p^k), any integer k (k < 0 takes p-power roots)."""
        k %= self.n
        if k == 0:
            return x
        return self.pow_raw(x, self.p**k)


@lru_cache(maxsize=None)
def get_field(p, n):
    return FF(p, n)


class Felt:
    """Element of an FF. Immutable; cross-field ops coerce along the
    canonical embedding when one degree divides the other."""

    __slots__ = ("ff", "c")

    def __init__(self, ff, c):
        self.ff = ff
        self.c = c

    def __repr__(self):
        return f"<{list(self.c)} in GF({self.ff.p}^{self.ff.n})>"

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ff.el(other)
        if not isinstance(other, Felt):
            return NotImplemented
        a, b = _pair(self, other)
        return a.c == b.c

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ff.el(other)
        if not isinstance(other, Felt):
            return NotImplemented
        a, b = _pair(self, other)
        return Felt(a.ff, a.ff.add_raw(a.c, b.c))

    __radd__ = __add__

    def __neg__(self):
        return Felt(self.ff, self.ff.neg_raw(self.c))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ff.el(other)
        if not isinstance(other, Felt):
            return NotImplemented
        a, b = _pair(self, other)
        return Felt(a.ff, a.ff.sub_raw(a.c, b.c))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ff.el(other)
        if not isinstance(other, Felt):
            return NotImplemented
        a, b = _pair(self, other)
        return Felt(a.ff, a.ff.mul_raw(a.c, b.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.ff.el(other)
        if not isinstance(other, Felt):
            return NotImplemented
        a, b = _pair(self, other)
        return Felt(a.ff, a.ff.mul_raw(a.c, a.ff.inv_raw(b.c)))

    def __rtruediv__(self, other):
        return self.ff.el(other) / self

    def __pow__(self, e):
        return Felt(self.ff, self.ff.pow_raw(self.c, e))

    def inv(self):
        return Felt(self.ff, self.ff.inv_raw(self.c))

    def frob(self, k=1):
        return Felt(self.ff, self.ff.frob_raw(self.c, k))

    def is_zero(self):
        return self.c == self.ff.zero.c

    def in_subfield(self, k):
        """True iff self lies in F_{p^k} (k must divide n)."""
        return self.ff.frob_raw(self.c, k) == self.c


def _pair(a, b):
    if a.ff is b.ff:
        return a, b
    if a.ff.p != b.ff.p:
        raise CoercionError("different characteristics")
    if a.ff.n == b.ff.n:
        return a, b  # get_field caches, so equal degree means equal field
    if b.ff.n % a.ff.n == 0:
        return coerce_into(a, b.ff), b
    if a.ff.n % b.ff.n == 0:
        return a, coerce_into(b, a.ff)
    raise CoercionError(f"no inclusion between GF(p^{a.ff.n}) and GF(p^{b.ff.n})")


# ---------------------------------------------------------------------------
# embeddings


def _lift(coeffs, big):
    return [big.el(c) for c in coeffs]


def _bpmulmod(a, b, mod, big):
    """Product of Felt-coefficient polys modulo monic `mod` (Felt lists)."""
    if not a or not b:
        return []
    out = [big.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    d = len(mod) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if not c.is_zero():
            out[i] = big.zero
            for j in range(d):
                out[i - d + j] = out[i - d + j] - c * mod[j]
    out = out[:d]
    while out and out[-1].is_zero():
        out.pop()
    return out


def _bpgcd(a, b, big):
    def norm(c):
        c = list(c)
        while c and c[-1].is_zero():
            c.pop()
        return c

    def pmod(x, y):
        x = list(x)
        dy = len(y) - 1
        inv = y[-1].inv()
        for i in range(len(x) - 1, dy - 1, -1):
            c = x[i]
            if not c.is_zero():
                f = c * inv
                for j in range(dy + 1):
                    x[i - dy + j] = x[i - dy + j] - f * y[j]
        return norm(x[:dy])

    a, b = norm(a), norm(b)
    while b:
        a, b = b, pmod(a, b)
    if a:
        inv = a[-1].inv()
        a = [x * inv for x in a]
    return a


def _bppowmod(x, e, mod, big):
    result = [big.one]
    base = list(x)
    while e > 0:
        if e & 1:
            result = _bpmulmod(result, base, mod, big)
        base = _bpmulmod(base, base, mod, big)
        e >>= 1
    return result


def _one_root(fcoeffs, big, rng):
    """One root in `big` of a squarefree Felt-poly that splits into
    linears over big. Cantor-Zassenhaus with the rng's choices."""
    f = list(fcoeffs)
    while len(f) - 1 > 1:
        if big.p == 2:
            # char 2: additive trace splitting
            shift = big.el([rng.randrange(big.p) for _ in range(big.n)])
            t = [big.zero, shift]
            acc = list(t)
            tr = list(t)
            for _ in range(big.n - 1):
                acc = _bpmulmod(acc, acc, f, big)
                tr = _padd(tr, acc, big)
            g = _bpgcd(f, tr, big)
        else:
            shift = big.el([rng.randrange(big.p) for _ in range(big.n)])
            base = [shift, big.one]
            powed = _bppowmod(base, (big.size - 1) // 2, f, big)
            powed = _padd(powed, [-big.one], big)
            g = _bpgcd(f, powed, big)
        if 0 < len(g) - 1 < len(f) - 1:
            h = _bpdiv(f, g, big)
            f = g if len(g) <= len(h) else h
    return -f[0] / f[1]


def _padd(a, b, big):
    out = [big.zero] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    while out and out[-1].is_zero():
        out.pop()
    return out


def _bpdiv(a, b, big):
    """Exact quotient a/b of Felt-polys (b monic-izable, remainder 0)."""
    a = list(a)
    db = len(b) - 1
    inv = b[-1].inv()
    q = [big.zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if not c.is_zero():
            f = c * inv
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = a[i - db + j] - f * b[j]
    while q and q[-1].is_zero():
        q.pop()
    return q


@lru_cache(maxsize=None)
def _embedding_powers(p, n_small, n_big):
    """Powers (r^0, ..., r^{n_small-1}) of the canonical image r in
    F_{p^n_big} of the residue generator of F_{p^n_small}.

    r is the encoding-least root of the small canonical modulus. The
    roots of an irreducible modulus form one p-Frobenius orbit, so one
    Cantor-Zassenhaus root (seeded per field pair) determines them all,
    and r is the encoding-least element of its orbit whatever root the
    search happened to find. The same path serves every field size.
    """
    small = get_field(p, n_small)
    big = get_field(p, n_big)
    rng = random.Random(f"embed:{p}:{n_small}:{n_big}")
    r0 = _one_root(_lift(small.modulus, big), big, rng)
    orbit = [r0]
    cur = r0.frob()
    while cur.c != r0.c:
        orbit.append(cur)
        cur = cur.frob()
    root = min(orbit, key=lambda x: big.enc(x.c))
    powers = [big.one]
    for _ in range(n_small - 1):
        powers.append(powers[-1] * root)
    return tuple(powers)


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


# ---------------------------------------------------------------------------
# base-field descriptors and the two K kinds


@dataclass(frozen=True)
class FieldDescriptor:
    """Shape of a base field K.

    p, a: characteristic and q = p^a; m: K contains F_{q^m};
    kind: "finite" or "local"; window: default construction window
    [lo, hi) for zeta-exponents of parsed local elements (ignored for
    finite K).
    """

    p: int
    a: int
    m: int
    kind: str
    window: tuple = (-8, 8)

    def __post_init__(self):
        if self.kind not in ("finite", "local"):
            raise InputError(f"unknown base kind {self.kind!r}")
        if self.p < 2 or self.a < 1 or self.m < 1:
            raise InputError("need p >= 2, a >= 1, m >= 1")
        if _factor(self.p) != {self.p}:
            raise InputError(f"p = {self.p} is not prime")

    @property
    def q(self):
        return self.p**self.a

    def field(self, ext=1, ram=1):
        if self.kind == "finite":
            if ram != 1:
                raise InputError("finite base has no ramification")
            return get_finiteK(self, ext)
        return get_localK(self, ext, ram)


@lru_cache(maxsize=None)
def get_finiteK(desc, ext):
    return FiniteK(desc, ext)


@lru_cache(maxsize=None)
def get_localK(desc, ext, ram):
    return LocalK(desc, ext, ram)


class FiniteK:
    """K = F_{q^{m*ext}} with sigma = q-power Frobenius."""

    kind = "finite"

    def __init__(self, desc, ext=1):
        self.desc = desc
        self.ext = ext
        self.ff = get_field(desc.p, desc.a * desc.m * ext)

    def __repr__(self):
        return f"FiniteK(q={self.desc.q}, m={self.desc.m}, ext={self.ext})"

    @property
    def q(self):
        return self.desc.q

    def zero(self):
        return self.ff.zero

    def one(self):
        return self.ff.one

    def el(self, v):
        return self.ff.el(v)

    def gen(self):
        """Canonical multiplicative generator (table fields only)."""
        return self.ff.gen

    def coerce(self, x):
        if isinstance(x, LocalElem):
            raise CoercionError("local element into finite base")
        return self.ff.el(x)

    def extend(self, e):
        return get_finiteK(self.desc, self.ext * e)

    def sigma(self, x, k=1):
        x = self.coerce(x)
        return x.frob(self.desc.a * k)

    def qth_root(self, x):
        x = self.coerce(x)
        return x.frob(-self.desc.a)

    def exact_zero_p(self, x):
        if type(x) is Felt and x.ff is self.ff:
            return x.c == self.ff.zero.c
        return self.coerce(x).is_zero()

    # a finite-field element is zero or not; there is no precision
    is_zero = exact_zero_p

    def known_nonzero(self, x):
        return not self.exact_zero_p(x)

    def random(self, rng):
        return self.ff.el([rng.randrange(self.desc.p) for _ in range(self.ff.n)])


class LocalK:
    """K = F_{q^{m*ext}}((zeta)), with optional ramification marker.

    `ram` > 1 means the uniformizer is a ram-th root of the original
    zeta; stored exponents are integers in the refined normalization and
    `unscale` converts valuations back to the original one.
    """

    kind = "local"

    def __init__(self, desc, ext=1, ram=1):
        self.desc = desc
        self.ext = ext
        self.ram = ram
        self.cf = get_field(desc.p, desc.a * desc.m * ext)
        # coefficient ring of the zeta-series
        self.residue = get_finiteK(desc, ext)
        self.default_width = desc.window[1] - desc.window[0]

    def __repr__(self):
        r = f", ram={self.ram}" if self.ram != 1 else ""
        return f"LocalK(q={self.desc.q}, m={self.desc.m}, ext={self.ext}{r})"

    @property
    def q(self):
        return self.desc.q

    def zero(self):
        return LocalElem(self, {}, INF)

    def one(self):
        return LocalElem(self, {0: self.cf.one}, INF)

    def zeta(self, k=1):
        return LocalElem(self, {k: self.cf.one}, INF)

    def el(self, v):
        """ints / Felt become constants; LocalElem is coerced."""
        if isinstance(v, LocalElem):
            return self.coerce(v)
        c = self.cf.el(v)
        return LocalElem(self, {0: c} if not c.is_zero() else {}, INF)

    def from_pairs(self, pairs, hi=INF):
        return LocalElem.from_pairs(self, pairs, hi)

    def coerce(self, x):
        if isinstance(x, LocalElem):
            if x.K is self:
                return x
            if x.K.desc != self.desc or x.K.ram != self.ram:
                raise CoercionError("local elements over different bases")
            if self.ext % x.K.ext == 0:
                co = {e: coerce_into(c, self.cf) for e, c in x.co.items()}
                return LocalElem(self, co, x.hi)
            raise CoercionError("no inclusion between coefficient fields")
        return self.el(x)

    def extend(self, e):
        return get_localK(self.desc, self.ext * e, self.ram)

    def ramify(self, e):
        return get_localK(self.desc, self.ext, self.ram * e)

    def unscale(self, v):
        """Stored valuation -> valuation in the unramified normalization."""
        if v is INF or v is -INF:
            return v
        return Fraction(v, self.ram)

    def residue_K(self):
        return self.residue

    def sigma(self, x, k=1):
        return self.coerce(x).sigma(k)

    def qth_root(self, x):
        return self.coerce(x).qth_root()

    def is_zero(self, x):
        x = self.coerce(x)
        if x.co:
            return False
        if x.hi is INF:
            return True
        raise PrecisionLoss(
            "zero to stored precision; cannot certify exact zero",
            window=x.hi,
        )

    def known_nonzero(self, x):
        return bool(self.coerce(x).co)

    def exact_zero_p(self, x):
        x = self.coerce(x)
        return not x.co and x.hi is INF

    def random(self, rng, lo=-2, hi=3, density=0.7):
        co = {}
        for e in range(lo, hi):
            if rng.random() < density:
                c = self.cf.el([rng.randrange(self.desc.p) for _ in range(self.cf.n)])
                if not c.is_zero():
                    co[e] = c
        return LocalElem(self, co, INF)


class LocalElem(Series):
    """Element of F_{q^{m*ext}}((zeta)) with a truthful knowledge window.

    The untwisted windowed series of `taumod.series` over the residue
    field: co maps zeta-exponent -> nonzero Felt coefficient, all
    exponents < hi; hi = inf marks an exact element. Empty co with finite
    hi is zero-to-precision, with hi = inf the exact zero. Ints and Felts
    are promoted to constants in arithmetic and comparisons.
    """

    __slots__ = ()

    _mono = staticmethod("zeta^{}".format)
    _ZERO_ORDER = "valuation of a zero-to-precision element"
    _INV_ZERO = "inverse of exact zero"
    _INV_WINDOW = "inverse of zero-to-precision element"

    def __repr__(self):
        if not self.co:
            body = "0"
        else:
            body = " + ".join(
                f"{list(c.c)}*zeta^{e}" for e, c in sorted(self.co.items())
            )
        tail = "" if self.hi is INF else f" + O(zeta^{self.hi})"
        return f"<{body}{tail}>"

    @staticmethod
    def _ring(K):
        return K.residue

    def _operand(self, other):
        if isinstance(other, LocalElem):
            return other
        if isinstance(other, (int, Felt)):
            return self.K.el(other)
        return None

    def _check_embeds(self, K):
        if K.desc != self.K.desc or K.ram != self.K.ram:
            raise CoercionError("local elements over incompatible bases")
        if K.ext % self.K.ext != 0:
            raise CoercionError("no inclusion between coefficient extensions")

    def _default_inv_prec(self):
        return self.K.default_width

    __radd__ = Series.__add__
    __rmul__ = Series.__mul__

    def __rsub__(self, other):
        return (-self) + other

    def __rtruediv__(self, other):
        return self.K.el(other) / self

    def sigma(self, k=1):
        """q^k-power Frobenius: coefficientwise frob, exponents * q^k."""
        if k < 0:
            out = self
            for _ in range(-k):
                out = out.qth_root()
            return out
        qk = self.K.q**k
        ak = self.K.desc.a * k
        co = {e * qk: c.frob(ak) for e, c in self.co.items()}
        hi = self.hi if self.hi is INF else self.hi * qk
        return self._with(co, hi)

    def qth_root(self):
        """sigma^{-1}. Fails with the offending exponent when some known
        nonzero coefficient sits at an exponent not divisible by q."""
        q = self.K.q
        for e in self.co:
            if e % q != 0:
                raise NoRoot(
                    f"zeta-exponent {e} not divisible by q={q}",
                    witness={"kind": "exponent_not_divisible", "exponent": e, "q": q},
                )
        co = {e // q: c.frob(-self.K.desc.a) for e, c in self.co.items()}
        hi = self.hi if self.hi is INF else math.ceil(self.hi / q)
        return self._with(co, hi)

    def residue(self):
        """Image in the residue field (valuation must be >= 0 certifiably)."""
        if any(e < 0 for e in self.co):
            raise InputError("residue of a non-integral element")
        if self.hi <= 0:
            raise PrecisionLoss("residue needs the window to cover exponent 0", window=self.hi)
        c = self.co.get(0, self.K.cf.zero)
        return c
