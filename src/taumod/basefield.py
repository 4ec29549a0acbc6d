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

Arithmetic never changes field: operands over two fields are a program
fault (`InvariantError`). Extension sweeps replace F_{q^m} by
F_{q^{m*e}}, and an element moves there only by an explicit lift
(`coerce_into`, `FF.el`, `K.el`) along the canonical embeddings, which
are computed deterministically (canonical modulus, canonical root
choice) so results never depend on iteration order or interpreter hash
state. `FpExtension` is the one construction of a canonical embedding:
the F_p-linear data of an extension, which a sweep solves a candidate
degree on before it builds the field itself, and whose rows
`coerce_into` reads.

sigma always means the q-power Frobenius, acting coefficientwise on
Laurent series and scaling zeta-exponents by q.
"""

import math
from fractions import Fraction
from functools import cached_property, lru_cache
import random

from taumod import kernels
from taumod.errors import (
    CoercionError,
    InputError,
    InvariantError,
    NoRoot,
    NotInvertible,
    PrecisionLoss,
)
from taumod.series import INF, Series

# the most elements a field fills log tables for; smaller fields fill them
# once their work without tables pays for the fill (`FF._rent`)
TABLE_LIMIT = 1 << 16


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
# canonical moduli and F_p-linear maps (F_p polynomial arithmetic lives in
# `kernels`). The maps are F_p matrices held as tuples of rows


def _is_irreducible(coeffs, p):
    """coeffs: monic, low-to-high, degree n >= 1.

    Ben-Or's test: f is irreducible iff gcd(X^(p^i) - X, f) = 1 for
    every i <= n/2, since a reducible f has an irreducible factor of
    some degree d <= n/2, and that factor divides X^(p^d) - X. Each
    X^(p^i) mod f is the p-th power of the one before.
    """
    f = tuple(coeffs)
    n = len(f) - 1
    h = tuple(int(i == 1) for i in range(n))  # X
    for _ in range(n // 2):
        h = kernels.polypowmod(h, p, f, p)
        d = list(h)
        d[1] = (d[1] - 1) % p
        if len(kernels.polygcd(d, f, p)) != 1:
            return False
    return True


def _X(n):
    """The residue of X in F_{p^n}."""
    return tuple(int(i == 1) for i in range(n))


def _powers(x, p, n, k, v=None):
    """v, v*x, ..., v*x^(k-1) in F_{p^n}, in the power basis of the
    canonical modulus, as tuples; v = 1 unless given."""
    mod = _find_modulus(p, n)
    out = [tuple(v) if v else tuple(int(i == 0) for i in range(n))]
    for _ in range(k - 1):
        out.append(kernels.polymulmod(out[-1], x, mod, p))
    return out


def _columns(vecs):
    """The matrix, as a tuple of rows, whose columns are the vectors."""
    return tuple(zip(*vecs))


@lru_cache(maxsize=None)
def _find_modulus(p, n):
    """Canonical monic irreducible of degree n over F_p.

    Candidates are enumerated by integer encoding c_0 + c_1 p + ... of
    the non-leading coefficients; the first that passes Ben-Or's test
    (`_is_irreducible`, pure Python) wins. Cached per (p, n);
    deterministic across processes.
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


def frobenius_power(p, n, k):
    """F_p matrix, a tuple of rows, of y -> y^(p^k) on F_{p^n} in the
    power basis of the canonical modulus, for any integer k."""
    return _frobenius_power(p, n, k % n)


@lru_cache(maxsize=None)
def _frobenius_power(p, n, k):
    """frobenius_power for 0 <= k < n: column j is X^(j*p^k), the orbit
    of 1 under multiplication by X^(p^k)."""
    x = kernels.polypowmod(_X(n), p**k, _find_modulus(p, n), p)
    return _columns(_powers(x, p, n, n))


def mult_matrix(p, n, y):
    """F_p matrix, a tuple of rows, of multiplication by y (coefficient
    tuple) on F_{p^n} in the power basis of the canonical modulus: column
    j is y * X^j."""
    return _columns(_powers(_X(n), p, n, n, y))


def _power_table(p, n, g, order):
    """Coordinates of g^0, ..., g^(order-1) in F_{p^n}, as tuples.

    Each power is the one before times g. The walk holds an element as
    one int, its coordinates in slots of b bits, and y -> g*y is linear:
    it is the sum of one table entry for the low half of the slots and
    one for the high half. Over F_2 the entries add by XOR and every
    slot is a bit. Otherwise a sum of two entries leaves slots up to
    2(p-1), not reduced mod p, so the tables are keyed by every such
    half; the slots are reduced only when the powers become tuples,
    again one table entry per half.
    """
    if n == 1:  # one coordinate: its tables would outgrow the field
        exp, y = [], 1
        for _ in range(order):
            exp.append((y,))
            y = y * g[0] % p
        return exp
    top = 1 if p == 2 else 2 * (p - 1)  # the largest slot value
    b = top.bit_length()
    h = (n + 1) // 2
    shift, mask = h * b, (1 << h * b) - 1
    gx = _powers(_X(n), p, n, n, g)  # g * X^j

    def half(lo, hi):
        # ({slots: packed g * slots}, {slots: reduced slots as a tuple})
        # over the slot values 0..top of the coordinates lo..hi-1, the
        # images computed once per reduced value
        img, red = {0: (0,) * n}, {0: (0, ())}
        for j in range(lo, hi):
            s = (j - lo) * b
            img = {key | d << s: tuple((x + d * y) % p for x, y in zip(v, gx[j]))
                   for key, v in img.items() for d in range(p)}
            red = {key | d << s: (rkey | d % p << s, rt + (d % p,))
                   for key, (rkey, rt) in red.items() for d in range(top + 1)}
        img = {key: sum(x << i * b for i, x in enumerate(v)) for key, v in img.items()}
        size = 1 << (hi - lo) * b
        mul, coords = [0] * size, [()] * size
        for key, (rkey, rt) in red.items():
            mul[key], coords[key] = img[rkey], rt
        return mul, coords

    (mlo, clo), (mhi, chi) = half(0, h), half(h, n)
    walk, y = [], 1
    if p == 2:
        for _ in range(order):
            walk.append(y)
            y = mlo[y & mask] ^ mhi[y >> shift]
    else:
        for _ in range(order):
            walk.append(y)
            y = mlo[y & mask] + mhi[y >> shift]
    return [clo[y & mask] + chi[y >> shift] for y in walk]


# ---------------------------------------------------------------------------
# finite fields


class FF:
    """Arithmetic context for F_{p^n}. Obtain via `get_field`.

    Elements are coefficient tuples of length n (low-to-high in the
    residue of X). A field starts without tables and multiplies, inverts
    and raises to powers through the kernel polynomial arithmetic, and
    applies Frobenius powers as the cached F_p matrices of
    `frobenius_power`. Once that work pays for them (`_rent`), a field
    with at most `TABLE_LIMIT` elements fills discrete-log tables, making
    mul/inv/frobenius O(1), and from then on holds the two kernels that
    `series.sum_of_products`, the one product entry of windowed series,
    picks between: the log-domain loop (`sum_of_products`) and Kronecker
    substitution on one packed int per series (`packed_sum`).

    The tables hang off the canonical generator `gen`, the encoding-least
    element of order p^n - 1. The exp table lists its powers, walked on
    packed ints (`_power_table`); the log table is its inverse dict.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.size = p**n
        self.modulus = _find_modulus(p, n)
        self._exp = None
        self._log = None
        # the work done without tables, in table entries, and the work at
        # which the tables fill (never above TABLE_LIMIT)
        self._work = 0
        self._due = self.size if self.size <= TABLE_LIMIT else math.inf
        # the `_Slots` of `sum_of_products` and the `_Packs` of
        # `packed_sum`, each widened as sums need
        self._slots = None
        self._packs = None
        self.zero = Felt(self, (0,) * n)
        self.one = Felt(self, tuple([1] + [0] * (n - 1)))

    def __repr__(self):
        return f"FF({self.p}^{self.n})"

    @cached_property
    def gen(self):
        """The canonical generator: the encoding-least element of order
        size - 1, found by the kernel powers."""
        order = self.size - 1
        primes = _factor(order) if order > 1 else set()
        for enc in range(1, self.size):
            cand = self._dec(enc)
            if all(self._pow_raw(cand, order // ell) != self.one.c for ell in primes):
                return Felt(self, cand)

    def _rent(self, cost):
        """Count cost, in table entries, as work done without tables, and
        fill the tables once that work reaches the field's size; whether
        the field has tables now.

        This is rent-or-buy: a fill costs about one unit per entry, so a
        field pays at most about twice the cheaper of never filling and
        filling at once. A table-less branch costs n units per F_p
        polynomial product it runs, and a Frobenius map n: on a 2-vCPU
        x86-64 VM, the `L1` rows of bench/bench_kernels.py put a product
        at about 20 entries of a fill in F_{2^16} (n = 16) and 10 in
        F_{3^9} (n = 9), a Frobenius map at about 25 and 11, and a power
        or an inverse at its number of products times that.
        """
        self._work += cost
        if self._work < self._due:
            return False
        self._build_tables()
        return True

    def _build_tables(self):
        order = self.size - 1
        exp = self._exp = _power_table(self.p, self.n, self.gen.c, order)
        self._log = dict(zip(exp, range(order)))

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
        if self._log is None and not self._rent(self.n):
            return kernels.polymulmod(x, y, self.modulus, self.p)
        try:
            return self._exp[(self._log[x] + self._log[y]) % (self.size - 1)]
        except KeyError:
            return self.zero.c

    def inv_raw(self, x):
        if x == self.zero.c:
            raise NotInvertible("division by zero")
        return self.pow_raw(x, -1)

    def _pow_raw(self, x, e):
        return kernels.polypowmod(x, e, self.modulus, self.p)

    def pow_raw(self, x, e):
        if x == self.zero.c:
            if e < 0:
                raise NotInvertible("zero to a negative power")
            return self.one.c if e == 0 else self.zero.c
        e %= self.size - 1
        # square-and-multiply takes one product per bit and per set bit
        if (self._log is None
                and not self._rent(self.n * (e.bit_length() + e.bit_count()))):
            return self._pow_raw(x, e)
        return self._exp[(self._log[x] * e) % (self.size - 1)]

    def frob_raw(self, x, k):
        """x^(p^k), any integer k (k < 0 takes p-power roots): through
        the log table when there is one, else one product with the
        cached F_p matrix of the map."""
        k %= self.n
        if k == 0:
            return x
        if self._log is None and not self._rent(self.n):
            return tuple(kernels.matvec(frobenius_power(self.p, self.n, k), x, self.p))
        return self.pow_raw(x, self.p**k)

    def sum_of_products(self, terms, hi, k):
        """The coefficients below exponent hi of the signed sum, over the
        triples (la, lb, neg) of terms, of

            (sum a_i x^i)(sum b_j x^j) = sum a_i sigma^(k*i)(b_j) x^(i+j),

        negated where neg is true; sigma is the p-power Frobenius, la and
        lb are the `logs` of a and b, and exactly-zero sums are left out.

        The sum runs on the logs: the logs of two coefficients add,
        sigma^m multiplies a log by p^m, and a sign adds log(-1), which
        is (size - 1) / 2 for odd p and 0 for p = 2. The terms of an
        exponent, from every product at once, are summed as ints, each
        the F_p coordinates of its element packed into slots (`_Slots`),
        and the sum is reduced mod p once.
        """
        pairs = []
        count = 0
        for t in terms:
            la, lb, _ = t
            if la and lb:
                pairs.append(t)
                # a product adds at most min(len a, len b) terms to an
                # exponent
                count += min(len(la), len(lb))
        if not pairs:
            return {}
        p, n, order = self.p, self.n, self.size - 1
        # so the slots of every sum stay below 2^b
        b = (count * (p - 1)).bit_length()
        slots = self._slots
        if slots is None or slots.b < b:
            slots = self._slots = _Slots(self, b)
        log_neg = order // 2 if p != 2 else 0
        acc = {}
        for la, lb, neg in pairs:
            twisted = {0: lb}
            for e1, l1 in la:
                row = lb
                if k and n > 1:
                    s = k * e1 % n
                    row = twisted.get(s)
                    if row is None:
                        f = p**s
                        row = twisted[s] = [(e2, l2 * f % order) for e2, l2 in lb]
                if neg:
                    l1 += log_neg
                lim = hi - e1
                for e2, l2 in row:
                    if e2 < lim:
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + slots[(l1 + l2) % order]
        out = {}
        c, high, shift, felts = slots.c, slots.high, slots.shift, slots.felts
        for e, s in acc.items():
            # every slot at once: s - p * floor(s / p)
            r = s - ((s * c & high) >> shift) * p
            if r:
                out[e] = felts.get(r) or slots.felt(r)
        return out

    def packed_sum(self, terms, hi):
        """The coefficients below exponent hi of the signed sum, over the
        triples (a, b, neg) of terms, of the untwisted products a * b,
        negated where neg is true: the same map as `sum_of_products` on
        their logs, computed by Kronecker substitution. a and b are
        series over this field whose coefficients are Felts of it; b None
        stands for the exact one.

        A series packs into one int (`_Packs.pack`, cached by
        `Series._packed_in`): the y^i coordinate of its z^e coefficient,
        v its least exponent, goes in slot (2n - 1)(e - v) + i, so
        exponent e - v owns a group of 2n - 1 slots. The product of two
        packed ints is then the packed product, its y^t coordinates for
        t < 2n - 1 not yet reduced mod p nor through the modulus. The sum
        runs in four steps:

          1. one big-int product per term, its operands masked to the
             groups that can land below hi, shifted by the term's
             exponent offset, summed into a positive and a negative int;
          2. the sign offset: a multiple of p in every slot, at least
             every slot of the negative int, so that positive + offset -
             negative has no slot below zero and no borrow;
          3. the fold: slot t >= n of each group, times the coordinates of
             y^t mod the modulus, is added to the group's slots below n;
          4. every slot reduced mod p at once (Barrett, as in `_Slots`),
             and each group's bytes mapped to its shared Felt.

        A pair of coefficients adds at most n (p - 1)^2 to a slot, a
        product at most min(len a, len b) pairs to an exponent, and the
        fold multiplies a slot sum by at most 1 + (n - 1)(p - 1); the
        slots are sized for that bound on the whole sum. Exactly-zero
        sums are left out.
        """
        p, n = self.p, self.n
        pos = neg = 0
        for a, b, sign in terms:
            # a product puts at most this many pairs of terms on one exponent
            m = min(len(a.co), 1 if b is None else len(b.co))
            if sign and p != 2:
                neg += m
            else:
                pos += m
        pair = n * (p - 1) ** 2
        off = -(-neg * pair // p) * p
        # so the slots stay below 2^bits through the fold
        bits = ((pos * pair + off) * (1 + (n - 1) * (p - 1))).bit_length()
        packs = self._packs
        if packs is None or packs.b < bits:
            packs = self._packs = _Packs(self, bits)
        group = packs.group
        packed = []
        base = INF
        top = -INF
        for a, b, sign in terms:
            if not a.co or (b is not None and not b.co):
                continue
            va, A = a._packed_in(self, packs)
            vb, B = (0, packs[0]) if b is None else b._packed_in(self, packs)
            packed.append((va + vb, A, B, sign and p != 2))
            base = min(base, va + vb)
            # the group of the product's greatest exponent
            top = max(top, va + vb + (A.bit_length() - 1) // group
                      + (B.bit_length() - 1) // group)
        if not packed:
            return {}
        groups = min(top + 1, hi) - base
        if groups <= 0:
            return {}
        P = N = 0
        for v, A, B, sign in packed:
            s = v - base
            keep = groups - s
            if keep <= 0:
                continue
            mask = (1 << group * keep) - 1
            pr = ((A & mask) * (B & mask)) << group * s
            if sign:
                N += pr
            else:
                P += pr
        mask = (1 << group * groups) - 1
        ones, high, low, mids = packs.masks(groups)
        t = P & mask
        if N:
            t += (ones & mask) * off - (N & mask)
        if n > 1:
            w = packs.width
            t = (t & low) + sum(((t & mid) >> w * i) * red
                                for i, (mid, red) in enumerate(mids, n))
        r = t - ((t * packs.c & high) >> packs.shift) * p
        gb, nb = group // 8, packs.nb
        buf = r.to_bytes(groups * gb, "little")
        felts, zero = packs.bfelts, bytes(nb)
        out = {}
        for g in range(groups):
            key = buf[g * gb:g * gb + nb]
            f = felts.get(key)
            if f is None:
                if key == zero:
                    continue
                f = packs.bfelt(key)
            out[base + g] = f
        return out

    def logs(self, co):
        """[(exponent, log)] of the nonzero coefficients of co; None when
        the field has no log table or a coefficient is no Felt of it. A
        miss sends the caller to the Felt loop, whose cost beyond its
        products is counted as one product per coefficient."""
        if self._log is None and not self._rent(self.n * len(co)):
            return None
        log = self._log
        out = []
        for e, c in co.items():
            if type(c) is not Felt or c.ff is not self:
                return None
            lc = log.get(c.c)
            if lc is not None:  # else c is zero
                out.append((e, lc))
        return out


class _Slots(dict):
    """The F_p coordinates of elements of a tabled field `ff` packed into
    the slots of one int, coordinate i in bits [i*width, (i+1)*width),
    for sums whose slots stay below 2^b. For n = 1 the int is the
    coordinate itself.

    As a dict, it maps a log l in [0, size - 1) to the packed
    coordinates of gen^l. Entries are computed the first time a product
    asks for them, and so are those of `felts`, which maps packed
    coordinates below p to the shared Felt. A field keeps one `_Slots`,
    replaced by a wider one when a product needs a larger b, so it holds
    at most size - 1 entries of each.

    Every slot of a sum s is reduced mod p at once, by Barrett's method:
    with shift = bit length of 2^b * p and c = ceil(2^shift / p),
    floor(x / p) = floor(x * c / 2^shift) for 0 <= x < 2^b. The slots
    are shift + b bits wide, rounded up to a multiple of `_ALIGN`, so
    each x * c stays in its own slot, and (s * c & high) >> shift holds
    every floor(x / p) in place, `high` masking the bits from shift up
    in each slot.
    """

    __slots__ = ("ff", "b", "width", "c", "high", "shift", "felts")
    _ALIGN = 1

    def __init__(self, ff, b):
        super().__init__()
        self.ff = ff
        self.b = b
        self.shift = ((1 << b) * ff.p).bit_length()
        self.width = -(-(self.shift + b) // self._ALIGN) * self._ALIGN
        self.c = -(-(1 << self.shift) // ff.p)
        top = (1 << self.width) - (1 << self.shift)
        self.high = sum(top << (i * self.width) for i in range(ff.n))
        self.felts = {}

    def __missing__(self, l):
        v = 0
        for x in reversed(self.ff._exp[l]):
            v = (v << self.width) | x
        self[l] = v
        return v

    def felt(self, r):
        """The Felt with packed coordinates r, each below p."""
        mask = (1 << self.width) - 1
        c = tuple(r >> (i * self.width) & mask for i in range(self.ff.n))
        f = self.felts[r] = Felt(self.ff, c)
        return f


class _Packs(_Slots):
    """The slots of `FF.packed_sum`: `_Slots` whose width is whole bytes,
    grouped 2n - 1 to an exponent, `group` bits. A series packs into one
    int (`pack`); the first n slots of a group of a reduced sum, `nb`
    bytes, key `bfelts`, the Felts by bytes. Kept apart from the log
    loop's `_Slots`, whose narrower slots keep its ints short."""

    __slots__ = ("group", "nb", "bfelts", "_groups", "_masks")
    _ALIGN = 8

    def __init__(self, ff, b):
        super().__init__(ff, b)
        self.group = (2 * ff.n - 1) * self.width
        self.nb = ff.n * self.width // 8
        self.bfelts = {}
        self._groups = 0
        self._masks = None

    def bfelt(self, key):
        """The Felt whose coordinates, each below p, are the slots of the
        bytes key."""
        wb = self.width // 8
        c = tuple(int.from_bytes(key[i:i + wb], "little")
                  for i in range(0, self.nb, wb))
        f = self.bfelts[key] = Felt(self.ff, c)
        return f

    def pack(self, lg):
        """(v, s) for the series with logs lg, not empty: v its least
        exponent and s the int whose group e - v holds the coordinates of
        its z^e coefficient."""
        v = min([e for e, _ in lg])
        g = self.group
        return v, sum([self[l] << g * (e - v) for e, l in lg])

    def masks(self, groups):
        """(ones, high, low, mids) over at least `groups` groups: 1 in
        every slot, `high` in every slot, the first n slots of every
        group, and for each t in [n, 2n - 1) the pair (slot t of every
        group, the packed coordinates of y^t mod the modulus)."""
        if self._groups < groups:
            ff, w = self.ff, self.width
            n, p, f = ff.n, ff.p, ff.modulus
            g = self._groups = max(groups, 2 * self._groups)
            unit = b"\x01" + bytes(w // 8 - 1)
            ones = int.from_bytes(unit * ((2 * n - 1) * g), "little")
            starts = int.from_bytes((unit + bytes(self.group // 8 - w // 8)) * g,
                                    "little")
            high = ones * ((1 << w) - (1 << self.shift))
            low = starts * ((1 << n * w) - 1)
            mids = []
            y = [0] * (n - 1) + [1]  # y^(n-1)
            for t in range(n, 2 * n - 1):
                y = [0] + y
                lead = y.pop()
                y = [(x - lead * fx) % p for x, fx in zip(y, f)]
                red = sum(x << i * w for i, x in enumerate(y))
                mids.append((starts * ((1 << w) - 1) << t * w, red))
            self._masks = ones, high, low, mids
        return self._masks


@lru_cache(maxsize=None)
def get_field(p, n):
    return FF(p, n)


class Felt:
    """Element of an FF. Immutable; the operands of an operation are
    elements of one FF, or ints, which are promoted."""

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
    """(a, b), which must be elements of one field."""
    if a.ff is not b.ff:
        raise InvariantError(f"operands over GF({a.ff.p}^{a.ff.n}) and "
                             f"GF({b.ff.p}^{b.ff.n})")
    return a, b


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
    sub = kernels.nullspace_mod_p(
        [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(F)],
        n, p)
    rng = random.Random(f"fpext:{p}:{k}:{n}")
    while True:
        v = kernels.matvec(_columns(sub), [rng.randrange(p) for _ in sub], p)
        pw = _powers(v, p, n, k)  # v^0, ..., v^(k-1)
        if len(kernels.rref_mod_p(pw, p)[1]) == k:
            break
    V = _columns(pw)
    low = kernels.solve_mod_p(V, kernels.polymulmod(pw[-1], v, mod, p), p)
    rho = _one_root([small.el(-c) for c in low] + [small.one], small, rng)
    # h(v) is a root for the h with h(rho) = X; the least of its orbit wins
    h = kernels.solve_mod_p(_columns([(rho**t).c for t in range(k)]),
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


# ---------------------------------------------------------------------------
# base-field descriptors and the two K kinds


class FieldDescriptor:
    """Shape of a base field K.

    p, a: characteristic and q = p^a; m: K contains F_{q^m};
    kind: "finite" or "local"; window: default construction window
    [lo, hi) for zeta-exponents of parsed local elements (ignored for
    finite K).

    Immutable and compared by value: `get_finiteK` and `get_localK`
    cache one field per descriptor.
    """

    __slots__ = ("p", "a", "m", "kind", "window")

    def __init__(self, p, a, m, kind, window=(-8, 8)):
        if kind not in ("finite", "local"):
            raise InputError(f"unknown base kind {kind!r}")
        if p < 2 or a < 1 or m < 1:
            raise InputError("need p >= 2, a >= 1, m >= 1")
        if _factor(p) != {p}:
            raise InputError(f"p = {p} is not prime")
        for name, value in zip(self.__slots__, (p, a, m, kind, window)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.p, self.a, self.m, self.kind, self.window)

    def __eq__(self, other):
        if type(other) is not FieldDescriptor:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return FieldDescriptor, self._key()

    def __repr__(self):
        return ("FieldDescriptor(p={!r}, a={!r}, m={!r}, kind={!r}, window={!r})"
                .format(*self._key()))

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
    ram = 1

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

    coerce = el

    def gen(self):
        """Canonical multiplicative generator."""
        return self.ff.gen

    def extend(self, e):
        return get_finiteK(self.desc, self.ext * e)

    def sigma(self, x, k=1):
        return x.frob(self.desc.a * k)

    def qth_root(self, x):
        return x.frob(-self.desc.a)

    def exact_zero_p(self, x):
        if type(x) is not Felt:
            x = self.coerce(x)
        elif x.ff is not self.ff:
            _pair(x, self.ff.zero)
        return x.c == self.ff.zero.c

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
        """ints / Felt become constants; a LocalElem is lifted to K."""
        if isinstance(v, LocalElem):
            return v if v.K is self else v._lift(self)
        c = self.cf.el(v)
        return LocalElem(self, {0: c} if not c.is_zero() else {}, INF)

    def from_pairs(self, pairs, hi=INF):
        return LocalElem.from_pairs(self, pairs, hi)

    coerce = el

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
        return x.sigma(k)

    def qth_root(self, x):
        return x.qth_root()

    def is_zero(self, x):
        if x.co:
            return False
        if x.hi is INF:
            return True
        raise PrecisionLoss(
            "zero to stored precision; cannot certify exact zero",
            window=x.hi,
        )

    def known_nonzero(self, x):
        return bool(x.co)

    def exact_zero_p(self, x):
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
    of the residue field act as constants in arithmetic and comparisons.
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
        if isinstance(other, int):
            other = self.K.cf.el(other)
        if isinstance(other, Felt):
            # a Felt of another field fails the residue field's zero test
            return LocalElem(self.K, {0: other}, INF)
        return other if isinstance(other, LocalElem) else None

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
