"""Windowed Laurent series in one variable: the arithmetic shared by
`ZSeries` (K((z))), `LocalElem` (F_q((zeta))), `SkewPoly` (K{tau}) and
`SkewLaurent` (K((tau^{-1}))).

An element is a sparse map co: int exponent -> coefficient plus a
knowledge window hi: every exponent below hi is known, and hi = inf marks
an exact element. Exactly-zero coefficients are dropped on construction;
exponents are taken as given (`from_pairs` and the JSON parsers convert
them to int). The arithmetic depends on a subclass only through two
parameters (the hooks below add its error messages and operand
promotion):

  * the coefficient ring `_ring(K)`: K itself, or for `LocalElem` the
    residue field of the local K. It supplies zero/one, the exact-zero
    test, coercion along field inclusions and sigma;
  * the twist `_TWIST` of the product. With twist t,

        (sum a_i x^i)(sum b_j x^j) = sum a_i sigma^{t*i}(b_j) x^{i+j},

    t = 0 for the commutative series, 1 for x = tau (tau c = sigma(c) tau)
    and -1 for x = tau^{-1}.

Both operands of an operation are over one K (`_pair`), or it is a
program fault; a series changes field only by `_lift`, to an extension.

Windows stay truthful: a sum is known below the smaller window; a product
of a (order >= v_a) and b (order >= v_b) is known below
min(a.hi + v_b, b.hi + v_a), so an exact zero (order inf) absorbs.

Every product goes through one entry, `sum_of_products` below, which
sums signed products a_l * b_l; `Series.__mul__` is its one-term case.
Its window is the sum rule applied to the products' windows (`_window`),
and it picks one of three loops, all giving the same coefficients:

  * the packed path `FF.packed_sum` (Kronecker substitution) packs a
    series over F_{p^n} into one int, cached on the series: the y^i
    coordinate of its z^e coefficient in slot (2n - 1)(e - v) + i, v its
    least exponent. One big-int product per term does the convolution;
    the slots are sized for the sum's bound, a multiple of p in every
    slot (the sign offset) absorbs the negated products, slots t >= n
    are folded back through the modulus, and every slot is reduced mod
    p at once;
  * the log loop `FF.sum_of_products` adds the logs of each pair of
    terms, cached on the series, into one accumulator, reduced once; a
    minus sign adds log(-1);
  * the Felt loop `_felt_sum` multiplies coefficient by coefficient, for
    rings without log tables (`LocalK`, untabled fields). Over `LocalK`,
    whose coefficients are themselves series, it groups the coefficient
    products by output exponent and sums each group through
    `sum_of_products`, so they reach the loops above over the residue
    field.

Over a tabled field, the packed path takes untwisted sums (or twists
that sigma fixes) over fields of degree n <= PACK_DEGREE with at least
PACK_PAIRS pairs of terms in all; the log loop takes the rest, where the
per-term and per-slot costs of packing outweigh the pairs they save
(bench/bench_kernels.py).

Every kind inverts by one recurrence, `Series.inv`: for f of order v
and leading coefficient c, the x^n coefficient of f * u = 1 gives, at
twist t,

    u_{n-v} = sigma^{-t*v}(c^-1 (delta_{n,0} - sum_{k>v} f_k sigma^{t*k}(u_{n-k}))),

one sum per coefficient (`sum_of_products` over a local K). There the
zeta-window of each u_j is the least over its monomials of one factor's
window plus the other factors' orders: the window that the geometric
series c^-1 x^-v sum_k (-w)^k, f = c x^v (1 + w), summed product by
product, gets too (tests/dense_oracle.py).
"""

import math

from taumod.errors import (CoercionError, InputError, InvariantError, NotInvertible,
                           PrecisionLoss)

INF = math.inf
# the crossovers of the packed path (see above)
PACK_DEGREE = 4
PACK_PAIRS = 64


class Series:
    """Sparse Laurent series with a truthful knowledge window."""

    # _lg: the `FF.logs` of co, kept by `_logs_in` once asked for; _pk:
    # the packed co of `_packed_in`
    __slots__ = ("K", "co", "hi", "_lg", "_pk")

    # power of sigma applied per exponent of the left factor in a product
    _TWIST = 0
    # error messages: monomial names, the order of a zero-to-window
    # element, and the inverse of an exact / a zero-to-window element
    _mono = staticmethod("x^{}".format)
    _ZERO_ORDER = "order of a zero-to-window element"
    _INV_ZERO = "inverse of the exact zero"
    _INV_WINDOW = "inverse of a zero-to-window element"

    def __init__(self, K, co, hi=INF):
        hi = INF if hi == INF else int(hi)
        zero_p = self._ring(K).exact_zero_p
        clean = {}
        for e, c in co.items():
            if e < hi and not zero_p(c):
                clean[e] = c
        self.K = K
        self.co = clean
        self.hi = hi
        self._lg = None
        self._pk = None

    # -- hooks ---------------------------------------------------------------

    @staticmethod
    def _ring(K):
        """Coefficient ring of series over K."""
        return K

    def _carry(self, K, co, hi):
        """Series of the same kind and annotations as self."""
        return type(self)(K, co, hi)

    def _with(self, co, hi):
        return type(self)(self.K, co, hi)

    def _operand(self, other):
        """other as a series of this kind, or None."""
        return other if isinstance(other, type(self)) else None

    def _default_inv_prec(self):
        """Terms `inv` keeps when no precision is asked for."""
        raise NotImplementedError

    def _logs_in(self, ff):
        """`ff.logs(self.co)`, computed once: a series never changes."""
        lg = self._lg
        if lg is None:
            lg = self._lg = ff.logs(self.co)
        return lg

    def _packed_in(self, ff, packs):
        """`packs.pack` of the logs of co, (v, packed int), kept while the
        packs of ff keep their width."""
        pk = self._pk
        if pk is None or pk[0] != packs.width:
            pk = self._pk = (packs.width, packs.pack(self._logs_in(ff)))
        return pk[1]

    def _lift(self, K):
        """self over K, coefficients coerced along the field inclusion. K
        must extend self's field: the same descriptor and ramification,
        and an extension degree that self's divides."""
        S = self.K
        if K.desc != S.desc or K.ram != S.ram or K.ext % S.ext:
            raise CoercionError(f"{S!r} does not embed in {K!r}")
        R = self._ring(K)
        return self._carry(K, {e: R.coerce(c) for e, c in self.co.items()}, self.hi)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, K):
        return cls(K, {}, INF)

    @classmethod
    def one(cls, K):
        return cls(K, {0: cls._ring(K).one()}, INF)

    @classmethod
    def from_pairs(cls, K, pairs, hi=INF):
        """Series from (exponent, coefficient) pairs; repeats are summed."""
        R = cls._ring(K)
        co = {}
        for e, c in pairs:
            c = R.el(c)
            e = int(e)
            co[e] = co[e] + c if e in co else c
        return cls(K, co, hi)

    # -- structure -----------------------------------------------------------

    def is_exact(self):
        return self.hi is INF

    def support(self):
        return sorted(self.co)

    def coeff(self, n):
        """Coefficient at exponent n, which must lie inside the window."""
        if n >= self.hi:
            raise PrecisionLoss(
                f"coefficient at {self._mono(n)} unknown", need=n, window=self.hi
            )
        return self.co.get(n, self._ring(self.K).zero())

    def val_lower_bound(self):
        """Largest w with: all coefficients below x^w are known zero."""
        if self.co:
            return min(self.co)
        return self.hi

    def valuation(self):
        """Exact order. INF for the exact zero; PrecisionLoss when the
        window, or a leading coefficient that is zero only to its own
        precision, leaves it unsettled."""
        if self.co:
            e = min(self.co)
            if self._ring(self.K).known_nonzero(self.co[e]):
                return e
            raise PrecisionLoss(
                f"leading coefficient at {self._mono(e)} is zero only to zeta-precision",
                need=e,
                window=self.hi,
            )
        if self.hi is INF:
            return INF
        raise PrecisionLoss(self._ZERO_ORDER, window=self.hi)

    def truncate(self, new_hi):
        return self._carry(self.K, self.co, min(self.hi, new_hi))

    def map_coeffs(self, f):
        return self._with({e: f(c) for e, c in self.co.items()}, self.hi)

    def agrees_with(self, other):
        """Equality of the known parts on the common window (and, for local
        coefficients, on their common windows)."""
        b = self._operand(other)
        if b is None:
            name = type(self).__name__
            raise InputError(f"{name} arithmetic needs {name} operands")
        a, b = _pair(self, b)
        h = min(a.hi, b.hi)
        zero = a._ring(a.K).zero()
        for e in set(a.co) | set(b.co):
            if e >= h:
                continue
            ca = a.co.get(e, zero)
            cb = b.co.get(e, zero)
            if hasattr(ca, "agrees_with"):
                if not ca.agrees_with(cb):
                    return False
            elif ca != cb:
                return False
        return True

    def __eq__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a, b = _pair(self, b)
        return a.hi == b.hi and a.co == b.co

    __hash__ = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        b = other if type(other) is type(self) else self._operand(other)
        if b is None:
            return NotImplemented
        a, b = _pair(self, b)
        co = dict(a.co)
        for e, c in b.co.items():
            s = co.get(e)
            co[e] = c if s is None else s + c
        return type(a)(a.K, co, min(a.hi, b.hi))

    def __neg__(self):
        return self._carry(self.K, {e: -c for e, c in self.co.items()}, self.hi)

    def __sub__(self, other):
        b = other if type(other) is type(self) else self._operand(other)
        if b is None:
            return NotImplemented
        a, b = _pair(self, b)
        co = dict(a.co)
        for e, c in b.co.items():
            s = co.get(e)
            co[e] = -c if s is None else s - c
        return type(a)(a.K, co, min(a.hi, b.hi))

    def __mul__(self, other):
        b = other if type(other) is type(self) else self._operand(other)
        if b is None:
            return NotImplemented
        return sum_of_products((_pair(self, b) + (False,),))

    def __truediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self * b.inv()

    def scale(self, c):
        """Multiply every coefficient by c, an int or an element of the
        ring, on the left. An exact-zero scalar gives the exact zero."""
        R = self._ring(self.K)
        c = R.el(c) if isinstance(c, int) else c
        if R.exact_zero_p(c):
            return self._with({}, INF)
        return self._with({e: c * x for e, x in self.co.items()}, self.hi)

    def __pow__(self, e):
        if len(self.co) == 1 and self.hi is INF and not self._TWIST:
            # an exact monomial of an untwisted kind: (c x^v)^e = c^e x^(v e)
            [(v, c)] = self.co.items()
            return self._with({v * e: c**e}, INF)
        if e < 0:
            return self.inv() ** (-e)
        acc = self.one(self.K)
        base = self
        while e > 0:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inv(self, prec=None):
        """Two-sided inverse, by the recurrence above. Exact for monomials
        with an invertible coefficient; otherwise known to `prec`
        exponents past -valuation (default per kind), and never past
        what the input's own window supports, x^(hi - 2v)."""
        if not self.co:
            if self.hi is INF:
                raise NotInvertible(self._INV_ZERO)
            raise PrecisionLoss(self._INV_WINDOW, window=self.hi)
        v = self.valuation()
        R = self._ring(self.K)
        t = self._TWIST
        c = self.co[v]
        cinv = c.inv() if hasattr(c, "inv") else R.el(c).inv()
        u = {-v: R.sigma(cinv, -t * v) if t else cinv}
        if len(self.co) == 1 and self.hi is INF:
            return self._with(u, INF)
        width = prec if prec is not None else self._default_inv_prec()
        out_hi = -v + width
        if self.hi is not INF:
            out_hi = min(out_hi, self.hi - 2 * v)
        for n in range(1, out_hi + v):
            # u holds no exact zero, and no exponent from n - v on
            terms = [(fk, R.sigma(u[n - k], t * k) if t else u[n - k], True)
                     for k, fk in self.co.items() if n - k in u]
            if not terms:
                continue
            if R.kind == "local":
                x = cinv * sum_of_products(terms)
            else:
                x = cinv * -sum((fk * y for fk, y, _ in terms), R.zero())
            if t:
                x = R.sigma(x, -t * v)
            if not R.exact_zero_p(x):
                u[n - v] = x
        return self._with(u, out_hi)


def sum_of_products(terms):
    """The sum over the triples (a, b, neg) of terms of the product a * b,
    negated where neg is true; b None stands for the exact one, so the
    term is a itself. terms is not empty.

    When every operand is a series of one kind over one finite field with
    log tables, the coefficients come from one call of `FF.packed_sum` or
    `FF.sum_of_products`, chosen by the crossovers above; otherwise from
    the Felt loop.
    """
    a0 = terms[0][0]
    cls, K = type(a0), a0.K
    hi = _window(terms)
    R = cls._ring(K)
    if R.kind == "finite":
        ff = R.ff
        args = []
        pairs = 0
        for a, b, neg in terms:
            if type(a) is not cls or a.K is not K:
                break
            la = a._logs_in(ff)
            if b is None:
                # the exact one: log 0 at exponent 0
                lb = [(0, 0)]
            elif type(b) is not cls or b.K is not K:
                break
            else:
                lb = b._logs_in(ff)
            if la is None or lb is None:
                break
            args.append((la, lb, neg))
            pairs += len(la) * len(lb)
        else:
            # no break: every term is in the log domain
            k = cls._TWIST * R.desc.a
            # sigma^k is the identity when n divides k
            if pairs >= PACK_PAIRS and ff.n <= PACK_DEGREE and k % ff.n == 0:
                return cls(K, ff.packed_sum(terms, hi), hi)
            return cls(K, ff.sum_of_products(args, hi, k), hi)
    return _felt_sum(terms, hi)


def _window(terms):
    """The window of `sum_of_products` of terms: the least over its
    products of min(a.hi + v_b, b.hi + v_a) (see above), v the least
    exponent of the support, or the window of a zero-to-window element."""
    hi = INF
    for a, b, _ in terms:
        if b is None:
            hi = min(hi, a.hi)
        else:
            va = min(a.co) if a.co else a.hi
            vb = min(b.co) if b.co else b.hi
            hi = min(hi, a.hi + vb, b.hi + va)
    return hi


def _felt_sum(terms, hi):
    """`sum_of_products` of terms with window hi, coefficient by
    coefficient, every operand over one K.

    Over a local K (coefficients `LocalElem`, themselves series), the
    coefficient products are grouped by output exponent and each group
    is summed by one `sum_of_products`, a sum of products of
    zeta-series; its window `_window` is the least of its products'
    windows, as a chain of additions would give. Otherwise, one
    coefficient product at a time into one map."""
    cls, K = type(terms[0][0]), terms[0][0].K
    if any(a.K is not K or b is not None and b.K is not K for a, b, _ in terms):
        raise InvariantError(f"a sum of products over {K!r} and another field")
    twist = cls._TWIST
    R = cls._ring(K)
    if R.kind == "local":
        return cls(K, _grouped_sums(terms, hi, twist, K.sigma), hi)
    sigma = R.sigma
    co = {}
    for a, b, neg in terms:
        for e1, c1 in a.co.items():
            if neg:
                c1 = -c1
            if b is None:
                row = ((e1, c1),)
            elif twist:
                k = twist * e1
                row = [(e1 + e2, c1 * sigma(c2, k)) for e2, c2 in b.co.items()
                       if e1 + e2 < hi]
            else:
                row = [(e1 + e2, c1 * c2) for e2, c2 in b.co.items() if e1 + e2 < hi]
            for e, pr in row:
                s = co.get(e)
                co[e] = pr if s is None else s + pr
    return cls(K, co, hi)


def _grouped_sums(terms, hi, twist, sigma):
    """{exponent below hi: the sum of its coefficient products}, each
    group one `sum_of_products`; a coefficient that a b-None term
    contributes alone to its exponent is kept as it is."""
    groups = {}
    for a, b, neg in terms:
        for e1, c1 in a.co.items():
            if b is None:
                if e1 < hi:
                    groups.setdefault(e1, []).append((c1, None, neg))
                continue
            k = twist * e1
            for e2, c2 in b.co.items():
                if e1 + e2 < hi:
                    groups.setdefault(e1 + e2, []).append(
                        (c1, sigma(c2, k) if twist else c2, neg))
    return {e: g[0][0] if len(g) == 1 and g[0][1] is None and not g[0][2]
            else sum_of_products(g) for e, g in groups.items()}


def _pair(a, b):
    """(a, b), which must be series over one field."""
    if a.K is not b.K:
        raise InvariantError(f"operands over {a.K!r} and {b.K!r}")
    return a, b
