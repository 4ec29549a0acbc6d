"""Local function fields K = F_{q^m}((zeta)).

A local field is not perfect (zeta has no q-th root). Its elements,
`LocalElem`, are the untwisted windowed series of `taumod.series` over
the residue field, so their precision windows stay truthful under every
operation; this module adds the zeta-Frobenius, q-th roots and the
residue map. sigma always means the q-power Frobenius, acting
coefficientwise and scaling zeta-exponents by q.

Only requests over a local base build one, so this module loads on
first use (see taumod/__init__.py): `FieldDescriptor.field` reaches it
for a local descriptor alone.
"""

from fractions import Fraction
from functools import lru_cache
import math

from taumod.basefield import Felt, get_field, get_finiteK
from taumod.errors import InputError, NoRoot, PrecisionLoss
from taumod.series import INF, Series


@lru_cache(maxsize=None)
def get_localK(desc, ext, ram):
    return LocalK(desc, ext, ram)


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
