"""Twisted polynomials K{tau} and Laurent series K((tau^{-1})).

The defining relation is tau * x = sigma(x) * tau, so coefficients
written on the left twist as they move past powers of tau:

    (sum f_i tau^i)(sum g_j tau^j) = sum_i,j f_i sigma^i(g_j) tau^{i+j}.

Both are the windowed series of `taumod.series` over K with a twisted
product: sigma^i for `SkewPoly` (exponent i of tau) and sigma^{-k} for
`SkewLaurent` (exponent k of tau^{-1}). SkewPoly works over finite and
local bases alike, and its constructors and arithmetic give exact
elements. SkewLaurent, the skew field of Laurent series in tau^{-1},
needs tau^{-1} * x = x^{1/q} * tau^{-1} and therefore a perfect base:
construction over a local base is rejected. Laurent elements carry a
knowledge window in tau^{-1}-exponents, truthful under products and
inversion (`skew_inverse`).
"""

from taumod.errors import InputError, NotInvertible, PrecisionLoss
from taumod.series import INF, Series

DEFAULT_TAUINV_PREC = 16


def _check_extension(self, K):
    if K.ext % self.K.ext != 0:
        raise InputError("no common extension between operand bases")


class SkewPoly(Series):
    """Finite twisted polynomial sum f_i tau^i, coefficients in K."""

    __slots__ = ()

    _TWIST = 1
    _UNPAIRED = InputError
    _check_embeds = _check_extension
    _mono = staticmethod("tau^{}".format)

    def __repr__(self):
        if not self.co:
            return "SP[0]"
        body = " + ".join(f"({c!r})*tau^{d}" for d, c in sorted(self.co.items()))
        return f"SP[{body}]"

    @staticmethod
    def tau(K, d=1):
        return SkewPoly(K, {d: K.one()})

    def degree(self):
        """Max tau-degree; -inf for 0."""
        return max(self.co) if self.co else -INF

    def order(self):
        """Min tau-degree (the height exponent); inf for 0."""
        return min(self.co) if self.co else INF

    def is_zero(self):
        return not self.co

    def inv(self, prec=None):
        raise InputError("negative powers need SkewLaurent")

    def evaluate(self, x, field=None):
        """Value of the additive polynomial sum f_i x^{q^i}.

        `field` may be an extension of the coefficient base; defaults to
        the base itself.
        """
        F = field if field is not None else self.K
        x = F.el(x)
        acc = F.zero()
        for d, c in self.co.items():
            acc = acc + c * F.sigma(x, d)
        return acc

    def to_laurent(self, hi=INF):
        """Reinterpret in K((tau^{-1})): tau^d becomes tau^{-(-d)}."""
        return SkewLaurent(self.K, {-d: c for d, c in self.co.items()}, hi)


class SkewLaurent(Series):
    """Element sum_k c_k tau^{-k} of K((tau^{-1})), K finite.

    co maps tau^{-1}-exponent k -> coefficient; every exponent < hi is
    known. Positive powers of tau are negative exponents k.
    """

    __slots__ = ()

    _TWIST = -1
    _UNPAIRED = InputError
    _check_embeds = _check_extension
    _mono = staticmethod(lambda k: f"tau^{-k}")
    _ZERO_ORDER = "valuation of a zero-to-window element"

    def __init__(self, K, co, hi=INF):
        if K.kind != "finite":
            raise InputError(
                "tau^{-1}-series need a perfect base; local bases are not"
            )
        Series.__init__(self, K, co, hi)

    def __repr__(self):
        if not self.co:
            body = "0"
        else:
            body = " + ".join(
                f"({c!r})*tauinv^{k}" for k, c in sorted(self.co.items())
            )
        tail = "" if self.hi is INF else f" + O(tauinv^{self.hi})"
        return f"SL[{body}{tail}]"

    @staticmethod
    def tau_inv(K, k=1):
        return SkewLaurent(K, {k: K.one()}, INF)

    def v_tau_inv(self):
        """Normalized tau^{-1}-adic valuation. INF for exact zero."""
        return self.valuation()

    def inv(self, prec=DEFAULT_TAUINV_PREC):
        return skew_inverse(self, prec)


def skew_inverse(f, prec=DEFAULT_TAUINV_PREC):
    """Two-sided inverse of a unit in K((tau^{-1})) to prec terms.

    Peel-off recursion on the right inverse u: writing v = v_tauinv(f),
    the degree-n coefficient equation of f*u = 1 gives

        u_{n-v} = sigma^v( f_v^{-1} * (delta_{n,0} - sum_{k>v} f_k sigma^{-k}(u_{n-k})) ).

    In a skew field the right inverse is the inverse.
    """
    if not f.co:
        if f.hi is INF:
            raise NotInvertible("inverse of zero")
        raise PrecisionLoss("inverse of a zero-to-window element", window=f.hi)
    K = f.K
    v = min(f.co)
    fv_inv = K.el(f.co[v]).inv()
    if len(f.co) == 1 and f.hi is INF:
        return SkewLaurent(K, {-v: K.sigma(fv_inv, v)}, INF)
    out_hi = -v + prec
    if f.hi is not INF:
        out_hi = min(out_hi, f.hi - 2 * v)
    u = {}
    for j in range(-v, out_hi):
        n = j + v
        acc = K.one() if n == 0 else K.zero()
        for k, fk in f.co.items():
            if k == v or n - k not in u:
                continue
            acc = acc - K.el(fk) * K.sigma(u[n - k], -k)
        u[j] = K.sigma(fv_inv * acc, v)
    return SkewLaurent(K, u, out_hi)


def conjugate(u, f, prec=DEFAULT_TAUINV_PREC):
    """u * f * u^{-1} within the common window."""
    return (u * f) * skew_inverse(u, prec)
