"""Twisted polynomials K{tau} and Laurent series K((tau^{-1})).

The defining relation is tau * x = sigma(x) * tau, so coefficients
written on the left twist as they move past powers of tau:

    (sum f_i tau^i)(sum g_j tau^j) = sum_i,j f_i sigma^i(g_j) tau^{i+j}.

Both are the windowed series of `taumod.series` over K with a twisted
product: sigma^i for `SkewPoly` (exponent i of tau) and sigma^{-k} for
`SkewLaurent` (exponent k of tau^{-1}). SkewPoly works over finite and
local bases alike, and its constructors and arithmetic give exact
elements. Operands share one K. SkewLaurent, the skew field of
Laurent series in tau^{-1}, needs tau^{-1} * x = x^{1/q} * tau^{-1} and
therefore a perfect base: construction over a local base is rejected.
Laurent elements carry a knowledge window in tau^{-1}-exponents,
truthful under products and inversion: `SkewLaurent.inv` (also bound as
`skew_inverse`) is the recurrence `Series.inv` of every windowed series
at twist -1, which solves f * u = 1 one coefficient at a time. In a skew
field the right inverse it finds is the two-sided inverse.
"""

from taumod.errors import InputError
from taumod.series import INF, Series

DEFAULT_TAUINV_PREC = 16


class SkewPoly(Series):
    """Finite twisted polynomial sum f_i tau^i, coefficients in K."""

    __slots__ = ()

    _TWIST = 1
    _mono = staticmethod("tau^{}".format)

    def __repr__(self):
        if not self.co:
            return "SP[0]"
        body = " + ".join(f"({c!r})*tau^{d}" for d, c in sorted(self.co.items()))
        return f"SP[{body}]"

    @staticmethod
    def tau(K, d=1):
        return SkewPoly(K, {d: K.one()})

    def is_zero(self):
        return not self.co

    def inv(self, prec=None):
        raise InputError("negative powers need SkewLaurent")


class SkewLaurent(Series):
    """Element sum_k c_k tau^{-k} of K((tau^{-1})), K finite.

    co maps tau^{-1}-exponent k -> coefficient; every exponent < hi is
    known. Positive powers of tau are negative exponents k.
    """

    __slots__ = ()

    _TWIST = -1
    _mono = staticmethod(lambda k: f"tau^{-k}")
    _ZERO_ORDER = "valuation of a zero-to-window element"
    _INV_ZERO = "inverse of zero"

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

    def _default_inv_prec(self):
        return DEFAULT_TAUINV_PREC


# the inverse in K((tau^{-1})) by name: `tateweil` calls it, and
# perfbench/layertrace.py times it
skew_inverse = Series.inv
