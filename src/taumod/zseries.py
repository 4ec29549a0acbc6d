"""Truncated Laurent series in z over a base field K.

B_K = K((z)) with the coefficientwise q-power endomorphism sigma
(z itself is fixed). `ZSeries` is the untwisted windowed series of
`taumod.series` with coefficients in K: every z-exponent below `hi` is
known, the principal part is finite by construction. This module adds
what is particular to K((z)): the shift by z^n and sigma. Membership in
the ring tower over a local K is certified by `taumod.rings`.
"""

from taumod.errors import PrecisionLoss
from taumod.series import INF, Series

DEFAULT_Z_PREC = 8


class ZSeries(Series):
    """Laurent series sum c_n z^n over K (finite or local).

    co maps z-exponent -> coefficient in K; all exponents < hi are
    known. Exactly-zero coefficients are dropped; local coefficients
    that are merely zero to their own zeta-precision are kept, since
    they still carry information. `growth` is an optional annotation
    (attached by solvers) proving how coefficient valuations behave
    beyond any finite window; negation, truncation and lifting to a
    larger field keep it, other operations drop it.
    """

    __slots__ = ("growth",)

    _mono = staticmethod("z^{}".format)
    _ZERO_ORDER = "z-order of a zero-to-window series"
    _INV_ZERO = "inverse of the zero series"
    _INV_WINDOW = _ZERO_ORDER

    def __init__(self, K, co, hi=INF, growth=None):
        Series.__init__(self, K, co, hi)
        self.growth = growth

    def __repr__(self):
        if not self.co:
            body = "0"
        else:
            body = " + ".join(f"({c!r})*z^{e}" for e, c in sorted(self.co.items()))
        tail = "" if self.hi is INF else f" + O(z^{self.hi})"
        return f"ZS[{body}{tail}]"

    def _carry(self, K, co, hi):
        return ZSeries(K, co, hi, self.growth)

    def _default_inv_prec(self):
        return DEFAULT_Z_PREC

    # -- constructors ------------------------------------------------------

    @staticmethod
    def z(K, n=1):
        return ZSeries(K, {n: K.one()}, INF)

    @staticmethod
    def const(K, c):
        return ZSeries(K, {0: K.el(c)}, INF)

    def with_growth(self, annotation):
        return ZSeries(self.K, self.co, self.hi, annotation)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        """True iff exactly zero. PrecisionLoss when zero only to window."""
        for c in self.co.values():
            if self.K.known_nonzero(c):
                return False
        if self.co:
            # stored coefficients are all zero-to-precision local elements
            raise PrecisionLoss(
                "series has coefficients that are zero only to zeta-precision",
                window=self.hi,
            )
        if self.hi is INF:
            return True
        raise PrecisionLoss("series is zero to the z-window only", window=self.hi)

    def known_nonzero(self):
        return any(self.K.known_nonzero(c) for c in self.co.values())

    def shift(self, n):
        """Multiply by z^n."""
        hi = self.hi if self.hi is INF else self.hi + n
        return self._with({e + n: c for e, c in self.co.items()}, hi)

    # -- Frobenius ---------------------------------------------------------

    def sigma(self, k=1):
        """sigma^k: q^k-power on each coefficient, z-exponents fixed.
        Negative k takes coefficientwise q-th roots and can raise NoRoot
        (sigma is injective but not surjective over non-perfect K)."""
        co = {e: self.K.sigma(c, k) for e, c in self.co.items()}
        return self._with(co, self.hi)
