"""Truncated Laurent series in z over a base field K.

B_K = K((z)) with the coefficientwise q-power endomorphism sigma
(z itself is fixed). `ZSeries` is the untwisted windowed series of
`taumod.series` with coefficients in K: every z-exponent below `hi` is
known, the principal part is finite by construction. This module adds
what is particular to K((z)): the shift by z^n, sigma, valuation
profiles over a local K and the ring tower. For local K the ring tower

    A_K = K[[z]]  and  B_OK = R((z)) \\subset Bbar = K (x)_R R((z)) \\subset B_K

is certified by `membership`, always windowed and never overclaiming:
a "no" for Bbar requires a growth annotation proving the coefficient
valuations unbounded below (produced by the semilinear solver), since a
finite window cannot distinguish a plunge from a dip.
"""

from taumod.errors import InputError, PrecisionLoss
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

    # -- ring-tower membership --------------------------------------------

    def membership(self, tag):
        """Certificate dict for x in A_K / B_OK / Bbar / B_K.

        Verdicts are claims about the stored window, which the
        certificate records. "no" for Bbar is only issued on the
        strength of a growth annotation; a visibly decreasing valuation
        profile without one yields "inconclusive".
        """
        if tag not in ("AK", "BOK", "Bbar", "BK"):
            raise InputError(f"unknown ring tag {tag!r}")
        if tag in ("BOK", "Bbar") and self.K.kind != "local":
            # O_K = K for a finite base: both tags degenerate to B_K
            return self._cert(tag, "yes", note="finite base: tag degenerates to BK")
        if tag == "BK":
            return self._cert(tag, "yes")
        if tag == "AK":
            return self._member_ak()
        if tag == "BOK":
            return self._member_bok()
        return self._member_bbar()

    def _cert(self, tag, verdict, witness=None, bound=None, trend=None, note=None):
        out = {
            "kind": "membership",
            "ring": tag,
            "verdict": verdict,
            "z_window_hi": None if self.hi is INF else self.hi,
        }
        if witness is not None:
            out["witness"] = witness
        if bound is not None:
            out["bound"] = bound
        if trend is not None:
            out["trend"] = trend
        if note is not None:
            out["note"] = note
        return out

    def _member_ak(self):
        for e in self.support():
            if e < 0:
                c = self.co[e]
                if self.K.known_nonzero(c):
                    v = 0 if self.K.kind == "finite" else c.val_lower_bound()
                    return self._cert(
                        "AK", "no", witness={"exponent": e, "valuation": _jv(v)}
                    )
                return self._cert(
                    "AK",
                    "inconclusive",
                    note=f"coefficient at z^{e} is zero only to zeta-precision",
                )
        if self.hi < 0:
            return self._cert(
                "AK",
                "inconclusive",
                note=f"z-exponents in [{self.hi},0) are outside the window",
            )
        return self._cert("AK", "yes")

    def _member_bok(self):
        for e in self.support():
            c = self.co[e]
            neg = [x for x in c.support() if x < 0]
            if neg:
                return self._cert(
                    "BOK", "no", witness={"exponent": e, "valuation": min(neg)}
                )
            if c.hi <= 0:
                return self._cert(
                    "BOK",
                    "inconclusive",
                    note=f"coefficient at z^{e} known only below zeta^{c.hi}",
                )
        return self._cert("BOK", "yes")

    def _member_bbar(self):
        if self.growth is not None and self.growth.get("conclusion") == "unbounded_below":
            n0 = self.growth.get("witness_exponent")
            v0 = self.growth.get("witness_valuation")
            return self._cert(
                "Bbar",
                "no",
                witness={"exponent": n0, "valuation": v0},
                note="growth annotation proves valuations unbounded below",
            )
        if self.growth is not None and self.growth.get("conclusion") == "bounded_below":
            return self._cert(
                "Bbar",
                "yes",
                bound=self.growth.get("bound"),
                note="growth annotation bounds valuations below",
            )
        vals = []
        for e in self.support():
            c = self.co[e]
            if not c.co:
                return self._cert(
                    "Bbar",
                    "inconclusive",
                    note=f"coefficient at z^{e} is zero only to zeta-precision",
                )
            vals.append((e, min(c.co)))
        bound = min((v for _, v in vals), default=0)
        if self.hi is INF:
            return self._cert("Bbar", "yes", bound=bound)
        tail = [v for _, v in vals[-3:]]
        decreasing = len(tail) == 3 and tail[0] > tail[1] > tail[2]
        if bound < 0 and decreasing:
            return self._cert(
                "Bbar",
                "inconclusive",
                bound=bound,
                trend="decreasing",
                note="valuations fall within the window and no growth proof is attached",
            )
        return self._cert("Bbar", "yes", bound=bound, trend="decreasing" if decreasing else None)


def _jv(v):
    return None if v is INF or v is -INF else v

