"""Membership of z-series in the ring tower over a local K.

For local K with valuation ring R the ring tower

    A_K = K[[z]]  and  B_OK = R((z)) \\subset Bbar = K (x)_R R((z)) \\subset B_K

is certified by `membership`, always windowed and never overclaiming:
a "no" for Bbar requires a growth annotation proving the coefficient
valuations unbounded below (produced by the semilinear solver), since a
finite window cannot distinguish a plunge from a dip.

Only `solve`, the good model of `analyze` and their replays ask, so this
module loads on first use (see taumod/__init__.py).
"""

from taumod.errors import InputError
from taumod.zseries import INF


def membership(x, tag):
    """Certificate dict for the ZSeries x in A_K / B_OK / Bbar / B_K.

    Verdicts are claims about the stored window, which the certificate
    records. "no" for Bbar is only issued on the strength of a growth
    annotation; a visibly decreasing valuation profile without one
    yields "inconclusive".
    """
    if tag not in ("AK", "BOK", "Bbar", "BK"):
        raise InputError(f"unknown ring tag {tag!r}")
    if tag in ("BOK", "Bbar") and x.K.kind != "local":
        # O_K = K for a finite base: both tags degenerate to B_K
        return _cert(x, tag, "yes", note="finite base: tag degenerates to BK")
    if tag == "BK":
        return _cert(x, tag, "yes")
    if tag == "AK":
        return _member_ak(x)
    if tag == "BOK":
        return _member_bok(x)
    return _member_bbar(x)


def _cert(x, tag, verdict, witness=None, bound=None, trend=None, note=None):
    out = {
        "kind": "membership",
        "ring": tag,
        "verdict": verdict,
        "z_window_hi": None if x.hi is INF else x.hi,
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


def _member_ak(x):
    for e in x.support():
        if e < 0:
            c = x.co[e]
            if x.K.known_nonzero(c):
                v = 0 if x.K.kind == "finite" else c.val_lower_bound()
                return _cert(x, "AK", "no", witness={"exponent": e, "valuation": _jv(v)})
            return _cert(
                x,
                "AK",
                "inconclusive",
                note=f"coefficient at z^{e} is zero only to zeta-precision",
            )
    if x.hi < 0:
        return _cert(
            x,
            "AK",
            "inconclusive",
            note=f"z-exponents in [{x.hi},0) are outside the window",
        )
    return _cert(x, "AK", "yes")


def _member_bok(x):
    for e in x.support():
        c = x.co[e]
        neg = [y for y in c.support() if y < 0]
        if neg:
            return _cert(x, "BOK", "no", witness={"exponent": e, "valuation": min(neg)})
        if c.hi <= 0:
            return _cert(
                x,
                "BOK",
                "inconclusive",
                note=f"coefficient at z^{e} known only below zeta^{c.hi}",
            )
    return _cert(x, "BOK", "yes")


def _member_bbar(x):
    growth = x.growth
    if growth is not None and growth.get("conclusion") == "unbounded_below":
        n0 = growth.get("witness_exponent")
        v0 = growth.get("witness_valuation")
        return _cert(
            x,
            "Bbar",
            "no",
            witness={"exponent": n0, "valuation": v0},
            note="growth annotation proves valuations unbounded below",
        )
    if growth is not None and growth.get("conclusion") == "bounded_below":
        return _cert(
            x,
            "Bbar",
            "yes",
            bound=growth.get("bound"),
            note="growth annotation bounds valuations below",
        )
    vals = []
    for e in x.support():
        c = x.co[e]
        if not c.co:
            return _cert(
                x,
                "Bbar",
                "inconclusive",
                note=f"coefficient at z^{e} is zero only to zeta-precision",
            )
        vals.append((e, min(c.co)))
    bound = min((v for _, v in vals), default=0)
    if x.hi is INF:
        return _cert(x, "Bbar", "yes", bound=bound)
    tail = [v for _, v in vals[-3:]]
    decreasing = len(tail) == 3 and tail[0] > tail[1] > tail[2]
    if bound < 0 and decreasing:
        return _cert(
            x,
            "Bbar",
            "inconclusive",
            bound=bound,
            trend="decreasing",
            note="valuations fall within the window and no growth proof is attached",
        )
    return _cert(x, "Bbar", "yes", bound=bound, trend="decreasing" if decreasing else None)


def _jv(v):
    return None if v is INF or v is -INF else v
