"""Canonical JSON forms for elements, modules, and certificates.

Rendering is total over the library's value types and deterministic:
keys are sorted, coefficient maps become exponent-sorted pair arrays,
infinite windows become null, and every top-level container carries a
base descriptor (with extension degree and ramification) so a reader
can rebuild the objects without re-deriving anything.

Finite-field elements render as coefficient arrays over the prime
field.  Local elements render as {"coeffs": [[exp, array], ...],
"window": [lo, hi]}.  A z-adic series renders as {"z_coeffs": [[exp,
elem], ...], "window": [lo, hi]}; twisted polynomials use "tau_coeffs"
keyed by tau-degree, and inverse-twist expansions use "tauinv_coeffs"
keyed by the tau^{-1}-exponent.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from taumod import drinfeld, skew
from taumod.basefield import Felt, FieldDescriptor, FiniteK
from taumod.errors import InputError
from taumod.isocrystal import Isocrystal, Lattice, twist_inverse
from taumod.zseries import INF, ZSeries

# Records (`isocrystal.Record`) render their `_fields` under their own
# names; the tag lets a reader dispatch without knowing the Python class.
_KIND_TAGS = {
    "PurityCertificate": "purity_certificate",
    "NotPureAt": "not_pure_at",
    "Inconclusive": "inconclusive",
    "ReductionReport": "reduction_report",
    "GoodModel": "good_model",
    "TateData": "tate_data",
    "WeilData": "weil_data",
    "ConjugatorData": "conjugator",
}


def _window(co, hi):
    lo = min(co) if co else 0
    return [lo, None if hi is None or hi == INF else int(hi)]


def render_field(K):
    d = K.desc
    out = {
        "kind": d.kind,
        "p": d.p,
        "a": d.a,
        "m": d.m,
        "ext": K.ext,
        "window": [d.window[0], d.window[1]],
    }
    if d.kind == "local":
        out["ram"] = K.ram
    return out


def render(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return None if obj == INF else obj
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, Felt):
        return list(obj.c)
    if isinstance(obj, ZSeries):
        out = {
            "z_coeffs": [[e, render(c)] for e, c in sorted(obj.co.items())],
            "window": _window(obj.co, obj.hi),
        }
        if obj.growth is not None:
            out["growth"] = render(obj.growth)
        return out
    if isinstance(obj, FiniteK):
        return render_field(obj)
    if isinstance(obj, Isocrystal):
        return {
            "kind": "isocrystal",
            "rank": obj.rank,
            "base": render_field(obj.K),
            "tau_matrix": render(obj.A),
        }
    if isinstance(obj, Lattice):
        return {
            "kind": "lattice",
            "base": render_field(obj.K),
            "rank": obj.rank,
            "pivots": list(obj.pivots),
            "basis": render(obj.basis),
        }
    name = type(obj).__name__
    if name in _KIND_TAGS:
        out = {"kind": _KIND_TAGS[name]}
        for f in obj._fields:
            out[f] = render(getattr(obj, f))
        return out
    # the local types by name too: `localfield` loads on first use, and a
    # report over a finite base must not load it
    if name == "LocalElem":
        return {
            "coeffs": [[e, list(c.c)] for e, c in sorted(obj.co.items())],
            "window": _window(obj.co, obj.hi),
        }
    if name == "LocalK":
        return render_field(obj)
    if isinstance(obj, dict):
        return {str(k): render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [render(v) for v in obj]
    # last, so that rendering an isocrystal or a certificate does not load
    # the modules of these types (see taumod/__init__.py)
    if isinstance(obj, skew.SkewPoly):
        return {"tau_coeffs": [[d, render(c)] for d, c in sorted(obj.co.items())]}
    if isinstance(obj, skew.SkewLaurent):
        return {
            "tauinv_coeffs": [[k, render(c)] for k, c in sorted(obj.co.items())],
            "window": _window(obj.co, obj.hi),
        }
    if isinstance(obj, drinfeld.DrinfeldModule):
        return {
            "kind": "drinfeld",
            "q": obj.K.q,
            "base": render_field(obj.K),
            "coeffs": [render(c) for c in obj.coeffs],
        }
    raise TypeError(f"no JSON form for {name}")


def dump_canonical(obj):
    """Serialize with sorted keys and a trailing newline; byte-stable."""
    return dump_tree(render(obj))


def dump_tree(tree):
    """`json.dumps(tree, sort_keys=True, indent=2) + "\\n"`, byte for byte,
    for a tree of dicts with str keys, lists, tuples, strs, ints, bools
    and None; TypeError on any other type, float included. With indent
    set, json.dumps runs its pure-Python encoder, a chain of generators;
    this walk appends to one list."""
    out = []
    _put(tree, "\n", out)
    out.append("\n")
    return "".join(out)


def _put(x, nl, out):
    """Append the text of x to out; nl starts each line inside x."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _put(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            if type(k) is not str:
                raise TypeError(f"JSON keys here are strs, not {type(k).__name__}")
            out.append(sep + _quote(k) + ": ")
            _put(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    else:
        raise TypeError(f"no JSON text for {t.__name__}")


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None


# -- parsing ----------------------------------------------------------------


def _need(d, key, what):
    if not isinstance(d, dict) or key not in d:
        raise InputError(f"{what} needs a {key!r} entry")
    return d[key]


def parse_field(d):
    kind = _need(d, "kind", "base descriptor")
    if kind not in ("finite", "local"):
        raise InputError(f"unknown base kind {kind!r}")
    try:
        p = int(_need(d, "p", "base descriptor"))
        a = int(_need(d, "a", "base descriptor"))
        m = int(_need(d, "m", "base descriptor"))
        ext = int(d.get("ext", 1))
        ram = int(d.get("ram", 1))
        window = d.get("window", (-8, 8))
        window = (int(window[0]), int(window[1]))
    except (TypeError, ValueError, IndexError) as exc:
        raise InputError(f"bad base descriptor: {exc}") from None
    K = FieldDescriptor(p=p, a=a, m=m, kind=kind, window=window).field()
    if ext > 1:
        K = K.extend(ext)
    if ram > 1:
        if kind != "local":
            raise InputError("ramification only applies to a local base")
        K = K.ramify(ram)
    return K


def _parse_prime_array(K, arr):
    if isinstance(arr, int):
        arr = [arr]
    if not isinstance(arr, list) or not all(isinstance(v, int) for v in arr):
        raise InputError("field element must be an integer array over the prime field")
    return arr


def parse_elem(K, obj):
    """Element of K from its JSON form (array if finite, pair map if local)."""
    if K.kind == "finite":
        return K.el(_parse_prime_array(K, obj))
    if isinstance(obj, (int, list)):
        # residue-field constant given directly as an array
        return K.el(_parse_prime_array(K, obj))
    pairs_raw = _need(obj, "coeffs", "local element")
    window = _need(obj, "window", "local element")
    rk = K.residue_K()
    try:
        pairs = [(int(e), rk.el(_parse_prime_array(K, c))) for e, c in pairs_raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad local element: {exc}") from None
    hi = window[1]
    return K.from_pairs(pairs, INF if hi is None else int(hi))


def parse_zseries(K, d):
    pairs_raw = _need(d, "z_coeffs", "z-series")
    window = _need(d, "window", "z-series")
    try:
        co = {int(e): parse_elem(K, c) for e, c in pairs_raw}
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad z-series: {exc}") from None
    hi = window[1]
    return ZSeries(K, co, INF if hi is None else int(hi),
                   growth=d.get("growth"))


def parse_scalar(K, obj):
    """Flexible scalar: a z-series, a bare element, or an integer."""
    if isinstance(obj, dict) and "z_coeffs" in obj:
        return parse_zseries(K, obj)
    return ZSeries(K, {0: parse_elem(K, obj)})


def parse_skewpoly(K, d):
    pairs_raw = _need(d, "tau_coeffs", "twisted polynomial")
    try:
        co = {int(deg): parse_elem(K, c) for deg, c in pairs_raw}
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad twisted polynomial: {exc}") from None
    return skew.SkewPoly(K, co)


def parse_skewlaurent(K, d):
    pairs_raw = _need(d, "tauinv_coeffs", "inverse-twist expansion")
    window = _need(d, "window", "inverse-twist expansion")
    try:
        co = {int(k): parse_elem(K, c) for k, c in pairs_raw}
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad inverse-twist expansion: {exc}") from None
    hi = window[1]
    return skew.SkewLaurent(K, co, INF if hi is None else int(hi))


def parse_isocrystal(d, prec=None, with_inverse=False):
    """The isocrystal of d, its twist matrix shown invertible by
    `twist_inverse` at z-precision prec (default `DEFAULT_Z_PREC`); with
    that inverse as a second value if with_inverse."""
    K = parse_field(_need(d, "base", "isocrystal"))
    rows = _need(d, "tau_matrix", "isocrystal")
    if not isinstance(rows, list) or not rows:
        raise InputError("tau_matrix must be a nonempty square array")
    A = [[parse_zseries(K, cell) for cell in row] for row in rows]
    M = Isocrystal(K, A)
    A_inv = twist_inverse(M, prec)
    want = d.get("rank")
    if want is not None and int(want) != M.rank:
        raise InputError(f"declared rank {want} but tau_matrix is {M.rank} x {M.rank}")
    return (M, A_inv) if with_inverse else M


def parse_drinfeld(d):
    K = parse_field(_need(d, "base", "module input"))
    q = d.get("q")
    if q is not None and int(q) != K.q:
        raise InputError(f"declared q={q} but the base descriptor gives q={K.q}")
    coeffs_raw = _need(d, "coeffs", "module input")
    if not isinstance(coeffs_raw, list):
        raise InputError("coeffs must be an array g_0..g_r")
    return drinfeld.DrinfeldModule(K, [parse_elem(K, c) for c in coeffs_raw])
