"""Known-answer checks for every operation the benchmark sends.

Each check returns (status, reason) with status "ok", "failed" (no
answer: a non-zero exit, a crash, a time-out, an exhausted budget, or a
`verify` that replays nothing) or "wrong" (a definite answer that
contradicts the known one, or a certificate that `verify` refutes).
Known answers come from construction facts and the frozen test oracles,
never from the program's current output.
"""

import re

OK = ("ok", "")

# Check names `taumod verify` uses when a report claims nothing to replay.
_NO_CLAIM = re.compile(r"no (certificate|lattice) claimed|makes no claim")


def _dig(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _outcome(code, doc):
    """Failure for a request that gave no definite answer, else None."""
    if code is None:
        return "failed", "exceeded the per-request limit"
    if not isinstance(doc, dict):
        return "failed", f"exit {code} without a JSON report"
    if code != 0:
        what = doc.get("verdict") or doc.get("error") or "no verdict"
        detail = doc.get("detail", "")
        return "failed", f"exit {code} ({what}) {detail}".strip()
    return None


def check_request(req, code, doc):
    """A compute request against its plan entry's verdict and fields."""
    bad = _outcome(code, doc)
    if bad is not None:
        return bad[0], f"{bad[1]}; expected {req['verdict']}"
    if doc.get("verdict") != req["verdict"]:
        return "wrong", f"verdict {doc.get('verdict')!r}, expected {req['verdict']!r}"
    for path, want in req["fields"]:
        got = _dig(doc, path)
        if got != want:
            return "wrong", f"{'.'.join(path)} = {got!r}, expected {want!r}"
    return OK


def check_verify(code, doc):
    """`taumod verify` must exit 0 with verdict ok after replaying a claim."""
    if code == 4 and isinstance(doc, dict) and doc.get("verdict") == "failed":
        bad = [c["name"] for c in doc.get("checks", []) if not c.get("ok")]
        return "wrong", f"certificate refuted: {bad}"
    bad = _outcome(code, doc)
    if bad is not None:
        return bad
    if doc.get("verdict") != "ok":
        return "failed", f"verdict {doc.get('verdict')!r}"
    replayed = [c for c in doc.get("checks", []) if not _NO_CLAIM.search(c["name"])]
    if not replayed:
        return "failed", "verify says ok but replayed nothing"
    return OK


# solve-* answers as documented in corpusgen.counterexample_problems:
# the mixed equation is solvable in B_K but its coefficient valuations
# are unbounded, and the two root-regime equations need a q-th root the
# ramified base lacks.
_SOLVE = {
    "solve-mixed-bk": ("solution", None),
    "solve-mixed-bbar": ("no_solution", "UnboundedCoefficientValuations"),
    "solve-root-bok": ("no_solution", "QthRootMissing"),
    "solve-affine-bk": ("no_solution", "QthRootMissing"),
}
_FINITE = re.compile(r"dm-q\d+-r(\d+)-(unit|rand)$")
_VALUED = re.compile(r"dm-q\d+-r\d+-val2?$")
_TAGGED = re.compile(r"dm-val-([a-z]+)-\d+$")


def check_corpus_item(item):
    """One entry of a `taumod corpus` report against its family's answer."""
    name = item.get("name", "").removesuffix(".json")
    verdict, result = item.get("verdict"), item.get("result") or {}
    if item.get("command") == "error":
        err = item.get("error", {})
        return "failed", f"{verdict}: {err.get('type')} {err.get('detail', '')}".strip()
    if verdict == "inconclusive":
        return "failed", "inconclusive"
    if m := _FINITE.match(name):
        r = int(m.group(1))
        want = ("ok", [[-1, r]] * r)
        got = (verdict, result.get("slopes"))
    elif _VALUED.match(name):
        want = ("ok", "Good")
        got = (verdict, _dig(result, ["reduction", "verdict"]))
    elif m := _TAGGED.match(name):
        want = ("ok", m.group(1))
        red = _dig(result, ["reduction", "verdict"])
        got = (verdict, red.lower() if isinstance(red, str) else red)
    elif name.startswith("iso-s0-"):
        r = result.get("rank")
        want = ("pure", [[0, 1]] * r if isinstance(r, int) else None, 0)
        got = (verdict, result.get("slopes"), _dig(result, ["certificate", "s"]))
    elif name in _SOLVE:
        want = _SOLVE[name]
        got = (verdict, _dig(result, ["outcome", "reason"]))
    else:
        return "failed", "no known answer for this item"
    if got != want:
        return "wrong", f"got {got!r}, expected {want!r}"
    return OK


def check_corpus(name, code, doc):
    """Per-item statuses of a corpus report, as (name, status, reason)."""
    bad = _outcome(code, doc)
    if bad is not None:
        return [(name, *bad)]
    return [(it.get("name", "?").removesuffix(".json"), *check_corpus_item(it))
            for it in _dig(doc, ["result", "items"]) or []]
