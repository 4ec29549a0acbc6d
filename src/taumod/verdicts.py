"""The verdict of each report kind: the one-word outcome its result
implies. The command that writes a report (`cli._report`) and
`verify.verify_report` both take it from here. It is kept apart from
the replays of `verify`, so that a request that writes a report does
not run them.
"""

from operator import itemgetter


def _analyze_verdict(result):
    cert = result["infinity_purity"]
    return "inconclusive" if cert["kind"] == "inconclusive" else "ok"


def _purity_verdict(result):
    return {"purity_certificate": "pure",
            "not_pure_at": "not_pure"}.get(result["certificate"]["kind"],
                                           "inconclusive")


def _tate_verdict(result):
    if "tate" in result:
        return "ok"
    return "inconclusive" if "certificate" in result else "budget_exhausted"


def _weil_verdict(result):
    if "weil" not in result:
        return "budget_exhausted"
    return "admissible" if result["weil"]["admissible"] else "not_admissible"


VERDICTS = {
    "analyze": _analyze_verdict,
    "isocrystal purity": _purity_verdict,
    "tate": _tate_verdict,
    "isocrystal tate": _tate_verdict,
    "weil": _weil_verdict,
    "solve": itemgetter("verdict"),
}


def verdict_of(command, result):
    """The verdict `result` implies; "ok" for kinds without a replay."""
    verdict = VERDICTS.get(command)
    return verdict(result) if verdict else "ok"
