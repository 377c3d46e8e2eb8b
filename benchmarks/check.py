"""Checks one operation's output against the oracle's answer.

An operation fails if it raised, exited non-zero, or disagrees with the
oracle on the root count (both the ray count and the 2-D system check's
cluster count), on any root s, or on any boundary gradient c; a verify
operation must also end with the verdict "pass".
"""

ROOT_RTOL = 1e-8


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ROOT_RTOL * abs(b)


def check(command: str, expect: dict, outcome: dict):
    """None if the operation succeeded, else the reason it failed."""
    if "error" in outcome:
        return f"exit {outcome['rc']}: {outcome['error']}"
    if outcome["rc"] != 0:
        return f"exit {outcome['rc']}"
    got = outcome["summary"]
    if command == "verify" and got["verdict"] != "pass":
        return f"verdict {got['verdict']!r}"
    if got["count"] != expect["count"] or len(got["s"]) != expect["count"]:
        return f"count {got['count']} != {expect['count']}"
    if got["clusters"] != expect["count"]:
        return f"system check clusters {got['clusters']} != {expect['count']}"
    for i, (s, s_ref) in enumerate(zip(got["s"], expect["roots"])):
        if not _close(s, s_ref):
            return f"root {i}: s = {s!r}, oracle {s_ref!r}"
    for i, (c, c_ref) in enumerate(zip(got["c"], expect["c"])):
        if not _close(c, c_ref):
            return f"root {i}: c = {c!r}, oracle {c_ref!r}"
    return None


def wrong_answer(outcome: dict, reason) -> bool:
    """A failure that exited 0: the program reported a wrong answer."""
    return reason is not None and "error" not in outcome and outcome["rc"] == 0
