"""PASS/FAIL lines of the acceptance criteria, printed in the terminal summary.

A module of its own, so that every importer gets the same list whichever
``conftest.py`` pytest happened to load last.
"""

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def record_acceptance(name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS.append((name, "PASS" if passed else "FAIL"))
