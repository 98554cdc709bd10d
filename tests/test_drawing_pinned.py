"""Drawings pinned by the SHA-256 of their SVG (see drawing_cases.py)."""

import json

from drawing_cases import FIXTURE, dumps, outcomes


def test_pinned_drawings_unchanged(catalog):
    expected = FIXTURE.read_text(encoding="utf-8")
    cases = json.loads(expected)
    got = outcomes(catalog)
    changed = [case["case"] for case, new in zip(cases, got) if case != new]
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]!r}"
    assert dumps(got) == expected
