"""Python-syntax parser outcomes pinned byte for byte (see parse_cases.py)."""

import json

from parse_cases import FIXTURE, dumps, outcome


def test_pinned_parse_outcomes_unchanged(catalog):
    expected = FIXTURE.read_text(encoding="utf-8")
    cases = json.loads(expected)
    got = [outcome(case["text"], case["strict"], catalog) for case in cases]
    mismatched = [
        (case["text"], case["strict"])
        for case, new in zip(cases, got)
        if json.dumps(case) != json.dumps(new)
    ]
    assert not mismatched, f"{len(mismatched)} cases changed, first: {mismatched[0]!r}"
    assert dumps(got) == expected

