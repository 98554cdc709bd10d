"""Parser outcomes pinned byte for byte (see parse_cases.py)."""

import json

from parse_cases import (
    FIXTURE,
    YAML_FIXTURE,
    YAML_MODELS_FIXTURE,
    dumps,
    outcome,
    yaml_model_outcome,
    yaml_outcome,
)


def _changed(cases: list[dict], got: list[dict]) -> list[str]:
    return [case["text"] for case, new in zip(cases, got) if json.dumps(case) != json.dumps(new)]


def test_pinned_parse_outcomes_unchanged(catalog):
    expected = FIXTURE.read_text(encoding="utf-8")
    cases = json.loads(expected)
    got = [outcome(case["text"], catalog) for case in cases]
    changed = _changed(cases, got)
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]!r}"
    assert dumps(got) == expected


def test_pinned_yaml_parse_outcomes_unchanged():
    expected = YAML_FIXTURE.read_text(encoding="utf-8")
    cases = json.loads(expected)
    got = [yaml_outcome(case["text"]) for case in cases]
    changed = _changed(cases, got)
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]!r}"
    assert dumps(got) == expected


def test_pinned_parse_yaml_outcomes_unchanged(catalog):
    expected = YAML_MODELS_FIXTURE.read_text(encoding="utf-8")
    cases = json.loads(expected)
    got = [yaml_model_outcome(case["text"], catalog) for case in cases]
    changed = _changed(cases, got)
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]!r}"
    assert dumps(got) == expected
