"""Registry of machine-resolved formula variants."""

from __future__ import annotations

from dataclasses import fields

from qhermite2.discrepancies import REGISTRY, DiscrepancyEntry, as_dicts


def test_identifiers_unique_and_complete():
    ids = [e.identifier for e in REGISTRY]
    assert len(ids) == len(set(ids)) == 16


def test_every_entry_fully_populated():
    for e in REGISTRY:
        for field in (e.identifier, e.topic, e.rejected, e.resolved, e.evidence):
            assert isinstance(field, str) and field.strip()


def test_as_dicts_mirrors_registry():
    dicts = as_dicts()
    assert len(dicts) == len(REGISTRY)
    for d, e in zip(dicts, REGISTRY):
        assert d["identifier"] == e.identifier
        assert set(d) == {"identifier", "topic", "rejected", "resolved", "evidence"}


def test_as_dicts_keys_in_field_order():
    # JSON output writes the keys in this order.
    names = [f.name for f in fields(DiscrepancyEntry)]
    assert names == ["identifier", "topic", "rejected", "resolved", "evidence"]
    for d, e in zip(as_dicts(), REGISTRY):
        assert list(d) == names
        assert list(d.values()) == [getattr(e, name) for name in names]


def test_bracket_arithmetic_entry_matches_code():
    # The registry pins [4] = 120 (sum 154); the exact helpers must agree.
    from fractions import Fraction

    from qhermite2.exact import extremal_bracket_exact

    q = Fraction(1, 2)
    assert extremal_bracket_exact(4, q) == 120
    assert sum(extremal_bracket_exact(s, q) for s in (2, 3, 4)) == 154
