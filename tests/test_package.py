"""The package's public surface: what ``ltlplan`` exports."""

from __future__ import annotations

import ltlplan
from ltlplan import Guard, parse_policy


def test_every_exported_name_resolves_once():
    assert len(ltlplan.__all__) == len(set(ltlplan.__all__))
    missing = [name for name in ltlplan.__all__ if not hasattr(ltlplan, name)]
    assert missing == []


def test_a_policy_is_a_guard():
    assert parse_policy("b&!square") == Guard(frozenset({"b"}), frozenset({"square"}))
