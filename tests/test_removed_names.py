"""Names the package no longer ships; README's "Removed names" says what to use instead."""

import importlib

import pytest

from posext import FiniteGroup, cyclic_group

REMOVED = [
    ("posext", "chordless_cycles"),
    ("posext", "n_transform"),
    ("posext", "invariantize"),
    ("posext", "rank_one_factors"),
    ("posext", "word_chordality_oracle"),
    ("posext.pattern", "chordless_cycles"),
    ("posext.pattern", "_CYCLE_ORACLE_CAP"),
    ("posext.groupext", "n_transform"),
    ("posext.groupext", "invariantize"),
    ("posext.groupext", "_right_cosets"),
    ("posext.groupext", "word_chordality_oracle"),
    ("posext.groupext", "_WORD_ORACLE_CAP"),
    ("posext.groupext", "_hermitian"),
    ("posext.linalg", "rank_one_factors"),
    ("posext.serialize", "partial_to_json"),
    ("posext.serialize", "group_to_json"),
    ("posext.serialize", "subset_to_json"),
]


@pytest.mark.parametrize("module, name", REMOVED, ids=lambda x: x)
def test_removed_name_cannot_be_imported(module, name):
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", ["table", "mul", "quotient"])
def test_a_group_has_no_table_view_or_product_method(name):
    assert not hasattr(FiniteGroup, name) and not hasattr(cyclic_group(3), name)
