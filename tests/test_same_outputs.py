"""Each output family of tests/same_outputs.py against its committed hash."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import same_outputs

HASHES = json.loads(
    (Path(__file__).parent / "golden" / "same_outputs.json").read_text(encoding="utf-8")
)


def test_every_family_has_a_committed_hash():
    assert sorted(same_outputs.FAMILIES) == sorted(HASHES)


@pytest.mark.parametrize("family", sorted(same_outputs.FAMILIES))
def test_family_output_unchanged(family):
    assert same_outputs.digest(family) == HASHES[family]
