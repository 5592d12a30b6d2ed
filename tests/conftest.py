"""Fixtures shared by the test modules."""

import pytest

import rankblocks.partitions as partitions_mod


@pytest.fixture
def census_builds(monkeypatch):
    """A list that receives ("build", d, bound) for every census table built
    while the test runs."""
    events = []
    build = partitions_mod._census_table
    monkeypatch.setattr(partitions_mod, "_census_table",
                        lambda bound, d: events.append(("build", d, bound)) or build(bound, d))
    return events
