"""Fixtures shared by the test modules."""

import pytest

import rankblocks.partitions as partitions_mod
import rankblocks.verify as verify_mod


@pytest.fixture
def census_builds(monkeypatch):
    """A list that receives ("build", d, bound) for every census table built
    while the test runs."""
    events = []
    build = partitions_mod._census_table
    monkeypatch.setattr(partitions_mod, "_census_table",
                        lambda bound, d: events.append(("build", d, bound)) or build(bound, d))
    return events


@pytest.fixture
def product_builds(monkeypatch):
    """A list that receives ("build", precision) for every partition product
    that verify builds while the test runs."""
    events = []
    build = verify_mod.euler_inverse
    monkeypatch.setattr(verify_mod, "euler_inverse",
                        lambda precision: events.append(("build", precision)) or build(precision))
    return events


@pytest.fixture
def path_builds(monkeypatch):
    """A list that receives ("build", number of reads) for every marked-path
    table that verify builds while the test runs."""
    events = []
    build = verify_mod.marked_path_table
    monkeypatch.setattr(verify_mod, "marked_path_table",
                        lambda points: events.append(("build", len(points))) or build(points))
    return events
