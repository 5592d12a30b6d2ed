"""The one rule behind every check: a target's two sides share no code.

Each side of each target runs once, on one small grid point, under
``sys.setprofile``, which records every Python function it calls at any
depth.  A closed side may call nothing in the enumeration modules.  An
enumeration side may call nothing in ``qseries`` but the functions allowed
below, each with its reason.  A target's run-wide table is built on its left
side's account, since every left side reads its table, and prop-3.10's
further check, which lists words and paths, is audited as an enumeration.
"""

import re
import sys
from pathlib import Path

import pytest

import rankblocks.verify as verify_mod
from rankblocks.partitions import build_census, count_exact
from rankblocks.qseries import series_exact
from rankblocks.verify import CLOSED, ENUMERATION, SPECS, Spec, grid_points

ENUMERATION_MODULES = {"rankblocks.partitions", "rankblocks.lattice_paths", "rankblocks.posets",
                       "rankblocks.bijections"}

# (target, or None for every target; a qseries function) -> why an enumeration
# side may call it.
ALLOWED = {
    (None, "check_sign"):
        "the census counts validate their sign with the closed forms' own check, "
        "which compares a string and computes nothing",
    ("cor-2.5", "_times_one_minus"):
        "the path polynomial is multiplied by (1 - q^s) to clear the closed form's "
        "denominator; the product is injective, so the check still sets the path "
        "counts against the bracket, and test_list_passes_are_the_oracle_products "
        "checks the pass against the list oracle",
    ("prop-3.9", "_over_one_minus"):
        "the right side is Stanley's formula, the maj counts of the listed linear "
        "extensions divided by (q;q)_2d; the division is the formula's closed part, "
        "and test_poset_division_is_the_oracle_quotient checks it against the oracle",
    ("remarks", "partition_number_or_zero"):
        "relation (1) sets a census difference against a difference of shifted "
        "partition numbers, one closed row among the right side's census rows",
}

# Small bounds, each applied to the targets that honour it.
SMALL = {"precision": 12, "max_d": 3, "max_m": 3, "max_s": 3}


def _point(name):
    spec = SPECS[name]
    return grid_points(name, {k: v for k, v in SMALL.items() if k in spec.bounds})[-1]


def _allowed(name, kind, call):
    module, function = call.rsplit(".", 1)
    return (kind == ENUMERATION and module == "rankblocks.qseries"
            and ((None, function) in ALLOWED or (name, function) in ALLOWED))


def _calls(run, opaque):
    """Every ``module.function`` that ``run()`` calls, at any depth, except
    what an ``opaque`` call calls in turn."""
    seen, inside = set(), []

    def profile(frame, event, arg):
        if event == "call" and not inside:
            call = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
            seen.add(call)
            if opaque(call):
                inside.append(frame)
        elif event == "return" and inside and frame is inside[-1]:
            inside.pop()

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _audit(name):
    """``(part, kind, calls)`` for each audited part of the target's check;
    an allowed call is listed, but not what it calls."""
    spec, point = SPECS[name], _point(name)
    left, right = spec.sides
    table = None

    def left_with_its_table():
        nonlocal table
        if spec.table:
            build, ask = spec.table
            table = build([ask(point)])
        left.rows(table, **point)

    parts = [("left", left.kind, left_with_its_table),
             ("right", right.kind, lambda: right.rows(table, **point))]
    if spec.also is not Spec._field_defaults["also"]:
        parts.append(("also", ENUMERATION, lambda: spec.also(table, **point)))
    return [(part, kind, _calls(run, lambda call, kind=kind: _allowed(name, kind, call)))
            for part, kind, run in parts]


def _crossings(name):
    """The calls of each part that break the rule, as ``(part, module.function)``."""
    return [(part, call) for part, kind, calls in _audit(name) for call in sorted(calls)
            if not _allowed(name, kind, call)
            and call.rsplit(".", 1)[0] in (ENUMERATION_MODULES if kind == CLOSED
                                           else {"rankblocks.qseries"})]


def test_every_side_has_one_of_the_two_kinds_and_both_are_used():
    kinds = [side.kind for spec in SPECS.values() for side in spec.sides]
    assert set(kinds) == {ENUMERATION, CLOSED}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_two_sides_share_no_code(name):
    assert _crossings(name) == []


def test_every_allowance_is_used():
    # An allowance no side needs any longer would hide the next crossing.
    used = set()
    for name in SPECS:
        for part, kind, calls in _audit(name):
            if kind == ENUMERATION:
                used |= {(target, function) for target, function in ALLOWED
                         if target in (None, name) and f"rankblocks.qseries.{function}" in calls}
    assert used == set(ALLOWED)


def test_an_enumeration_side_calling_a_closed_form_is_caught(monkeypatch):
    count = verify_mod.count_exact

    def leaky(census, n, d, m, sign):
        series_exact(d, m, sign, n)
        return count(census, n, d, m, sign)

    monkeypatch.setattr(verify_mod, "count_exact", leaky)
    assert ("left", "rankblocks.qseries.series_exact") in _crossings("thm-main")


def test_a_closed_side_calling_the_census_is_caught(monkeypatch):
    closed = verify_mod.series_exact

    def leaky(d, m, sign, precision):
        count_exact(build_census({d: precision}), precision, d, m, sign)
        return closed(d, m, sign, precision)

    monkeypatch.setattr(verify_mod, "series_exact", leaky)
    assert ("right", "rankblocks.partitions.count_exact") in _crossings("thm-main")


def test_the_readme_table_of_sides_is_the_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.-]+)` \| (\w+): (.+?) \| (\w+): (.+?) \|", readme, re.M)
    assert [(name, *rest) for name, *rest in rows] == [
        (name, left.kind, left.path, right.kind, right.path)
        for name, spec in SPECS.items() for left, right in [spec.sides]]
