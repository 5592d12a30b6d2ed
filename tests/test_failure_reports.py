"""One seeded fault per verify target, and the whole failure report it gives.

Each case replaces names that ``rankblocks.verify`` calls with copies that are
off by one at one place, runs one check, and compares the report as the CLI
prints it, ``elapsed`` masked: the status, the first discrepancy with its
labels, the witnesses and any ``witness_search`` note.  The reports were
recorded before the checks became declared sides compared by ``run_check``,
so they pin that the rewrite changed no failure report.
"""

import json

import pytest

import rankblocks.verify as verify_mod
from rankblocks.lattice_paths import maj_path, marked_path_coeffs
from rankblocks.partitions import count_all_columns, count_exact, count_prefix_pattern
from rankblocks.posets import (
    build_s_beta,
    enumerate_poset_partitions,
    linear_extensions,
    word_to_dyck,
)
from rankblocks.qseries import (
    MINUS,
    QSeries,
    _times_kernel,
    block_count_formula,
    partition_number,
    qbinomial,
    qbinomial_column_sum_sides,
    series_by_columns,
)


def _bumped(coeffs, index):
    coeffs = list(coeffs)
    coeffs[index] += 1
    return coeffs


def _second_word_onto_first(beta):
    words = linear_extensions(build_s_beta(beta))
    return lambda w: word_to_dyck(words[0] if w.word == words[1].word else w)


def _symbols(*rows):
    return [{"top": list(top), "bottom": list(bottom)} for top, bottom in rows]


def _assignments(beta, weight, *rows):
    return [{"beta": list(beta), "rows": [list(r) for r in assignment], "weight": weight}
            for assignment in rows]


# case -> (target, point, {verify name: replacement}, (first discrepancy, witnesses))
CASES = {
    "thm-main": (
        "thm-main", {"d": 2, "m": 1, "sign": "plus", "precision": 14},
        {"count_exact": lambda census, n, d, m, sign: (
            count_exact(census, n, d, m, sign) + (n == 12))},
        ({"exponent": 12, "expected": 15, "actual": 14},
         _symbols(((8, 1), (1, 0)), ((7, 2), (1, 0)), ((7, 1), (2, 0)), ((6, 3), (1, 0)),
                  ((6, 2), (2, 0))))),
    "thm-1.2": (
        "thm-1.2", {"m": 1, "sign": "minus", "precision": 12},
        {"block_count_formula": lambda n, m, sign: block_count_formula(n, m, sign) + (n == 9)},
        ({"exponent": 9, "expected": 15, "actual": 16, "side": "formula"},
         _symbols(((4,), (4,)), ((3,), (5,)), ((2,), (6,)), ((1,), (7,)), ((0,), (8,))))),
    "thm-1.4": (
        "thm-1.4", {"d": 2, "sign": "plus", "precision": 12},
        {"series_by_columns": lambda d, sign, precision: QSeries(
            _bumped(series_by_columns(d, sign, precision).coeffs, 10)),
         "WITNESS_SCAN_BUDGET": 6},
        ({"exponent": 10, "expected": 10, "actual": 11,
          "witness_search": "stopped after 6 listed objects"},
         _symbols(((6, 1), (1, 0)), ((5, 2), (1, 0)), ((5, 1), (2, 0))))),
    "cor-1.3": (
        "cor-1.3", {"m": 2, "precision": 10},
        {"_times_kernel": lambda coeffs, m, sign: (
            _bumped(_times_kernel(coeffs, m, sign), 5) if sign == MINUS
            else _times_kernel(coeffs, m, sign))},
        ({"exponent": 5, "expected": 0, "actual": -1, "variant": "minus"}, [])),
    "cor-1.5": (
        "cor-1.5", {"d": 2},
        {"qbinomial_column_sum_sides": lambda d: (
            qbinomial_column_sum_sides(d)[0],
            QSeries(_bumped(qbinomial_column_sum_sides(d)[1].coeffs, 3)))},
        ({"exponent": 3, "expected": 0, "actual": 1}, [])),
    "lemma-2.2": (
        "lemma-2.2", {"s": 4, "t": 2, "r": 1},
        {"marked_path_coeffs": lambda table, s, t, r, exact=False: _bumped(
            marked_path_coeffs(table, s, t, r, exact), 2)},
        ({"exponent": 2, "expected": 2, "actual": 1}, ["uudd|uu"])),
    "lemma-2.4": (
        "lemma-2.4", {"s": 3, "r": 1},
        {"qbinomial": lambda n, k, precision=None: QSeries(
            _bumped(qbinomial(n, k, precision).coeffs, 1))},
        ({"exponent": 2, "expected": 1, "actual": 2}, ["uudd|ud"])),
    "cor-2.5": (
        "cor-2.5", {"s": 3, "r": 1},
        {"marked_path_coeffs": lambda table, s, t, r, exact=False: _bumped(
            marked_path_coeffs(table, s, t, r, exact), 1)},
        ({"exponent": 1, "expected": 2, "actual": 1}, ["ud|uudd"])),
    "prop-3.9": (
        "prop-3.9", {"beta": (1, 1), "precision": 8},
        {"enumerate_poset_partitions": lambda structure, max_weight: _bumped(
            enumerate_poset_partitions(structure, max_weight), 4)},
        ({"exponent": 4, "expected": 6, "actual": 5},
         _assignments((1, 1), 4, ((1,), (1, 1), (1,)), ((2,), (1, 1), (0,)),
                      ((2,), (2, 0), (0,)), ((3,), (1, 0), (0,)), ((4,), (0, 0), (0,))))),
    "prop-3.10": (
        "prop-3.10", {"beta": (2, 1)},
        {"maj_path": lambda p: maj_path(p) + 1},
        ({"exponent": 0, "expected": 1, "actual": 0}, ["1 2 3 4 5 6"])),
    "prop-3.10-bijection": (
        "prop-3.10", {"beta": (2, 2)},
        {"word_to_dyck": _second_word_onto_first((2, 2))},
        ({"exponent": None, "expected": 4, "actual": 3,
          "detail": "word-to-path images do not match the path family"}, ["udud|uudd"])),
    "thm-5.1": (
        "thm-5.1", {"m": 1, "precision": 10},
        {"count_prefix_pattern": lambda census, n, pattern: (
            count_prefix_pattern(census, n, pattern) + (n == 8 and pattern == "P"))},
        ({"exponent": 8, "expected": 12, "actual": 11, "last_letter": "P"},
         _symbols(((7,), (0,)), ((6,), (1,)), ((5,), (2,)), ((4,), (3,)), ((5, 0), (1, 0))))),
    "remarks": (
        "remarks", {"precision": 8, "max_m": 2, "max_d": 2},
        {"count_all_columns": lambda census, n, d: count_all_columns(census, n, d) + (n == 3)},
        ({"exponent": 4, "expected": 0, "actual": 1, "item": 3, "d": 1}, [])),
    "partition-unity": (
        "partition-unity", {"precision": 8},
        {"partition_number": lambda n: partition_number(n) + (n == 6)},
        ({"exponent": 6, "expected": 11, "actual": 12}, [])),
}


def test_every_target_has_a_seeded_fault():
    assert {target for target, *_ in CASES.values()} == set(verify_mod.SPECS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_seeded_fault_gives_the_pinned_report(monkeypatch, case):
    target, point, replacements, (discrepancy, witnesses) = CASES[case]
    for name, replacement in replacements.items():
        monkeypatch.setattr(verify_mod, name, replacement)
    report = verify_mod.run_check(target, **point).to_json_dict()
    del report["elapsed"]
    assert json.loads(json.dumps(report)) == {
        "target": target, "parameters": json.loads(json.dumps(point)), "status": "fail",
        "first_discrepancy": discrepancy, "witnesses": witnesses}
    assert list(report["first_discrepancy"]) == list(discrepancy)  # as printed
