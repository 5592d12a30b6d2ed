"""The verification registry: paper-anchored points, the mutation guard,
determinism, and report structure."""

import json
import re
import time
from itertools import islice
from math import isqrt

import pytest

import rankblocks.verify as verify_mod
from list_oracle import add, inverse, monomial, mul, pochhammer
from rankblocks.lattice_paths import (
    enumerate_marked_paths,
    maj_path,
    marked_path_coeffs,
    marked_path_table,
    vmr,
)
from rankblocks.partitions import (
    FrobeniusSymbol,
    count_exact,
    iter_frobenius_symbols,
    iter_symbols_in_class,
    parity_blocks,
)
from rankblocks.posets import (
    build_s_beta,
    compositions,
    linear_extensions,
    maj_word,
    word_to_dyck,
)
from rankblocks.qseries import (
    MINUS,
    PLUS,
    QSeries,
    _times_kernel,
    euler_inverse,
    partition_number_or_zero,
    qbinomial,
    series_by_blocks,
    series_by_columns,
    series_exact,
    series_exact_sums,
)
from rankblocks.verify import (
    SPECS,
    grid_points,
    run_check,
    run_reports,
    target_names,
)


def test_exact_series_anchor_point():
    report = run_check("thm-main", d=3, m=2, sign=PLUS, precision=20)
    assert report.passed
    assert report.parameters == {"d": 3, "m": 2, "sign": "plus", "precision": 20}


def test_exact_series_minus_base():
    report = run_check("thm-main", d=1, m=1, sign=MINUS, precision=20)
    assert report.passed


def test_exact_series_rejects_parameters():
    with pytest.raises(ValueError):
        run_check("thm-main", d=2, m=3, sign=PLUS, precision=10)


def test_block_series_both_signs():
    assert run_check("thm-1.2", m=1, sign=PLUS, precision=30).passed
    assert run_check("thm-1.2", m=1, sign=MINUS, precision=30).passed
    assert run_check("thm-1.2", m=2, sign=PLUS, precision=30).passed


def test_column_series():
    assert run_check("thm-1.4", d=1, sign=MINUS, precision=20).passed
    assert run_check("thm-1.4", d=3, sign=PLUS, precision=30).passed


def test_euler_expansion_and_cutoff_safety():
    assert run_check("cor-1.3", m=1, precision=40).passed
    assert run_check("cor-1.3", m=4, precision=40).passed
    # enlarging the column cutoff by one must not change anything up to N
    precision = 40
    m = 2
    cutoff = 6  # isqrt(40)

    def negated(d):
        return [-c for c in series_exact(d, m, PLUS, precision).coeffs]

    base = add(monomial(0, precision), *map(negated, range(m, cutoff + 1)))
    assert add(base, negated(cutoff + 1)) == base
    lhs = mul(euler_inverse(precision).coeffs, _times_kernel([1] + [0] * precision, m, PLUS))
    assert lhs == base


def test_qbinomial_column_sum_reports():
    for d in (1, 2, 10):
        assert run_check("cor-1.5", d=d).passed


def test_ballot_gf_points():
    assert run_check("lemma-2.2", s=3, t=2, r=1).passed
    assert run_check("lemma-2.2", s=1, t=0, r=0).passed
    assert run_check("lemma-2.2", s=1, t=0, r=3).passed  # empty family vs zero bracket
    with pytest.raises(ValueError):
        run_check("lemma-2.2", s=2, t=2, r=0)


def test_dyck_gf_points():
    assert run_check("lemma-2.4", s=1, r=0).passed
    assert run_check("lemma-2.4", s=4, r=2).passed


def test_exact_mark_gf_points():
    assert run_check("cor-2.5", s=3, r=1).passed
    assert run_check("cor-2.5", s=2, r=2).passed  # empty family


def test_poset_partition_gf_points():
    assert run_check("prop-3.9", beta=(1,), precision=10).passed
    assert run_check("prop-3.9", beta=(2, 1), precision=15).passed


def test_word_path_gf_includes_paper_pair():
    report = run_check("prop-3.10", beta=(2, 3, 1, 2))
    assert report.passed
    # both sides hold the worked example at exponent 8
    words = linear_extensions(build_s_beta((2, 3, 1, 2)))
    assert any(maj_word(w) == 8 for w in words)


def test_prefix_counts():
    for m in (1, 2, 3):
        assert run_check("thm-5.1", m=m, precision=30).passed


def test_count_relations_and_unity():
    assert run_check("remarks", precision=20, max_m=3, max_d=3).passed
    assert run_check("partition-unity", precision=20).passed


# ----------------------------------------------------------------------
# mutation guard: a perturbed closed form must be caught, located
# ----------------------------------------------------------------------


def test_mutation_guard_leading_exponent(monkeypatch):
    def perturbed(d, m, sign, precision):
        base = series_exact(d, m, sign, precision)
        return QSeries((0,) + base.coeffs[:-1])  # multiply by q: shifts d^2+d by one

    monkeypatch.setattr(verify_mod, "series_exact", perturbed)
    report = verify_mod.run_check("thm-main", d=3, m=2, sign=PLUS, precision=20)
    assert not report.passed
    assert report.first_discrepancy is not None
    assert report.first_discrepancy["exponent"] <= 20
    assert report.witnesses  # enumeration-side objects at the discrepant weight


def test_mutation_guard_column_sum_leading_exponent(monkeypatch):
    def perturbed(m, precision):
        return {sign: QSeries((0,) + base.coeffs[:-1])  # multiply by q
                for sign, base in series_exact_sums(m, precision).items()}

    monkeypatch.setattr(verify_mod, "series_exact_sums", perturbed)
    report = verify_mod.run_check("cor-1.3", m=2, precision=40)
    assert not report.passed
    # The plus variant runs first; its leading term, d = m = 2, sits at
    # q^(d^2 + m(m-1)/2 + d) = q^7 with coefficient 1, and m even subtracts it.
    assert report.first_discrepancy == {"exponent": 7, "expected": -1, "actual": 0,
                                        "variant": PLUS}


def test_mutation_guard_shared_partition_product(monkeypatch):
    # One wrong coefficient of the product every cor-1.3 check reads: the
    # kernel's constant term is 1, so each check fails at that exponent,
    # in the plus variant, which runs first.
    def perturbed(precision):
        coeffs = list(euler_inverse(precision).coeffs)
        coeffs[23] += 1
        return QSeries(coeffs)

    monkeypatch.setattr(verify_mod, "euler_inverse", perturbed)
    reports = run_reports(["cor-1.3"], {"precision": 60})
    assert len(reports) == 5
    for report in reports:
        disc = report.first_discrepancy
        assert (disc["exponent"], disc["variant"]) == (23, PLUS), report
        assert disc["expected"] - disc["actual"] == 1


def test_mutation_guard_enumeration_side(monkeypatch):
    def overcount(census, n, d, m, sign):
        from rankblocks.partitions import count_exact
        return count_exact(census, n, d, m, sign) + (1 if n == 17 else 0)

    monkeypatch.setattr(verify_mod, "count_exact", overcount)
    report = verify_mod.run_check("thm-main", d=3, m=2, sign=PLUS, precision=20)
    assert not report.passed
    assert report.first_discrepancy["exponent"] == 17


def test_mutation_guard_path_dp(monkeypatch):
    # one coefficient off in every read of the step DP's table: caught at that
    # exponent, with the listed paths of that vmr as witnesses
    def perturbed(table, s, t, r, exact=False):
        coeffs = marked_path_coeffs(table, s, t, r, exact)
        coeffs[4] += 1
        return coeffs

    monkeypatch.setattr(verify_mod, "marked_path_coeffs", perturbed)
    report = verify_mod.run_check("lemma-2.2", s=5, t=3, r=1)
    assert not report.passed
    assert report.first_discrepancy["exponent"] == 4
    assert report.first_discrepancy["expected"] == report.first_discrepancy["actual"] + 1
    assert "witness_search" not in report.first_discrepancy  # every path was listed
    assert report.witnesses
    assert set(report.witnesses) <= {p.bar_string() for p in enumerate_marked_paths(5, 3, 1)
                                     if vmr(p) == 4}
    for report in (verify_mod.run_check("lemma-2.4", s=4, r=1), verify_mod.run_check("cor-2.5", s=4, r=1)):
        assert not report.passed and report.witnesses


def test_mutation_guard_shared_path_table(monkeypatch):
    # One field of the table every path check reads off by one: shape (8, 0),
    # the Dyck paths of s = 4, with exactly 2 marks, at q^9.  Exactly the
    # checks whose read sums that field fail, each at that exponent:
    # lemma-2.4 with at least r <= 2 marks and cor-2.5 with exactly 2.
    def perturbed(points):
        table = marked_path_table(points)
        table[8, 0][2] += 1 << table.width * 9
        return table

    monkeypatch.setattr(verify_mod, "marked_path_table", perturbed)
    reports = run_reports(["lemma-2.2", "lemma-2.4", "cor-2.5"])
    failed = [r for r in reports if not r.passed]
    assert [(r.target, r.parameters) for r in failed] == [
        ("cor-2.5", {"s": 4, "r": 2}), ("lemma-2.4", {"s": 4, "r": 0}),
        ("lemma-2.4", {"s": 4, "r": 1}), ("lemma-2.4", {"s": 4, "r": 2})]
    for report in failed:
        disc = report.first_discrepancy
        assert disc["exponent"] == 9 and disc["expected"] == disc["actual"] + 1, report


def test_path_witness_search_stops_at_its_budget(monkeypatch):
    # A fault at the top exponent of lemma-2.2's closed side at (14, 12, 1),
    # which one of its 7,726,160 marked paths reaches: the witness search
    # lists the budget's worth of paths, not all of them, and says so.
    listed = 0

    def bracket(n, k, precision=None):
        coeffs = list(qbinomial(n, k, precision).coeffs)
        coeffs[-1] += 1
        return QSeries(coeffs)

    def paths(s, t, r):
        nonlocal listed
        for path in enumerate_marked_paths(s, t, r):
            listed += 1
            yield path

    monkeypatch.setattr(verify_mod, "qbinomial", bracket)
    monkeypatch.setattr(verify_mod, "enumerate_marked_paths", paths)
    report = run_check("lemma-2.2", s=14, t=12, r=1)
    assert not report.passed
    budget = verify_mod.WITNESS_SCAN_BUDGET
    assert report.first_discrepancy == {
        "exponent": 1 + 15 * 11, "expected": 1, "actual": 2,
        "witness_search": f"stopped after {budget} listed objects"}
    assert len(report.witnesses) <= 1
    assert listed == budget


@pytest.mark.parametrize("d", range(1, 7))
def test_poset_division_is_the_oracle_quotient(monkeypatch, d):
    # prop-3.9's closed side, the maj counts divided by (q;q)_2d in 2d list
    # passes, equals the oracle's inverse of (q;q)_2d times the maj counts:
    # with the oracle standing in for the enumeration side, every check of
    # every composition of d passes at precision 40.
    precision = 40
    poch = pochhammer(2 * d, precision)

    def oracle_side(structure, max_weight):
        maj_counts = [0] * (max_weight + 1)
        for w in linear_extensions(structure):
            if maj_word(w) <= max_weight:
                maj_counts[maj_word(w)] += 1
        return mul(inverse(poch), maj_counts)

    monkeypatch.setattr(verify_mod, "enumerate_poset_partitions", oracle_side)
    for beta in compositions(d):
        assert run_check("prop-3.9", beta=beta, precision=precision).passed, beta


def test_mutation_guard_poset_dp(monkeypatch):
    from rankblocks.posets import enumerate_poset_partitions

    def perturbed(structure, max_weight):
        hist = enumerate_poset_partitions(structure, max_weight)
        hist[7] -= 1
        return hist

    monkeypatch.setattr(verify_mod, "enumerate_poset_partitions", perturbed)
    report = verify_mod.run_check("prop-3.9", beta=(2, 1), precision=15)
    assert not report.passed
    assert report.first_discrepancy["exponent"] == 7
    assert report.witnesses
    assert all(w["weight"] == 7 for w in report.witnesses)


def _bump(series, exponent):
    coeffs = list(series.coeffs)
    coeffs[exponent] += 1
    return QSeries(tuple(coeffs))


def _witness_symbols(report, size):
    # Every witness is the JSON of a Frobenius symbol of the discrepant size.
    assert report.witnesses and len(report.witnesses) <= 5
    symbols = [FrobeniusSymbol.from_json_dict(w) for w in report.witnesses]
    assert all(f.size == size for f in symbols)
    return symbols


def test_mutation_guard_block_series(monkeypatch):
    # thm-1.2: one closed-side coefficient off is located, and the witnesses
    # are symbols of that size with m blocks and the requested last sign
    monkeypatch.setattr(verify_mod, "series_by_blocks",
                        lambda m, sign, precision: _bump(series_by_blocks(m, sign, precision), 20))
    report = verify_mod.run_check("thm-1.2", m=2, sign=PLUS, precision=30)
    assert not report.passed
    assert report.first_discrepancy["exponent"] == 20
    assert report.first_discrepancy["side"] == "series"
    for f in _witness_symbols(report, 20):
        blocks = parity_blocks(f)
        assert (blocks.m, blocks.last_sign) == (2, "P")


def test_mutation_guard_column_series(monkeypatch):
    # thm-1.4: the witnesses have d columns and the requested last sign
    monkeypatch.setattr(verify_mod, "series_by_columns",
                        lambda d, sign, precision: _bump(series_by_columns(d, sign, precision), 18))
    report = verify_mod.run_check("thm-1.4", d=2, sign=MINUS, precision=30)
    assert not report.passed
    assert report.first_discrepancy["exponent"] == 18
    for f in _witness_symbols(report, 18):
        assert f.d == 2 and parity_blocks(f).last_sign == "N"


def test_mutation_guard_prefix_counts(monkeypatch):
    # thm-5.1 at m = 2: p(10) off by one moves the N-case count at n = 10 + 5,
    # and every witness's sign word starts with PN or NPN
    monkeypatch.setattr(verify_mod, "partition_number_or_zero",
                        lambda k: partition_number_or_zero(k) + (k == 10))
    report = verify_mod.run_check("thm-5.1", m=2, precision=30)
    assert not report.passed
    assert report.first_discrepancy["exponent"] == 15
    assert report.first_discrepancy["last_letter"] == "N"
    for f in _witness_symbols(report, 15):
        assert parity_blocks(f).sign_word.startswith(("PN", "NPN"))


# ----------------------------------------------------------------------
# the shared witness search
# ----------------------------------------------------------------------


def test_census_fault_at_depth_reports_within_the_budget(monkeypatch):
    # +1 seeded into thm-main's count at (150, 6, 1, minus).  The class's
    # first member lies after billions of 6-column symbols of size 150, so
    # the search lists the budget's worth of symbols, and says so, instead
    # of running on with no report.
    listed = 0

    def seeded(census, n, d, m, sign):
        return count_exact(census, n, d, m, sign) + ((n, d, m, sign) == (150, 6, 1, MINUS))

    def symbols(n, d):
        nonlocal listed
        for f in iter_frobenius_symbols(n, d):
            listed += 1
            yield f

    monkeypatch.setattr(verify_mod, "count_exact", seeded)
    monkeypatch.setattr(verify_mod, "iter_frobenius_symbols", symbols)
    started = time.perf_counter()
    report = run_check("thm-main", d=6, m=1, sign=MINUS, precision=150)
    assert time.perf_counter() - started < 10
    budget = verify_mod.WITNESS_SCAN_BUDGET
    assert report.first_discrepancy["exponent"] == 150
    assert report.first_discrepancy["witness_search"] == f"stopped after {budget} listed objects"
    assert listed == budget


def _first_five(symbols):
    return [f.to_json_dict() for f in islice(symbols, 5)]


def _in_class(n, d, m, sign):
    return (f for f, _ in iter_symbols_in_class(n, d, m, sign))


# Each census check with +1 seeded into its count at n = 30, and the
# expression that chose its witnesses before the search moved into run_check.
_CENSUS_FAULTS = {
    "thm-main": ("count_exact", {"d": 3, "m": 2, "sign": PLUS},
                 lambda n: _in_class(n, 3, 2, PLUS)),
    "thm-1.2": ("count_by_blocks", {"m": 2, "sign": MINUS},
                lambda n: (f for d in range(2, isqrt(n) + 1) for f in _in_class(n, d, 2, MINUS))),
    "thm-1.4": ("count_by_columns", {"d": 3, "sign": MINUS},
                lambda n: (f for f in iter_frobenius_symbols(n, 3)
                           if parity_blocks(f).last_sign == "N")),
    "thm-5.1": ("count_prefix_pattern", {"m": 2},
                lambda n: (f for d in range(2, isqrt(n) + 1) for f in iter_frobenius_symbols(n, d)
                           if parity_blocks(f).sign_word.startswith(("PN", "NPN")))),
}


@pytest.mark.parametrize("target", sorted(_CENSUS_FAULTS))
def test_census_witnesses_are_the_first_five_of_the_class(monkeypatch, target):
    count, point, reference = _CENSUS_FAULTS[target]
    real = getattr(verify_mod, count)
    monkeypatch.setattr(verify_mod, count,
                        lambda census, n, *args: real(census, n, *args) + (n == 30))
    report = run_check(target, precision=40, **point)
    assert report.first_discrepancy["exponent"] == 30
    assert "witness_search" not in report.first_discrepancy
    assert len(report.witnesses) == 5
    assert report.witnesses == _first_five(reference(30))


def test_poset_and_word_searches_stop_at_the_budget(monkeypatch):
    # The budget is the same for every check: with it at three objects, a
    # failing prop-3.9 and prop-3.10 check each stop there and say so.
    from rankblocks.posets import enumerate_poset_partitions

    def perturbed(structure, max_weight):
        hist = enumerate_poset_partitions(structure, max_weight)
        hist[7] -= 1
        return hist

    monkeypatch.setattr(verify_mod, "WITNESS_SCAN_BUDGET", 3)
    monkeypatch.setattr(verify_mod, "enumerate_poset_partitions", perturbed)
    monkeypatch.setattr(verify_mod, "maj_path", lambda p: maj_path(p) + 1)
    for report in (run_check("prop-3.9", beta=(2, 1), precision=15),
                   run_check("prop-3.10", beta=(2, 2, 2))):
        assert not report.passed
        assert report.first_discrepancy["witness_search"] == "stopped after 3 listed objects"
        assert len(report.witnesses) <= 3


@pytest.mark.parametrize("beta", [(4,), (3, 2), (2, 2, 2)])
def test_word_path_collision_names_the_missed_path(monkeypatch, beta):
    # The last extension mapped onto the first one's image: the path that the
    # last extension should reach is the one family path no word reaches, and
    # it is the only witness.
    words = linear_extensions(build_s_beta(beta))
    first, last = words[0].word, words[-1].word
    missed = word_to_dyck(words[-1]).bar_string()
    monkeypatch.setattr(verify_mod, "word_to_dyck",
                        lambda w: word_to_dyck(words[0] if w.word == last else w))
    report = run_check("prop-3.10", beta=beta)
    assert first != last
    assert report.first_discrepancy == {
        "exponent": None, "expected": len(words), "actual": len(words) - 1,
        "detail": "word-to-path images do not match the path family"}
    assert report.witnesses == [missed]


# ----------------------------------------------------------------------
# registry behaviour
# ----------------------------------------------------------------------


def _strip_elapsed(report_dict):
    data = dict(report_dict)
    data.pop("elapsed")
    return data


def test_run_reports_deterministic_and_ordered():
    bounds = {"precision": 20, "max_d": 2}  # m <= d, so max_m = 2 too
    first = run_reports(["thm-main", "thm-1.4"], bounds)
    second = run_reports(["thm-main", "thm-1.4"], bounds)
    a = [_strip_elapsed(r.to_json_dict()) for r in first]
    b = [_strip_elapsed(r.to_json_dict()) for r in second]
    assert a == b
    ordering = [(r.target, json.dumps(r.parameters, sort_keys=True)) for r in first]
    assert ordering == sorted(ordering)


def test_repeated_target_runs_once():
    assert target_names(["cor-1.5", "thm-1.4", "cor-1.5"]) == ["cor-1.5", "thm-1.4"]
    once = run_reports(["cor-1.5"])
    twice = run_reports(["cor-1.5", "cor-1.5"])
    assert len(once) == len(twice) == 10
    assert [r.parameters for r in twice] == [r.parameters for r in once]


def test_census_targets_build_no_table_past_their_reach(census_builds):
    # One table per column count d <= isqrt(150), each built once, at the
    # largest n any of the six targets reads: remarks' relation (2) reads
    # count_exact(n + d, ...) up to precision + d for d <= max_d = 4.
    reports = run_reports(["thm-main", "thm-1.2", "thm-1.4", "thm-5.1", "remarks",
                           "partition-unity"], {"precision": 150})
    assert all(r.passed for r in reports)
    assert sorted(census_builds) == [("build", d, 150 + d if d <= 4 else 150)
                                     for d in range(1, 13)]


def test_census_is_built_before_any_check_runs(monkeypatch, census_builds):
    # So a check's elapsed time does not depend on which check ran first.
    events = census_builds
    for name in ("thm-main", "thm-1.4"):
        spec = SPECS[name]
        check = lambda *args, _check=spec.check, **point: (
            events.append(("check",)) or _check(*args, **point))
        monkeypatch.setitem(SPECS, name, spec._replace(check=check))
    reports = run_reports(["thm-main", "thm-1.4"], {"precision": 60})
    assert all(r.passed for r in reports)
    kinds = [event[0] for event in events]
    assert kinds.count("check") == len(reports) == 40
    assert "build" in kinds and "build" not in kinds[kinds.index("check"):]


def test_partition_product_is_built_once_before_any_check_runs(monkeypatch, product_builds):
    # At the largest precision any selected check reads, before the first
    # check's clock starts, as the census is.
    events = product_builds
    spec = SPECS["cor-1.3"]
    check = lambda *args, _check=spec.check, **point: (
        events.append(("check",)) or _check(*args, **point))
    monkeypatch.setitem(SPECS, "cor-1.3", spec._replace(check=check))
    reports = run_reports(["cor-1.3"], {"precision": 60})
    assert all(r.passed for r in reports)
    assert events == [("build", 60)] + [("check",)] * 5


def test_run_check_builds_its_own_product_and_a_census_target_none(product_builds):
    assert run_check("cor-1.3", m=2, precision=40).passed
    assert product_builds == [("build", 40)]
    assert all(r.passed for r in run_reports(["thm-main"], {"precision": 12}))
    assert product_builds == [("build", 40)]


def test_run_check_reads_its_own_prefix_of_a_longer_product():
    given = run_check("cor-1.3", euler_inverse(100), m=3, precision=40)
    own = run_check("cor-1.3", m=3, precision=40)
    assert given.passed and vars(given) == {**vars(own), "elapsed": given.elapsed}
    # A product shorter than the check's precision is refused, as a census
    # is past its reach, not compared over a shorter range.
    message = r"^the partition product stops at q\^39, short of q\^40$"
    with pytest.raises(LookupError, match=message):
        run_check("cor-1.3", euler_inverse(39), m=3, precision=40)


def test_path_table_is_built_once_before_any_check_runs(monkeypatch, path_builds):
    # One DP for the three path targets' 378 reads, before the first check's
    # clock starts, as the census and the product are.
    events = path_builds
    for name in ("lemma-2.2", "lemma-2.4", "cor-2.5"):
        spec = SPECS[name]
        check = lambda *args, _check=spec.check, **point: (
            events.append(("check",)) or _check(*args, **point))
        monkeypatch.setitem(SPECS, name, spec._replace(check=check))
    reports = run_reports(["lemma-2.2", "lemma-2.4", "cor-2.5"])
    assert all(r.passed for r in reports)
    assert events == [("build", 378)] + [("check",)] * 378


def test_one_run_builds_each_kind_of_table_once_before_any_check_runs(
        monkeypatch, census_builds, product_builds, path_builds):
    # Every target's asks are grouped by the table that answers them, so a
    # run over all 13 targets builds the census, the product and the path
    # table once each, before the first check runs.
    at_first_check = []

    def first_check_sees_the_builds():
        if not at_first_check:
            at_first_check.append((sorted(census_builds), list(product_builds),
                                   list(path_builds)))

    for name, spec in SPECS.items():
        check = lambda *args, _check=spec.check, **point: (
            first_check_sees_the_builds() or _check(*args, **point))
        monkeypatch.setitem(SPECS, name, spec._replace(check=check))
    reports = run_reports("all")
    assert len(reports) == 495 and all(r.passed for r in reports)
    builds = ([("build", d, 40) for d in range(1, 7)], [("build", 40)], [("build", 378)])
    assert at_first_check == [builds]
    assert (sorted(census_builds), product_builds, path_builds) == builds


def test_run_check_builds_its_own_path_table_and_a_census_target_none(path_builds):
    assert run_check("lemma-2.4", s=4, r=2).passed
    assert path_builds == [("build", 1)]
    assert all(r.passed for r in run_reports(["thm-main"], {"precision": 12}))
    assert path_builds == [("build", 1)]


def test_one_path_table_for_the_deep_grid_equals_one_point_reads():
    # The --max-s 12 grid of the three path targets: 1260 reads of one shared
    # table, each equal to the read of a table built for that point alone.
    reads = [SPECS[name].table[1](point) for name in ("lemma-2.2", "lemma-2.4", "cor-2.5")
             for point in grid_points(name, {"max_s": 12})]
    assert len(reads) == 1260
    table = marked_path_table(reads)
    for read in reads:
        assert marked_path_coeffs(table, *read) == marked_path_coeffs(marked_path_table([read]),
                                                                      *read), read


def test_run_reports_unknown_target():
    with pytest.raises(ValueError):
        run_reports(["nonsense"])


def test_report_json_shape():
    report = run_check("thm-main", d=2, m=1, sign=PLUS, precision=15)
    data = report.to_json_dict()
    assert data["status"] == "pass"
    assert data["first_discrepancy"] is None
    assert (data["status"] == "pass") == (data["first_discrepancy"] is None)
    json.dumps(data)  # must be serializable


def test_override_validation():
    with pytest.raises(ValueError):
        run_reports(["thm-main"], {"precision": 10, "d": 2, "m": 3})


def test_spec_honours_exactly_the_bounds_that_move_its_grid():
    # A setting that names one of a target's bounds must move its grid, one
    # that names an axis must fix it, and any other is refused.
    names = {flag for spec in SPECS.values() for flag in [*spec.bounds, *spec.axes]}
    for name, spec in SPECS.items():
        base = grid_points(name)
        for flag in sorted(names):
            if flag in spec.bounds:
                assert grid_points(name, {flag: spec.bounds[flag] - 1}) != base, (name, flag)
            elif flag in spec.axes:
                value = base[-1][flag]
                assert grid_points(name, {flag: value}) == [
                    p for p in base if p[flag] == value], (name, flag)
            else:  # refused, so it cannot move the grid unnoticed
                with pytest.raises(ValueError, match=f"is not honoured by {name}$"):
                    grid_points(name, {flag: 1})


def test_point_overrides_fix_their_axis():
    points = grid_points("lemma-2.2", {"t": 3, "r": 0})
    assert [(p["s"], p["t"], p["r"]) for p in points] == [(s, 3, 0) for s in range(4, 10)]
    assert grid_points("thm-main", {"m": 4, "sign": "plus"}) == [
        {"d": d, "m": 4, "sign": "plus", "precision": 40} for d in (4, 5)]


def test_one_settings_dict_moves_bounds_and_fixes_axes():
    reports = run_reports(["thm-main"], {"d": 2, "precision": 5})
    assert [(r.parameters["d"], r.parameters["precision"]) for r in reports] == [(2, 5)] * 4
    reports = run_reports(["thm-main"], {"precision": 5, "max_d": 1})
    assert [r.parameters for r in reports] == [
        {"d": 1, "m": 1, "sign": sign, "precision": 5} for sign in (MINUS, PLUS)]


def test_run_reports_refuses_a_setting_that_is_neither_bound_nor_axis(monkeypatch):
    ran = []
    for name in ("thm-main", "thm-1.2"):
        monkeypatch.setitem(verify_mod.TARGETS, name, lambda *a: ran.append(a) or [])
    with pytest.raises(ValueError, match="^--beta is not honoured by thm-main, thm-1.2$"):
        run_reports(["thm-main", "thm-1.2"], {"beta": (1,)})
    assert ran == []


def test_run_reports_builds_each_grid_once(monkeypatch):
    calls = []
    compositions_upto = SPECS["prop-3.10"].axes["beta"]
    monkeypatch.setitem(SPECS["prop-3.10"].axes, "beta",
                        lambda bounds: calls.append(bounds) or compositions_upto(bounds))
    reports = run_reports(["prop-3.10"], {"max_d": 3})
    assert len(reports) == 1 + 2 + 4 and all(r.passed for r in reports)
    assert calls == [{"max_d": 3}]


def test_run_check_reads_the_census_it_is_given():
    # An empty census is read as given, never replaced by one built for the point.
    with pytest.raises(LookupError):
        run_check("thm-main", {}, d=2, m=1, sign=PLUS, precision=15)


def test_run_reports_rejects_unhonoured_bound_before_any_check(monkeypatch):
    # prop-3.10 compares exact polynomials, so no precision bound can move it
    ran = []
    monkeypatch.setitem(verify_mod.TARGETS, "thm-main", lambda *a: ran.append(a) or [])
    with pytest.raises(ValueError, match="^--precision is not honoured by prop-3.10$"):
        run_reports(["thm-main", "prop-3.10"], {"precision": 80})
    assert ran == []


def test_run_reports_rejects_unhonoured_override():
    with pytest.raises(ValueError, match="^--m is not honoured by lemma-2.2, thm-1.4$"):
        run_reports(["thm-main", "lemma-2.2", "thm-1.4"], {"m": 2})
    with pytest.raises(ValueError, match="^--d is not honoured by prop-3.9$"):
        grid_points("prop-3.9", {"d": 2})


def test_path_and_poset_bounds_move_their_grids():
    pairs = {(p["s"], p["t"]) for p in grid_points("lemma-2.2", {"max_s": 3})}
    assert pairs == {(s, t) for s in range(1, 7) for t in range(s) if s + t <= 6}
    assert len(grid_points("lemma-2.2")) == 7 * 42  # s > t, s + t <= 12 by default
    assert grid_points("prop-3.9", {"max_d": 2, "precision": 30}) == [
        {"beta": beta, "precision": 30} for beta in [(1,), (1, 1), (2,)]]
    assert [p["beta"] for p in grid_points("prop-3.10", {"max_d": 6})][-1] == (6,)


@pytest.mark.parametrize("bound", ["precision", "max_d", "max_m", "max_s"])
@pytest.mark.parametrize("value", [0, -3])
def test_library_rejects_bounds_below_one(bound, value):
    # with a bound of 0 each check would compare nothing and pass
    target = next(name for name, spec in SPECS.items() if bound in spec.bounds)
    message = f"^--{bound.replace('_', '-')}: must be at least 1, got {value}$"
    with pytest.raises(ValueError, match=message):
        run_reports([target], {bound: value})
    with pytest.raises(ValueError, match=message):
        grid_points(target, {bound: value})


@pytest.mark.parametrize("value", [True, False, 2.5, 40.0, "40", None])
def test_library_rejects_bounds_that_are_not_integers(monkeypatch, value):
    ran = []
    for name in ("cor-1.3", "thm-main"):
        monkeypatch.setitem(verify_mod.TARGETS, name, lambda *a: ran.append(a) or [])
    for target in ("cor-1.3", "thm-main"):
        with pytest.raises(ValueError, match=f"^--precision: must be an integer, got "
                                             f"{re.escape(repr(value))}$"):
            run_reports([target], {"precision": value, "m": 1})
    assert ran == []


@pytest.mark.parametrize("target, settings, message", [
    ("thm-main", {"d": True, "precision": 5}, "--d: must be an integer, got True"),
    ("thm-main", {"d": 2.0}, "--d: must be an integer, got 2.0"),
    ("thm-main", {"d": "2"}, "--d: must be an integer, got '2'"),
    ("thm-main", {"m": None}, "--m: must be an integer, got None"),
    ("thm-main", {"m": False}, "--m: must be an integer, got False"),
    ("thm-main", {"sign": "P"}, "--sign: must be one of plus, minus, got 'P'"),
    ("thm-main", {"sign": None}, "--sign: must be one of plus, minus, got None"),
    ("lemma-2.2", {"s": 1.0}, "--s: must be an integer, got 1.0"),
    ("lemma-2.2", {"t": "0"}, "--t: must be an integer, got '0'"),
    ("cor-2.5", {"r": True}, "--r: must be an integer, got True"),
])
def test_library_rejects_axis_overrides_of_the_wrong_type(monkeypatch, target, settings,
                                                          message):
    # Refused before any check runs, not reported as a parameter nor raised as
    # a TypeError from inside the grid or a check.
    ran = []
    monkeypatch.setitem(verify_mod.TARGETS, target, lambda *a: ran.append(a) or [])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_reports([target], settings)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        grid_points(target, settings)
    assert ran == []


@pytest.mark.parametrize("target", ["prop-3.9", "prop-3.10"])
@pytest.mark.parametrize("beta, shown", [
    (3, "3"), (None, "None"), ("12", "'12'"), ((), "()"), ([], "[]"),
    ((0,), "0"), ((2, -1), "-1"), ((1.0,), "1.0"), ((True,), "True"), ((1, "2"), "'2'"),
])
def test_library_refuses_a_beta_that_is_not_a_composition(monkeypatch, target, beta, shown):
    # Refused before any check runs, not raised as a TypeError from inside
    # the poset construction.
    ran = []
    monkeypatch.setitem(verify_mod.TARGETS, target, lambda *a: ran.append(a) or [])
    message = f"--beta: must be a composition of positive integers, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_reports([target], {"beta": beta})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        grid_points(target, {"beta": beta})
    assert ran == []


def test_a_composition_as_a_list_is_a_beta_override():
    assert [report.passed for report in run_reports(["prop-3.9"], {"beta": [2, 1]})] == [True]


def test_an_int_subclass_axis_override_passes():
    class Column(int):
        pass

    assert grid_points("thm-1.4", {"d": Column(2)}) == grid_points("thm-1.4", {"d": 2})


@pytest.mark.parametrize("d", [0, -1])
def test_library_refuses_a_column_count_below_one_for_thm_1_4(d):
    # The census keeps only d >= 1; the check's own closed form refuses d.
    with pytest.raises(ValueError, match="^d must be positive$"):
        run_reports(["thm-1.4"], {"d": d})


def test_run_reports_rejects_empty_grid_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setitem(verify_mod.TARGETS, "cor-1.3", lambda *a: ran.append(a) or [])
    with pytest.raises(ValueError, match="^thm-main has no grid point under overrides"):
        run_reports(["cor-1.3", "thm-main"], {"m": 6})
    assert ran == []
    with pytest.raises(ValueError, match="^thm-main has no grid point"):
        grid_points("thm-main", {"m": 6})
