"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact (integer equality, zero tolerance); the
stated runtime budgets are asserted as well.
"""

import time
from math import comb, isqrt

import rankblocks.verify as verify_mod
from list_oracle import add, monomial, mul
from partition_oracle import from_frobenius, partitions, to_frobenius
from rankblocks.bijections import bijection_trace, lambda_to_pi, pi_to_lambda
from rankblocks.lattice_paths import (
    MarkedBallotPath,
    enumerate_marked_paths,
    gf_vmr,
    maj_path,
    vmr,
)
from rankblocks.partitions import (
    FrobeniusSymbol,
    build_census,
    count_exact,
    iter_frobenius_symbols,
    parity_blocks,
)
from rankblocks.posets import build_s_beta, linear_extensions, maj_word, word_to_dyck
from rankblocks.qseries import (
    PLUS,
    QSeries,
    partition_number,
    qbinomial,
    series_exact,
)


def _criterion(num, description, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status} ({elapsed:6.2f}s / {limit}s) "
          f"{description}")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_point_count_and_symbols():
    start = time.perf_counter()
    count = count_exact(build_census({3: 15}), 15, 3, 2, PLUS)
    found = {(f.top, f.bottom)
             for f in iter_frobenius_symbols(15, 3)
             if parity_blocks(f).m == 2 and parity_blocks(f).last_sign == "P"}
    expected = {((3, 2, 1), (5, 1, 0)), ((4, 2, 1), (4, 1, 0)), ((3, 2, 1), (4, 2, 0))}
    ok = count == 3 and found == expected
    _criterion(1, "3 partitions of 15 with 3 columns, 2 blocks, last positive",
               ok, time.perf_counter() - start, 1)


def test_criterion_02_marked_path_family():
    start = time.perf_counter()
    objects = list(enumerate_marked_paths(3, 2, 1))
    multiset = sorted(vmr(o) for o in objects)
    gf = QSeries.from_coeffs(gf_vmr(objects).coeffs, 5)
    closed = mul(monomial(1, 5), qbinomial(5, 4, 5).coeffs)
    ok = len(objects) == 5 and multiset == [1, 2, 3, 4, 5] and list(gf.coeffs) == closed
    _criterion(2, "five marked ballot paths with statistic values 1..5",
               ok, time.perf_counter() - start, 1)


def test_criterion_03_extension_word_and_path():
    start = time.perf_counter()
    structure = build_s_beta((2, 3, 1, 2))
    target = (1, 3, 2, 4, 5, 8, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16)
    matches = [w for w in linear_extensions(structure) if w.word == target]
    ok = len(matches) == 1
    if ok:
        w = matches[0]
        path = word_to_dyck(w)
        ok = (maj_word(w) == 8
              and path.bar_string() == "udud|uduudd|ud|uudd"
              and maj_path(path) == 34
              and set(path.marks) == {4, 10, 12})
    _criterion(3, "worked linear extension maps to the marked Dyck path",
               ok, time.perf_counter() - start, 1)


def test_criterion_04_bijection_trace_weights():
    start = time.perf_counter()
    symbol = FrobeniusSymbol((16, 14, 13, 12, 10, 4, 3, 1),
                             (17, 14, 12, 11, 8, 6, 1, 0))
    trace = bijection_trace(symbol)
    weights = {st["stage"]: st["weight"] for st in trace}
    ok = (weights["lambda"] == weights["mu"] + 64
          and weights["mu"] == 86
          and weights["gamma"] == 86
          and weights["pi"] == 65
          and weights["gamma"] - weights["pi"] == 21 == 2 + 5 + 6 + 8)
    _criterion(4, "trace weights (|mu|+64, 86, 86, 65) with drop 21",
               ok, time.perf_counter() - start, 1)


def test_criterion_05_exact_series_sweep():
    start = time.perf_counter()
    reports = verify_mod.run_reports(["thm-main"])
    ok = len(reports) == 30 and all(r.passed for r in reports)
    _criterion(5, "columns-and-blocks series vs the census, d<=5, n<=40",
               ok, time.perf_counter() - start, 60)


def test_criterion_06_block_and_column_series_sweeps():
    start = time.perf_counter()
    reports = verify_mod.run_reports(["thm-1.2", "thm-1.4", "cor-1.3", "cor-1.5"])
    ok = all(r.passed for r in reports) and len(reports) == 10 + 10 + 5 + 10
    _criterion(6, "by-blocks/by-columns series and both corollaries, n<=40",
               ok, time.perf_counter() - start, 60)


def test_criterion_07_path_identities():
    start = time.perf_counter()
    reports = verify_mod.run_reports(["lemma-2.2", "lemma-2.4", "cor-2.5"])
    ok = all(r.passed for r in reports)
    _criterion(7, "marked-path polynomial identities, s+t<=12, r<=6",
               ok, time.perf_counter() - start, 30)


def test_criterion_08_poset_identities_and_bijection():
    start = time.perf_counter()
    reports = verify_mod.run_reports(["prop-3.9", "prop-3.10"])
    ok = all(r.passed for r in reports)
    _criterion(8, "poset-partition series (d<=4) and word/path bijection (d<=5)",
               ok, time.perf_counter() - start, 60)


def test_criterion_09_partition_of_unity():
    start = time.perf_counter()
    ok = True
    census = build_census(dict.fromkeys(range(1, isqrt(30) + 1), 30))
    for n in range(1, 31):
        total = sum(count_exact(census, n, d, m, sign)
                    for d in range(1, isqrt(n) + 1)
                    for m in range(1, d + 1)
                    for sign in ("plus", "minus"))
        if total != partition_number(n):
            ok = False
            break
    _criterion(9, "all classes together count every nonempty partition, n<=30",
               ok, time.perf_counter() - start, 10)


def test_criterion_10_remark_identities_and_prefix_counts():
    start = time.perf_counter()
    reports = verify_mod.run_reports(["remarks", "thm-5.1"])
    ok = all(r.passed for r in reports) and len(reports) == 1 + 4
    _criterion(10, "count relations and prefix-pattern counts, m<=4, n<=30",
               ok, time.perf_counter() - start, 60)


def test_criterion_11_mutation_guard(monkeypatch):
    start = time.perf_counter()

    def perturbed(d, m, sign, precision):
        base = series_exact(d, m, sign, precision)
        return QSeries((0,) + base.coeffs[:-1])  # leading exponent bumped by one

    monkeypatch.setattr(verify_mod, "series_exact", perturbed)
    report = verify_mod.run_check("thm-main", d=3, m=2, sign=PLUS, precision=20)
    ok = (not report.passed
          and report.first_discrepancy is not None
          and report.first_discrepancy["exponent"] <= 20)
    _criterion(11, "perturbed leading exponent is caught with a located exponent",
               ok, time.perf_counter() - start, 60)


def test_criterion_12_property_suites():
    start = time.perf_counter()
    ok = True

    # extension counts of the two-row grids
    for b in range(1, 9):
        if len(linear_extensions(build_s_beta((b,)))) != comb(2 * b, b) // (b + 1):
            ok = False

    # Gaussian binomials: nonnegative, symmetric, both Pascal recurrences
    for n in range(17):
        for k in range(n + 1):
            coeffs = qbinomial(n, k).coeffs
            if not (all(c >= 0 for c in coeffs) and coeffs == coeffs[::-1]
                    and sum(coeffs) == comb(n, k)):
                ok = False
            if n >= 1:
                precision = max(k * (n - k), 1)
                lhs = list(qbinomial(n, k, precision).coeffs)
                low = qbinomial(n - 1, k, precision).coeffs
                high = qbinomial(n - 1, k - 1, precision).coeffs
                pascal = add(low, mul(monomial(n - k, precision), high))
                mirror = add(mul(monomial(k, precision), low), high)
                if lhs != pascal or lhs != mirror:
                    ok = False

    # Frobenius round trip over every partition of n <= 25
    for n in range(1, 26):
        for p in partitions(n):
            if from_frobenius(*to_frobenius(p)) != p:
                ok = False

    _criterion(12, "Catalan counts, bracket properties, symbol round trips",
               ok, time.perf_counter() - start, 60)
