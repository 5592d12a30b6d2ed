"""Partitions, Frobenius symbols, parity blocks, and the counts."""

from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, product
from math import isqrt
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankblocks.bijections import FrobeniusArray
from rankblocks.partitions import (
    FrobeniusSymbol,
    ParityBlocks,
    Partition,
    _census_table,
    _runs_of_pattern,
    _strict_desc_exact,
    alternating_sign_word,
    build_census,
    count_all_columns,
    count_by_blocks,
    count_by_columns,
    count_exact,
    count_prefix_pattern,
    enumerate_partitions,
    from_frobenius,
    iter_frobenius_symbols,
    parity_blocks,
    split_parity_runs,
    successive_ranks,
    to_frobenius,
)
from rankblocks.qseries import (
    MINUS,
    PLUS,
    partition_number,
    partition_number_or_zero,
    series_exact,
)

partitions_strategy = st.lists(st.integers(1, 12), min_size=1, max_size=8).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True))))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_enumerate_partitions_n0():
    assert list(enumerate_partitions(0)) == [Partition(())]


def test_enumerate_partitions_order_n4():
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_partitions_counts():
    assert len(list(enumerate_partitions(10))) == 42
    for n in range(26):
        assert len(list(enumerate_partitions(n))) == partition_number(n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


# ----------------------------------------------------------------------
# Frobenius symbols
# ----------------------------------------------------------------------


def test_to_frobenius_paper_example():
    f = to_frobenius(Partition((7, 5, 5, 3, 2, 2, 1)))
    assert f.top == (6, 3, 2)
    assert f.bottom == (6, 4, 1)
    assert f.size == 25


def test_to_frobenius_single_cell():
    assert to_frobenius(Partition((1,))) == FrobeniusSymbol((0,), (0,))


def test_to_frobenius_rejects_empty():
    with pytest.raises(ValueError):
        to_frobenius(Partition(()))


def test_from_frobenius_examples():
    assert from_frobenius(FrobeniusSymbol((6, 3, 2), (6, 4, 1))).parts == (7, 5, 5, 3, 2, 2, 1)
    assert from_frobenius(FrobeniusSymbol((1,), (0,))).parts == (2,)


def test_round_trip_all_small_n():
    for n in range(1, 26):
        for p in enumerate_partitions(n):
            f = to_frobenius(p)
            assert from_frobenius(f) == p
            assert f.d == p.durfee_side()


def test_size_formula_exhaustive_small_rows():
    for d in range(1, 4):
        for top in combinations(range(6, -1, -1), d):
            for bottom in combinations(range(6, -1, -1), d):
                f = FrobeniusSymbol(top, bottom)
                assert f.size == sum(top) + sum(bottom) + d
                assert from_frobenius(f).n == f.size


def test_symbol_validation():
    with pytest.raises(ValueError):
        FrobeniusSymbol((1, 1), (1, 0))
    with pytest.raises(ValueError):
        FrobeniusSymbol((1,), (0, 1))
    with pytest.raises(ValueError):
        FrobeniusSymbol((), ())


# ----------------------------------------------------------------------
# ranks and parity blocks
# ----------------------------------------------------------------------


def test_successive_ranks_examples():
    assert successive_ranks(FrobeniusSymbol((6, 3, 2), (6, 4, 1))) == (0, -1, 1)
    assert successive_ranks(FrobeniusSymbol((0,), (0,))) == (0,)


def test_ranks_against_ferrers_oracle():
    # rank i recomputed as (row i length) - (column i length) of the partition
    for n in (9, 14, 20):
        for f in (to_frobenius(p) for p in enumerate_partitions(n)):
            p = from_frobenius(f)
            conj = p.conjugate().parts
            expected = tuple(p.parts[i] - conj[i] for i in range(f.d))
            assert successive_ranks(f) == expected


def test_parity_blocks_paper_examples():
    pb = parity_blocks(FrobeniusSymbol((6, 3, 2), (6, 4, 1)))
    assert pb.sizes == (2, 1) and pb.signs == ("N", "P")
    pb = parity_blocks(FrobeniusSymbol((3, 2, 1), (4, 2, 0)))
    assert pb.sizes == (2, 1) and pb.signs == ("N", "P")


def test_parity_blocks_all_positive():
    pb = parity_blocks(FrobeniusSymbol((5, 4, 3), (2, 1, 0)))
    assert pb.sizes == (3,) and pb.signs == ("P",)


def test_parity_blocks_rank_zero_is_negative():
    assert parity_blocks(FrobeniusSymbol((1,), (1,))).signs == ("N",)


def test_parity_blocks_validation():
    # The record holds the block sizes and the last sign; an empty or
    # non-positive size and an unknown sign letter are refused.
    bad = [((), "P"), ((2, 0), "N"), ((3, -1), "N"), ((True,), "P"), (("2",), "P"),
           ((1, 2), "p"), ((1, 2), "plus"), ((1,), ""), ((1,), None)]
    for sizes, last_sign in bad:
        with pytest.raises(ValueError):
            ParityBlocks(sizes, last_sign)


def test_parity_blocks_record_derives_alternating_signs():
    pb = ParityBlocks([2, 3, 1, 2], "P")
    assert pb.sizes == (2, 3, 1, 2) and pb.m == 4
    assert pb.signs == ("N", "P", "N", "P") and pb.sign_word == "NPNP"
    assert pb.to_json_dict() == {"sizes": [2, 3, 1, 2], "signs": "NPNP"}
    assert ParityBlocks((1, 1, 1), "N").sign_word == "NPN"


def test_parity_blocks_match_split_runs_up_to_25():
    for n in range(1, 26):
        for d in range(1, isqrt(n) + 1):
            for f in iter_frobenius_symbols(n, d):
                sizes, signs = split_parity_runs(successive_ranks(f))
                pb = parity_blocks(f)
                assert (pb.sizes, pb.signs, pb.m, pb.last_sign) == (
                    sizes, signs, len(sizes), signs[-1])
                assert pb.sign_word == "".join(signs)
                assert pb.to_json_dict() == {"sizes": list(sizes), "signs": "".join(signs)}


def test_parity_blocks_read_from_the_sign_pattern_match_split_runs():
    # parity_blocks reads the pattern top > bottom and memoises its runs; the
    # ranks split directly must agree on every symbol of size <= 30 and on
    # arrays, whose columns may hold equal entries (rank 0, a negative column).
    symbols = (f for n in range(1, 31) for d in range(1, isqrt(n) + 1)
               for f in iter_frobenius_symbols(n, d))
    rows = [row for d in range(1, 5) for row in combinations_with_replacement(range(3, -1, -1), d)]
    arrays = (FrobeniusArray(top, bottom) for top in rows for bottom in rows
              if len(top) == len(bottom))
    for f in chain(symbols, arrays):
        sizes, signs = split_parity_runs(successive_ranks(f))
        pb = parity_blocks(f)
        assert (pb.sizes, pb.last_sign) == (sizes, signs[-1]), f


def test_parity_blocks_memo_stays_bounded():
    # All 4096 sign patterns of 12 columns: column i is (2(12 - i) + bit, 2(12 - i)).
    limit = _runs_of_pattern.cache_info().maxsize
    assert limit is not None and limit < 4096
    for bits in product((0, 1), repeat=12):
        stair = range(24, 0, -2)
        f = FrobeniusSymbol(tuple(map(add, stair, bits)), tuple(stair))
        assert parity_blocks(f).sizes == split_parity_runs(successive_ranks(f))[0]
        assert _runs_of_pattern.cache_info().currsize <= limit


def _ref_strict_desc_exact(length, total, cap=None):
    # The listing before lengths 1 and 2 were listed directly.
    if length == 0:
        if total == 0:
            yield ()
        return
    hi = total - (length - 1) * (length - 2) // 2
    if cap is not None:
        hi = min(hi, cap - 1)
    max_tail = (length - 1) * length // 2
    for first in range(hi, length - 2, -1):
        tail_total = total - first
        if tail_total > (length - 1) * first - max_tail:
            break
        for tail in _ref_strict_desc_exact(length - 1, tail_total, cap=first):
            yield (first,) + tail


def test_strict_listing_matches_the_recursion_it_shortcuts():
    for length in range(1, 6):
        for total in range(-2, 25):
            for cap in (None, *range(0, 12)):
                assert (list(_strict_desc_exact(length, total, cap))
                        == list(_ref_strict_desc_exact(length, total, cap))), (length, total, cap)


@given(partitions_strategy)
@settings(max_examples=120)
def test_block_invariants(p):
    f = to_frobenius(p)
    pb = parity_blocks(f)
    assert sum(pb.sizes) == f.d
    for a, b in zip(pb.signs, pb.signs[1:]):
        assert a != b
    ranks = successive_ranks(f)
    pos = 0
    for size, sign in zip(pb.sizes, pb.signs):
        for r in ranks[pos:pos + size]:
            assert (r >= 1) == (sign == "P")
        pos += size
    assert from_frobenius(f) == p


# ----------------------------------------------------------------------
# counts
# ----------------------------------------------------------------------


def test_count_exact_paper_point():
    assert count_exact(build_census({3: 15}), 15, 3, 2, PLUS) == 3
    found = {(f.top, f.bottom)
             for f in iter_frobenius_symbols(15, 3)
             if parity_blocks(f).m == 2 and parity_blocks(f).last_sign == "P"}
    assert found == {((3, 2, 1), (5, 1, 0)),
                     ((4, 2, 1), (4, 1, 0)),
                     ((3, 2, 1), (4, 2, 0))}


def every_column(n):
    """The reach of a count over all column counts at size n: each d <= isqrt(n)."""
    return dict.fromkeys(range(1, isqrt(n) + 1), n)


def brute_force_census(n, d):
    """The reference census: every symbol of size n with d columns, keyed by
    its number of parity blocks and the sign of its last block."""
    runs = (split_parity_runs(successive_ranks(f)) for f in iter_frobenius_symbols(n, d))
    return Counter((len(sizes), signs[-1]) for sizes, signs in runs)


def test_column_dp_matches_brute_force():
    # a table built for a larger bound prunes differently and must agree too
    census = build_census(dict.fromkeys(range(1, 7), 40))
    for d in range(1, 7):
        wider = _census_table(57, d)
        for n in range(1, 41):
            reference = brute_force_census(n, d)
            assert wider[n] == reference, (n, d)
            for m in range(1, d + 2):
                for sign, letter in ((PLUS, "P"), (MINUS, "N")):
                    assert count_exact(census, n, d, m, sign) == reference[(m, letter)], \
                        (n, d, m, sign)
            assert count_all_columns(census, n, d) == sum(reference.values())


def test_count_exact_deep_point():
    # beyond the reach of symbol enumeration; pinned, and checked against the
    # closed form
    census = build_census({4: 80})
    assert count_exact(census, 80, 4, 2, PLUS) == 666064 == series_exact(4, 2, PLUS, 80).coeffs[80]


def test_count_exact_smallest_cases():
    census = build_census({1: 2, 2: 10, 5: 20})
    assert count_exact(census, 2, 1, 1, PLUS) == 1
    assert count_exact(census, 1, 1, 1, MINUS) == 1
    assert count_exact(census, 1, 1, 1, PLUS) == 0
    assert count_exact(census, 10, 2, 3, PLUS) == 0  # m > d impossible, not an error
    assert count_exact(census, 20, 5, 1, PLUS) == 0  # d * d > n, not an error
    # d * d > n is answered without reading a table, so an empty census will do
    assert count_exact({}, 20, 5, 1, PLUS) == count_all_columns({}, 20, 5) == 0


def test_minus_equals_shifted_plus():
    census = build_census({d: 30 + d for d in range(1, 6)})
    for d in range(1, 6):
        for m in range(1, d + 1):
            for n in range(1, 31):
                assert (count_exact(census, n, d, m, MINUS)
                        == count_exact(census, n + d, d, m, PLUS))


def test_census_answers_ascending_n_with_one_build(census_builds):
    # A census is built once, at its declared reach, and never grows: asking
    # past that reach is the caller's fault (not a ValueError, which the CLI
    # reports as a usage error) and builds nothing.
    census = build_census({4: 100})
    counts = [count_exact(census, n, 4, 2, PLUS) for n in range(1, 101)]
    assert counts == list(series_exact(4, 2, PLUS, 100).coeffs[1:])
    assert census_builds == [("build", 4, 100)]
    for ask_past_reach in (lambda: count_exact(census, 101, 4, 2, PLUS),
                           lambda: count_all_columns(census, 101, 4),
                           lambda: count_by_columns(census, 101, 4, PLUS),
                           lambda: count_exact(census, 50, 3, 2, PLUS),
                           lambda: count_by_blocks(census, 50, 2, PLUS),
                           lambda: count_prefix_pattern(census, 50, "N")):
        with pytest.raises(LookupError):
            ask_past_reach()
    assert census_builds == [("build", 4, 100)]


def test_count_by_blocks_m1_and_base():
    census = build_census(every_column(30))
    for n in range(1, 31):
        assert count_by_blocks(census, n, 1, PLUS) == \
            partition_number(n) - partition_number_or_zero(n - 1)
    assert count_by_blocks(census, 1, 1, MINUS) == 1


def test_partition_of_unity_by_blocks():
    census = build_census(every_column(30))
    for n in range(1, 31):
        total = sum(count_by_blocks(census, n, m, sign)
                    for m in range(1, isqrt(n) + 1) for sign in (PLUS, MINUS))
        assert total == partition_number(n)


def test_partition_of_unity_by_columns():
    census = build_census(every_column(30))
    for n in range(1, 31):
        total = sum(count_by_columns(census, n, d, sign)
                    for d in range(1, isqrt(n) + 1) for sign in (PLUS, MINUS))
        assert total == partition_number(n)


def test_count_by_columns_small():
    census = build_census({1: 2})
    assert count_by_columns(census, 2, 1, PLUS) == 1
    assert count_by_columns(census, 1, 1, MINUS) == 1


def test_count_all_columns_conventions():
    census = build_census(every_column(20))
    assert count_all_columns(census, 0, 0) == 1
    assert count_all_columns(census, 3, 0) == 0
    assert count_all_columns(census, -2, 1) == 0
    for n in range(1, 21):
        assert sum(count_all_columns(census, n, d)
                   for d in range(1, isqrt(n) + 1)) == partition_number(n)


def test_iter_frobenius_symbols_sizes():
    for n in range(1, 21):
        for d in range(1, isqrt(n) + 1):
            for f in iter_frobenius_symbols(n, d):
                assert f.size == n and f.d == d


# ----------------------------------------------------------------------
# prefix patterns
# ----------------------------------------------------------------------


def test_alternating_sign_word():
    assert alternating_sign_word(1, "N") == "N"
    assert alternating_sign_word(2, "N") == "PN"
    assert alternating_sign_word(3, "N") == "NPN"
    assert alternating_sign_word(4, "P") == "NPNP"


def test_prefix_n_counts_shifted_partitions():
    # partitions whose sign word starts with N are counted by p(n-1) together
    # with the PN starters; the N prefix alone plus the PN prefix gives p(n-1)
    census = build_census(every_column(30))
    for n in range(1, 31):
        total = count_prefix_pattern(census, n, "N") + count_prefix_pattern(census, n, "PN")
        assert total == partition_number_or_zero(n - 1)


def test_prefix_empty_pattern():
    census = build_census(every_column(15))
    for n in range(1, 16):
        assert count_prefix_pattern(census, n, "") == partition_number(n)


def test_symbol_census_matches_partition_census():
    # reading each partition's symbol off its Ferrers graph gives the same
    # multiset as enumerating the symbols column count by column count
    for n in range(1, 21):
        from_partitions = Counter(to_frobenius(p) for p in enumerate_partitions(n))
        direct = Counter(f for d in range(1, isqrt(n) + 1)
                         for f in iter_frobenius_symbols(n, d))
        assert from_partitions == direct, n


def test_prefix_counts_match_partition_sign_words():
    # prefix counts project the symbol census; the oracle here builds the
    # sign words from enumerate_partitions instead
    patterns = [""] + [alternating_sign_word(k, last) for k in range(1, 5) for last in "PN"]
    census = build_census(every_column(25))
    for n in range(1, 26):
        words = [parity_blocks(to_frobenius(p)).sign_word for p in enumerate_partitions(n)]
        for pattern in patterns:
            expected = sum(w.startswith(pattern) for w in words)
            assert count_prefix_pattern(census, n, pattern) == expected, (n, pattern)


def test_prefix_counts_match_startswith_definition():
    # The first-letter test against the definition it replaces: build each
    # block word and ask startswith.
    patterns = [""] + [alternating_sign_word(k, last) for k in range(1, 9) for last in "PN"]
    census = build_census(every_column(60))
    for n in range(1, 61):
        rows = [census[d][n] for d in range(1, isqrt(n) + 1)]
        for pattern in patterns:
            expected = sum(c for row in rows for (m, last), c in row.items()
                           if alternating_sign_word(m, last).startswith(pattern))
            assert count_prefix_pattern(census, n, pattern) == expected, (n, pattern)


def test_prefix_pattern_validation():
    census = build_census(every_column(5))
    with pytest.raises(ValueError):
        count_prefix_pattern(census, 5, "NN")
    with pytest.raises(ValueError):
        count_prefix_pattern(census, 5, "X")


def test_split_parity_runs_requires_columns():
    with pytest.raises(ValueError):
        split_parity_runs(())
