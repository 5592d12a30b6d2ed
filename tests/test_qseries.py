"""The series container, Gaussian binomials, partition numbers, closed forms."""

import re
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from list_oracle import add, inverse, monomial, mul, one_minus, pochhammer
from rankblocks.qseries import (
    MINUS,
    PLUS,
    QSeries,
    _times_kernel,
    block_count_formula,
    euler_inverse,
    partition_number,
    partition_number_or_zero,
    qbinomial,
    qbinomial_column_sum_sides,
    series_by_blocks,
    series_by_columns,
    series_exact,
    series_exact_sums,
)

# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------


def naive_partition_count(n, max_part=None):
    """Exhaustive partition counting, independent of the pentagonal recurrence."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(naive_partition_count(n - first, first)
               for first in range(1, min(max_part, n) + 1))


def dense_series_exact(d, m, sign, precision):
    """The closed form by full-width products and generic inverses."""
    shift = d * d + m * (m - 1) // 2 + (d if sign == PLUS else 0)
    return mul(monomial(shift, precision), inverse(pochhammer(2 * d, precision)),
               one_minus(m, precision), inverse(one_minus(d, precision)),
               list(qbinomial(2 * d, d + m, precision).coeffs))


def dense_series_by_columns(d, sign, precision):
    """The by-columns closed form by full-width products and generic inverses."""
    shift = d * d + (d if sign == PLUS else 0)
    poch = pochhammer(d, precision)
    one_plus = add(monomial(0, precision), monomial(d, precision))
    return mul(monomial(shift, precision), inverse(mul(poch, poch)), inverse(one_plus))


def box_partition_weights(rows, cols):
    """Weights of all partitions fitting in a rows x cols box, by enumeration."""
    weights = []

    def rec(remaining_rows, cap, total):
        weights.append(total)
        if remaining_rows == 0:
            return
        for part in range(1, cap + 1):
            rec(remaining_rows - 1, part, total + part)

    rec(rows, cols, 0)
    return weights


# ----------------------------------------------------------------------
# the container, and the four operations the benchmark reaches
# ----------------------------------------------------------------------


class _Exact(int):
    """An int subclass other than bool: an exact integer all the same."""


@pytest.mark.parametrize("bad", [True, 2.0, "3", None])
def test_coefficients_must_be_exact_integers(bad):
    with pytest.raises(TypeError, match=rf"^coefficients must be exact integers, got {bad!r}$"):
        QSeries((1, 0, bad))


def test_int_subclass_coefficients_are_accepted():
    series = QSeries((_Exact(2), 0, _Exact(-1)))
    assert series.coeffs == (2, 0, -1)


def test_add_basic():
    a = QSeries.from_coeffs([1, 1], 5)
    b = QSeries.monomial(2, 5)
    assert (a + b).coeffs == (1, 1, 1, 0, 0, 0)


def test_add_zero_identity():
    a = QSeries.from_coeffs([3, 0, -2, 7], 6)
    assert a + QSeries.zero(6) == a


def test_precision_min_rule():
    a = QSeries.from_coeffs([1], 10)
    b = QSeries.from_coeffs([1], 5)
    assert (a + b).precision == 5
    assert (a * b).precision == 5


def test_mul_difference_of_squares():
    one_plus = QSeries.from_coeffs([1, 1], 4)
    one_minus = QSeries.from_coeffs([1, -1], 4)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)


def test_mul_one_identity():
    a = QSeries.from_coeffs([2, -1, 0, 5], 7)
    assert a * QSeries.from_coeffs([1], 7) == a


def test_invert_matches_long_division():
    den = QSeries.from_coeffs([1, -1], 12)
    expected = inverse(one_minus(1, 12))
    assert list(den.invert_unit().coeffs) == expected
    assert expected == [1] * 13  # geometric series


def test_invert_one():
    assert QSeries.from_coeffs([1], 6).invert_unit() == QSeries.from_coeffs([1], 6)


def test_invert_multiply_back():
    poch = QSeries(pochhammer(3, 10))
    assert poch.invert_unit() * poch == QSeries.from_coeffs([1], 10)


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError):
        QSeries.from_coeffs([2, 1], 4).invert_unit()
    with pytest.raises(ValueError):
        QSeries.zero(4).invert_unit()


def test_equality_up_to_common_precision():
    assert QSeries.from_coeffs([1, 1], 10) == QSeries.from_coeffs([1, 1], 5)
    assert QSeries.from_coeffs([1, 1], 10) != QSeries.from_coeffs([1, 2], 5)


@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8))
@settings(max_examples=60)
def test_mul_associative_commutative_distributive(a, b, c):
    x, y, z = (QSeries(tuple(v)) for v in (a, b, c))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


coefficient_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=30)
sparse_lists = st.integers(0, 29).flatmap(
    lambda top: st.dictionaries(st.integers(0, top), st.integers(-9, 9).filter(bool),
                                max_size=3)
    .map(lambda terms: [terms.get(k, 0) for k in range(top + 1)]))


@given(st.one_of(sparse_lists, coefficient_lists), st.one_of(sparse_lists, coefficient_lists))
@settings(max_examples=200)
def test_mul_matches_naive_double_loop(a, b):
    # independent lengths, so mismatched precisions and both operand orders
    x, y = QSeries(tuple(a)), QSeries(tuple(b))
    assert list((x * y).coeffs) == mul(a, b)
    assert list((y * x).coeffs) == mul(b, a)
    assert list((x + y).coeffs) == add(a, b)


@given(st.sampled_from([1, -1]), st.lists(st.integers(-6, 6), min_size=7, max_size=7))
@settings(max_examples=60)
def test_invert_unit_is_two_sided_inverse(unit, tail):
    a = QSeries((unit, *tail))
    one = QSeries.from_coeffs([1], 7)
    assert a * a.invert_unit() == one
    assert a.invert_unit() * a == one
    assert list(a.invert_unit().coeffs) == inverse([unit, *tail])


def test_json_round_trip():
    a = QSeries.from_coeffs([1, -2, 10**25], 4)
    data = a.to_json_dict()
    assert data["coeffs"][2] == str(10**25)
    assert QSeries.from_json_dict(data) == a


def test_json_round_trip_negative_and_past_64_bits():
    a = QSeries((-(2**64) - 1, 0, 2**70, -3))
    data = a.to_json_dict()
    assert data == {"precision": 3,
                    "coeffs": [str(-(2**64) - 1), "0", str(2**70), "-3"]}
    back = QSeries.from_json_dict(data)
    assert back.coeffs == a.coeffs and back.precision == 3
    # plain ints are read as well
    assert QSeries.from_json_dict({"precision": 1, "coeffs": [-5, 2**65]}).coeffs == (-5, 2**65)


@pytest.mark.parametrize("data, entry", [
    ({"precision": 1.9, "coeffs": [1, 2]}, "'precision'"),
    ({"precision": True, "coeffs": [1, 2]}, "'precision'"),
    ({"precision": "1", "coeffs": ["1", "2"]}, "'precision'"),
    ({"coeffs": ["1"]}, "'precision'"),
    ({"precision": 1, "coeffs": [True, 2]}, r"coeffs\[0\]"),
    ({"precision": 1, "coeffs": [1, 2.7]}, r"coeffs\[1\]"),
    ({"precision": 1, "coeffs": ["1", " 2 "]}, r"coeffs\[1\]"),
    ({"precision": 1, "coeffs": ["1", "+2"]}, r"coeffs\[1\]"),
    ({"precision": 1, "coeffs": ["1_0", "2"]}, r"coeffs\[0\]"),
    ({"precision": 1, "coeffs": ["-", "2"]}, r"coeffs\[0\]"),
    ({"precision": 1, "coeffs": ["1", "\u0662"]}, r"coeffs\[1\]"),
    ({"precision": 0, "coeffs": "1"}, "'coeffs'"),
])
def test_json_rejects_what_to_json_dict_never_writes(data, entry):
    # floats and bools are not rounded, and strings other than a decimal
    # integer with an optional leading minus are not parsed
    with pytest.raises(ValueError, match=entry):
        QSeries.from_json_dict(data)


# ----------------------------------------------------------------------
# Gaussian binomials
# ----------------------------------------------------------------------


def test_every_series_builder_rejects_a_negative_precision():
    # The QSeries constructors and every closed form, with one message.
    for build in (lambda: euler_inverse(-1),
                  lambda: QSeries.zero(-1), lambda: QSeries.monomial(0, -1),
                  lambda: QSeries.from_coeffs([1], -1),
                  lambda: series_by_blocks(1, PLUS, -1),
                  lambda: series_by_columns(1, MINUS, -1), lambda: series_exact_sums(1, -1),
                  lambda: qbinomial(4, 2, -1)):
        with pytest.raises(ValueError, match="^precision must be nonnegative$"):
            build()


def test_qbinomial_boundaries():
    for n in range(9):
        assert qbinomial(n, 0) == QSeries((1,))
        assert qbinomial(n, n) == QSeries((1,))


def test_qbinomial_box_oracle():
    weights = box_partition_weights(2, 2)
    expected = [0] * 5
    for w in weights:
        expected[w] += 1
    assert qbinomial(4, 2).coeffs == tuple(expected) == (1, 1, 2, 1, 1)


def test_qbinomial_out_of_range_is_zero():
    assert qbinomial(3, 5).coeffs == (0,)
    assert qbinomial(3, -1).coeffs == (0,)


@pytest.mark.parametrize("n", range(17))
def test_qbinomial_symmetry_nonnegativity_total(n):
    for k in range(n + 1):
        coeffs = qbinomial(n, k).coeffs
        assert all(c >= 0 for c in coeffs)
        assert coeffs == coeffs[::-1]
        assert sum(coeffs) == comb(n, k)


def test_qbinomial_truncation_matches_full_polynomial():
    for n in range(15):
        for k in range(n + 1):
            padded = qbinomial(n, k).coeffs + (0,)
            for precision in range(len(padded)):
                assert qbinomial(n, k, precision).coeffs == padded[:precision + 1]


@pytest.mark.parametrize("n", range(1, 13))
def test_qbinomial_pascal_both_forms(n):
    # The mirror form q^k [n-1,k] + [n-1,k-1] is independent of the
    # implementation's own recurrence.
    for k in range(n + 1):
        precision = max(k * (n - k), 1)
        lhs = list(qbinomial(n, k, precision).coeffs)
        low = list(qbinomial(n - 1, k, precision).coeffs)
        high = list(qbinomial(n - 1, k - 1, precision).coeffs)
        assert lhs == add(low, mul(monomial(n - k, precision), high))
        assert lhs == add(mul(monomial(k, precision), low), high)


# ----------------------------------------------------------------------
# partition numbers
# ----------------------------------------------------------------------


def test_partition_number_base_cases():
    assert partition_number(0) == 1
    assert partition_number(5) == 7
    assert partition_number_or_zero(-3) == 0


def test_partition_number_against_exhaustive_enumeration():
    for n in range(31):
        assert partition_number(n) == naive_partition_count(n)


def test_euler_inverse_coefficients():
    series = euler_inverse(40)
    assert series.coefficient(0) == 1
    assert series.coeffs[1:7] == (1, 2, 3, 5, 7, 11)
    for n in range(41):
        assert series.coefficient(n) == partition_number(n)


def test_euler_inverse_defining_property():
    series = euler_inverse(25)
    assert mul(list(series.coeffs), pochhammer(25, 25)) == monomial(0, 25)


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def test_series_exact_paper_point_value():
    assert series_exact(3, 2, PLUS, 16).coefficient(15) == 3


def test_series_exact_smallest_case():
    # d = m = 1, plus: q^2 / ((1-q)(1-q^2)); coefficient n counts partitions
    # of n - 2 into parts of size at most 2.
    series = series_exact(1, 1, PLUS, 20)
    assert series.coefficient(0) == 0 and series.coefficient(1) == 0
    for n in range(2, 21):
        assert series.coefficient(n) == (n - 2) // 2 + 1


def test_series_exact_rejects_bad_parameters():
    with pytest.raises(ValueError, match=r"^need d >= m >= 1, got d=2, m=3$"):
        series_exact(2, 3, PLUS, 10)
    with pytest.raises(ValueError, match=r"^need d >= m >= 1, got d=1, m=0$"):
        series_exact(1, 0, PLUS, 10)
    with pytest.raises(ValueError, match=re.escape(
            "sign must be one of ('plus', 'minus'), got 'positive'")):
        series_exact(2, 1, "positive", 10)
    with pytest.raises(ValueError, match="^precision must be nonnegative$"):
        series_exact(2, 1, MINUS, -1)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_series_exact_sum_is_the_sum_of_the_exact_series(m, sign):
    # Past d = isqrt(precision) every term is zero: its shift exceeds d^2.
    for precision in [*range(61), 360]:
        total = add([0] * (precision + 1), *(series_exact(d, m, sign, precision).coeffs
                                             for d in range(m, isqrt(precision) + 2)))
        assert list(series_exact_sums(m, precision)[sign].coeffs) == total, precision


@pytest.mark.parametrize("m, precision, message", [
    (0, 10, "need d >= m >= 1, got d=0, m=0"),
    (-2, 10, "need d >= m >= 1, got d=-2, m=-2"),
    (2, -1, "precision must be nonnegative"),
])
def test_series_exact_sums_refuse_a_block_count_below_one(m, precision, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        series_exact_sums(m, precision)


def kernel_by_monomials(m, sign, precision):
    """The pentagonal kernel as a sum of 2m dense monomials."""
    terms = []
    for l in range(m):
        e1 = l * (3 * l + 1) // 2 if sign == PLUS else l * (3 * l - 1) // 2
        e2 = e1 + (2 * l + 1 if sign == PLUS else 4 * l + 2)
        unit = 1 if l % 2 == 0 else -1
        terms += [monomial(e1, precision, unit), monomial(e2, precision, -unit)]
    return add(*terms)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_pentagonal_kernel_is_its_sum_of_monomials(sign):
    for m in range(1, 9):
        for precision in range(61):
            assert _times_kernel([1] + [0] * precision, m, sign) == kernel_by_monomials(
                m, sign, precision)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_kernel_product_is_the_oracle_product(m, sign):
    # The list product that thm-1.2's closed form and cor-1.3's left side
    # share, on the partition product they multiply and on a list with no
    # zero coefficient, against every pair of terms.
    partitions = euler_inverse(200).coeffs
    for precision in range(201):
        dense = [(-1) ** k * (k + 1) for k in range(precision + 1)]
        kernel = kernel_by_monomials(m, sign, precision)
        for coeffs in (list(partitions[:precision + 1]), dense):
            assert _times_kernel(coeffs, m, sign) == mul(coeffs, kernel), precision


def test_series_by_blocks_constant_term_vanishes():
    for m in range(1, 6):
        for sign in (PLUS, MINUS):
            assert series_by_blocks(m, sign, 10).coefficient(0) == 0


def test_series_by_blocks_m1():
    plus = series_by_blocks(1, PLUS, 30)
    minus = series_by_blocks(1, MINUS, 30)
    for n in range(1, 31):
        assert plus.coefficient(n) == partition_number(n) - partition_number_or_zero(n - 1)
        assert minus.coefficient(n) == partition_number(n) - partition_number_or_zero(n - 2)


def test_block_count_formula_matches_series():
    for m in range(1, 6):
        for sign in (PLUS, MINUS):
            series = series_by_blocks(m, sign, 30)
            for n in range(1, 31):
                assert block_count_formula(n, m, sign) == series.coefficient(n)


def test_series_by_columns_first_values():
    assert series_by_columns(1, MINUS, 10).coefficient(1) == 1
    assert series_by_columns(1, PLUS, 10).coefficient(2) == 1
    # leading exponent d^2 + d for the plus sign
    plus2 = series_by_columns(2, PLUS, 10)
    assert all(plus2.coefficient(n) == 0 for n in range(6))
    assert plus2.coefficient(6) == 1


def test_all_closed_forms_vanish_at_q0():
    # every counted partition is nonempty
    for d in range(1, 5):
        for sign in (PLUS, MINUS):
            assert series_by_columns(d, sign, 8).coefficient(0) == 0
            for m in range(1, d + 1):
                assert series_exact(d, m, sign, 8).coefficient(0) == 0
                assert series_by_blocks(m, sign, 8).coefficient(0) == 0


@pytest.mark.parametrize("d", [1, 2, 10])
def test_qbinomial_column_sum(d):
    lhs, rhs = qbinomial_column_sum_sides(d)
    assert lhs == rhs


def _column_sum_sides_by_products(d):
    # Both sides of cor-1.5 as oracle products, the reference for the list
    # passes of qbinomial_column_sum_sides.
    precision = 2 * d * d + 2 * d
    lhs = add(*(mul(monomial(m * (m - 1) // 2, precision), one_minus(m, precision),
                    list(qbinomial(2 * d, d + m, precision).coeffs))
                for m in range(1, d + 1)))
    return (mul(lhs, add(monomial(0, precision), monomial(d, precision))),
            mul(one_minus(d, precision), list(qbinomial(2 * d, d, precision).coeffs)))


@pytest.mark.parametrize("d", range(1, 41))
def test_qbinomial_column_sum_sides_are_the_series_products(d):
    sides = qbinomial_column_sum_sides(d)
    assert [list(side.coeffs) for side in sides] == list(_column_sum_sides_by_products(d))


DENSE_ORACLE_PRECISIONS = (0, 1, 5, 17, 40, 90)


@pytest.mark.parametrize("d", range(1, 11))
def test_series_exact_matches_dense_oracle(d):
    # d >= 4 puts the shift above some precisions, d = 10 above all of them
    for m in range(1, d + 1):
        for sign in (PLUS, MINUS):
            for precision in DENSE_ORACLE_PRECISIONS:
                assert (list(series_exact(d, m, sign, precision).coeffs)
                        == dense_series_exact(d, m, sign, precision))


@pytest.mark.parametrize("d", range(1, 11))
def test_series_by_columns_matches_dense_oracle(d):
    for sign in (PLUS, MINUS):
        for precision in DENSE_ORACLE_PRECISIONS:
            assert (list(series_by_columns(d, sign, precision).coeffs)
                    == dense_series_by_columns(d, sign, precision))


def test_closed_forms_reject_negative_precision():
    with pytest.raises(ValueError):
        series_exact(2, 1, PLUS, -1)
    with pytest.raises(ValueError):
        series_by_columns(2, PLUS, -1)
