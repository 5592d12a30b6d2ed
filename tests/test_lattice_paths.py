"""Marked ballot paths, maj and vmr, the enumeration families."""

import tracemalloc
from itertools import chain, combinations, product
from math import comb

import pytest

import rankblocks.lattice_paths as lattice_paths_mod
from list_oracle import monomial, mul, one_minus
from rankblocks.lattice_paths import (
    MarkedBallotPath,
    _ballot_words,
    enumerate_ballot_words,
    enumerate_exact_marks,
    enumerate_fixed_returns,
    enumerate_marked_paths,
    gf_vmr,
    maj_path,
    marked_path_coeffs,
    marked_path_table,
    vmr,
)
from rankblocks.qseries import QSeries, qbinomial


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# ----------------------------------------------------------------------
# path objects
# ----------------------------------------------------------------------


def test_validation_rejects_bad_paths():
    with pytest.raises(ValueError):
        MarkedBallotPath("du")
    with pytest.raises(ValueError):
        MarkedBallotPath("ux")
    with pytest.raises(ValueError):
        MarkedBallotPath("udud", (4,))  # endpoint is not a valley
    with pytest.raises(ValueError):
        MarkedBallotPath("uudd", (2,))  # no return at x=2
    with pytest.raises(ValueError):
        MarkedBallotPath("ududu", (4, 2))  # marks must increase


@pytest.mark.parametrize("steps", [["u", 1], None, b"ud", [None], 5])
def test_steps_that_are_not_letters_are_refused_with_a_value_error(steps):
    with pytest.raises(ValueError, match="steps must be over 'u'/'d', got "):
        MarkedBallotPath(steps)


def test_valleys_and_returns():
    p = MarkedBallotPath("uduudd")
    assert p.valleys() == (2,)
    assert p.returns() == (2,)
    q = MarkedBallotPath("uudduudd")
    assert q.valleys() == (4,)
    assert q.returns() == (4,)


def _ref_returns(steps):
    # The separate walk the returns used to take.
    out = []
    height = 0
    for i, ch in enumerate(steps):
        height += 1 if ch == "u" else -1
        if height == 0 and ch == "d" and i + 1 < len(steps) and steps[i + 1] == "u":
            out.append(i + 1)
    return tuple(out)


def _ref_validate(steps, marks):
    # The step-then-marks validation, with a separate returns walk.
    height = 0
    for ch in steps:
        if ch == "u":
            height += 1
        elif ch == "d":
            height -= 1
        else:
            raise ValueError(f"steps must be over 'u'/'d', got {ch!r}")
        if height < 0:
            raise ValueError(f"path dips below the x-axis: {steps!r}")
    rets = set(_ref_returns(steps))
    prev = 0
    for x in marks:
        if x <= prev:
            raise ValueError("marks must be strictly increasing")
        if x not in rets:
            raise ValueError(f"mark at x={x} is not a return of {steps!r}")
        prev = x


def _message(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_one_walk_validation_matches_reference():
    words = chain.from_iterable(product("ud", repeat=n) for n in range(11))
    odd = chain.from_iterable(product("udx", repeat=n) for n in range(6))
    for steps in map("".join, chain(words, odd)):
        evens = range(0, len(steps) + 1, 2)
        mark_sets = chain.from_iterable(combinations(evens, k) for k in range(len(evens) + 1))
        for marks in chain(mark_sets, [(4, 2)]):
            expected = _message(_ref_validate, steps, marks)
            assert _message(MarkedBallotPath, steps, marks) == expected, (steps, marks)
            if expected is None:
                p = MarkedBallotPath(steps, marks)
                assert p.returns() == _ref_returns(steps)
                assert p.valleys() == tuple(
                    i + 1 for i in range(len(steps) - 1) if steps[i:i + 2] == "du")


class _Int(int):
    pass


@pytest.mark.parametrize("mark", [2.0, True, False, "2", None])
def test_marks_that_are_not_ints_are_refused(mark):
    # A float mark equal to a return used to pass, and then broke gf_vmr.
    with pytest.raises(ValueError) as direct:
        MarkedBallotPath("udud", (mark,))
    assert str(direct.value) == f"marks must be integers, got {mark!r}"
    with pytest.raises(ValueError) as remarked:
        MarkedBallotPath("udud")._remarked((mark,))
    assert str(remarked.value) == str(direct.value)


def test_int_subclass_marks_pass():
    p = MarkedBallotPath("udud", (_Int(2),))
    assert p == MarkedBallotPath("udud", (2,))
    assert vmr(p) == 1
    assert gf_vmr([p]).coeffs == (0, 1)


def test_recorded_walk_stays_out_of_equality_hash_and_repr():
    p = MarkedBallotPath("udud", (2,))
    assert repr(p) == "MarkedBallotPath(steps='udud', marks=(2,))"
    assert p == MarkedBallotPath(list("udud"), [2])
    assert hash(p) == hash(("udud", (2,)))
    assert p != MarkedBallotPath("udud")


def test_bar_string_round_trip():
    p = MarkedBallotPath("ududu", (2, 4))
    assert p.bar_string() == str(p) == "ud|ud|u"
    assert p.bar_string().replace("|", "") == p.steps
    assert MarkedBallotPath("ududu").bar_string() == "ududu"


# The paper's example path udud|uduudd|ud|uudd, marked at the returns x = 4, 10, 12.
PAPER_PATH = MarkedBallotPath("udud" "uduudd" "ud" "uudd", (4, 10, 12))


def test_maj_examples():
    assert maj_path(MarkedBallotPath("uudd")) == 0
    assert maj_path(MarkedBallotPath("ududu")) == 6
    assert maj_path(PAPER_PATH) == 34
    assert PAPER_PATH.bar_string() == "udud|uduudd|ud|uudd"


def test_vmr_examples():
    assert vmr(MarkedBallotPath("uuddu", (4,))) == 2
    assert vmr(MarkedBallotPath("ududu", (2, 4))) == 3
    unmarked = MarkedBallotPath("uduudd")
    assert vmr(unmarked) == maj_path(unmarked)


# ----------------------------------------------------------------------
# enumeration of marked families
# ----------------------------------------------------------------------


def test_marked_paths_worked_example():
    objects = list(enumerate_marked_paths(3, 2, 1))
    rendered = {o.bar_string() for o in objects}
    assert rendered == {"uudd|u", "ud|uud", "ud|udu", "udud|u", "ud|ud|u"}
    assert sorted(vmr(o) for o in objects) == [1, 2, 3, 4, 5]
    gf = QSeries.from_coeffs(gf_vmr(objects).coeffs, 5)
    assert list(gf.coeffs) == mul(monomial(1, 5), qbinomial(5, 4, 5).coeffs)


def test_marked_paths_base_case():
    assert [o.steps for o in enumerate_marked_paths(1, 0, 0)] == ["u"]
    assert list(enumerate_marked_paths(1, 0, 1)) == []


def test_marked_paths_2_1():
    objects = list(enumerate_marked_paths(2, 1, 0))
    assert len(objects) == 3
    assert QSeries.from_coeffs(gf_vmr(objects).coeffs, 2) == qbinomial(3, 2, 2)


def test_marked_paths_rejects_s_below_t():
    with pytest.raises(ValueError):
        list(enumerate_marked_paths(2, 3, 0))


def test_exact_marks_counts():
    assert [o.bar_string() for o in enumerate_exact_marks(1, 0)] == ["ud"]
    # frozen from exhaustive generation; consistent with the subset sum rule
    assert [len(list(enumerate_exact_marks(2, r))) for r in range(3)] == [2, 1, 0]


@pytest.mark.parametrize("s", range(1, 6))
def test_exact_marks_partition_marked_family(s):
    total = sum(len(list(enumerate_exact_marks(s, r))) for r in range(s + 1))
    assert total == len(list(enumerate_marked_paths(s, s, 0)))


def test_exact_marks_gf_small():
    # gf over 3-column Dyck paths with one mark: q (1-q^2)/(1-q^3) [6 over 5],
    # compared multiplied through by (1 - q^3) to stay polynomial.
    objects = list(enumerate_exact_marks(3, 1))
    precision = 16
    lhs = mul(QSeries.from_coeffs(gf_vmr(objects).coeffs, precision).coeffs,
              one_minus(3, precision))
    rhs = mul(monomial(1, precision), one_minus(2, precision),
              qbinomial(6, 5, precision).coeffs)
    assert lhs == rhs


@pytest.mark.parametrize("s", range(1, 13))
def test_marked_path_dp_matches_enumeration(s):
    # the step DP against the listed families: at least r marks for every
    # ballot shape with s + t <= 12, exactly r marks for the Dyck shape
    for t in range(min(s, 12 - s) + 1):
        for r in range(7):
            read = (s, t, r, False)
            listed = gf_vmr(enumerate_marked_paths(s, t, r))
            counted = marked_path_coeffs(marked_path_table([read]), *read)
            assert counted == list(listed.coeffs), read
            if t == s:
                read = (s, s, r, True)
                listed = gf_vmr(enumerate_exact_marks(s, r))
                counted = marked_path_coeffs(marked_path_table([read]), *read)
                assert counted == list(listed.coeffs), read


def test_marked_path_dp_far_past_enumeration():
    # (22, 20) has about 6.7e10 ballot words: compare with lemma 2.2 instead
    s, t, r = 22, 20, 3
    read = (s, t, r, False)
    coeffs = marked_path_coeffs(marked_path_table([read]), *read)
    precision = len(coeffs) - 1
    closed = mul(monomial(r * (r + 1) // 2, precision),
                 qbinomial(s + t, s + r, precision).coeffs)
    assert precision == r * (r + 1) // 2 + (s + r) * (t - r)
    assert coeffs == closed


def test_marked_path_dp_validation():
    for read in ((2, 3, 0, False), (2, -1, 0, False), (2, 1, -1, False)):
        with pytest.raises(ValueError):
            marked_path_table([read])
    read = (1, 0, 1, False)  # no return to mark: empty family
    assert marked_path_coeffs(marked_path_table([read]), *read) == [0]


@pytest.mark.parametrize("s, t", [(2, -1), (-1, -2)])
def test_marked_paths_refuse_the_step_counts_the_table_refuses(s, t):
    # A negative t used to list nothing, where the table refuses it.
    with pytest.raises(ValueError) as listed:
        next(enumerate_marked_paths(s, t, 0))
    with pytest.raises(ValueError) as counted:
        marked_path_table([(s, t, 0, False)])
    assert str(listed.value) == str(counted.value) == f"need s >= t >= 0, got s={s}, t={t}"


def _listing_reads():
    # Every read the listing checks quickly: each shape with s + t <= 14, at
    # least r marks for r <= 7, and exactly r marks on the Dyck shapes.
    for n in range(15):
        for t in range(n // 2 + 1):
            s = n - t
            for r in range(8):
                yield s, t, r, False
                if t == s >= 1:
                    yield s, s, r, True


@pytest.fixture(scope="module")
def listing():
    """read -> the listed family's vmr polynomial, for every listing read."""
    return {(s, t, r, exact): list(gf_vmr(enumerate_exact_marks(s, r) if exact
                                          else enumerate_marked_paths(s, t, r)).coeffs)
            for s, t, r, exact in _listing_reads()}


def test_one_path_table_matches_the_listing(listing):
    table = marked_path_table(listing)
    assert sorted(table) == sorted({(s + t, s - t) for s, t, _, _ in listing})
    for read, coeffs in listing.items():
        assert marked_path_coeffs(table, *read) == coeffs, read


def test_path_table_one_bit_narrower_disagrees_with_the_listing(monkeypatch, listing):
    # The bound C(s+t, t) << t is tight where t = 0: one path, vmr 0.  Halved,
    # it leaves that field only its guard bit, which the path's count sets.
    # On this grid every other shape keeps a bit or more to spare below its
    # guard bit, so the one-point tables that raise are exactly those, and
    # every other read still equals the listing.
    monkeypatch.setattr(lattice_paths_mod, "comb", lambda n, k: comb(n, k) >> 1)

    raised = set()
    for read, coeffs in listing.items():
        s, t = read[:2]
        try:
            assert marked_path_coeffs(marked_path_table([read]), *read) == coeffs, read
        except OverflowError as exc:
            assert str(exc) == (f"marked-path DP: a coefficient overflows its 1-bit field "
                                f"at s = {s}, t = {t}")
            raised.add((s, t))
    assert raised == {(s, 0) for s in range(15)}


def test_path_table_keeps_only_the_rows_read():
    # lemma-2.4 at s = 40 keeps one row, not one per length up to 80
    assert list(marked_path_table([(40, 40, 6, True)])) == [(80, 0)]
    table = marked_path_table([(5, 3, 1, False), (4, 4, 2, True), (5, 3, 0, False)])
    assert sorted(table) == [(8, 0), (8, 2)]
    for read in ((4, 4, 3, False), (4, 4, 2, True)):
        assert marked_path_coeffs(table, *read) == marked_path_coeffs(marked_path_table([read]),
                                                                      *read)
    # Marks are exact below the largest r + exact read, 3, and 3 counts 3 or
    # more; a shape not read is not in the table.
    for read in ((4, 4, 3, True), (4, 4, 4, False), (4, 4, -1, False), (6, 2, 0, False)):
        with pytest.raises(LookupError):
            marked_path_coeffs(table, *read)
    assert marked_path_table([]) == {}


def test_fixed_returns_no_positions_is_unmarked_family():
    for d in range(1, 9):
        paths = list(enumerate_fixed_returns(d, ()))
        assert len(paths) == catalan(d)
        assert all(p.marks == () for p in paths)


def test_fixed_returns_contains_paper_path():
    family = set(enumerate_fixed_returns(8, (2, 5, 6)))
    assert PAPER_PATH in family


def test_fixed_returns_single_position():
    assert [p.bar_string() for p in enumerate_fixed_returns(2, (1,))] == ["ud|ud"]


def _ref_fixed_returns(d, positions):
    # The walk-and-filter listing that the product of Dyck blocks replaced,
    # kept as the reference for its order: every Dyck word whose returns
    # include the marks.
    marks = tuple(2 * p for p in positions)
    for word in _ballot_words_recursive(d, d):
        if set(marks) <= set(MarkedBallotPath(word).returns()):
            yield MarkedBallotPath(word, marks)


@pytest.mark.parametrize("d", range(1, 9))
def test_fixed_returns_match_the_walk_and_filter_listing(d):
    for k in range(d):
        for positions in combinations(range(1, d), k):
            assert (_walked(enumerate_fixed_returns(d, positions))
                    == _walked(_ref_fixed_returns(d, positions))), (d, positions)


@pytest.mark.parametrize("positions", [(), (1,)])
def test_fixed_returns_stream(positions):
    # 35,357,670 Dyck words of length 32 for one block, 9,694,845 for the
    # second block after (1,): holding either would take gigabytes
    tracemalloc.start()
    try:
        first = next(enumerate_fixed_returns(16, positions))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == MarkedBallotPath("ud" * 16, tuple(2 * p for p in positions))
    assert peak < 100_000


def test_fixed_returns_validation():
    with pytest.raises(ValueError):
        list(enumerate_fixed_returns(3, (2, 2)))
    with pytest.raises(ValueError):
        list(enumerate_fixed_returns(3, (3,)))


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------


def test_enumerated_objects_satisfy_invariants():
    for s in range(1, 5):
        for t in range(s + 1):
            for obj in enumerate_marked_paths(s, t, 0):
                assert (obj.steps.count("u"), obj.steps.count("d")) == (s, t)
                height = 0
                for ch in obj.steps:
                    height += 1 if ch == "u" else -1
                    assert height >= 0
                assert set(obj.marks) <= set(obj.returns())
                assert vmr(obj) >= 0
                assert all(x % 2 == 0 for x in obj.marks)


def test_unmarked_dyck_paths_are_catalan_counted():
    for s in range(1, 11):
        assert sum(1 for _ in enumerate_ballot_words(s, s)) == catalan(s)


def test_ballot_words_are_lexicographic():
    words = list(enumerate_ballot_words(3, 2))
    assert words == sorted(words)


def _ballot_words_recursive(s, t):
    # The recursive listing that enumerate_ballot_words replaced, kept as the
    # reference for its order.
    def rec(u_left, d_left, height, prefix):
        if u_left == 0 and d_left == 0:
            yield prefix
            return
        if d_left > 0 and height > 0:
            yield from rec(u_left, d_left - 1, height - 1, prefix + "d")
        if u_left > 0:
            yield from rec(u_left - 1, d_left, height + 1, prefix + "u")

    yield from rec(s, t, 0, "")


def test_ballot_words_match_the_recursive_listing():
    for s in range(17):
        for t in range(min(s, 16 - s) + 1):
            assert list(enumerate_ballot_words(s, t)) == list(_ballot_words_recursive(s, t)), (s, t)


# ----------------------------------------------------------------------
# the pruned listing against the listing of every word
# ----------------------------------------------------------------------
#
# The references below walk every ballot word and build each marked variant
# through the validating constructor, as the listings did before they dropped
# words that cannot carry enough returns and reused the base path's walk.


def _ref_marked_paths(s, t, min_marks):
    for word in _ballot_words_recursive(s, t):
        rets = MarkedBallotPath(word).returns()
        for k in range(min_marks, len(rets) + 1):
            for marks in combinations(rets, k):
                yield MarkedBallotPath(word, marks)


def _ref_exact_marks(s, r):
    for word in _ballot_words_recursive(s, s):
        for marks in combinations(MarkedBallotPath(word).returns(), r):
            yield MarkedBallotPath(word, marks)


def _walked(paths):
    return [(p, p.valleys(), p.returns()) for p in paths]


@pytest.mark.parametrize("s", range(13))
def test_marked_paths_match_the_listing_of_every_word(s):
    # s + t <= 14, the grid of the transfer benchmark: the full t <= s grid at
    # s = 12 holds about 1.5e7 marked paths.
    for t in range(min(s, 14 - s) + 1):
        for r in range(8):
            assert (_walked(enumerate_marked_paths(s, t, r))
                    == _walked(_ref_marked_paths(s, t, r))), (s, t, r)


def test_listing_matches_the_table_past_six_returns():
    # _listing_reads stops at s + t = 14, where a word has at most 6 returns.
    # Every shape with s + t = 20 and r >= 4, at least r marks and exactly r on
    # the Dyck shape: 57,772 paths on words of up to 9 returns.
    reads = [(20 - t, t, r, exact) for t in range(11) for r in range(4, t + 1)
             for exact in (False, True) if not exact or t == 10]
    table = marked_path_table(reads)
    listed = 0
    for s, t, r, exact in reads:
        paths = list(enumerate_exact_marks(s, r) if exact else enumerate_marked_paths(s, t, r))
        listed += len(paths)
        assert list(gf_vmr(paths).coeffs) == marked_path_coeffs(table, s, t, r, exact), (
            s, t, r, exact)
    assert listed == 57_772
    assert max(len(p.returns()) for p in enumerate_exact_marks(10, 9)) == 9


@pytest.mark.parametrize("min_marks", [0, 19])
def test_marked_path_listing_stays_lazy(min_marks):
    # (20, 20) has 6,564,120,420 Dyck words; the first one listed, "ud" * 20,
    # has 19 returns.  Drawing it must hold neither the words nor the 2^19
    # mark sets of one word.
    tracemalloc.start()
    try:
        first = next(enumerate_marked_paths(20, 20, min_marks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.steps == "ud" * 20
    assert len(first.returns()) == 19
    assert len(first.marks) == min_marks
    assert peak < 100_000


@pytest.mark.parametrize("s", range(1, 11))
def test_exact_marks_match_the_listing_of_every_word(s):
    for r in range(8):
        assert _walked(enumerate_exact_marks(s, r)) == _walked(_ref_exact_marks(s, r)), (s, r)


def test_pruned_words_are_exactly_those_with_enough_returns():
    # The bound counts the returns a prefix has made, so no word short of
    # least_returns is walked at all.
    for s in range(13):
        for t in range(min(s, 14 - s) + 1):
            words = list(_ballot_words_recursive(s, t))
            for r in range(8):
                wanted = [w for w in words if len(MarkedBallotPath(w).returns()) >= r]
                assert list(_ballot_words(s, t, r)) == wanted, (s, t, r)


def test_remarked_path_is_the_directly_built_path():
    for word in chain(_ballot_words_recursive(6, 6), _ballot_words_recursive(7, 4)):
        base = MarkedBallotPath(word)
        rets = base.returns()
        for marks in chain.from_iterable(combinations(rets, k) for k in range(len(rets) + 1)):
            direct = MarkedBallotPath(word, marks)
            remarked = base._remarked(marks)
            assert remarked == direct
            assert hash(remarked) == hash(direct)
            assert repr(remarked) == repr(direct)
            assert remarked.valleys() == direct.valleys()
            assert remarked.returns() == direct.returns()


@pytest.mark.parametrize("marks", [(2, 2), (4, 2), (0,), (3,), (6,), (2, 8)])
def test_remarked_path_rejects_bad_marks_as_the_constructor_does(marks):
    base = MarkedBallotPath("ududuudd")
    with pytest.raises(ValueError) as direct:
        MarkedBallotPath(base.steps, marks)
    with pytest.raises(ValueError) as remarked:
        base._remarked(marks)
    assert str(remarked.value) == str(direct.value)
