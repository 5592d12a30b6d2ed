"""The staircase / flip / row-subtraction chain and its inverse."""

import inspect
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankblocks.bijections as bijections_mod
from rankblocks.bijections import (
    FrobeniusArray,
    array_to_gamma,
    array_to_symbol,
    bijection_trace,
    flipped_rows,
    gamma_to_array,
    gamma_to_pi,
    lambda_to_pi,
    pi_to_gamma,
    pi_to_lambda,
    sign_of_last_block,
    symbol_to_array,
)
from rankblocks.partitions import (
    NEGATIVE,
    SIGN_LETTER,
    FrobeniusSymbol,
    ParityBlocks,
    alternating_sign_word,
    iter_frobenius_symbols,
    parity_blocks,
)
from rankblocks.posets import Composition, PosetPartition, build_s_beta, compositions
from rankblocks.qseries import MINUS, PLUS

PAPER_SYMBOL = FrobeniusSymbol((16, 14, 13, 12, 10, 4, 3, 1),
                               (17, 14, 12, 11, 8, 6, 1, 0))


def all_symbols_up_to(max_n):
    for n in range(1, max_n + 1):
        d = 1
        while d * d <= n:
            yield from iter_frobenius_symbols(n, d)
            d += 1


# ----------------------------------------------------------------------
# staircase removal
# ----------------------------------------------------------------------


def test_symbol_to_array_worked_example():
    mu = symbol_to_array(PAPER_SYMBOL)
    assert mu.top == (9, 8, 8, 8, 7, 2, 2, 1)
    assert mu.bottom == (10, 8, 7, 7, 5, 4, 0, 0)
    assert mu.weight == PAPER_SYMBOL.size - 8 * 8 == 86


def test_symbol_to_array_single_column():
    f = FrobeniusSymbol((3,), (1,))
    mu = symbol_to_array(f)
    assert (mu.top, mu.bottom) == ((3,), (1,))


def test_array_round_trip_and_parity_preservation():
    for f in all_symbols_up_to(25):
        mu = symbol_to_array(f)
        assert array_to_symbol(mu) == f
        assert mu.weight == f.size - f.d * f.d
        fb = parity_blocks(f)
        ab = parity_blocks(mu)
        assert (fb.sizes, fb.signs) == (ab.sizes, ab.signs)


def test_array_validation():
    with pytest.raises(ValueError):
        FrobeniusArray((1, 2), (0, 0))
    with pytest.raises(ValueError):
        FrobeniusArray((1,), (-1,))


# ----------------------------------------------------------------------
# array -> gamma
# ----------------------------------------------------------------------


def test_array_to_gamma_worked_example():
    mu = symbol_to_array(PAPER_SYMBOL)
    assert flipped_rows(mu) == ((10, 8, 8, 8, 7, 4, 2, 1), (9, 8, 7, 7, 5, 2, 0, 0))
    gamma = array_to_gamma(mu)
    assert gamma.structure.beta.parts == (2, 3, 1, 2)
    assert gamma.rows() == [[10, 8], [9, 8, 8, 8, 7], [7, 7, 5, 4], [2, 2, 1], [0, 0]]
    assert gamma.weight == 86


def test_array_to_gamma_single_positive_column():
    gamma = array_to_gamma(FrobeniusArray((4,), (1,)))
    assert gamma.rows() == [[4], [1]]


def test_gamma_validity_and_strictness_sweep():
    # order-reversing is enforced by the PosetPartition constructor; on top of
    # that, columns coming from positive blocks must decrease strictly
    for f in all_symbols_up_to(20):
        mu = symbol_to_array(f)
        gamma = array_to_gamma(mu)
        assert gamma.weight == mu.weight
        blocks = parity_blocks(mu)
        sums = gamma.structure.beta.partial_sums
        for l, sign in enumerate(blocks.signs, start=1):
            if sign != "P":
                continue
            for j in range(sums[l - 1] + 1, sums[l] + 1):
                assert gamma.value(l, j) > gamma.value(l + 1, j)


# ----------------------------------------------------------------------
# gamma -> pi and back
# ----------------------------------------------------------------------


def test_gamma_to_pi_worked_example():
    gamma = array_to_gamma(symbol_to_array(PAPER_SYMBOL))
    pi = gamma_to_pi(gamma, PLUS)
    assert pi.rows() == [[8, 6], [7, 6, 6, 6, 5], [6, 6, 4, 3], [1, 1, 0], [0, 0]]
    assert pi.weight == 65
    assert gamma.weight - pi.weight == 21 == 2 + 5 + 6 + 8
    assert pi_to_gamma(pi, PLUS).rows() == gamma.rows()


def test_gamma_to_pi_single_block_offsets():
    # m = 1, plus: subtract 1 from the top row and 0 from the bottom row
    gamma = array_to_gamma(FrobeniusArray((4,), (1,)))
    pi = gamma_to_pi(gamma, PLUS)
    assert pi.rows() == [[3], [1]]


def test_gamma_to_pi_rejects_wrong_sign():
    structure = build_s_beta((1,))
    gamma = PosetPartition(structure, (0, 0))
    with pytest.raises(ValueError):
        gamma_to_pi(gamma, PLUS)  # would drive the top entry to -1


def test_gamma_to_array_detects_wrong_sign():
    # a gamma whose top-vs-bottom difference is 0 in the first block cannot be
    # the flip of a positive first block
    structure = build_s_beta((2, 1))
    gamma = PosetPartition.from_rows(structure, [[3, 3], [3, 3, 1], [0]])
    with pytest.raises(ValueError):
        gamma_to_array(gamma, MINUS)  # expects signs (P, N); block 1 ranks are 0


# ----------------------------------------------------------------------
# full chain
# ----------------------------------------------------------------------


def test_full_chain_round_trip_paper_example():
    pi = lambda_to_pi(PAPER_SYMBOL)
    assert pi_to_lambda(pi, PLUS) == PAPER_SYMBOL


def test_two_chain_inverse():
    structure = build_s_beta((1,))
    pi = PosetPartition(structure, (3, 1))
    f = pi_to_lambda(pi, PLUS)
    assert (f.top, f.bottom) == ((4,), (1,))


def test_round_trip_weight_ledger_and_injectivity():
    images = {}
    for f in all_symbols_up_to(22):
        sign = sign_of_last_block(f)
        pi = lambda_to_pi(f)
        assert pi_to_lambda(pi, sign) == f
        beta = pi.structure.beta
        sums = beta.partial_sums
        drop = sum(sums[1:]) if sign == PLUS else sum(sums[1:-1])
        assert f.size == pi.weight + f.d * f.d + drop
        if f.size <= 20:
            key = (f.size, f.d, beta.parts, sign, pi.values)
            assert key not in images, f"images collide: {f} vs {images[key]}"
            images[key] = f


def test_forward_chain_takes_only_its_input():
    # The forward chain reads beta and the sign off its input's parity blocks,
    # so there is no second argument to disagree with them.  The inverse
    # direction keeps its sign, which pi does not determine.
    for forward in (lambda_to_pi, bijection_trace, array_to_gamma, flipped_rows):
        assert len(inspect.signature(forward).parameters) == 1, forward.__name__
    for inverse in (gamma_to_pi, pi_to_gamma, gamma_to_array, pi_to_lambda):
        assert list(inspect.signature(inverse).parameters)[1:] == ["sign"], inverse.__name__
    with pytest.raises(TypeError):
        lambda_to_pi(PAPER_SYMBOL, MINUS)
    # An array of three rank-0 columns is one negative block, so gamma lies
    # on S_(3), whatever blocks a caller might have had in mind.
    gamma = array_to_gamma(FrobeniusArray((3, 3, 3), (3, 3, 3)))
    assert gamma.structure == build_s_beta((3,))


def test_bijection_trace_stage_weights():
    trace = bijection_trace(PAPER_SYMBOL)
    assert [st["stage"] for st in trace] == ["lambda", "mu", "mu_hat", "gamma", "pi"]
    assert [st["weight"] for st in trace] == [150, 86, 86, 86, 65]
    assert trace[0]["sign"] == PLUS
    assert trace[3]["beta"] == [2, 3, 1, 2]


def test_forward_chain_reads_parity_blocks_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return parity_blocks(f)

    monkeypatch.setattr(bijections_mod, "parity_blocks", counting)
    pi = lambda_to_pi(PAPER_SYMBOL)
    assert len(calls) == 1
    trace = bijection_trace(PAPER_SYMBOL)
    assert len(calls) == 2
    assert trace[-1]["rows"] == pi.rows()


# ----------------------------------------------------------------------
# the slice passes against the cell-by-cell chain
# ----------------------------------------------------------------------
#
# The reference below places and reads one cell (i, j) at a time through the
# poset's labels and rows, as the chain did before it became slice passes over
# the label-order values.


def _ref_flip(top, bottom, sizes, signs):
    new_top, new_bottom = list(top), list(bottom)
    pos = 0
    for size, s in zip(sizes, signs):
        if s == NEGATIVE:
            for j in range(pos, pos + size):
                new_top[j], new_bottom[j] = new_bottom[j], new_top[j]
        pos += size
    return tuple(new_top), tuple(new_bottom)


def _ref_array_to_gamma(a):
    blocks = parity_blocks(a)
    beta = Composition(blocks.sizes)
    structure = build_s_beta(beta)
    hat_top, hat_bottom = _ref_flip(a.top, a.bottom, blocks.sizes, blocks.signs)
    values = [0] * structure.size
    sums = beta.partial_sums
    for l in range(1, beta.m + 1):
        for j in range(sums[l - 1] + 1, sums[l] + 1):
            values[structure.label(l, j) - 1] = hat_top[j - 1]
            values[structure.label(l + 1, j) - 1] = hat_bottom[j - 1]
    return PosetPartition(structure, tuple(values))


def _ref_offsets(m, sign):
    if sign == PLUS:
        return tuple((m + 2 - i) // 2 for i in range(1, m + 2))
    return tuple((m + 1 - i) // 2 for i in range(1, m + 2))


def _ref_gamma_to_pi(g, sign):
    offsets = _ref_offsets(g.structure.beta.m, sign)
    new_rows = []
    for offset, row in zip(offsets, g.rows()):
        shifted = [v - offset for v in row]
        if any(v < 0 for v in shifted):
            raise ValueError(
                f"row subtraction drives an entry negative; gamma is not a "
                f"{sign}-case image (row offsets {offsets})")
        new_rows.append(shifted)
    return PosetPartition.from_rows(g.structure, new_rows)


def _ref_pi_to_gamma(p, sign):
    offsets = _ref_offsets(p.structure.beta.m, sign)
    return PosetPartition.from_rows(
        p.structure, [[v + offset for v in row] for offset, row in zip(offsets, p.rows())])


def _ref_gamma_to_array(g, sign):
    beta = g.structure.beta
    sums = beta.partial_sums
    signs = alternating_sign_word(beta.m, SIGN_LETTER[sign])
    hat_top, hat_bottom = [], []
    for l in range(1, beta.m + 1):
        for j in range(sums[l - 1] + 1, sums[l] + 1):
            hat_top.append(g.value(l, j))
            hat_bottom.append(g.value(l + 1, j))
    array = FrobeniusArray(*_ref_flip(hat_top, hat_bottom, beta.parts, signs))
    blocks = parity_blocks(array)
    if blocks.sizes != beta.parts or blocks.sign_word != signs:
        raise ValueError(
            f"reconstructed array has blocks {blocks.sizes}/{blocks.sign_word}, "
            f"expected {beta.parts}/{signs}; not in the forward image")
    return array


def _outcome(fn, *args):
    # The result, or the type and message of the exception raised instead.
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def test_forward_chain_matches_cell_by_cell_reference():
    for f in all_symbols_up_to(18):
        sign = sign_of_last_block(f)
        mu = symbol_to_array(f)
        gamma = array_to_gamma(mu)
        ref_gamma = _ref_array_to_gamma(mu)
        assert gamma.structure == ref_gamma.structure
        assert gamma.values == ref_gamma.values
        pi = lambda_to_pi(f)
        assert pi.values == _ref_gamma_to_pi(ref_gamma, sign).values
        assert pi_to_gamma(pi, sign).values == ref_gamma.values
        assert gamma_to_array(gamma, sign) == _ref_gamma_to_array(ref_gamma, sign) == mu


@st.composite
def order_reversing_maps(draw):
    # Any order-reversing map of S_beta for d <= 5: in label order every value
    # is capped by the values of the elements it covers.
    d = draw(st.integers(1, 5))
    beta = draw(st.sampled_from(list(compositions(d))))
    structure = build_s_beta(beta)
    values = []
    for covers in structure.lower_covers:
        cap = min((values[c] for c in covers), default=12)
        values.append(draw(st.integers(0, cap)))
    return PosetPartition(structure, tuple(values))


@given(order_reversing_maps(), st.sampled_from([PLUS, MINUS]))
@settings(max_examples=400, deadline=None)
def test_inverse_chain_matches_cell_by_cell_reference(p, sign):
    # Most drawn maps are not in the forward image, so the errors are
    # compared too: the same exception type and message at the same stage.
    assert _outcome(pi_to_gamma, p, sign) == _outcome(_ref_pi_to_gamma, p, sign)
    assert _outcome(gamma_to_pi, p, sign) == _outcome(_ref_gamma_to_pi, p, sign)
    assert _outcome(gamma_to_array, p, sign) == _outcome(_ref_gamma_to_array, p, sign)
    ref = _outcome(_ref_gamma_to_array, _ref_pi_to_gamma(p, sign), sign)
    if isinstance(ref, FrobeniusArray):
        ref = array_to_symbol(ref)
    assert _outcome(pi_to_lambda, p, sign) == ref


def test_round_trip_runs_each_validator_as_often_as_before(monkeypatch):
    # Every stage is still built through its validating constructor: per
    # lambda -> pi -> lambda round trip, two arrays (mu on each leg), three
    # poset partitions (gamma, pi, gamma), two parity-block records (one per
    # leg) and the recovered symbol.
    calls = {}
    for cls in (FrobeniusArray, PosetPartition, ParityBlocks, FrobeniusSymbol):
        def counting(self, *args, _original=cls.__init__, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            _original(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    symbols = [(f, sign_of_last_block(f)) for f in all_symbols_up_to(12)]
    calls.clear()
    for f, sign in symbols:
        assert pi_to_lambda(lambda_to_pi(f), sign) == f
    n = len(symbols)
    assert calls == {"FrobeniusArray": 2 * n, "PosetPartition": 3 * n,
                     "ParityBlocks": 2 * n, "FrobeniusSymbol": n}


# ----------------------------------------------------------------------
# the cached layout against the flip-then-slice passes
# ----------------------------------------------------------------------
#
# The references below are the passes the chain made before its placement
# and row constants became one cached gather and one shift per label.


def _ref_flip_then_slice(top, bottom, sizes, signs):
    hat_top, hat_bottom = _ref_flip(top, bottom, sizes, signs)
    values = []
    pos = 0
    for b in sizes:
        values += hat_top[pos:pos + b] + hat_bottom[pos:pos + b]
        pos += b
    return tuple(values)


def _ref_row_shifts(parts, sign):
    offsets = _ref_offsets(len(parts), sign)
    return tuple(offsets[l + half] for l, b in enumerate(parts) for half in (0, 1)
                 for _ in range(b))


def _ref_drop(parts, sign):
    # r_1 + ... + r_m in the plus case, r_1 + ... + r_{m-1} in the minus case.
    r, sums = 0, []
    for b in parts:
        r += b
        sums.append(r)
    return sum(sums) if sign == PLUS else sum(sums[:-1])


def test_placement_gather_matches_flip_then_slice():
    for d in range(1, 8):
        # Distinct entries, so the gather must move every one to its label.
        top, bottom = tuple(range(d)), tuple(range(d, 2 * d))
        for parts in compositions(d):
            for sign in (PLUS, MINUS):
                layout = bijections_mod._layout(parts, sign)
                assert layout.sign == sign
                assert layout.structure == build_s_beta(parts)
                signs = alternating_sign_word(len(parts), SIGN_LETTER[sign])
                values = layout.place(top + bottom)
                assert values == _ref_flip_then_slice(top, bottom, parts, signs), (parts, sign)
                assert layout.unplace(values) == top + bottom
                assert layout.offsets == _ref_offsets(len(parts), sign)
                assert layout.shifts == _ref_row_shifts(parts, sign)
                assert layout.drop == _ref_drop(parts, sign) == sum(layout.shifts)


def test_flipped_rows_match_the_row_interchange():
    for f in all_symbols_up_to(14):
        a = symbol_to_array(f)
        blocks = parity_blocks(a)
        assert flipped_rows(a) == _ref_flip(a.top, a.bottom, blocks.sizes, blocks.signs)


@pytest.mark.parametrize("stage, parts, rows, sign, message", [
    # a negative entry
    (gamma_to_pi, (1, 1), [[0], [0, 0], [0]], PLUS,
     "row subtraction drives an entry negative; gamma is not a plus-case image "
     "(row offsets (1, 1, 0))"),
    # the wrong sign
    (gamma_to_array, (1,), [[0], [0]], PLUS,
     "reconstructed array has blocks (1,)/N, expected (1,)/P; not in the forward image"),
    (gamma_to_array, (2, 1), [[3, 3], [3, 3, 1], [0]], MINUS,
     "reconstructed array has blocks (3,)/N, expected (2, 1)/PN; not in the forward image"),
    # a broken order
    (gamma_to_pi, (1, 1), [[1], [1, 0], [0]], MINUS,
     "assignment is not order-reversing at elements (1, 1) < (2, 1)"),
])
def test_non_images_raise_the_same_messages(stage, parts, rows, sign, message):
    gamma = PosetPartition.from_rows(build_s_beta(parts), rows)
    with pytest.raises(ValueError) as raised:
        stage(gamma, sign)
    assert str(raised.value) == message


class _Int(int):
    pass


def _validator_message(record, x):
    # Build one record with x in a checked entry; None when it is accepted.
    build = {
        FrobeniusSymbol: lambda: FrobeniusSymbol((x,), (0,)),
        FrobeniusArray: lambda: FrobeniusArray((x,), (0,)),
        PosetPartition: lambda: PosetPartition(build_s_beta((1,)), (x, 0)),
        ParityBlocks: lambda: ParityBlocks((x,), "P"),
    }[record]
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("record, prefix", [
    (FrobeniusSymbol, "entries must be nonnegative integers"),
    (FrobeniusArray, "entries must be nonnegative integers"),
    (PosetPartition, "values must be nonnegative integers"),
    (ParityBlocks, "block sizes must be positive integers"),
])
def test_validators_keep_their_verdicts_on_non_ints(record, prefix):
    # bool and non-int types are refused, negatives too; int subclasses pass.
    for x in (True, False, -1, 2.0, "3", None):
        assert _validator_message(record, x) == f"{prefix}, got {x!r}", x
    assert _validator_message(record, _Int(3)) is None
    assert _validator_message(record, 3) is None


# ----------------------------------------------------------------------
# the one-pass validators against the loops they replaced
# ----------------------------------------------------------------------
#
# The references are the validators before each row became one loop carrying
# the previous entry and before the covers became one flat list of pairs.


def _ref_symbol(top, bottom):
    top = tuple(top)
    bottom = tuple(bottom)
    if len(top) != len(bottom) or not top:
        raise ValueError("rows must have equal positive length")
    for row in (top, bottom):
        for i, x in enumerate(row):
            if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))
                    or x < 0):
                raise ValueError(f"entries must be nonnegative integers, got {x!r}")
            if i and row[i - 1] <= x:
                raise ValueError(f"rows must be strictly decreasing, got {row}")


def _ref_array(top, bottom):
    top = tuple(top)
    bottom = tuple(bottom)
    if len(top) != len(bottom) or not top:
        raise ValueError("rows must have equal positive length")
    for row in (top, bottom):
        for i, x in enumerate(row):
            if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))
                    or x < 0):
                raise ValueError(f"entries must be nonnegative integers, got {x!r}")
            if i and row[i - 1] < x:
                raise ValueError(f"rows must be weakly decreasing, got {row}")


def _ref_poset_partition(structure, values):
    values = tuple(values)
    if len(values) != structure.size:
        raise ValueError("one value per poset element required")
    for v in values:
        if (type(v) is not int and (not isinstance(v, int) or isinstance(v, bool))
                or v < 0):
            raise ValueError(f"values must be nonnegative integers, got {v!r}")
    for bi, covers in enumerate(structure.lower_covers):
        for ai in covers:
            if values[ai] < values[bi]:
                raise ValueError(
                    f"assignment is not order-reversing at elements "
                    f"{structure.elements[ai]} < {structure.elements[bi]}")


def _ref_parity_blocks(sizes, last_sign):
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one block")
    for size in sizes:
        if (type(size) is not int
                and (not isinstance(size, int) or isinstance(size, bool)) or size < 1):
            raise ValueError(f"block sizes must be positive integers, got {size!r}")
    if last_sign not in ("P", "N"):
        raise ValueError(f"last sign must be 'P' or 'N', got {last_sign!r}")


def _ref_composition(parts):
    parts = tuple(parts)
    if not parts:
        raise ValueError("composition must have at least one part")
    for b in parts:
        if not isinstance(b, int) or isinstance(b, bool) or b < 1:
            raise ValueError(f"parts must be positive integers, got {b!r}")


def _verdict(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


# Entries with every defect a validator names: negative, bool, float, str and
# None, next to ints and an int subclass, which pass.
_ENTRIES = (0, 1, 2, 3, -1, True, 2.0, _Int(1), "3", None)


def _rows(entries, longest):
    return [row for n in range(longest + 1) for row in product(entries, repeat=n)]


def test_two_row_validators_match_the_loops_they_replaced():
    # Rows of up to two entries from every kind, and of three ints, so that one
    # row can carry two defects (a bad entry and a rise, in either order).
    rows = _rows(_ENTRIES, 2) + _rows((0, 1, 2, 3, -1, _Int(2)), 3)
    checked = 0
    for top in rows:
        for bottom in rows:
            for record, ref in ((FrobeniusSymbol, _ref_symbol), (FrobeniusArray, _ref_array)):
                expected = _verdict(ref, top, bottom)
                assert _verdict(record, top, bottom) == expected, (record, top, bottom)
                if expected is None:
                    built = record(list(top), list(bottom))
                    assert (built.top, built.bottom) == (top, bottom)
                    assert type(built.top) is type(built.bottom) is tuple
                    checked += 1
    assert checked > 1000


def test_poset_partition_names_the_first_violated_cover_as_before():
    # Every map to {0, 1, 2} of S_beta for d <= 3, most of which break several
    # covers, and each with one entry replaced by a bad value.
    checked = 0
    for d in range(1, 4):
        for beta in compositions(d):
            structure = build_s_beta(beta)
            for values in product((0, 1, 2), repeat=structure.size):
                expected = _verdict(_ref_poset_partition, structure, values)
                assert _verdict(PosetPartition, structure, values) == expected, (beta, values)
                checked += expected is not None and "order-reversing" in expected
            for bad in (-1, True, 2.0, _Int(1), None):
                for k in range(structure.size):
                    values = (2,) * k + (bad,) + (0,) * (structure.size - k - 1)
                    assert (_verdict(PosetPartition, structure, values)
                            == _verdict(_ref_poset_partition, structure, values)), values
            for values in ((), (0,) * (structure.size + 1)):
                assert (_verdict(PosetPartition, structure, values)
                        == _verdict(_ref_poset_partition, structure, values))
    assert checked > 1000


def test_parity_blocks_record_matches_the_loop_it_replaced():
    for sizes in _rows((1, 2, 0, -1, True, 2.0, _Int(2), "3"), 3):
        for last_sign in ("P", "N", "p", None):
            expected = _verdict(_ref_parity_blocks, sizes, last_sign)
            assert _verdict(ParityBlocks, sizes, last_sign) == expected, (sizes, last_sign)
            if expected is None:
                assert ParityBlocks(list(sizes), last_sign).sizes == sizes


def test_composition_record_matches_the_loop_it_replaced():
    # Rows of up to three entries of every kind, so that one row can carry two
    # bad entries; the first one wins.
    checked = 0
    for parts in _rows(_ENTRIES, 3):
        expected = _verdict(_ref_composition, parts)
        assert _verdict(Composition, parts) == expected, parts
        if expected is None:
            assert Composition(list(parts)).parts == parts
            checked += 1
    assert checked > 50


def test_layout_cache_is_bounded():
    # One layout per (composition, sign) the chain meets; a long run over
    # many compositions must not keep them all.
    assert bijections_mod._layout.cache_info().maxsize is not None
