"""Frobenius symbols, successive ranks, and parity blocks.

The counting functions read a census from :func:`build_census`, one table per
column count d, built by a column DP over the two rows of a symbol with the
staircase removed: one exact pass gives the counts for every size up to the
declared bound.  Symbol enumeration stays for listing the symbols behind a
count, for failure witnesses, for the bijection chain, and as the brute-force
reference the tests compare the census against.  Both serve as the enumeration
oracle against which the closed-form series of :mod:`rankblocks.qseries` are
verified, so they must not share any code path with those series.
"""

from functools import lru_cache
from math import comb, isqrt
from operator import gt

from ._record import Record, check_ints, field_width, guard, low_fields, setfield, unpack
from .qseries import MINUS, PLUS, check_sign

POSITIVE = "P"
NEGATIVE = "N"
SIGN_LETTER = {PLUS: POSITIVE, MINUS: NEGATIVE}


_DECREASING = ("rows must be weakly decreasing", "rows must be strictly decreasing")


class TwoRowRecord(Record):
    """Two equal-length nonempty rows of nonnegative integers, each entry at
    least ``_gap`` below the one before it in its row: a subclass sets 1 for
    strictly decreasing rows or 0 for weakly decreasing ones.  Column i
    carries the pair (top[i], bottom[i])."""

    __slots__ = ("top", "bottom")

    def __init__(self, top, bottom):
        if type(top) is not tuple or type(bottom) is not tuple:
            top, bottom = tuple(top), tuple(bottom)
        if len(top) != len(bottom) or not top:
            raise ValueError("rows must have equal positive length")
        gap = self._gap
        order = _DECREASING[gap]
        for row in (top, bottom):
            check_ints(row, "entries must be nonnegative integers", 0, gap, order)
        setfield(self, "top", top)
        setfield(self, "bottom", bottom)

    @property
    def d(self) -> int:
        return len(self.top)

    def to_json_dict(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}


class FrobeniusSymbol(TwoRowRecord):
    """Two equal-length strictly decreasing rows of nonnegative integers; the
    represented partition has size sum(top) + sum(bottom) + d, where d is the
    number of columns."""

    __slots__ = ()
    _gap = 1

    @property
    def size(self) -> int:
        return sum(self.top) + sum(self.bottom) + self.d

    def __str__(self):
        return "({} / {})".format(
            " ".join(map(str, self.top)), " ".join(map(str, self.bottom)))

    @classmethod
    def from_json_dict(cls, data: dict) -> "FrobeniusSymbol":
        """Entries pass through unconverted, so the validator rejects floats,
        bools and strings instead of silently rounding or parsing them."""
        rows = []
        for key in ("top", "bottom"):
            if key not in data:
                raise ValueError(f"symbol JSON needs a {key!r} list")
            if not isinstance(data[key], list):
                raise ValueError(f"symbol {key!r} must be a list, got {data[key]!r}")
            rows.append(tuple(data[key]))
        return cls(*rows)


def alternating_sign_word(length: int, last: str) -> str:
    """The alternating P/N word of the given length ending with the given letter."""
    if length < 1:
        raise ValueError("length must be positive")
    if last not in (POSITIVE, NEGATIVE):
        raise ValueError(f"last must be 'P' or 'N', got {last!r}")
    other = NEGATIVE if last == POSITIVE else POSITIVE
    letters = [last if (length - i) % 2 == 0 else other for i in range(1, length + 1)]
    return "".join(letters)


class ParityBlocks(Record):
    """Maximal runs of same-sign columns; sign P means rank >= 1, N means rank <= 0.

    Consecutive blocks alternate in sign, so the block sizes and the sign of
    the last block fix every sign."""

    __slots__ = ("sizes", "last_sign")

    def __init__(self, sizes, last_sign):
        if type(sizes) is not tuple:
            sizes = tuple(sizes)
        if not sizes:
            raise ValueError("need at least one block")
        check_ints(sizes, "block sizes must be positive integers", 1)
        if last_sign not in (POSITIVE, NEGATIVE):
            raise ValueError(f"last sign must be 'P' or 'N', got {last_sign!r}")
        setfield(self, "sizes", sizes)
        setfield(self, "last_sign", last_sign)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def sign_word(self) -> str:
        return alternating_sign_word(self.m, self.last_sign)

    @property
    def signs(self) -> tuple[str, ...]:
        return tuple(self.sign_word)

    def to_json_dict(self) -> dict:
        return {"sizes": list(self.sizes), "signs": self.sign_word}


def split_parity_runs(ranks) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Split a rank sequence into maximal same-sign runs; returns (sizes, signs)."""
    ranks = tuple(ranks)
    if not ranks:
        raise ValueError("need at least one column")
    sizes = []
    signs = []
    for r in ranks:
        s = POSITIVE if r >= 1 else NEGATIVE
        if signs and signs[-1] == s:
            sizes[-1] += 1
        else:
            sizes.append(1)
            signs.append(s)
    return tuple(sizes), tuple(signs)


# The blocks depend only on which columns have rank >= 1, i.e. top > bottom.
# The memo is bounded; its 2048 entries hold all 2046 patterns of d <= 10.
@lru_cache(maxsize=2048)
def _runs_of_pattern(pattern: tuple[bool, ...]) -> tuple[tuple[int, ...], str]:
    # True >= 1 and False < 1, so the pattern splits exactly as the ranks do.
    sizes, signs = split_parity_runs(pattern)
    return sizes, signs[-1]


def parity_blocks(f: FrobeniusSymbol) -> ParityBlocks:
    """The parity blocks of a symbol, or of an array with the same column
    ranks; a fresh ``ParityBlocks`` is validated on every call."""
    return ParityBlocks(*_runs_of_pattern(tuple(map(gt, f.top, f.bottom))))


# ----------------------------------------------------------------------
# symbol enumeration
# ----------------------------------------------------------------------


def _strict_desc_exact(length, total, cap=None):
    # Strictly decreasing nonnegative tuples of the given length and sum,
    # entries < cap, in reverse-lexicographic order.  Lengths 1 and 2 are
    # listed directly: one entry, or a first entry above half the total.
    hi = total - (length - 1) * (length - 2) // 2
    if cap is not None:
        hi = min(hi, cap - 1)
    if length == 1:
        if 0 <= total <= hi:
            yield (total,)
        return
    if length == 2:
        for first in range(hi, total // 2, -1):
            yield (first, total - first)
        return
    max_tail = (length - 1) * length // 2
    for first in range(hi, length - 2, -1):
        tail_total = total - first
        if tail_total > (length - 1) * first - max_tail:
            break
        for tail in _strict_desc_exact(length - 1, tail_total, cap=first):
            yield (first,) + tail


def _strict_desc_at_most(length, max_total, cap=None):
    # Same shape as above but with sum <= max_total.
    if length == 0:
        yield ()
        return
    hi = max_total - (length - 1) * (length - 2) // 2
    if cap is not None:
        hi = min(hi, cap - 1)
    for first in range(hi, length - 2, -1):
        for tail in _strict_desc_at_most(length - 1, max_total - first, cap=first):
            yield (first,) + tail


def iter_frobenius_symbols(n: int, d: int):
    """All Frobenius symbols of size n with exactly d columns, deterministically
    ordered (top row reverse-lexicographic, then bottom row)."""
    if d < 1 or n < d * d:
        return
    budget = n - d
    stair = d * (d - 1) // 2
    for top in _strict_desc_at_most(d, budget - stair):
        for bottom in _strict_desc_exact(d, budget - sum(top)):
            yield FrobeniusSymbol(top, bottom)


def iter_symbols_in_class(n: int, d: int, m: int, sign: str):
    """The symbols of size n with d columns and m parity blocks, the last block
    of the given sign, each paired with its parity blocks."""
    letter = SIGN_LETTER[check_sign(sign)]
    for f in iter_frobenius_symbols(n, d):
        blocks = parity_blocks(f)
        if blocks.m == m and blocks.last_sign == letter:
            yield f, blocks


# ----------------------------------------------------------------------
# counts: the column DP
# ----------------------------------------------------------------------
#
# Removing the staircase d-1, ..., 1, 0 from both rows of a d-column symbol of
# size n leaves two weakly decreasing rows x, y of nonnegative integers with
# total weight n - d*d; every column keeps its rank x_i - y_i.  The DP places
# the columns of these rows one at a time, from the first (largest) to the
# last, so the last column placed gives the sign of the last block.  A cell
# (x, y) stands for the column placed most recently and holds, for every block
# count, the weight polynomial of the columns placed so far.  The next column
# (x', y') <= (x, y) extends the current block when it has the same sign and
# opens a new block otherwise, so it collects the suffix rectangle sums of the
# same-sign cells and, one block lower, of the opposite-sign cells.  This is
# the transfer-matrix method (Stanley, Enumerative Combinatorics 1, 4.7).
#
# A cell's polynomial in q (weight) and t (blocks - 1) is packed into one
# integer (:mod:`rankblocks._record`), the coefficient of q^w t^k in the bit
# field k*(budget+1) + w.  Every coefficient, of a cell or of a rectangle sum,
# counts distinct partial rows of weight w <= budget, so none exceeds the
# number of ways to split the budget into 2d ordered nonnegative parts.  That
# bound fixes the field width.  A sum is masked to weights <= budget - s'
# before the shift by the new column's weight s', or a weight past the budget
# would carry into the next block count.  A row's cells sum its suffix sums
# of one sign with those of the other one block lower.  The row's full suffix
# sums of both signs, plus the same one block lower, dominate every cell of the
# row and still count distinct partial rows, so the guard checks that once per
# row, and the two sign totals last.


def _census_table(bound: int, d: int) -> list:
    """Entry n is the census of size-n symbols with d columns, keyed by
    (m, last block sign), for every n <= bound."""
    table = [{} for _ in range(bound + 1)]
    budget = bound - d * d
    if budget < 0:
        return table
    width = field_width(comb(budget + 2 * d - 1, 2 * d - 1))
    slot = width * (budget + 1)
    # keep[c] keeps the weights 0..c of every block count.
    keep = [sum(low_fields(c + 1, width) << k * slot for k in range(d))
            for c in range(budget + 1)]
    check = guard(d * (budget + 1), width, "census DP")
    point = f"d = {d}, n <= {bound}"

    def next_column(rows, j):
        # The rows of column j, x = budget // j down to 0 (the j columns placed
        # weigh at least x + y each), from the rows of column j - 1 in the same
        # order.  Column sums per sign run down the rows, and a suffix sum per
        # sign runs back along each row.
        top = budget // j
        pos_cols = [0] * (budget // (j - 1) + 1)
        neg_cols = pos_cols[:]
        for x, old in zip(range(len(pos_cols) - 1, -1, -1), rows):
            for y, cell in enumerate(old):
                (pos_cols if x > y else neg_cols)[y] += cell
            if x > top:
                continue
            pos = sum(pos_cols[top - x + 1:])
            neg = sum(neg_cols[top - x + 1:])
            row = [0] * (top - x + 1)
            for y in range(top - x, -1, -1):
                pos += pos_cols[y]
                neg += neg_cols[y]
                same, other = (pos, neg) if x > y else (neg, pos)
                s = x + y
                row[y] = ((same + (other << slot)) & keep[budget - s]) << width * s
            both = pos + neg
            check(both + (both << slot), point)
            yield row

    # The first column opens one block at its own weight.
    rows = ([1 << width * (x + y) for y in range(budget - x + 1)]
            for x in range(budget, -1, -1))
    for j in range(2, d + 1):
        rows = next_column(rows, j)
    # The last column is split by sign as it streams: y < x is positive.
    totals = {POSITIVE: 0, NEGATIVE: 0}
    for x, row in zip(range(budget // d, -1, -1), rows):
        totals[POSITIVE] += sum(row[:x])
        totals[NEGATIVE] += sum(row[x:])
    for letter, total in totals.items():
        check(total, point)
        for i, count in enumerate(unpack(total, width)):
            if count:
                k, w = divmod(i, budget + 1)
                table[w + d * d][(k + 1, letter)] = count
    return table


class _Census(dict):
    # d -> census table; a table is built by the first read of its d.
    __slots__ = ("reach",)

    def __init__(self, reach):
        super().__init__()
        self.reach = reach

    def __missing__(self, d):
        self[d] = table = _census_table(self.reach[d], d)
        return table


def build_census(reach: dict) -> dict:
    """The census the counts below read: d -> census table up to n = reach[d],
    for each column count d >= 1, each table built the first time it is read.
    It never grows: reading a d it lacks, or past n, raises LookupError (a
    fault of the declared reach, not a ValueError)."""
    return _Census({d: bound for d, bound in reach.items() if d >= 1})


def count_exact(census: dict, n: int, d: int, m: int, sign: str) -> int:
    """Partitions of n with exactly d columns and m parity blocks, last block of
    the given sign.  Returns 0 whenever the combination is impossible."""
    check_sign(sign)
    if n < 1 or d < 1 or m < 1 or m > d or d * d > n:
        return 0
    return census[d][n].get((m, SIGN_LETTER[sign]), 0)


def count_by_blocks(census: dict, n: int, m: int, sign: str) -> int:
    """Partitions of n with exactly m parity blocks (any column count)."""
    check_sign(sign)
    if n < 1:
        return 0
    return sum(count_exact(census, n, d, m, sign) for d in range(1, isqrt(n) + 1))


def count_by_columns(census: dict, n: int, d: int, sign: str) -> int:
    """Partitions of n with exactly d columns (any number of blocks)."""
    check_sign(sign)
    if n < 1 or d < 1:
        return 0
    return sum(count_exact(census, n, d, m, sign) for m in range(1, d + 1))


def count_all_columns(census: dict, n: int, d: int) -> int:
    """Partitions of n with exactly d columns, regardless of block structure.

    Conventions: one empty partition with zero columns, so the (0, 0) case
    counts 1; negative n counts 0.
    """
    if d == 0:
        return 1 if n == 0 else 0
    if n < 1 or d * d > n:
        return 0
    return sum(census[d][n].values())


# ----------------------------------------------------------------------
# sign-word prefix counting
# ----------------------------------------------------------------------


def count_prefix_pattern(census: dict, n: int, pattern) -> int:
    """Partitions of n whose parity-block sign word starts with the pattern.

    The pattern (a string or sequence over {'P','N'}) must alternate, since
    parity blocks always do; the empty pattern counts every nonempty partition.
    """
    word = "".join(pattern)
    for i, ch in enumerate(word):
        if ch not in (POSITIVE, NEGATIVE):
            raise ValueError(f"pattern letters must be 'P' or 'N', got {ch!r}")
        if i and word[i - 1] == ch:
            raise ValueError(f"pattern must alternate in sign, got {word!r}")
    if n < 1:
        return 0
    # Blocks alternate, so the m-block word ending in `last` starts with
    # `last` when m is odd and with the other letter when m is even.  It
    # starts with the alternating pattern iff it is long enough and the
    # first letters agree.
    return sum(c for d in range(1, isqrt(n) + 1)
               for (m, last), c in census[d][n].items()
               if m >= len(word) and (not word or (last == word[0]) == (m % 2 == 1)))
