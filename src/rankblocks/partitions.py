"""Integer partitions, Frobenius symbols, successive ranks, and parity blocks.

The counting functions read a census from :func:`build_census`, one table per
column count d, built by a column DP over the two rows of a symbol with the
staircase removed: one exact pass gives the counts for every size up to the
declared bound.  Symbol enumeration stays for listing the symbols behind a
count, for failure witnesses, for the bijection chain, and as the brute-force
reference the tests compare the census against.  Both serve as the enumeration
oracle against which the closed-form series of :mod:`rankblocks.qseries` are
verified, so they must not share any code path with those series.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt
from operator import gt, sub

from .qseries import MINUS, PLUS, check_sign

POSITIVE = "P"
NEGATIVE = "N"
SIGN_LETTER = {PLUS: POSITIVE, MINUS: NEGATIVE}


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty tuple is the partition of 0."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        for i, p in enumerate(parts):
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def durfee_side(self) -> int:
        """Side of the largest square fitting in the Ferrers graph."""
        d = 0
        for i, p in enumerate(self.parts, start=1):
            if p >= i:
                d = i
        return d

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def to_json_dict(self) -> dict:
        return {"parts": list(self.parts)}


def enumerate_partitions(n: int):
    """Yield every partition of n exactly once, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(n, n if n else 1):
        yield Partition(parts)


def _tuple_fields(record) -> tuple[tuple, tuple]:
    # The rows of a two-row record as tuples, stored back only when they were not.
    top, bottom = record.top, record.bottom
    if type(top) is not tuple or type(bottom) is not tuple:
        top, bottom = tuple(top), tuple(bottom)
        object.__setattr__(record, "top", top)
        object.__setattr__(record, "bottom", bottom)
    return top, bottom


@dataclass(frozen=True, slots=True)
class FrobeniusSymbol:
    """Two equal-length strictly decreasing rows of nonnegative integers.

    Column i carries the pair (top[i], bottom[i]); the represented partition
    has size sum(top) + sum(bottom) + d where d is the number of columns.
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        top, bottom = _tuple_fields(self)
        if len(top) != len(bottom) or not top:
            raise ValueError("rows must have equal positive length")
        for row in (top, bottom):
            prev = None
            for x in row:
                if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))
                        or x < 0):
                    raise ValueError(f"entries must be nonnegative integers, got {x!r}")
                if prev is not None and prev <= x:
                    raise ValueError(f"rows must be strictly decreasing, got {row}")
                prev = x

    @property
    def d(self) -> int:
        return len(self.top)

    @property
    def size(self) -> int:
        return sum(self.top) + sum(self.bottom) + self.d

    def __str__(self):
        return "({} / {})".format(
            " ".join(map(str, self.top)), " ".join(map(str, self.bottom)))

    def to_json_dict(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

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


def to_frobenius(p: Partition) -> FrobeniusSymbol:
    """Read the symbol off the Ferrers graph: arms and legs along the diagonal."""
    d = p.durfee_side()
    if d == 0:
        raise ValueError("the empty partition has no Frobenius symbol")
    conj = p.conjugate().parts
    top = tuple(p.parts[i] - (i + 1) for i in range(d))
    bottom = tuple(conj[i] - (i + 1) for i in range(d))
    return FrobeniusSymbol(top, bottom)


def from_frobenius(f: FrobeniusSymbol) -> Partition:
    """Rebuild the unique partition with the given symbol."""
    d = f.d
    parts = [f.top[i] + (i + 1) for i in range(d)]
    col_lengths = [f.bottom[i] + (i + 1) for i in range(d)]
    j = d + 1
    while True:
        row = sum(1 for c in col_lengths if c >= j)
        if row == 0:
            break
        parts.append(row)
        j += 1
    return Partition(tuple(parts))


def successive_ranks(f: FrobeniusSymbol) -> tuple[int, ...]:
    """The i-th rank is top[i] - bottom[i]."""
    return tuple(map(sub, f.top, f.bottom))


def alternating_sign_word(length: int, last: str) -> str:
    """The alternating P/N word of the given length ending with the given letter."""
    if length < 1:
        raise ValueError("length must be positive")
    if last not in (POSITIVE, NEGATIVE):
        raise ValueError(f"last must be 'P' or 'N', got {last!r}")
    other = NEGATIVE if last == POSITIVE else POSITIVE
    letters = [last if (length - i) % 2 == 0 else other for i in range(1, length + 1)]
    return "".join(letters)


@dataclass(frozen=True, slots=True)
class ParityBlocks:
    """Maximal runs of same-sign columns; sign P means rank >= 1, N means rank <= 0.

    Consecutive blocks alternate in sign, so the block sizes and the sign of
    the last block fix every sign."""

    sizes: tuple[int, ...]
    last_sign: str

    def __post_init__(self):
        sizes = self.sizes
        if type(sizes) is not tuple:
            sizes = tuple(sizes)
            object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("need at least one block")
        for size in sizes:
            if (type(size) is not int
                    and (not isinstance(size, int) or isinstance(size, bool)) or size < 1):
                raise ValueError(f"block sizes must be positive integers, got {size!r}")
        if self.last_sign not in (POSITIVE, NEGATIVE):
            raise ValueError(f"last sign must be 'P' or 'N', got {self.last_sign!r}")

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
# the columns of these rows one at a time, from the last (smallest) to the
# first, so the first column placed fixes the sign of the last block.  A cell
# (x, y) stands for the column placed most recently and holds, for every block
# count, the weight polynomial of the columns placed so far.  The next column
# (x', y') >= (x, y) extends the current block when it has the same sign and
# opens a new block otherwise, so it collects the rectangle sums of the
# same-sign cells and, one block lower, of the opposite-sign cells.  This is
# the transfer-matrix method (Stanley, Enumerative Combinatorics 1, 4.7).
#
# A cell's polynomial in q (weight) and t (blocks - 1) is packed into one
# integer, the coefficient of q^w t^k in the bit field k*(budget+1) + w.  Every
# coefficient, of a cell or of a rectangle sum, counts distinct partial rows of
# weight w <= budget, so none exceeds the number of ways to split the budget
# into 2d ordered nonnegative parts.  That fixes the field width: no field
# carries into the next, and adding two cells adds their polynomials.


def _census_table(bound: int, d: int) -> list:
    """Entry n is the census of size-n symbols with d columns, keyed by
    (m, last block sign), for every n <= bound."""
    table = [{} for _ in range(bound + 1)]
    budget = bound - d * d
    if budget < 0:
        return table
    width = comb(budget + 2 * d - 1, 2 * d - 1).bit_length()
    slot = width * (budget + 1)
    # keep[c] keeps the weights 0..c of every block count.
    keep = [sum(((1 << width * (c + 1)) - 1) << k * slot for k in range(d))
            for c in range(budget + 1)]

    def next_column(cells, ahead):
        # The rows of cells for the next column placed: cell (x, y) with
        # x + y = s, holding only weights that leave room for `ahead` more
        # columns of weight at least s.  Column sums per sign run down the
        # rows, and a row sum per sign runs along each row.
        top = budget // (ahead + 1)
        pos_cols = [0] * (top + 1)
        neg_cols = [0] * (top + 1)
        for x in range(top + 1):
            old = cells[x] if x < len(cells) else ()
            pos = neg = 0
            row = []
            for y in range(top - x + 1):
                positive = x > y
                if y < len(old):
                    if positive:
                        pos_cols[y] += old[y]
                    else:
                        neg_cols[y] += old[y]
                pos += pos_cols[y]
                neg += neg_cols[y]
                same, other = (pos, neg) if positive else (neg, pos)
                s = x + y
                row.append(((same + (other << slot)) & keep[budget - (ahead + 1) * s])
                           << width * s)
            yield row

    field = (1 << width) - 1
    for letter in (POSITIVE, NEGATIVE):
        # The last column, placed first, carries the sign of the last block.
        first = letter == POSITIVE
        top = budget // d
        rows = ([1 << width * (x + y) if (x > y) == first else 0
                 for y in range(top - x + 1)] for x in range(top + 1))
        for ahead in range(d - 2, -1, -1):
            rows = next_column(list(rows), ahead)
        # The first column is summed as it streams and never stored.
        total = sum(sum(row) for row in rows)
        for k in range(d):
            for w in range(budget + 1):
                count = (total >> k * slot + w * width) & field
                if count:
                    table[w + d * d][(k + 1, letter)] = count
    return table


def build_census(reach: dict) -> dict:
    """The census the counts below read: d -> census table up to n = reach[d],
    for each column count d >= 1.  It never grows: reading a d it lacks, or past
    n, raises LookupError (a fault of the declared reach, not a ValueError)."""
    return {d: _census_table(bound, d) for d, bound in reach.items() if d >= 1}


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
