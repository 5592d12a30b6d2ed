"""The weight-controlled chain between Frobenius symbols and poset partitions.

Forward direction: remove the staircase from a symbol to get a weakly
decreasing two-row array, flip the rows inside every negative parity block,
drop the columns into the block poset (giving gamma), then subtract a fixed
constant from each row (giving pi).  Every step is invertible given the
composition and the sign of the last block, and every step's weight change is
checked explicitly, so a wrong assumption fails loudly instead of producing a
plausible-looking array.

gamma and pi keep ``values`` in the natural label order of S_beta: block l
holds the labels 2 r_{l-1} + 1 .. 2 r_l, top row first.  So ``values`` is the
concatenation over the blocks of (top slice, bottom slice), b_l entries each.
The placement of mu's entries into those slices depends only on the parity
blocks (sizes, last sign), so it is built once per pair and cached with its
inverse: mu -> gamma and gamma -> mu are each one gather.  Likewise the row
constants give one cached shift per label, and gamma -> pi and pi -> gamma
subtract or add them in one pass.  Every stage is still built through its
validating constructor.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter, sub

from .partitions import (
    NEGATIVE,
    POSITIVE,
    SIGN_LETTER,
    FrobeniusSymbol,
    ParityBlocks,
    alternating_sign_word,
    parity_blocks,
)
from .posets import Composition, PosetPartition, build_s_beta
from .qseries import MINUS, PLUS, check_sign


@dataclass(frozen=True)
class FrobeniusArray:
    """Two equal-length weakly decreasing rows of nonnegative integers.

    Obtained from a d-column symbol by subtracting d-1, d-2, ..., 0 from the
    entries of each row; the subtraction is the same in both rows of a column,
    so the column ranks (and hence the parity blocks) are untouched while the
    weight drops by exactly d*(d-1).
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        top = tuple(self.top)
        bottom = tuple(self.bottom)
        if len(top) != len(bottom) or not top:
            raise ValueError("rows must have equal positive length")
        for row in (top, bottom):
            for i, x in enumerate(row):
                if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))
                        or x < 0):
                    raise ValueError(f"entries must be nonnegative integers, got {x!r}")
                if i and row[i - 1] < x:
                    raise ValueError(f"rows must be weakly decreasing, got {row}")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    @property
    def d(self) -> int:
        return len(self.top)

    @property
    def weight(self) -> int:
        return sum(self.top) + sum(self.bottom)

    def to_json_dict(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}


def symbol_to_array(f: FrobeniusSymbol) -> FrobeniusArray:
    """Subtract the staircase d-1, ..., 1, 0 from each row."""
    staircase = range(f.d - 1, -1, -1)
    return FrobeniusArray(tuple(map(sub, f.top, staircase)),
                          tuple(map(sub, f.bottom, staircase)))


def array_to_symbol(a: FrobeniusArray) -> FrobeniusSymbol:
    """Add the staircase back; weak decrease turns into strict decrease."""
    staircase = range(a.d - 1, -1, -1)
    return FrobeniusSymbol(tuple(map(add, a.top, staircase)),
                           tuple(map(add, a.bottom, staircase)))


def sign_of_last_block(f) -> str:
    """'plus' or 'minus' according to the sign of the final parity block of a
    symbol or an array (both have the same column ranks)."""
    return _resolve_sign(parity_blocks(f), None)


def _resolve_sign(blocks: ParityBlocks, sign: str | None) -> str:
    # The sign, when supplied, must match the symbol's last parity block.
    inferred = PLUS if blocks.last_sign == POSITIVE else MINUS
    if sign is not None and check_sign(sign) != inferred:
        raise ValueError(f"symbol's last block is {inferred}, not {sign}")
    return inferred


@lru_cache(maxsize=None)
def _placement(sizes: tuple[int, ...], last_sign: str):
    # (place, unplace) for the parity blocks (sizes, last_sign).  place maps
    # top + bottom of an array to gamma's values in label order: block l's top
    # slice takes the block's columns of the top row and its bottom slice
    # those of the bottom row, the other way round in a negative block.
    # unplace is its inverse.
    d = sum(sizes)
    index = []
    pos = 0
    for size, sign in zip(sizes, alternating_sign_word(len(sizes), last_sign)):
        upper, lower = (d + pos, pos) if sign == NEGATIVE else (pos, d + pos)
        index += range(upper, upper + size)
        index += range(lower, lower + size)
        pos += size
    inverse = [0] * (2 * d)
    for label, source in enumerate(index):
        inverse[source] = label
    return itemgetter(*index), itemgetter(*inverse)


def flipped_rows(a: FrobeniusArray, blocks: ParityBlocks | None = None
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The array rows after interchanging top and bottom in each negative block.
    ``blocks``, when given, must be the array's parity blocks."""
    blocks = parity_blocks(a) if blocks is None else blocks
    values = _placement(blocks.sizes, blocks.last_sign)[0](a.top + a.bottom)
    hat_top = hat_bottom = ()
    start = 0
    for b in blocks.sizes:
        hat_top += values[start:start + b]
        hat_bottom += values[start + b:start + 2 * b]
        start += 2 * b
    return hat_top, hat_bottom


def array_to_gamma(a: FrobeniusArray, blocks: ParityBlocks | None = None) -> PosetPartition:
    """Flip the negative blocks and drop block l's columns into rows l, l+1
    of the block poset, in one gather.  The composition is read off the
    array's parity blocks; ``blocks``, when given, must be those blocks."""
    blocks = parity_blocks(a) if blocks is None else blocks
    place = _placement(blocks.sizes, blocks.last_sign)[0]
    gamma = PosetPartition(build_s_beta(blocks.sizes), place(a.top + a.bottom))
    if gamma.weight != a.weight:
        raise AssertionError("placement must preserve the weight")
    return gamma


def _row_offsets(m: int, sign: str) -> tuple[int, ...]:
    # Constant subtracted from each of the m+1 rows, indexed from the top.
    # Counted from the bottom these are 0,1,1,2,2,... for the plus case and
    # 0,0,1,1,2,... for minus.
    check_sign(sign)
    if sign == PLUS:
        return tuple((m + 2 - i) // 2 for i in range(1, m + 2))
    return tuple((m + 1 - i) // 2 for i in range(1, m + 2))


@lru_cache(maxsize=None)
def _row_shifts(parts: tuple[int, ...], sign: str) -> tuple[int, ...]:
    # The row constant of every label: block l's top slice lies in row l and
    # its bottom slice in row l+1.
    offsets = _row_offsets(len(parts), sign)
    return tuple(offsets[l + half] for l, b in enumerate(parts) for half in (0, 1)
                 for _ in range(b))


@lru_cache(maxsize=None)
def _expected_drop(parts: tuple[int, ...], sign: str) -> int:
    sums = Composition(parts).partial_sums
    if sign == PLUS:
        return sum(sums[1:])
    return sum(sums[1:-1])


def gamma_to_pi(g: PosetPartition, sign: str) -> PosetPartition:
    """Subtract the per-row constants; valid only for gamma arising from an
    array whose last block matches the sign (otherwise entries go negative or
    the order-reversing check fails, both of which raise)."""
    parts = g.structure.beta.parts
    values = tuple(map(sub, g.values, _row_shifts(parts, sign)))
    if min(values) < 0:
        raise ValueError(
            f"row subtraction drives an entry negative; gamma is not a "
            f"{sign}-case image (row offsets {_row_offsets(len(parts), sign)})")
    pi = PosetPartition(g.structure, values)
    drop = g.weight - pi.weight
    if drop != _expected_drop(parts, sign):
        raise AssertionError(
            f"weight drop {drop} disagrees with the partial-sum total "
            f"{_expected_drop(parts, sign)}")
    return pi


def pi_to_gamma(p: PosetPartition, sign: str) -> PosetPartition:
    """Add the per-row constants back."""
    shifts = _row_shifts(p.structure.beta.parts, sign)
    return PosetPartition(p.structure, tuple(map(add, p.values, shifts)))


def gamma_to_array(g: PosetPartition, sign: str) -> FrobeniusArray:
    """Gather gamma back into a two-row array with the negative blocks
    unflipped.

    Raises ValueError when the result is not a weakly decreasing array whose
    parity blocks reproduce the structure's composition with the requested
    last-block sign (i.e. the input was not in the forward image).
    """
    beta = g.structure.beta
    letter = SIGN_LETTER[check_sign(sign)]
    rows = _placement(beta.parts, letter)[1](g.values)
    array = FrobeniusArray(rows[:beta.d], rows[beta.d:])
    blocks = parity_blocks(array)
    if blocks.sizes != beta.parts or blocks.last_sign != letter:
        raise ValueError(
            f"reconstructed array has blocks {blocks.sizes}/{blocks.sign_word}, "
            f"expected {beta.parts}/{alternating_sign_word(beta.m, letter)}; "
            f"not in the forward image")
    return array


def pi_to_lambda(p: PosetPartition, sign: str) -> FrobeniusSymbol:
    """Inverse of the full chain: add row constants, split the grid, unflip,
    add the staircase.  Raises ValueError when p is not in the forward image."""
    gamma = pi_to_gamma(p, sign)
    array = gamma_to_array(gamma, sign)
    return array_to_symbol(array)


def lambda_to_pi(f: FrobeniusSymbol, sign: str | None = None) -> PosetPartition:
    """Full forward chain.  The sign, when supplied, must match the symbol's
    last parity block."""
    blocks = parity_blocks(f)
    sign = _resolve_sign(blocks, sign)
    return gamma_to_pi(array_to_gamma(symbol_to_array(f), blocks), sign)


def bijection_trace(f: FrobeniusSymbol, sign: str | None = None) -> list[dict]:
    """JSON-friendly stage-by-stage record of the forward chain."""
    blocks = parity_blocks(f)
    sign = _resolve_sign(blocks, sign)
    array = symbol_to_array(f)
    hat_top, hat_bottom = flipped_rows(array, blocks)
    gamma = array_to_gamma(array, blocks)
    pi = gamma_to_pi(gamma, sign)
    return [
        {"stage": "lambda", "top": list(f.top), "bottom": list(f.bottom),
         "blocks": blocks.to_json_dict(), "sign": sign, "weight": f.size},
        {"stage": "mu", "top": list(array.top), "bottom": list(array.bottom),
         "weight": array.weight},
        {"stage": "mu_hat", "top": list(hat_top), "bottom": list(hat_bottom),
         "weight": sum(hat_top) + sum(hat_bottom)},
        {"stage": "gamma", "beta": list(gamma.structure.beta.parts),
         "rows": gamma.rows(), "weight": gamma.weight},
        {"stage": "pi", "beta": list(pi.structure.beta.parts),
         "rows": pi.rows(), "weight": pi.weight},
    ]
