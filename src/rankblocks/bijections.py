"""The weight-controlled chain between Frobenius symbols and poset partitions.

Forward direction: remove the staircase from a symbol to get a weakly
decreasing two-row array, flip the rows inside every negative parity block,
drop the columns into the block poset (giving gamma), then subtract a fixed
constant from each row (giving pi).  The composition beta and the sign of the
last block are read off the input's parity blocks, so the forward functions
take nothing else; the inverse functions take the sign, which pi does not
determine.  Every step's weight change is checked explicitly, so a wrong
assumption fails loudly instead of producing a plausible-looking array.

gamma and pi keep ``values`` in the natural label order of S_beta: block l
holds the labels 2 r_{l-1} + 1 .. 2 r_l as its (top slice, bottom slice), b_l
entries each.  Everything the chain derives from (beta, sign) is one cached
layout: S_beta, the gathers mu -> gamma and gamma -> mu, the row constants with
each label's shift, and the weight drop.  Every stage is still built through
its validating constructor.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter, sub
from typing import NamedTuple

from .partitions import (
    NEGATIVE,
    POSITIVE,
    SIGN_LETTER,
    FrobeniusSymbol,
    ParityBlocks,
    _tuple_fields,
    alternating_sign_word,
    parity_blocks,
)
from .posets import Composition, PosetPartition, SBetaStructure, build_s_beta
from .qseries import MINUS, PLUS, check_sign


@dataclass(frozen=True, slots=True)
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
        top, bottom = _tuple_fields(self)
        if len(top) != len(bottom) or not top:
            raise ValueError("rows must have equal positive length")
        for row in (top, bottom):
            prev = None
            for x in row:
                if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))
                        or x < 0):
                    raise ValueError(f"entries must be nonnegative integers, got {x!r}")
                if prev is not None and prev < x:
                    raise ValueError(f"rows must be weakly decreasing, got {row}")
                prev = x

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
    symbol or an array (both have the same column ranks), or of their
    ``ParityBlocks``."""
    blocks = f if isinstance(f, ParityBlocks) else parity_blocks(f)
    return PLUS if blocks.last_sign == POSITIVE else MINUS


class _Layout(NamedTuple):
    """Everything the chain derives from a composition and a last-block sign."""

    sign: str
    structure: SBetaStructure
    place: itemgetter  # an array's top + bottom -> gamma's values in label order
    unplace: itemgetter  # gamma's values -> the array's top + bottom
    offsets: tuple[int, ...]  # the constant of each of the m+1 rows, from the top
    shifts: tuple[int, ...]  # the row constant of every label
    drop: int  # gamma's weight less pi's


@lru_cache(maxsize=1024)
def _layout(parts: tuple[int, ...], sign: str) -> _Layout:
    # Block l's top slice takes the block's columns of the top row and its
    # bottom slice those of the bottom row, the other way round in a negative
    # block.  The top slice lies in row l and the bottom slice in row l+1.
    d, m = sum(parts), len(parts)
    index = []
    pos = 0
    for size, letter in zip(parts, alternating_sign_word(m, SIGN_LETTER[check_sign(sign)])):
        upper, lower = (d + pos, pos) if letter == NEGATIVE else (pos, d + pos)
        index += range(upper, upper + size)
        index += range(lower, lower + size)
        pos += size
    inverse = [0] * (2 * d)
    for label, source in enumerate(index):
        inverse[source] = label
    # Counted from the bottom row the constants are 0,1,1,2,2,... for plus
    # and 0,0,1,1,2,... for minus.
    top = m + 2 if sign == PLUS else m + 1
    offsets = tuple((top - i) // 2 for i in range(1, m + 2))
    shifts = tuple(offsets[l + half] for l, b in enumerate(parts) for half in (0, 1)
                   for _ in range(b))
    # Summed from the partial sums, not from the shifts, so that the drop
    # check in gamma -> pi compares two independent counts.
    sums = Composition(parts).partial_sums
    drop = sum(sums[1:]) if sign == PLUS else sum(sums[1:-1])
    return _Layout(sign, build_s_beta(parts), itemgetter(*index), itemgetter(*inverse),
                   offsets, shifts, drop)


def _layout_of(blocks: ParityBlocks) -> _Layout:
    return _layout(blocks.sizes, sign_of_last_block(blocks))


def _array_to_gamma(a: FrobeniusArray, layout: _Layout) -> PosetPartition:
    gamma = PosetPartition(layout.structure, layout.place(a.top + a.bottom))
    if gamma.weight != a.weight:
        raise AssertionError("placement must preserve the weight")
    return gamma


def array_to_gamma(a: FrobeniusArray) -> PosetPartition:
    """Flip the negative blocks and drop block l's columns into rows l, l+1
    of the block poset, in one gather.  The composition and the sign are read
    off the array's parity blocks."""
    return _array_to_gamma(a, _layout_of(parity_blocks(a)))


def _hat_rows(gamma: PosetPartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # gamma's values are each block's (top slice, bottom slice) in turn.
    hat_top = hat_bottom = ()
    start = 0
    for b in gamma.structure.beta.parts:
        hat_top += gamma.values[start:start + b]
        hat_bottom += gamma.values[start + b:start + 2 * b]
        start += 2 * b
    return hat_top, hat_bottom


def flipped_rows(a: FrobeniusArray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The array rows after interchanging top and bottom in each negative block."""
    return _hat_rows(array_to_gamma(a))


def _gamma_to_pi(g: PosetPartition, layout: _Layout) -> PosetPartition:
    values = tuple(map(sub, g.values, layout.shifts))
    if min(values) < 0:
        raise ValueError(
            f"row subtraction drives an entry negative; gamma is not a "
            f"{layout.sign}-case image (row offsets {layout.offsets})")
    pi = PosetPartition(g.structure, values)
    drop = g.weight - pi.weight
    if drop != layout.drop:
        raise AssertionError(
            f"weight drop {drop} disagrees with the partial-sum total {layout.drop}")
    return pi


def gamma_to_pi(g: PosetPartition, sign: str) -> PosetPartition:
    """Subtract the per-row constants; valid only for gamma arising from an
    array whose last block matches the sign (otherwise entries go negative or
    the order-reversing check fails, both of which raise)."""
    return _gamma_to_pi(g, _layout(g.structure.beta.parts, sign))


def pi_to_gamma(p: PosetPartition, sign: str) -> PosetPartition:
    """Add the per-row constants back."""
    shifts = _layout(p.structure.beta.parts, sign).shifts
    return PosetPartition(p.structure, tuple(map(add, p.values, shifts)))


def gamma_to_array(g: PosetPartition, sign: str) -> FrobeniusArray:
    """Gather gamma back into a two-row array with the negative blocks
    unflipped.

    Raises ValueError when the result is not a weakly decreasing array whose
    parity blocks reproduce the structure's composition with the requested
    last-block sign (i.e. the input was not in the forward image).
    """
    beta = g.structure.beta
    rows = _layout(beta.parts, sign).unplace(g.values)
    array = FrobeniusArray(rows[:beta.d], rows[beta.d:])
    blocks = parity_blocks(array)
    letter = SIGN_LETTER[sign]
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


def lambda_to_pi(f: FrobeniusSymbol) -> PosetPartition:
    """Full forward chain; the composition and the sign are read off the
    symbol's parity blocks."""
    layout = _layout_of(parity_blocks(f))
    return _gamma_to_pi(_array_to_gamma(symbol_to_array(f), layout), layout)


def bijection_trace(f: FrobeniusSymbol) -> list[dict]:
    """JSON-friendly stage-by-stage record of the forward chain."""
    blocks = parity_blocks(f)
    layout = _layout_of(blocks)
    array = symbol_to_array(f)
    gamma = _array_to_gamma(array, layout)
    pi = _gamma_to_pi(gamma, layout)
    hat_top, hat_bottom = _hat_rows(gamma)
    return [
        {"stage": "lambda", "top": list(f.top), "bottom": list(f.bottom),
         "blocks": blocks.to_json_dict(), "sign": layout.sign, "weight": f.size},
        {"stage": "mu", "top": list(array.top), "bottom": list(array.bottom),
         "weight": array.weight},
        {"stage": "mu_hat", "top": list(hat_top), "bottom": list(hat_bottom),
         "weight": sum(hat_top) + sum(hat_bottom)},
        {"stage": "gamma", "beta": list(gamma.structure.beta.parts),
         "rows": gamma.rows(), "weight": gamma.weight},
        {"stage": "pi", "beta": list(pi.structure.beta.parts),
         "rows": pi.rows(), "weight": pi.weight},
    ]
