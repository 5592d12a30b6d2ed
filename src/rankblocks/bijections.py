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
concatenation over the blocks of (top slice, bottom slice), b_l entries each,
and every stage is a slice pass: block l's columns of mu_hat fill its two
slices, and the row constants shift its top slice by row l's offset and its
bottom slice by row l+1's.
"""

from dataclasses import dataclass

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
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
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
    d = f.d
    return FrobeniusArray(
        tuple(x - (d - 1 - i) for i, x in enumerate(f.top)),
        tuple(y - (d - 1 - i) for i, y in enumerate(f.bottom)),
    )


def array_to_symbol(a: FrobeniusArray) -> FrobeniusSymbol:
    """Add the staircase back; weak decrease turns into strict decrease."""
    d = a.d
    return FrobeniusSymbol(
        tuple(x + (d - 1 - i) for i, x in enumerate(a.top)),
        tuple(y + (d - 1 - i) for i, y in enumerate(a.bottom)),
    )


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


def _flip_negative_blocks(top, bottom, sizes, signs):
    # Interchange the two rows inside every negative block.
    top = list(top)
    bottom = list(bottom)
    pos = 0
    for size, s in zip(sizes, signs):
        end = pos + size
        if s == NEGATIVE:
            top[pos:end], bottom[pos:end] = bottom[pos:end], top[pos:end]
        pos = end
    return tuple(top), tuple(bottom)


def flipped_rows(a: FrobeniusArray, blocks: ParityBlocks | None = None
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The array rows after interchanging top and bottom in each negative block.
    ``blocks``, when given, must be the array's parity blocks."""
    blocks = parity_blocks(a) if blocks is None else blocks
    return _flip_negative_blocks(a.top, a.bottom, blocks.sizes, blocks.signs)


def array_to_gamma(a: FrobeniusArray, blocks: ParityBlocks | None = None) -> PosetPartition:
    """Flip the negative blocks, then drop block l's columns into rows l, l+1
    of the block poset.  The composition is read off the array's parity
    blocks; ``blocks``, when given, must be those blocks."""
    blocks = parity_blocks(a) if blocks is None else blocks
    hat_top, hat_bottom = flipped_rows(a, blocks)
    values = []
    pos = 0
    for b in blocks.sizes:
        values += hat_top[pos:pos + b] + hat_bottom[pos:pos + b]
        pos += b
    gamma = PosetPartition(build_s_beta(blocks.sizes), values)
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


def _expected_drop(beta: Composition, sign: str) -> int:
    sums = beta.partial_sums
    if sign == PLUS:
        return sum(sums[1:])
    return sum(sums[1:-1])


def _shift_rows(values, parts, offsets) -> list[int]:
    # Add offsets[i] to row i+1: block l's top slice lies in row l and its
    # bottom slice in row l+1.
    shifts = [offsets[l + half] for l, b in enumerate(parts) for half in (0, 1)
              for _ in range(b)]
    return [v + shift for v, shift in zip(values, shifts)]


def gamma_to_pi(g: PosetPartition, sign: str) -> PosetPartition:
    """Subtract the per-row constants; valid only for gamma arising from an
    array whose last block matches the sign (otherwise entries go negative or
    the order-reversing check fails, both of which raise)."""
    beta = g.structure.beta
    offsets = _row_offsets(beta.m, sign)
    values = _shift_rows(g.values, beta.parts, [-offset for offset in offsets])
    if min(values) < 0:
        raise ValueError(
            f"row subtraction drives an entry negative; gamma is not a "
            f"{sign}-case image (row offsets {offsets})")
    pi = PosetPartition(g.structure, values)
    drop = g.weight - pi.weight
    if drop != _expected_drop(beta, sign):
        raise AssertionError(
            f"weight drop {drop} disagrees with the partial-sum total "
            f"{_expected_drop(beta, sign)}")
    return pi


def pi_to_gamma(p: PosetPartition, sign: str) -> PosetPartition:
    """Add the per-row constants back."""
    beta = p.structure.beta
    offsets = _row_offsets(beta.m, sign)
    return PosetPartition(p.structure, _shift_rows(p.values, beta.parts, offsets))


def gamma_to_array(g: PosetPartition, sign: str) -> FrobeniusArray:
    """Split gamma back into a two-row array and unflip the negative blocks.

    Raises ValueError when the result is not a weakly decreasing array whose
    parity blocks reproduce the structure's composition with the requested
    last-block sign (i.e. the input was not in the forward image).
    """
    beta = g.structure.beta
    letter = SIGN_LETTER[check_sign(sign)]
    signs = alternating_sign_word(beta.m, letter)
    hat_top = []
    hat_bottom = []
    start = 0
    for b in beta.parts:
        hat_top += g.values[start:start + b]
        hat_bottom += g.values[start + b:start + 2 * b]
        start += 2 * b
    top, bottom = _flip_negative_blocks(hat_top, hat_bottom, beta.parts, signs)
    array = FrobeniusArray(top, bottom)
    blocks = parity_blocks(array)
    if blocks.sizes != beta.parts or blocks.last_sign != letter:
        raise ValueError(
            f"reconstructed array has blocks {blocks.sizes}/{blocks.sign_word}, "
            f"expected {beta.parts}/{signs}; not in the forward image")
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
