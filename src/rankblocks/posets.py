"""The two-row block poset, its natural labeling, linear extensions, and
order-reversing partitions.

For a composition (b_1, ..., b_m) the poset is the ordinal sum of m grids,
each grid two rows deep and b_l wide.  Block l occupies rows {l, l+1} and the
columns r_{l-1}+1 .. r_l (r_i the partial sums), and (i1,j1) <= (i2,j2) holds
exactly when i1 <= i2 and j1 <= j2.  The natural labeling assigns
``r_{l-1} + j + (i - l) * b_l`` to the element (i, j) of block l, so block l
uses the labels 2 r_{l-1} + 1 .. 2 r_l with the top row first.
"""

from itertools import product
from math import comb

from ._record import Record, check_ints, field_width, guard, low_fields, setfield, unpack
from .lattice_paths import DOWN, UP, MarkedBallotPath, enumerate_ballot_words


class Composition(Record):
    """Ordered sequence of positive parts with partial sums r_0 = 0 < r_1 < ... < r_m."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("composition must have at least one part")
        check_ints(parts, "parts must be positive integers", 1)
        setfield(self, "parts", parts)

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    @property
    def partial_sums(self) -> tuple[int, ...]:
        sums = [0]
        for b in self.parts:
            sums.append(sums[-1] + b)
        return tuple(sums)


def compositions(d: int):
    """All compositions of d, first part ascending then recursively."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            yield (first,) + rest


class SBetaStructure:
    """The labeled poset for one composition.

    Attributes:
        beta: the composition.
        elements: the 2d cells (i, j), indexed so elements[k] carries label k+1.
        lower_covers: for each label index, the label indices covered below it.
        cover_pairs: every (covered, covering) pair of label indices, in the
            order of ``lower_covers``.
    """

    def __init__(self, beta):
        beta = beta if isinstance(beta, Composition) else Composition(tuple(beta))
        self.beta = beta
        # Block l, after r columns, is its top slice (l, r+1..r+b) followed
        # by its bottom slice (l+1, r+1..r+b).  A top cell covers the cell
        # labelled just before it: its left neighbour, or the previous
        # block's last cell.  A bottom cell covers the top cell above it and
        # its left neighbour, if any.
        elements, covers = [], []
        for l, (r, b) in enumerate(zip(beta.partial_sums, beta.parts), start=1):
            for j in range(r + 1, r + b + 1):
                covers.append((len(elements) - 1,) if elements else ())
                elements.append((l, j))
            for j in range(r + 1, r + b + 1):
                k = len(elements)
                covers.append((k - b, k - 1) if j > r + 1 else (k - b,))
                elements.append((l + 1, j))
        self.elements = tuple(elements)
        self.lower_covers = tuple(covers)
        self.cover_pairs = tuple((a, b) for b, below in enumerate(covers) for a in below)
        self.label_of = {cell: k + 1 for k, cell in enumerate(elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def label(self, i: int, j: int) -> int:
        return self.label_of[(i, j)]

    def __eq__(self, other):
        if not isinstance(other, SBetaStructure):
            return NotImplemented
        return self.beta == other.beta

    def __hash__(self):
        return hash(self.beta)

    def __repr__(self):
        return f"SBetaStructure(beta={self.beta.parts})"

    def to_json_dict(self) -> dict:
        return {"beta": list(self.beta.parts),
                "labels": [[i, j, self.label_of[(i, j)]] for (i, j) in self.elements]}


def build_s_beta(beta) -> SBetaStructure:
    """Build the poset for a composition (a ``Composition`` or its parts)."""
    return SBetaStructure(beta)


# ----------------------------------------------------------------------
# linear extensions
# ----------------------------------------------------------------------


class LinearExtensionWord(Record):
    """A linear extension, recorded as the permutation of labels it reads off."""

    __slots__ = ("word", "source")

    def __init__(self, word, source):
        word = tuple(word)
        # A float or a bool equal to a label would pass the permutation check.
        check_ints(word, "labels must be integers")
        n = len(source.elements)
        if sorted(word) != [*range(1, n + 1)]:
            raise ValueError(f"word must be a permutation of 1..{n}")
        # pos[i] is the position of label i + 1, the element with index i.
        pos = [0] * n
        for k, label in enumerate(word):
            pos[label - 1] = k
        for ai, bi in source.cover_pairs:
            if pos[ai] >= pos[bi]:
                raise ValueError("word does not extend the poset order")
        setfield(self, "word", word)
        setfield(self, "source", source)

    def __len__(self):
        return len(self.word)


def _grid_extension_words(b: int) -> tuple[tuple[int, ...], ...]:
    # Extensions of one two-row grid, via its Catalan words: positions of the
    # u steps receive 1..b in order, positions of the d steps receive b+1..2b.
    words = []
    for dyck in enumerate_ballot_words(b, b):
        perm = []
        next_low, next_high = 1, b + 1
        for ch in dyck:
            if ch == UP:
                perm.append(next_low)
                next_low += 1
            else:
                perm.append(next_high)
                next_high += 1
        words.append(tuple(perm))
    return tuple(words)


def linear_extensions(structure: SBetaStructure) -> list[LinearExtensionWord]:
    """All linear extensions, generated blockwise: each block contributes an
    independent grid extension, shifted by twice the preceding column count."""
    sums = structure.beta.partial_sums
    per_block = []
    for l, b in enumerate(structure.beta.parts, start=1):
        shift = 2 * sums[l - 1]
        per_block.append([tuple(x + shift for x in w) for w in _grid_extension_words(b)])
    out = []
    for combo in product(*per_block):
        word = tuple(x for blk in combo for x in blk)
        out.append(LinearExtensionWord(word, structure))
    return out


def maj_word(w: LinearExtensionWord) -> int:
    """Sum of descent positions (1-based k with w_k > w_{k+1})."""
    word = w.word
    return sum(k for k in range(1, len(word)) if word[k - 1] > word[k])


# ----------------------------------------------------------------------
# order-reversing partitions
# ----------------------------------------------------------------------


class PosetPartition(Record):
    """Order-reversing assignment of nonnegative integers, stored in label order."""

    __slots__ = ("structure", "values")

    def __init__(self, structure, values):
        if type(values) is not tuple:
            values = tuple(values)
        if len(values) != len(structure.elements):
            raise ValueError("one value per poset element required")
        check_ints(values, "values must be nonnegative integers", 0)
        for ai, bi in structure.cover_pairs:
            if values[ai] < values[bi]:
                raise ValueError(
                    f"assignment is not order-reversing at elements "
                    f"{structure.elements[ai]} < {structure.elements[bi]}")
        setfield(self, "structure", structure)
        setfield(self, "values", values)

    @property
    def weight(self) -> int:
        return sum(self.values)

    def value(self, i: int, j: int) -> int:
        return self.values[self.structure.label(i, j) - 1]

    def rows(self) -> list[list[int]]:
        """Row i is block i-1's bottom slice followed by block i's top slice."""
        rows = [[]]
        for r, b in zip(self.structure.beta.partial_sums, self.structure.beta.parts):
            rows[-1] += self.values[2 * r:2 * r + b]
            rows.append(list(self.values[2 * r + b:2 * (r + b)]))
        return rows

    @classmethod
    def from_rows(cls, structure: SBetaStructure, rows) -> "PosetPartition":
        parts = structure.beta.parts
        rows = list(rows)
        if len(rows) != len(parts) + 1:
            raise ValueError(f"expected {len(parts) + 1} rows, got {len(rows)}")
        widths = [a + b for a, b in zip((0,) + parts, parts + (0,))]
        for i, (row, width) in enumerate(zip(rows, widths), start=1):
            if len(row) != width:
                raise ValueError(f"row {i} expects {width} entries, got {len(row)}")
        values = []
        for l, b in enumerate(parts):
            values += rows[l][-b:]
            values += rows[l + 1][:b]
        return cls(structure, tuple(values))

    def to_json_dict(self) -> dict:
        return {"beta": list(self.structure.beta.parts), "rows": self.rows(),
                "weight": self.weight}


def iter_poset_partitions(structure: SBetaStructure, max_weight: int):
    """Materialized order-reversing assignments of weight <= max_weight, by a
    depth-first search in label order (for witnesses and small posets; the
    histogram is counted without them)."""
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    n = structure.size
    covers = structure.lower_covers
    values = [0] * n

    def rec(idx, total):
        if idx == n:
            yield PosetPartition(structure, tuple(values))
            return
        cap = max_weight - total
        for c in covers[idx]:
            if values[c] < cap:
                cap = values[c]
        for v in range(cap + 1):
            values[idx] = v
            yield from rec(idx + 1, total + v)

    yield from rec(0, 0)


# S_beta is the ordinal sum of its blocks, each a grid two rows deep: every
# cell of block l lies below every cell of block l+1.  So an order-reversing
# map is a sequence of columns (top, bottom), left to right, in which
#   bottom <= top in every column,
#   top' <= top and bottom' <= bottom from one column to the next in a block,
#   top' <= bottom at a block boundary, bottom being the block's last value.
# The DP holds, for each (top, bottom) of the column placed last, the weight
# polynomial of the columns placed so far, with the coefficient of q^w in bit
# field w (:mod:`rankblocks._record`).  A block boundary moves each polynomial
# to the diagonal cell (bottom, bottom): the next column then collects the same
# rectangle sum as inside a block.  Every coefficient, of a cell or of a
# rectangle sum or of the sum of the diagonal cells, counts distinct
# assignments of weight w <= max_weight to at most 2d cells, so none exceeds
# C(max_weight + 2d, 2d), the bound that fixes the field width.  The guard
# checks each row's largest rectangle sum and the diagonal sum at each block
# boundary.  The columns up to the k-th weigh at least k (top + bottom) of the
# k-th, so cells with k (top + bottom) > max_weight are left out.  (Stanley,
# Enumerative Combinatorics 1, 3.15 and 4.7.)


def _next_column(cells, top, width, keep, check, point):
    # cells[a][b] holds the previous column (a, b).  Returns the cells of the
    # next column (a', b') with a' + b' <= top: the sum over a >= a', b >= b'
    # of cells[a][b], times q^(a' + b').
    below = [0] * len(cells)
    out = [[] for _ in range(top + 1)]
    for a in range(len(cells) - 1, -1, -1):
        for b, poly in enumerate(cells[a]):
            below[b] += poly
        if a > top:
            continue
        size = min(a, top - a) + 1
        rect = sum(below[size:])
        row = [0] * size
        for b in range(size - 1, -1, -1):
            rect += below[b]
            if rect:
                row[b] = (rect << width * (a + b)) & keep
        check(rect, point)
        out[a] = row
    return out


def enumerate_poset_partitions(structure: SBetaStructure, max_weight: int) -> list[int]:
    """Histogram: entry n counts the order-reversing assignments of weight n,
    for every n <= max_weight, by a column DP that does not list them."""
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    width = field_width(comb(max_weight + structure.size, structure.size))
    keep = low_fields(max_weight + 1, width)
    check = guard(max_weight + 1, width, "poset-partition DP")
    point = f"beta = {structure.beta.parts}, weight <= {max_weight}"
    # Before the first column, only the weight bounds the values.
    cells = [[] for _ in range(max_weight)] + [[0] * max_weight + [1]]
    ends = structure.beta.partial_sums[1:]
    for column in range(1, ends[-1] + 1):
        cells = _next_column(cells, max_weight // column, width, keep, check, point)
        if column in ends:
            cells = [[0] * v + [sum(row[v] for row in cells[v:] if v < len(row))]
                     for v in range(len(cells))]
            total = sum(row[-1] for row in cells)
            check(total, point)
    # Every weight up to max_weight has an assignment, the whole weight on the
    # least element, so the histogram ends at max_weight.
    return unpack(total, width)


def word_to_dyck(w: LinearExtensionWord) -> MarkedBallotPath:
    """Map a linear extension to a marked Dyck path, block by block.

    Within block l a label in the top row (shifted value <= b_l) becomes a u
    step and a bottom-row label becomes a d step; the block paths are
    concatenated with marks at the junctions 2 r_1, ..., 2 r_{m-1}.
    """
    beta = w.source.beta
    sums = beta.partial_sums
    steps = []
    pos = 0
    for l, b in enumerate(beta.parts, start=1):
        shift = 2 * sums[l - 1]
        for _ in range(2 * b):
            label = w.word[pos] - shift
            steps.append(UP if label <= b else DOWN)
            pos += 1
    marks = tuple(2 * r for r in sums[1:-1])
    return MarkedBallotPath("".join(steps), marks)
