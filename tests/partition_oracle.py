"""A Ferrers-graph reference for the tests: partitions as tuples of parts.

A partition is a weakly decreasing tuple of positive parts, and ``()`` is the
partition of 0.  Its Frobenius symbol is read off the diagonal of its Ferrers
graph: the cells right of the diagonal in each row on top, the cells below it
in each column underneath.  Nothing here checks its input, and nothing here
shares code with ``rankblocks``.
"""


def partitions(n):
    """Every partition of n once, in reverse-lexicographic order."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return rec(n, n)


def conjugate(parts):
    """The column lengths of the Ferrers graph."""
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def durfee_side(parts):
    """The side of the largest square in the top left corner of the graph."""
    return sum(1 for i, p in enumerate(parts) if p > i)


def to_frobenius(parts):
    """The symbol as a pair of rows ``(top, bottom)``, read off the diagonal."""
    columns = conjugate(parts)
    d = durfee_side(parts)
    return (tuple(parts[i] - i - 1 for i in range(d)),
            tuple(columns[i] - i - 1 for i in range(d)))


def from_frobenius(top, bottom):
    """The partition whose diagonal reads ``(top / bottom)``: the rows through
    the diagonal, then the rows below the square, cut from the columns."""
    columns = [b + i + 1 for i, b in enumerate(bottom)]
    parts = [t + i + 1 for i, t in enumerate(top)]
    while row := sum(1 for c in columns if c > len(parts)):
        parts.append(row)
    return tuple(parts)


def ranks(parts):
    """Rank i is the length of row i minus the length of column i, for each
    cell i of the diagonal."""
    columns = conjugate(parts)
    return tuple(parts[i] - columns[i] for i in range(durfee_side(parts)))
