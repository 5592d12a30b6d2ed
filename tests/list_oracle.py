"""A dense reference for series identities in the tests: coefficient lists,
every pair of terms, and schoolbook long division.

Entry k of a list is the coefficient of q^k.  Like a truncated series, a
result is as long as the shortest operand.  Nothing here is fast, and nothing
here shares code with ``rankblocks``.
"""


def monomial(exponent, precision, coefficient=1):
    """``coefficient * q**exponent`` up to ``q**precision``; zero past it."""
    return [coefficient if k == exponent else 0 for k in range(precision + 1)]


def add(*lists):
    return [sum(column) for column in zip(*lists)]


def mul(*lists):
    """The product of every list, one pair of nonzero terms at a time."""
    out = list(lists[0])
    for factor in lists[1:]:
        n = min(len(out), len(factor))
        product = [0] * n
        terms = [(j, b) for j, b in enumerate(factor[:n]) if b]
        for i, a in enumerate(out[:n]):
            for j, b in terms if a else ():
                if i + j < n:
                    product[i + j] += a * b
        out = product
    return out


def inverse(a):
    """The inverse of a list whose constant term is 1 or -1, by long division."""
    if a[0] not in (1, -1):
        raise ValueError(f"constant term {a[0]} is not a unit")
    out = []
    for k in range(len(a)):
        rest = (1 if k == 0 else 0) - sum(a[k - j] * out[j] for j in range(k))
        out.append(a[0] * rest)
    return out


def one_minus(exponent, precision):
    """``1 - q**exponent`` up to ``q**precision``."""
    return add(monomial(0, precision), monomial(exponent, precision, -1))


def pochhammer(count, precision):
    """(q;q)_count, the product of (1 - q^a) for a = 1..count."""
    return mul(monomial(0, precision), *(one_minus(a, precision) for a in range(1, count + 1)))
