"""Exact truncated power series in q, and closed-form generating functions.

Everything in this module is integer arithmetic.  A :class:`QSeries` stores
exact coefficients for the exponents ``0..precision``.  Each closed form is
computed on a coefficient list, by in-place passes cut at the precision, and
wrapped in a ``QSeries`` once.  Two series compare equal on the exponents that
both of them track, so an equality is always a statement about coefficients
that were actually computed on both sides.
"""

from operator import add, mul, sub

PLUS = "plus"
MINUS = "minus"
SIGNS = (PLUS, MINUS)


def check_sign(sign: str) -> str:
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    return sign


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise ValueError("precision must be nonnegative")


class QSeries:
    """Formal power series in q truncated at a fixed precision.

    ``coeffs[k]`` is the coefficient of ``q**k`` for ``0 <= k <= precision``;
    ``len(coeffs)`` is always ``precision + 1``.  Two series compare equal when
    they agree coefficient-wise up to the smaller of the two precisions.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a QSeries tracks at least the constant coefficient")
        # One builtin pass covers the usual case; the per-element loop still
        # admits int subclasses other than bool and names the offender.
        if set(map(type, coeffs)) != {int}:
            for c in coeffs:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficients must be exact integers, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through the constructor, which validates.
        return type(self), (self.coeffs,)

    # ------------------------------------------------------------------
    # constructors and queries
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return cls.from_coeffs((), precision)

    @classmethod
    def from_coeffs(cls, coeffs, precision: int) -> "QSeries":
        """Pad a finite coefficient list with zeros, or truncate it, to the precision."""
        _check_precision(precision)
        coeffs = list(coeffs)
        if len(coeffs) < precision + 1:
            coeffs.extend([0] * (precision + 1 - len(coeffs)))
        return cls(tuple(coeffs[: precision + 1]))

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        if not 0 <= exponent <= self.precision:
            raise ValueError(
                f"exponent {exponent} outside the tracked range 0..{self.precision}")
        return self.coeffs[exponent]

    # ------------------------------------------------------------------
    # Nothing in rankblocks calls these four: the closed forms sweep
    # coefficient lists.  perfbench's tracer wraps __mul__ and invert_unit,
    # and its self-test corrupts a series with + and monomial, so they stay
    # until the benchmark drops those uses.  Results are cut at the shorter
    # operand.
    # ------------------------------------------------------------------

    @classmethod
    def monomial(cls, exponent: int, precision: int) -> "QSeries":
        """``q**exponent`` truncated; zero when exponent > precision."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        _check_precision(precision)
        coeffs = [0] * (precision + 1)
        if exponent <= precision:
            coeffs[exponent] = 1
        return cls(tuple(coeffs))

    def __add__(self, other):
        return QSeries(map(add, self.coeffs, other.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        return QSeries(sum(map(mul, a[k::-1], b)) for k in range(min(len(a), len(b))))

    def invert_unit(self) -> "QSeries":
        """Multiplicative inverse, defined when the constant coefficient is +/-1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(
                f"series is not invertible over the integers: constant coefficient {c0}")
        n = self.precision
        out = [0] * (n + 1)
        out[0] = c0
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if aj:
                    acc += aj * out[k - j]
            out[k] = -c0 * acc
        return QSeries(tuple(out))

    # ------------------------------------------------------------------
    # comparison / rendering / serialization
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.precision, other.precision)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"q^{k}" if k > 1 else "q")
            elif c == -1:
                terms.append(f"-q^{k}" if k > 1 else "-q")
            else:
                terms.append(f"{c}*q^{k}" if k > 1 else f"{c}*q")
            if len(terms) == 8:
                terms.append("...")
                break
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"QSeries({body}; prec={self.precision})"

    def to_json_dict(self) -> dict:
        """Coefficients go out as decimal strings; they can exceed 64-bit range."""
        return {"precision": self.precision, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        """Reads what ``to_json_dict`` writes, plus plain int coefficients;
        floats, bools and other strings are refused, not rounded or parsed."""
        precision, coeffs = data.get("precision"), data.get("coeffs")
        if not isinstance(precision, int) or isinstance(precision, bool):
            raise ValueError(f"series 'precision' must be an integer, got {precision!r}")
        if not isinstance(coeffs, list):
            raise ValueError(f"series 'coeffs' must be a list, got {coeffs!r}")
        for k, c in enumerate(coeffs):
            if not (isinstance(c, int) and not isinstance(c, bool) or isinstance(c, str)
                    and c.isascii() and c.removeprefix("-").isdigit()):
                raise ValueError(f"series coeffs[{k}] is not an int or a decimal string: {c!r}")
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != precision + 1:
            raise ValueError("coeffs length does not match precision + 1")
        return cls(coeffs)


# ----------------------------------------------------------------------
# list passes and Gaussian binomials
# ----------------------------------------------------------------------


def _times_one_minus(c: list, a: int) -> None:
    """In place: ``c <- c * (1 - q**a)``, truncated at ``q**(len(c) - 1)``.
    Descending, so each ``c[k - a]`` read is still the old coefficient."""
    for k in range(len(c) - 1, a - 1, -1):
        c[k] -= c[k - a]


def _over_one_minus(c: list, a: int) -> None:
    """In place: ``c <- c / (1 - q**a)``, truncated at ``q**(len(c) - 1)``.
    Ascending, so each ``c[k - a]`` read is already the new coefficient."""
    for k in range(a, len(c)):
        c[k] += c[k - a]


def qbinomial(n: int, k: int, precision: int | None = None) -> QSeries:
    """Gaussian binomial coefficient as an exact polynomial in q.

    Returns the zero series unless ``n >= k >= 0``.  With ``precision=None``
    the natural polynomial degree ``k*(n-k)`` is kept; a polynomial may be
    padded to any requested precision since its higher coefficients are
    genuinely zero.  Built as ``prod_{j=1..k} (1 - q^(n-k+j)) / (1 - q^j)``
    with ``k = min(k, n-k)``, one pair of in-place sweeps per factor over the
    coefficients up to ``min(precision, degree)``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if precision is not None:
        _check_precision(precision)
    if not 0 <= k <= n:
        return QSeries.zero(0 if precision is None else precision)
    k = min(k, n - k)
    degree = k * (n - k)
    c = [1] + [0] * (degree if precision is None else min(precision, degree))
    for j in range(1, k + 1):
        _times_one_minus(c, n - k + j)
        _over_one_minus(c, j)
    return QSeries.from_coeffs(c, degree if precision is None else precision)


# ----------------------------------------------------------------------
# partition numbers and the partition generating function
# ----------------------------------------------------------------------

_PARTITION_CACHE = [1]


def partition_number(n: int) -> int:
    """p(n), computed by the pentagonal-number recurrence; p(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_PARTITION_CACHE) <= n:
        t = len(_PARTITION_CACHE)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > t:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * _PARTITION_CACHE[t - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= t:
                total += sign * _PARTITION_CACHE[t - g2]
            k += 1
        _PARTITION_CACHE.append(total)
    return _PARTITION_CACHE[n]


def partition_number_or_zero(n: int) -> int:
    """p(n) with the convention p(n) = 0 for negative n (for shifted arguments)."""
    return partition_number(n) if n >= 0 else 0


def euler_inverse(precision: int) -> QSeries:
    """Truncation of ``prod_{j>=1} 1/(1 - q**j)``.

    Built by the bounded-largest-part sweep (after processing j, coefficient k
    counts partitions of k into parts <= j), deliberately independent of the
    pentagonal recurrence behind :func:`partition_number` so the two can
    cross-check each other.
    """
    _check_precision(precision)
    coeffs = [0] * (precision + 1)
    coeffs[0] = 1
    for j in range(1, precision + 1):
        _over_one_minus(coeffs, j)
    return QSeries(tuple(coeffs))


# ----------------------------------------------------------------------
# closed-form generating functions for the parity-block counts
# ----------------------------------------------------------------------


def _check_exact(d: int, m: int, sign: str, precision: int) -> None:
    check_sign(sign)
    if not d >= m >= 1:
        raise ValueError(f"need d >= m >= 1, got d={d}, m={m}")
    _check_precision(precision)


def _exact_shift(d: int, m: int, sign: str) -> int:
    """The lowest exponent of :func:`series_exact`: ``d^2 + m(m-1)/2``, plus
    ``d`` for the plus sign."""
    return d * d + m * (m - 1) // 2 + (d if sign == PLUS else 0)


def series_exact(d: int, m: int, sign: str, precision: int) -> QSeries:
    """Series whose q^n coefficient counts partitions of n with exactly d
    Frobenius columns and m parity blocks, the last block of the given sign.

    Requires ``d >= m >= 1``.  The closed form is
    ``q^shift [2d, d+m]_q (1 - q^m) / ((1 - q^d) (q;q)_{2d})`` with
    ``shift = d^2 + m(m-1)/2`` (plus ``d`` for the plus sign).  The numerator
    (q;q)_{2d} of the Gaussian binomial cancels the denominator's, leaving
    ``q^shift (1 - q^m) / ((1 - q^d) (q;q)_{d-m} (q;q)_{d+m})``.  Only the
    ``top = precision - shift`` coefficients after the shift can be nonzero,
    so it is evaluated as in-place sweeps over those: one descending pass for
    the factor (1 - q^m), and one ascending pass for each denominator factor
    (1 - q^d), (1 - q^1), ..., (1 - q^{d-m}), (1 - q^1), ..., (1 - q^{d+m}).
    That costs O(d * top) instead of the O(precision^2) of a generic series
    inverse and full-width products.
    """
    _check_exact(d, m, sign, precision)
    shift = _exact_shift(d, m, sign)
    top = precision - shift
    if top < 0:
        return QSeries.zero(precision)
    c = [1] + [0] * top
    _times_one_minus(c, m)
    for a in (d, *range(1, d - m + 1), *range(1, d + m + 1)):
        _over_one_minus(c, a)
    return QSeries((0,) * shift + tuple(c))


def series_exact_sums(m: int, precision: int) -> dict:
    """``{sign: sum_{d >= m} series_exact(d, m, sign, precision)}`` for both
    signs, in one pass.

    At each d the two signs' terms differ only in their shift: the plus term
    is the minus term times q^d.  Only the terms whose minus shift is at most
    the precision can be nonzero.  One running list holds
    ``1 / ((q;q)_{d-m} (q;q)_{d+m})``, cut after its ``precision - shift``
    coefficient for the minus shift; the step from d to d + 1 is two ascending
    passes, for (1 - q^{d+1-m}) and (1 - q^{d+1+m}).  Each term is a copy of
    that list with one pass for (1 - q^m) and one for 1/(1 - q^d), added to
    the minus sum at its shift and to the plus sum d exponents higher: four
    passes per d for both signs, where :func:`series_exact` takes 2d + 2 per
    d and sign.  ``m < 1`` or a negative precision is refused as
    :func:`series_exact` refuses it for the first term, d = m.
    """
    _check_exact(m, m, MINUS, precision)
    d = m
    shift = _exact_shift(d, m, MINUS)
    c = [1] + [0] * (precision - shift)
    for a in range(1, 2 * m + 1):
        _over_one_minus(c, a)
    plus, minus = [0] * (precision + 1), [0] * (precision + 1)
    while shift <= precision:
        term = c.copy()
        _times_one_minus(term, m)
        _over_one_minus(term, d)
        minus[shift:] = map(add, minus[shift:], term)
        # map stops at the shorter list, so the plus term loses its last d.
        plus[shift + d:] = map(add, plus[shift + d:], term)
        d += 1
        shift = _exact_shift(d, m, MINUS)
        # Once the shift passes the precision the list empties: a negative
        # slice start would keep its head.
        del c[max(precision - shift + 1, 0):]
        _over_one_minus(c, d - m)
        _over_one_minus(c, d + m)
    return {PLUS: QSeries(plus), MINUS: QSeries(minus)}


def _times_kernel(coeffs, m: int, sign: str) -> list:
    """``coeffs`` times the pentagonal kernel, as a new list of the same length:
    one shifted pass per nonzero kernel term, 2m passes.  A term past the last
    exponent adds nothing."""
    out = [0] * len(coeffs)
    for l in range(m):
        if sign == PLUS:
            e1 = l * (3 * l + 1) // 2
            e2 = e1 + 2 * l + 1
        else:
            e1 = l * (3 * l - 1) // 2
            e2 = e1 + 4 * l + 2
        first, second = (add, sub) if l % 2 == 0 else (sub, add)
        out[e1:] = map(first, out[e1:], coeffs)
        out[e2:] = map(second, out[e2:], coeffs)
    return out


def pentagonal_kernel(m: int, sign: str, precision: int) -> QSeries:
    """Alternating sum of pentagonal-shifted binomial-free terms.

    ``sum_{l=0}^{m-1} (-1)^l q^(l(3l+1)/2) (1 - q^(2l+1))`` for the plus sign,
    and ``sum_{l=0}^{m-1} (-1)^l q^(l(3l-1)/2) (1 - q^(4l+2))`` for minus:
    at most 2m nonzero coefficients.
    """
    check_sign(sign)
    if m < 1:
        raise ValueError("m must be positive")
    _check_precision(precision)
    return QSeries(_times_kernel([1] + [0] * precision, m, sign))


def series_by_blocks(m: int, sign: str, precision: int) -> QSeries:
    """Series counting partitions of n with exactly m parity blocks, any number
    of columns, the last block of the given sign: ``(-1)^(m-1) (E K - 1)``,
    with E the partition product and K the pentagonal kernel."""
    check_sign(sign)
    if m < 1:
        raise ValueError("m must be positive")
    c = _times_kernel(euler_inverse(precision).coeffs, m, sign)
    c[0] -= 1
    return QSeries(c if m % 2 == 1 else [-x for x in c])


def series_by_columns(d: int, sign: str, precision: int) -> QSeries:
    """Series counting partitions of n with exactly d Frobenius columns, any
    number of parity blocks, the last block of the given sign.

    The closed form is ``q^shift / ((q;q)_d^2 (1 + q^d))`` with
    ``shift = d^2`` (plus ``d`` for the plus sign).  Like :func:`series_exact`
    it is evaluated by in-place sweeps over the ``precision - shift``
    coefficients after the shift: starting from 1, two ascending passes for
    each (1 - q^j), j = 1..d, then one ascending ``c[k] -= c[k - d]`` pass
    for (1 + q^d), with no series inverse.
    """
    check_sign(sign)
    if d < 1:
        raise ValueError("d must be positive")
    _check_precision(precision)
    shift = d * d + (d if sign == PLUS else 0)
    top = precision - shift
    if top < 0:
        return QSeries.zero(precision)
    c = [1] + [0] * top
    for j in range(1, d + 1):
        _over_one_minus(c, j)
        _over_one_minus(c, j)
    for k in range(d, top + 1):
        c[k] -= c[k - d]
    return QSeries((0,) * shift + tuple(c))


def block_count_formula(n: int, m: int, sign: str) -> int:
    """Finite alternating partition-number formula for the by-blocks counts.

    Evaluates, with p(negative) = 0,
    ``(-1)^(m-1) sum_{l=0}^{m-1} (-1)^l (p(n - l(3l+1)/2) - p(n - (3(l+1)^2-(l+1))/2))``
    for the plus sign and the variant with ``l(3l-1)/2`` and
    ``(3(l+1)^2+(l+1))/2`` for minus.
    """
    check_sign(sign)
    if m < 1:
        raise ValueError("m must be positive")
    total = 0
    for l in range(m):
        if sign == PLUS:
            e1 = l * (3 * l + 1) // 2
            e2 = (3 * (l + 1) ** 2 - (l + 1)) // 2
        else:
            e1 = l * (3 * l - 1) // 2
            e2 = (3 * (l + 1) ** 2 + (l + 1)) // 2
        term = partition_number_or_zero(n - e1) - partition_number_or_zero(n - e2)
        total += term if l % 2 == 0 else -term
    return total if m % 2 == 1 else -total


def qbinomial_column_sum_sides(d: int) -> tuple[QSeries, QSeries]:
    """Both sides of the signed Gaussian-binomial column sum.

    Both are multiplied by ``(1 + q^d)`` so the comparison stays between
    polynomials; the working precision sits safely above both degrees.  Each
    side is built from bracket coefficient lists by shifts and in-place
    ``(1 - q^a)`` sweeps.
    """
    if d < 1:
        raise ValueError("d must be positive")
    precision = 2 * d * d + 2 * d
    lhs = [0] * (precision + 1)
    for m in range(1, d + 1):
        # q^(m(m-1)/2) (1 - q^m) [2d, d+m], of degree d^2 - m(m-1)/2
        term = [0] * (m * (m - 1) // 2) + list(qbinomial(2 * d, d + m).coeffs) + [0] * m
        _times_one_minus(term, m)
        lhs[:len(term)] = map(add, lhs, term)
    # Times (1 + q^d): the slice assignment reads every old coefficient first.
    lhs[d:] = map(add, lhs[d:], lhs)
    rhs = list(qbinomial(2 * d, d, precision).coeffs)
    _times_one_minus(rhs, d)
    return QSeries(lhs), QSeries(rhs)
