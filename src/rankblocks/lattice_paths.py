"""Ballot and Dyck paths with marked returns, and the maj / vmr statistics.

A path is a word over {u, d} that never dips below the x-axis.  A valley is a
d step immediately followed by a u step; its x-coordinate is the step index of
the d.  A return is a valley sitting on the x-axis, and a marked path selects
a subset of its returns.  The path endpoint is never a valley (there is no
following u step), so the final return of a Dyck path is never markable.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

from .qseries import QSeries

UP = "u"
DOWN = "d"


@dataclass(frozen=True, slots=True)
class MarkedBallotPath:
    """A ballot-path word plus the x-coordinates of its marked returns."""

    steps: str
    marks: tuple[int, ...] = ()
    # Recorded by the validating walk; derived from ``steps``, so they take
    # no part in equality, hashing or repr.
    _valleys: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _returns: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        steps = self.steps
        if type(steps) is not str:
            steps = "".join(steps)
            object.__setattr__(self, "steps", steps)
        if type(self.marks) is not tuple:
            object.__setattr__(self, "marks", tuple(self.marks))
        # One walk: validate every step and record the valleys (a u step at
        # index x right after a d step) and, among them, the returns.
        valleys = []
        rets = []
        height = 0
        prev = None
        for x, ch in enumerate(steps):
            if ch == UP:
                if prev == DOWN:
                    valleys.append(x)
                    if height == 0:
                        rets.append(x)
                height += 1
            elif ch == DOWN:
                height -= 1
                if height < 0:
                    raise ValueError(f"path dips below the x-axis: {steps!r}")
            else:
                raise ValueError(f"steps must be over 'u'/'d', got {ch!r}")
            prev = ch
        object.__setattr__(self, "_valleys", tuple(valleys))
        object.__setattr__(self, "_returns", tuple(rets))
        self._check_marks()

    def _check_marks(self):
        prev = 0
        for x in self.marks:
            if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                raise ValueError(f"marks must be integers, got {x!r}")
            if x <= prev:
                raise ValueError("marks must be strictly increasing")
            if x not in self._returns:
                raise ValueError(f"mark at x={x} is not a return of {self.steps!r}")
            prev = x

    def _remarked(self, marks: tuple[int, ...]) -> "MarkedBallotPath":
        # The same word with other marks: the walk's record is copied, not
        # redone, and only the marks are checked.
        path = object.__new__(MarkedBallotPath)
        put = object.__setattr__
        put(path, "steps", self.steps)
        put(path, "marks", marks)
        put(path, "_valleys", self._valleys)
        put(path, "_returns", self._returns)
        path._check_marks()
        return path

    def valleys(self) -> tuple[int, ...]:
        """x-coordinates where a d step is immediately followed by a u step."""
        return self._valleys

    def returns(self) -> tuple[int, ...]:
        """Valleys lying on the x-axis (these are the markable positions)."""
        return self._returns

    def bar_string(self) -> str:
        """Render with a vertical bar after each marked return, e.g. ``udud|u``."""
        marks = set(self.marks)
        out = []
        for i, ch in enumerate(self.steps, start=1):
            out.append(ch)
            if i in marks:
                out.append("|")
        return "".join(out)

    def to_json_dict(self) -> dict:
        return {"steps": self.steps, "marks": list(self.marks)}

    def __str__(self):
        return self.bar_string()


def maj_path(p: MarkedBallotPath) -> int:
    """Sum of the x-coordinates of all valleys."""
    return sum(p.valleys())


def vmr(p: MarkedBallotPath) -> int:
    """maj minus half the sum of marked-return x-coordinates (always an integer:
    returns sit at even x)."""
    total = sum(p.marks)
    return maj_path(p) - total // 2


def _ballot_words(s: int, t: int, least_returns: int):
    # Depth-first over prefixes; the u branch is pushed first so that the d
    # branch pops first, which keeps the words in lexicographic order.  A
    # prefix carries the number of returns it still misses.  While some are
    # missing, the prefix is dropped once the steps left cannot supply them:
    # each return needs its own u step and the d step before it, and the first
    # one also the descent from the current height h.  With nothing missing no
    # bound is computed, so least_returns = 0 lists every ballot word; a word
    # that is yielded has made at least least_returns returns.
    stack = [("", s, t, 0, least_returns)]
    while stack:
        prefix, u_left, d_left, height, missing = stack.pop()
        if missing:
            after_down = prefix[-1:] == DOWN
            if missing > min(u_left, d_left - height + 1 if height else d_left + after_down):
                continue
        if u_left == 0 and d_left == 0:
            yield prefix
            continue
        if u_left > 0:
            # A u step from the x-axis right after a d step is a return.
            returned = missing and height == 0 and after_down
            stack.append((prefix + UP, u_left - 1, d_left, height + 1, missing - returned))
        if d_left > 0 and height > 0:
            stack.append((prefix + DOWN, u_left, d_left - 1, height - 1, missing))


def enumerate_ballot_words(s: int, t: int):
    """All ballot words with s up-steps and t down-steps, lexicographic (d < u)."""
    if s < 0 or t < 0:
        raise ValueError("step counts must be nonnegative")
    yield from _ballot_words(s, t, 0)


def _marked_variants(s: int, t: int, least: int, mark_sets):
    # Each ballot word with at least ``least`` returns is walked once; its
    # marked variants take the mark sets that ``mark_sets`` draws from its
    # returns and reuse the word's walk.
    for word in _ballot_words(s, t, least):
        base = MarkedBallotPath(word)
        for marks in mark_sets(base.returns()):
            yield base._remarked(marks) if marks else base


# Up to this many returns, the subsets' index tuples are listed once per
# (return count, least marks) and kept: at most 35 lists of at most 64.  The
# words of s + t <= 14 steps, the transfer benchmark's grid, have at most 6.
_CACHED_RETURNS = 6


@lru_cache(maxsize=None)
def _counter_indices(k: int, least: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(j for j in range(k) if mask >> j & 1)
                 for mask in range(1 << k) if mask.bit_count() >= least)


def _counter_subsets(rets: tuple[int, ...], least: int):
    # The subsets of rets with at least `least` members, in binary-counter
    # order: bit j of the counter selects rets[j].  Past _CACHED_RETURNS they
    # are generated one at a time.
    k = len(rets)
    if k > _CACHED_RETURNS:
        return (tuple(x for j, x in enumerate(rets) if mask >> j & 1)
                for mask in range(1 << k) if mask.bit_count() >= least)
    pick = rets.__getitem__
    # Every least above k selects nothing, so one key serves them all.
    return (tuple(map(pick, indices)) for indices in _counter_indices(k, min(least, k + 1)))


def enumerate_marked_paths(s: int, t: int, min_marks: int):
    """Every (path, mark-subset) pair with at least min_marks marked returns.

    The same underlying word appears once per qualifying mark subset; subsets
    are generated in binary-counter order over the word's return list.  Only
    words that can have min_marks returns are walked.
    """
    if s < t:
        raise ValueError(f"need s >= t, got s={s}, t={t}")
    if min_marks < 0:
        raise ValueError("min_marks must be nonnegative")
    yield from _marked_variants(s, t, min_marks,
                                lambda rets: _counter_subsets(rets, min_marks))


def enumerate_exact_marks(s: int, r: int):
    """Dyck paths to (2s, 0) carrying exactly r marked returns."""
    if s < 1:
        raise ValueError("s must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    yield from _marked_variants(s, s, r, lambda rets: combinations(rets, r))


def _dyck_concatenations(sizes, prefix=""):
    # One Dyck word per block, nested so that only one word per block is held.
    if not sizes:
        yield prefix
        return
    for block in _ballot_words(sizes[0], sizes[0], 0):
        yield from _dyck_concatenations(sizes[1:], prefix + block)


def enumerate_fixed_returns(d: int, positions):
    """Dyck paths of length 2d whose mark set is exactly {2*p for p in positions}.

    Positions must be strictly increasing and lie strictly between 0 and d;
    the empty tuple gives all unmarked Dyck paths.  Marks at those returns cut
    a path into one nonempty Dyck path per block, so the paths are the
    concatenations of one Dyck word per block size; the blocks have fixed
    lengths, so the concatenations come out in lexicographic (d < u) order.
    """
    positions = tuple(positions)
    bounds = (0, *positions, d)
    sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if min(sizes) < 1:
        raise ValueError(f"need 0 < p_1 < ... < d, got d={d}, positions={positions}")
    marks = tuple(2 * p for p in positions)
    for word in _dyck_concatenations(sizes):
        yield MarkedBallotPath(word, marks)


def gf_vmr(objects) -> QSeries:
    """Sum of q**vmr over a finite collection of marked paths: the exact
    polynomial, with precision the largest vmr seen, or 0 for an empty
    collection."""
    exponents = [vmr(p) for p in objects]
    coeffs = [0] * (max(exponents, default=0) + 1)
    for e in exponents:
        coeffs[e] += 1
    return QSeries(tuple(coeffs))


def marked_path_gf(s: int, t: int, r: int, exact: bool = False) -> QSeries:
    """Sum of q**vmr over the marked ballot paths with s up and t down steps
    and at least r marked returns, or exactly r with ``exact``, counted
    without listing them.

    The result is the exact polynomial that :func:`gf_vmr` gives for
    ``enumerate_marked_paths(s, t, r)``, or for ``enumerate_exact_marks(s, r)``
    when t = s and ``exact`` is set.
    """
    if not s >= t >= 0:
        raise ValueError(f"need s >= t >= 0, got s={s}, t={t}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    # A transfer-matrix DP over the steps (Stanley, Enumerative Combinatorics 1,
    # 4.7).  After i steps the state is (height, whether step i was a d, marks
    # so far), the marks capped at r; it holds the vmr polynomial of the marked
    # prefixes in that state, the coefficient of q^e in bit field e.  A u step
    # after a d step closes a valley at x = i, which adds i; on the x-axis the
    # valley may instead be marked, which adds i/2 and one mark.  Without
    # ``exact`` a mark past r keeps the count at r, with it the mark is not
    # made.  Every coefficient counts distinct marked prefixes, at most
    # C(s+t, t) 2^t of them, so no field carries into the next.
    width = (comb(s + t, t) << t).bit_length()
    states = {(0, False, 0): 1}
    for i in range(s + t):
        after = defaultdict(int)
        for (height, down, marks), poly in states.items():
            ups = (i + height) // 2
            if height > 0 and i - ups < t:
                after[height - 1, True, marks] += poly
            if ups == s:
                continue
            if not down:
                after[height + 1, False, marks] += poly
                continue
            after[height + 1, False, marks] += poly << width * i
            if height == 0 and (marks < r or not exact):
                after[1, False, min(marks + 1, r)] += poly << width * (i // 2)
        states = after
    total = sum(poly for (height, _down, marks), poly in states.items()
                if height == s - t and marks == r)
    field = (1 << width) - 1
    coeffs = []
    while total:
        coeffs.append(total & field)
        total >>= width
    return QSeries(tuple(coeffs) or (0,))
