"""Ballot and Dyck paths with marked returns, and the maj / vmr statistics.

A path is a word over {u, d} that never dips below the x-axis.  A valley is a
d step immediately followed by a u step; its x-coordinate is the step index of
the d.  A return is a valley sitting on the x-axis, and a marked path selects
a subset of its returns.  The path endpoint is never a valley (there is no
following u step), so the final return of a Dyck path is never markable.
"""

from collections import defaultdict
from itertools import combinations
from math import comb

from ._record import Record, check_ints, field_width, guard, setfield, unpack
from .qseries import QSeries

UP = "u"
DOWN = "d"


class MarkedBallotPath(Record):
    """A ballot-path word plus the x-coordinates of its marked returns."""

    # _valleys and _returns are recorded by the validating walk; derived from
    # ``steps``, they take no part in equality, hashing or repr.
    __slots__ = ("steps", "marks", "_valleys", "_returns")

    def __init__(self, steps, marks=()):
        if type(steps) is not str:
            try:
                steps = "".join(steps)
            except TypeError:
                raise ValueError(f"steps must be over 'u'/'d', got {steps!r}") from None
        if type(marks) is not tuple:
            marks = tuple(marks)
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
        setfield(self, "steps", steps)
        setfield(self, "marks", marks)
        setfield(self, "_valleys", tuple(valleys))
        setfield(self, "_returns", tuple(rets))
        self._check_marks()

    def _check_marks(self):
        prev = 0
        for x in self.marks:
            check_ints((x,), "marks must be integers")
            if x <= prev:
                raise ValueError("marks must be strictly increasing")
            if x not in self._returns:
                raise ValueError(f"mark at x={x} is not a return of {self.steps!r}")
            prev = x

    def _remarked(self, marks: tuple[int, ...]) -> "MarkedBallotPath":
        # The same word with other marks: the walk's record is copied, not
        # redone, and only the marks are checked.
        path = object.__new__(MarkedBallotPath)
        setfield(path, "steps", self.steps)
        setfield(path, "marks", marks)
        setfield(path, "_valleys", self._valleys)
        setfield(path, "_returns", self._returns)
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


def _marked_variants(s: int, t: int, counts: range):
    # Each ballot word with at least ``counts.start`` returns is walked once;
    # its marked variants take the mark sets of every size in ``counts`` that
    # its returns allow, by size, then lexicographically, and reuse the
    # word's walk.
    for word in _ballot_words(s, t, counts.start):
        base = MarkedBallotPath(word)
        rets = base.returns()
        for k in range(counts.start, min(counts.stop, len(rets) + 1)):
            for marks in combinations(rets, k):
                yield base._remarked(marks) if marks else base


def enumerate_marked_paths(s: int, t: int, min_marks: int):
    """Every (path, mark-subset) pair with at least min_marks marked returns.

    The same underlying word appears once per qualifying mark subset; a
    word's subsets come by size, then lexicographically over its returns.
    Only words that can have min_marks returns are walked.
    """
    if not s >= t >= 0:
        raise ValueError(f"need s >= t >= 0, got s={s}, t={t}")
    if min_marks < 0:
        raise ValueError("min_marks must be nonnegative")
    # Each return follows its own d step, so a word has at most t.
    yield from _marked_variants(s, t, range(min_marks, t + 1))


def enumerate_exact_marks(s: int, r: int):
    """Dyck paths to (2s, 0) carrying exactly r marked returns."""
    if s < 1:
        raise ValueError("s must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    yield from _marked_variants(s, s, range(r, r + 1))


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


class _PathTable(dict):
    # (length, height) -> one packed vmr polynomial per mark count 0..top - 1
    # and one for top marks or more; ``width`` bits per coefficient.
    __slots__ = ("width",)


def marked_path_table(points) -> dict:
    """The marked-path polynomials read at ``points``, tuples (s, t, r, exact)
    with s >= t >= 0 and r >= 0 (ValueError otherwise), all from one step DP.

    The table keeps one row per shape read, (s + t, s - t), and in it the
    paths' vmr polynomial for each number of marks, exact up to the largest
    r + exact read.  :func:`marked_path_coeffs` reads it.
    """
    reads = {}
    top = width = 0
    for s, t, r, exact in points:
        if not s >= t >= 0:
            raise ValueError(f"need s >= t >= 0, got s={s}, t={t}")
        if r < 0:
            raise ValueError("r must be nonnegative")
        reads.setdefault(s + t, set()).add(s - t)
        top = max(top, r + exact)
        # Every coefficient counts distinct marked prefixes of one state and
        # vmr.  One suffix takes them all to distinct marked paths of one shape
        # read, with one vmr: at most C(s+t, t) 2^t of them, as each return
        # needs a d step.  That bound fixes the field width.
        width = max(width, field_width(comb(s + t, t) << t))
    table = _PathTable()
    table.width = width
    if not reads:
        return table
    # alive[i]: the heights after i steps from which some shape read can still
    # be reached.  The DP keeps no other state, so a table of one shape walks
    # only the prefixes of that shape.
    last = max(reads)
    alive = [set() for _ in range(last + 2)]
    for i in range(last, -1, -1):
        later = alive[i + 1]
        alive[i] = reads.get(i, set()) | {h + 1 for h in later} | {h - 1 for h in later if h}
    # A transfer-matrix DP over the steps (Stanley, Enumerative Combinatorics 1,
    # 4.7).  After i steps the state is (height, whether step i was a d, marks
    # so far), the marks capped at top; it holds the vmr polynomial of the
    # marked prefixes in that state, the coefficient of q^e in bit field e
    # (:mod:`rankblocks._record`).  A u step after a d step closes a valley at
    # x = i, which adds i; on the x-axis the valley may instead be marked,
    # which adds i/2 and one mark.  So no vmr passes 0 + 1 + ... + (last - 1).
    # Nothing is masked, so a field that overflows spoils only the reads of
    # it: the guard checks each row whole, which dominates every read of it.
    check = guard(last * (last - 1) // 2 + 1, width, "marked-path DP")
    states = {(0, False, 0): 1}
    for i in range(last + 1):
        if i in reads:
            rows = {height: [0] * (top + 1) for height in reads[i]}
            for (height, _down, marks), poly in states.items():
                if height in rows:
                    rows[height][marks] += poly
            for height, row in rows.items():
                check(sum(row), f"s = {(i + height) // 2}, t = {(i - height) // 2}")
                table[i, height] = row
        if i == last:
            break
        ahead = alive[i + 1]
        after = defaultdict(int)
        for (height, down, marks), poly in states.items():
            if height - 1 in ahead:
                after[height - 1, True, marks] += poly
            if height + 1 not in ahead:
                continue
            if not down:
                after[height + 1, False, marks] += poly
                continue
            after[height + 1, False, marks] += poly << width * i
            if height == 0:
                after[1, False, min(marks + 1, top)] += poly << width * (i // 2)
        states = after
    return table


def marked_path_coeffs(table: dict, s: int, t: int, r: int, exact: bool = False) -> list:
    """The coefficients of the sum of q**vmr over the marked ballot paths with
    s up and t down steps and at least r marked returns, or exactly r with
    ``exact``, read from a :func:`marked_path_table` that holds that read: the
    exact polynomial, [0] for an empty family.  A read the table was not
    built for raises LookupError."""
    row = table[s + t, s - t]
    if not 0 <= r < len(row) - exact:
        raise LookupError(f"the path table does not count {'exactly' if exact else 'at least'} "
                          f"{r} marks")
    return unpack(row[r] if exact else sum(row[r:]), table.width) or [0]

