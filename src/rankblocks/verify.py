"""Named verification checks pairing enumeration oracles with closed forms.

Each check computes its two sides through independent code paths (the
enumeration side never touches the closed-form series and vice versa) and
reports per-coefficient agreement.  On failure the report carries the first
discrepant exponent plus up to five witness objects from the enumeration side
at that weight.

Every target is one entry of :data:`SPECS`: a check, its bounds with their
defaults, the grid axes it sweeps, the constraint on a grid point, and the
run-wide table its check reads, if any.  A check returns only
``(first_discrepancy, candidates)``; :func:`run_check` alone turns that into
a report, and alone searches the candidates for witnesses.
"""

import json
import time
from collections import namedtuple
from functools import partial
from math import isqrt

from ._record import check_ints
from .lattice_paths import (
    enumerate_exact_marks,
    enumerate_fixed_returns,
    enumerate_marked_paths,
    maj_path,
    marked_path_coeffs,
    marked_path_table,
    vmr,
)
from .partitions import (
    NEGATIVE,
    POSITIVE,
    SIGN_LETTER,
    alternating_sign_word,
    build_census,
    count_all_columns,
    count_by_blocks,
    count_by_columns,
    count_exact,
    count_prefix_pattern,
    iter_frobenius_symbols,
    parity_blocks,
)
from .posets import (
    build_s_beta,
    compositions,
    enumerate_poset_partitions,
    iter_poset_partitions,
    linear_extensions,
    maj_word,
    word_to_dyck,
)
from .qseries import (
    MINUS,
    PLUS,
    SIGNS,
    _over_one_minus,
    _times_kernel,
    _times_one_minus,
    block_count_formula,
    euler_inverse,
    partition_number,
    partition_number_or_zero,
    qbinomial,
    qbinomial_column_sum_sides,
    series_by_blocks,
    series_by_columns,
    series_exact,
    series_exact_sums,
)


class VerificationReport:
    """Outcome of one check at one grid point; pass iff no discrepancy.
    Reports with the same fields are equal."""

    def __init__(self, target: str, parameters: dict, status: str,
                 first_discrepancy: dict | None, elapsed: float, witnesses: list | None = None):
        self.target = target
        self.parameters = parameters
        self.status = status
        self.first_discrepancy = first_discrepancy
        self.elapsed = elapsed
        self.witnesses = [] if witnesses is None else witnesses

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"VerificationReport({fields})"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {**vars(self), "elapsed": round(self.elapsed, 6)}


def _first_discrepancy(lhs, rhs, start=0, **extra):
    """The first exponent where two equally long coefficient sequences differ,
    as a discrepancy dict carrying ``extra``, or None.  Entry i of each
    sequence is the coefficient of q^(start + i); ``lhs`` is the expected side."""
    for n, (expected, actual) in enumerate(zip(lhs, rhs, strict=True), start):
        if expected != actual:
            return {"exponent": n, "expected": expected, "actual": actual, **extra}
    return None


def _symbols(n, ds, keep):
    # The candidates of a census check: one per symbol of size n with d in
    # ``ds`` columns, its JSON if ``keep`` holds of its blocks, else None.
    return (f.to_json_dict() if keep(parity_blocks(f)) else None
            for d in ds for f in iter_frobenius_symbols(n, d))


# ----------------------------------------------------------------------
# series vs enumerated counts
# ----------------------------------------------------------------------


def verify_exact_series(census, d, m, sign, precision):
    """Counts with fixed column number and block number vs their closed form."""
    closed = series_exact(d, m, sign, precision)
    counts = [count_exact(census, n, d, m, sign) for n in range(1, precision + 1)]
    disc = _first_discrepancy(counts, closed.coeffs[1:], 1)
    return disc, disc and _symbols(disc["exponent"], [d],
                                   lambda b: (b.m, b.last_sign) == (m, SIGN_LETTER[sign]))


def verify_block_series(census, m, sign, precision):
    """Counts with fixed block number vs both the finite partition-number
    formula and the pentagonal-kernel series."""
    closed = series_by_blocks(m, sign, precision)
    ns = range(1, precision + 1)
    counts = [count_by_blocks(census, n, m, sign) for n in ns]
    discs = [_first_discrepancy(counts, [block_count_formula(n, m, sign) for n in ns],
                                1, side="formula"),
             _first_discrepancy(counts, closed.coeffs[1:], 1, side="series")]
    disc = min(filter(None, discs), key=lambda x: x["exponent"], default=None)
    return disc, disc and _symbols(disc["exponent"], range(m, isqrt(disc["exponent"]) + 1),
                                   lambda b: (b.m, b.last_sign) == (m, SIGN_LETTER[sign]))


def verify_column_series(census, d, sign, precision):
    """Counts with fixed column number vs their closed form."""
    closed = series_by_columns(d, sign, precision)
    counts = [count_by_columns(census, n, d, sign) for n in range(1, precision + 1)]
    disc = _first_discrepancy(counts, closed.coeffs[1:], 1)
    return disc, disc and _symbols(disc["exponent"], [d],
                                   lambda b: b.last_sign == SIGN_LETTER[sign])


def verify_euler_expansion(partitions, m, precision):
    """Truncated pentagonal kernel times the partition product vs one plus the
    signed sum of the exact closed forms over every column count, for both
    sign variants.  ``partitions`` may run past ``precision``; the check reads
    only its own prefix."""
    if partitions.precision < precision:
        raise LookupError(f"the partition product stops at q^{partitions.precision}, "
                          f"short of q^{precision}")
    sign_factor = 1 if m % 2 == 1 else -1
    sums = series_exact_sums(m, precision)

    def discrepancy(variant):
        lhs = _times_kernel(partitions.coeffs[:precision + 1], m, variant)
        rhs = [sign_factor * c for c in sums[variant].coeffs]
        rhs[0] += 1
        return _first_discrepancy(lhs, rhs, variant=variant)

    return next(filter(None, map(discrepancy, SIGNS)), None), ()


def verify_qbinomial_column_sum(d):
    """Signed Gaussian-binomial column sum as an exact polynomial identity,
    both sides multiplied by (1 + q^d)."""
    lhs, rhs = qbinomial_column_sum_sides(d)
    return _first_discrepancy(lhs.coeffs, rhs.coeffs), ()


# ----------------------------------------------------------------------
# marked-path generating functions
# ----------------------------------------------------------------------


def _compare_path_gf(gf, objects, shift, closed):
    """Exact polynomial comparison of the path polynomial ``gf`` (sum q^vmr, a
    coefficient list) against q^shift times the coefficients ``closed``, both
    padded with zeros to one length.  ``objects`` lists the paths behind
    ``gf``; it is called only on failure, for the candidates."""
    closed = [0] * shift + list(closed)
    length = max(len(gf), len(closed))
    disc = _first_discrepancy(gf + [0] * (length - len(gf)),
                              closed + [0] * (length - len(closed)))
    return disc, disc and (p.bar_string() if vmr(p) == disc["exponent"] else None
                           for p in objects())


def _ballot_read(s, t, r):
    # The path-table read of lemma-2.2 at (s, t, r).
    if not s > t >= 0:
        raise ValueError(f"need s > t >= 0, got s={s}, t={t}")
    return s, t, r, False


def _dyck_read(s, r, exact=False):
    # The path-table read of lemma-2.4 at (s, r), or with ``exact`` of cor-2.5.
    if s < 1:
        raise ValueError("s must be positive")
    return s, s, r, exact


def verify_ballot_gf(paths, s, t, r):
    """Marked ballot paths with at least r marks vs the shifted bracket."""
    return _compare_path_gf(marked_path_coeffs(paths, *_ballot_read(s, t, r)),
                            lambda: enumerate_marked_paths(s, t, r),
                            r * (r + 1) // 2, qbinomial(s + t, s + r).coeffs)


def verify_dyck_gf(paths, s, r):
    """Marked Dyck paths with at least r marks vs the shifted bracket."""
    return _compare_path_gf(marked_path_coeffs(paths, *_dyck_read(s, r)),
                            lambda: enumerate_marked_paths(s, s, r),
                            r * (r + 1) // 2, qbinomial(2 * s - 1, s + r).coeffs)


def verify_exact_mark_gf(paths, s, r):
    """Dyck paths with exactly r marks: gf * (1 - q^s) vs the bracket form,
    multiplied through so both sides stay polynomial."""
    lhs = marked_path_coeffs(paths, *_dyck_read(s, r, exact=True)) + [0] * s
    _times_one_minus(lhs, s)
    rhs = list(qbinomial(2 * s, s + r + 1).coeffs) + [0] * (r + 1)
    _times_one_minus(rhs, r + 1)
    return _compare_path_gf(lhs, lambda: enumerate_exact_marks(s, r), r * (r + 1) // 2, rhs)


# ----------------------------------------------------------------------
# poset-partition and word/path identities
# ----------------------------------------------------------------------


def verify_poset_partition_gf(beta, precision):
    """Weight histogram of order-reversing assignments vs the descent series
    over linear extensions divided by the length-2d Pochhammer product: the
    maj counts, then 2d ascending passes, one per factor 1/(1 - q^a)."""
    structure = build_s_beta(beta)
    hist = enumerate_poset_partitions(structure, precision)
    series = [0] * (precision + 1)
    for w in linear_extensions(structure):
        e = maj_word(w)
        if e <= precision:
            series[e] += 1
    for a in range(1, structure.size + 1):
        _over_one_minus(series, a)
    disc = _first_discrepancy(hist, series)
    return disc, disc and (p.to_json_dict() if p.weight == disc["exponent"] else None
                           for p in iter_poset_partitions(structure, disc["exponent"]))


def verify_word_path_gf(beta):
    """Descent statistic over linear extensions vs the shifted valley statistic
    over Dyck paths with the prescribed marked returns; also checks that the
    word-to-path map is a bijection onto that path family, and if not, offers
    the paths that no word reaches."""
    structure = build_s_beta(beta)
    sums = structure.beta.partial_sums
    positions = sums[1:-1]
    shift = 2 * sum(positions)
    words = linear_extensions(structure)
    paths = list(enumerate_fixed_returns(structure.beta.d, positions))
    word_exps = [maj_word(w) for w in words]
    path_exps = [maj_path(p) - shift for p in paths]
    precision = max(word_exps + path_exps, default=0)
    lhs = [0] * (precision + 1)
    for e in word_exps:
        lhs[e] += 1
    rhs = [0] * (precision + 1)
    for e in path_exps:
        rhs[e] += 1
    disc = _first_discrepancy(lhs, rhs)
    if disc:
        return disc, (" ".join(map(str, w.word)) if maj_word(w) == disc["exponent"] else None
                      for w in words)
    images = [word_to_dyck(w) for w in words]
    reached = set(images)
    if len(reached) != len(images) or reached != set(paths):
        disc = {"exponent": None, "expected": len(paths), "actual": len(reached),
                "detail": "word-to-path images do not match the path family"}
        return disc, (None if p in reached else p.bar_string() for p in paths)
    return None, ()


# ----------------------------------------------------------------------
# prefix patterns and count relations
# ----------------------------------------------------------------------


def verify_prefix_counts(census, m, precision):
    """Sign-word prefix counts vs pentagonal-shifted partition numbers.

    For each terminal letter, partitions whose alternating sign word starts
    with the length-m pattern or the length-(m+1) pattern (two disjoint
    classes) together number p(n - (3m^2 -+ m)/2).
    """
    if m < 1:
        raise ValueError("m must be positive")
    ns = range(1, precision + 1)
    cases = ((NEGATIVE, (3 * m * m - m) // 2), (POSITIVE, (3 * m * m + m) // 2))
    for letter, offset in cases:
        patterns = (alternating_sign_word(m, letter), alternating_sign_word(m + 1, letter))
        counts = [sum(count_prefix_pattern(census, n, pattern) for pattern in patterns)
                  for n in ns]
        disc = _first_discrepancy(counts, [partition_number_or_zero(n - offset) for n in ns],
                                  1, last_letter=letter)
        if disc:
            n = disc["exponent"]
            return disc, _symbols(n, range(m, isqrt(n) + 1),
                                  lambda b: b.sign_word.startswith(patterns))
    return None, ()


def _count_relations(census, precision, max_m, max_d):
    # (lhs, rhs, labels) for every instance of the three relations, in order.
    ns = range(1, precision + 1)
    for m in range(1, max_m + 1):
        lo = (3 * m * m - m) // 2
        hi = (3 * m * m + m) // 2
        yield ([count_by_blocks(census, n, m, MINUS) - count_by_blocks(census, n, m, PLUS)
                for n in ns],
               [partition_number_or_zero(n - lo) - partition_number_or_zero(n - hi)
                for n in ns],
               {"item": 1, "m": m})
    for d in range(1, max_d + 1):
        for m in range(1, d + 1):
            yield ([count_exact(census, n, d, m, MINUS) for n in ns],
                   [count_exact(census, n + d, d, m, PLUS) for n in ns],
                   {"item": 2, "d": d, "m": m})
    for d in range(1, max_d + 1):
        yield ([count_by_columns(census, n, d, MINUS) - count_by_columns(census, n, d, PLUS)
                for n in ns],
               [sum(count_all_columns(census, n - 2 * d * j + 1, d - 1)
                    for j in range(1, (n + 1) // (2 * d) + 1)) for n in ns],
               {"item": 3, "d": d})


def verify_count_relations(census, precision, max_m, max_d):
    """Three relations between the count families, all by double enumeration:
    (1) the minus/plus by-blocks difference equals a difference of shifted
    partition numbers, (2) the minus counts shift into plus counts at n + d,
    (3) the by-columns minus/plus difference telescopes into counts one column
    narrower."""
    discs = (_first_discrepancy(lhs, rhs, 1, **labels)
             for lhs, rhs, labels in _count_relations(census, precision, max_m, max_d))
    return next(filter(None, discs), None), ()


def verify_partition_unity(census, precision):
    """Every nonempty partition is counted once over all (d, m, sign) classes."""
    totals = [sum(count_exact(census, n, d, m, sign) for d in range(1, isqrt(n) + 1)
                  for m in range(1, d + 1) for sign in SIGNS)
              for n in range(1, precision + 1)]
    disc = _first_discrepancy(totals, [partition_number(n) for n in range(1, precision + 1)], 1)
    return disc, ()


# ----------------------------------------------------------------------
# the target table and the generic sweep
# ----------------------------------------------------------------------


class Spec(namedtuple("Spec", "check bounds axes args where table",
                      defaults=(lambda bounds: {}, lambda point, bounds: True, None))):
    """One target: its check, its bounds (bound name -> default), the grid axes
    it sweeps (axis name -> values, or a function of the bounds giving them),
    the check arguments read from the bounds, and the constraint a grid point
    must meet, given the point and the bounds.  A setting names a bound, which
    it moves, or an axis, which it fixes to one value.  Those functions are
    handed only the bounds declared here.  A target whose check reads a
    run-wide table, taken as its first argument, declares ``table = (build,
    ask)``: ``ask`` maps a grid point to what the check reads (a census reach
    ``{d: the largest n read}``, a product precision, or a path read ``(s, t,
    r, exact)``) and refuses a point the check refuses; ``build`` makes one
    table from a list of asks."""

    __slots__ = ()


def _upto(bound):
    return lambda bounds: range(1, bounds[bound] + 1)


def _compositions_upto(bounds):
    return [beta for d in range(1, bounds["max_d"] + 1) for beta in compositions(d)]


def _precision(bounds):
    return {"precision": bounds["precision"]}


def _every_column(point):
    return dict.fromkeys(range(1, isqrt(point["precision"]) + 1), point["precision"])


def _census(reaches):
    """The census for a list of reaches: each d up to the largest n, every
    table built here, so that no check's time includes a build."""
    reach = {d: max(r.get(d, 0) for r in reaches) for d in set().union(*reaches)}
    census = build_census(reach)
    for d in census.reach:  # the census keeps only d >= 1
        census[d]  # the read builds the table
    return census


def _product(precisions):
    """The partition product at the largest of a list of precisions."""
    return euler_inverse(max(precisions))


def _paths(reads):
    """The marked-path table for a list of reads: one DP for all of them."""
    return marked_path_table(reads)


_OWN_COLUMN = (_census, lambda p: {p["d"]: p["precision"]})
_EVERY_COLUMN = (_census, _every_column)

SPECS = {
    "thm-main": Spec(verify_exact_series, {"precision": 40, "max_d": 5, "max_m": 5},
                     {"d": _upto("max_d"), "m": _upto("max_m"), "sign": SIGNS},
                     _precision, lambda p, bounds: p["m"] <= p["d"], _OWN_COLUMN),
    "thm-1.2": Spec(verify_block_series, {"precision": 40, "max_m": 5},
                    {"m": _upto("max_m"), "sign": SIGNS}, _precision, table=_EVERY_COLUMN),
    "thm-1.4": Spec(verify_column_series, {"precision": 40, "max_d": 5},
                    {"d": _upto("max_d"), "sign": SIGNS}, _precision, table=_OWN_COLUMN),
    "cor-1.3": Spec(verify_euler_expansion, {"precision": 40, "max_m": 5},
                    {"m": _upto("max_m")}, _precision,
                    table=(_product, lambda p: p["precision"])),
    "cor-1.5": Spec(verify_qbinomial_column_sum, {}, {"d": range(1, 11)}),
    "lemma-2.2": Spec(verify_ballot_gf, {"max_s": 6},
                      {"s": lambda bounds: range(1, 2 * bounds["max_s"] + 1),
                       "t": lambda bounds: range(bounds["max_s"]), "r": range(7)},
                      where=lambda p, bounds: p["t"] < p["s"] <= 2 * bounds["max_s"] - p["t"],
                      table=(_paths, lambda p: _ballot_read(**p))),
    "lemma-2.4": Spec(verify_dyck_gf, {"max_s": 6}, {"s": _upto("max_s"), "r": range(7)},
                      table=(_paths, lambda p: _dyck_read(**p))),
    "cor-2.5": Spec(verify_exact_mark_gf, {"max_s": 6}, {"s": _upto("max_s"), "r": range(7)},
                    table=(_paths, lambda p: _dyck_read(**p, exact=True))),
    "prop-3.9": Spec(verify_poset_partition_gf, {"max_d": 4, "precision": 20},
                     {"beta": _compositions_upto}, _precision),
    "prop-3.10": Spec(verify_word_path_gf, {"max_d": 5}, {"beta": _compositions_upto}),
    "thm-5.1": Spec(verify_prefix_counts, {"precision": 30}, {"m": range(1, 5)}, _precision,
                    table=_EVERY_COLUMN),
    "remarks": Spec(verify_count_relations, {"precision": 30, "max_d": 4}, {},
                    lambda bounds: {**_precision(bounds), "max_m": 4, "max_d": bounds["max_d"]},
                    # relation (2) reads count_exact(n + d, ...) up to precision + d
                    table=(_census, lambda p: {**_every_column(p), **{
                        d: p["precision"] + d for d in range(1, p["max_d"] + 1)}})),
    "partition-unity": Spec(verify_partition_unity, {"precision": 30}, {}, _precision,
                            table=_EVERY_COLUMN),
}


# Every name that is a bound of some target: a setting of one must be at least 1.
_BOUND_NAMES = frozenset().union(*(spec.bounds for spec in SPECS.values()))
# The integer axes: a setting of one fixes it to one integer.
_INT_AXES = frozenset(("d", "m", "s", "t", "r"))


def _reject_unusable(names, settings):
    # A bound that is not an int, or is below 1, which would leave every check
    # with nothing to compare, a setting that names neither a bound nor an
    # axis of a selected target, an integer axis fixed to a non-int, a sign
    # axis fixed to no sign, and a beta axis fixed to no composition.
    for flag, value in settings.items():
        if flag not in _BOUND_NAMES:
            continue
        check_ints((value,), f"--{flag.replace('_', '-')}: must be an integer")
        if value < 1:
            raise ValueError(f"--{flag.replace('_', '-')}: must be at least 1, got {value}")
    for flag, value in settings.items():
        ignoring = [name for name in names
                    if flag not in SPECS[name].bounds and flag not in SPECS[name].axes]
        if ignoring:
            raise ValueError(f"--{flag.replace('_', '-')} is not honoured by "
                             f"{', '.join(ignoring)}")
        if flag in _INT_AXES:
            check_ints((value,), f"--{flag}: must be an integer")
        elif flag == "sign" and value not in SIGNS:
            raise ValueError(f"--sign: must be one of {', '.join(SIGNS)}, got {value!r}")
        elif flag == "beta":
            what = "--beta: must be a composition of positive integers"
            if not isinstance(value, (tuple, list)) or not value:
                raise ValueError(f"{what}, got {value!r}")
            check_ints(value, what, 1)


def grid_points(name, settings=None):
    """The keyword arguments of every check the target runs, in sweep order.
    Each setting must name a bound of the target, which it moves, or an axis,
    which it fixes; every bound must be an int of at least 1, an integer axis
    must be fixed to an int, the sign to a sign and beta to a composition,
    and the grid must not be empty."""
    spec = SPECS[name]
    settings = settings or {}
    _reject_unusable([name], settings)
    bounds = {bound: settings.get(bound, default) for bound, default in spec.bounds.items()}
    overrides = {axis: settings[axis] for axis in spec.axes if axis in settings}
    points = [{}]
    for axis, values in spec.axes.items():
        if axis in overrides:
            values = [overrides[axis]]
        elif callable(values):
            values = values(bounds)
        points = [{**p, axis: v} for p in points for v in values]
    args = spec.args(bounds)
    points = [{**p, **args} for p in points if spec.where(p, bounds)]
    if not points:
        raise ValueError(f"{name} has no grid point under overrides {overrides}")
    return points


# A failed check lists at most this many objects in its search for witnesses:
# half a second of marked paths, or one to three of symbols, on a 2-vCPU host.
# The family behind one failing exponent can hold billions.
WITNESS_SCAN_BUDGET = 200_000


def run_check(name, table=None, /, **point):
    """Run target ``name``'s check at one grid point and build its report:
    the check's time, the target name, ``point`` as the parameters, and the
    status.  A check returns ``(first_discrepancy, candidates)``, the first
    None when its two sides agree.  On failure ``candidates`` is a lazy
    stream, one entry per object the enumeration side lists: the rendered
    witness or None.  The report keeps the first five witnesses listed within
    :data:`WITNESS_SCAN_BUDGET` objects; a search that stops at the budget
    says so in ``witness_search``.  A check that reads a run-wide table reads
    ``table``; when it is not given, it is built for the point's own ask
    before the clock starts."""
    spec = SPECS[name]
    inputs = []
    if spec.table:
        build, ask = spec.table
        inputs.append(build([ask(point)]) if table is None else table)
    started = time.perf_counter()
    discrepancy, candidates = spec.check(*inputs, **point)
    witnesses = []
    for listed, witness in enumerate(candidates or (), 1):
        if witness is not None:
            witnesses.append(witness)
            if len(witnesses) == 5:
                break
        if listed == WITNESS_SCAN_BUDGET:
            discrepancy["witness_search"] = f"stopped after {WITNESS_SCAN_BUDGET} listed objects"
            break
    elapsed = time.perf_counter() - started
    if discrepancy is None:
        return VerificationReport(name, point, "pass", None, elapsed)
    return VerificationReport(name, point, "fail", discrepancy, elapsed, witnesses)


def _sweep(name, points, table):
    for point in points:
        yield run_check(name, table, **point)


TARGETS = {name: partial(_sweep, name) for name in SPECS}


def target_names(targets="all") -> list:
    """Expand 'all', drop repeated names (keeping first-occurrence order) and
    reject unknown target names."""
    if isinstance(targets, str):
        targets = [targets]
    names = list(TARGETS) if "all" in targets else list(dict.fromkeys(targets))
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        raise ValueError(f"unknown verification targets: {unknown}; "
                         f"known: {sorted(TARGETS)}")
    return names


def _parameters_key(point):
    return json.dumps(point, sort_keys=True)


def iter_reports(targets="all", settings=None):
    """Validate the request, build each grid and each run-wide table, and
    return an iterator that runs the checks one at a time, yielding each
    report as it finishes, in canonical (target, parameters) order.

    Each setting names a bound of every selected target (``precision``,
    ``max_d``, ``max_m`` or ``max_s``, an int of at least 1), which moves it,
    or one of its grid axes, which it fixes to one value.  A bound that is not
    an int or is below 1, a setting that a selected target has neither as a
    bound nor as an axis, an integer axis (d, m, s, t, r) fixed to a non-int,
    a sign that is not one, a beta that is not a nonempty tuple or list of
    positive ints, and a setting that leaves a selected target with no grid
    point raise ValueError here, before any check runs, and so does a grid
    point that a target's table ask refuses (the first in canonical order).
    Each target's grid is built once.  The asks of every grid point are
    grouped by their table's ``build``, and each table is built once from
    its group, before the first check's clock starts.
    """
    names = target_names(targets)
    settings = settings or {}
    _reject_unusable(names, settings)
    # The grids are built in the order named, so that a refused setting names
    # the first target it leaves empty.  A report's parameters are its grid
    # point, so running the points in canonical order yields the reports in
    # canonical order.
    grids = {name: grid_points(name, settings) for name in names}
    grids = {name: sorted(grids[name], key=_parameters_key) for name in sorted(grids)}
    builds = {name: SPECS[name].table[0] for name in grids if SPECS[name].table}
    asks = {}
    for name, build in builds.items():
        asks.setdefault(build, []).extend(map(SPECS[name].table[1], grids[name]))
    tables = {build: build(group) for build, group in asks.items()}
    return (report for name, points in grids.items()
            for report in TARGETS[name](points, tables.get(builds.get(name))))


def run_reports(targets="all", settings=None):
    """The reports of :func:`iter_reports`, as a list in canonical
    (target, parameters) order."""
    return list(iter_reports(targets, settings))
