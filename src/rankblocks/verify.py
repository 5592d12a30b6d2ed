"""Named verification checks pairing enumeration oracles with closed forms.

Each check computes its two sides through independent code paths (the
enumeration side never touches the closed-form series and vice versa) and
reports per-coefficient agreement.  On failure the report carries the first
discrepant exponent plus up to five witness objects from the enumeration side
at that weight.

Every target is one entry of :data:`SPECS`: a check, its bounds with their
defaults, the grid axes it sweeps, and the constraint on a grid point.  A
check returns only ``(first_discrepancy, witnesses)``; :func:`run_check` alone
turns that into a report.
"""

import json
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from math import isqrt
from typing import Callable

from .lattice_paths import (
    enumerate_exact_marks,
    enumerate_fixed_returns,
    enumerate_marked_paths,
    maj_path,
    marked_path_gf,
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
    iter_symbols_in_class,
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
    QSeries,
    block_count_formula,
    euler_inverse,
    partition_number,
    partition_number_or_zero,
    pentagonal_kernel,
    pochhammer,
    qbinomial,
    qbinomial_column_sum_sides,
    series_by_blocks,
    series_by_columns,
    series_exact,
)


@dataclass
class VerificationReport:
    """Outcome of one check at one grid point; pass iff no discrepancy."""

    target: str
    parameters: dict
    status: str
    first_discrepancy: dict | None
    elapsed: float
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {**vars(self), "elapsed": round(self.elapsed, 6)}


def _take(iterable):
    return list(islice(iterable, 5))


def _first_discrepancy(lhs, rhs, start=0, **extra):
    """The first exponent where two equally long coefficient sequences differ,
    as a discrepancy dict carrying ``extra``, or None.  Entry i of each
    sequence is the coefficient of q^(start + i); ``lhs`` is the expected side."""
    for n, (expected, actual) in enumerate(zip(lhs, rhs, strict=True), start):
        if expected != actual:
            return {"exponent": n, "expected": expected, "actual": actual, **extra}
    return None


# ----------------------------------------------------------------------
# series vs enumerated counts
# ----------------------------------------------------------------------


def verify_exact_series(census, d, m, sign, precision):
    """Counts with fixed column number and block number vs their closed form."""
    closed = series_exact(d, m, sign, precision)
    counts = [count_exact(census, n, d, m, sign) for n in range(1, precision + 1)]
    disc = _first_discrepancy(counts, closed.coeffs[1:], 1)
    wits = disc and _take(f.to_json_dict() for f, _ in
                          iter_symbols_in_class(disc["exponent"], d, m, sign))
    return disc, wits


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
    wits = disc and _take(f.to_json_dict() for d in range(m, isqrt(disc["exponent"]) + 1)
                          for f, _ in iter_symbols_in_class(disc["exponent"], d, m, sign))
    return disc, wits


def verify_column_series(census, d, sign, precision):
    """Counts with fixed column number vs their closed form."""
    closed = series_by_columns(d, sign, precision)
    counts = [count_by_columns(census, n, d, sign) for n in range(1, precision + 1)]
    disc = _first_discrepancy(counts, closed.coeffs[1:], 1)
    wits = disc and _take(f.to_json_dict() for f in iter_frobenius_symbols(disc["exponent"], d)
                          if parity_blocks(f).last_sign == SIGN_LETTER[sign])
    return disc, wits


def verify_euler_expansion(m, precision):
    """Truncated pentagonal kernel over the partition product vs the sum of the
    exact closed forms over all column counts (cut off where q^(d^2) exceeds
    the precision), for both sign variants."""
    sign_factor = 1 if m % 2 == 1 else -1
    partitions = euler_inverse(precision)

    def discrepancy(variant):
        lhs = partitions * pentagonal_kernel(m, variant, precision)
        rhs = QSeries.one(precision)
        for d in range(m, isqrt(precision) + 1):
            rhs = rhs + sign_factor * series_exact(d, m, variant, precision)
        return _first_discrepancy(lhs.coeffs, rhs.coeffs, variant=variant)

    return next(filter(None, map(discrepancy, SIGNS)), None), []


def verify_qbinomial_column_sum(d):
    """Signed Gaussian-binomial column sum as an exact polynomial identity,
    both sides multiplied by (1 + q^d)."""
    lhs, rhs = qbinomial_column_sum_sides(d)
    return _first_discrepancy(lhs.coeffs, rhs.coeffs), []


# ----------------------------------------------------------------------
# marked-path generating functions
# ----------------------------------------------------------------------


def _path_discrepancy(objects, lhs, rhs):
    disc = _first_discrepancy(lhs.coeffs, rhs.coeffs)
    return disc, disc and _take(p.bar_string() for p in objects()
                                if vmr(p) == disc["exponent"])


def _compare_path_gf(gf, objects, closed_shift, closed_poly):
    """Exact polynomial comparison of the path polynomial ``gf`` (sum q^vmr)
    against q^shift * poly.  ``objects`` lists the paths behind ``gf``; it is
    called only on failure, for witnesses."""
    precision = max(closed_shift + closed_poly.precision, gf.precision)
    lhs = QSeries.from_coeffs(gf.coeffs, precision)
    rhs = QSeries.monomial(closed_shift, precision) * QSeries.from_coeffs(
        closed_poly.coeffs, precision)
    return _path_discrepancy(objects, lhs, rhs)


def verify_ballot_gf(s, t, r):
    """Marked ballot paths with at least r marks vs the shifted bracket."""
    if not s > t >= 0:
        raise ValueError(f"need s > t >= 0, got s={s}, t={t}")
    return _compare_path_gf(marked_path_gf(s, t, r), lambda: enumerate_marked_paths(s, t, r),
                            r * (r + 1) // 2, qbinomial(s + t, s + r))


def verify_dyck_gf(s, r):
    """Marked Dyck paths with at least r marks vs the shifted bracket."""
    if s < 1:
        raise ValueError("s must be positive")
    return _compare_path_gf(marked_path_gf(s, s, r), lambda: enumerate_marked_paths(s, s, r),
                            r * (r + 1) // 2, qbinomial(2 * s - 1, s + r))


def verify_exact_mark_gf(s, r):
    """Dyck paths with exactly r marks: gf * (1 - q^s) vs the bracket form,
    multiplied through so both sides stay polynomial."""
    if s < 1:
        raise ValueError("s must be positive")
    gf = marked_path_gf(s, s, r, exact=True)
    shift = r * (r + 1) // 2
    bracket = qbinomial(2 * s, s + r + 1)
    degree = shift + r + 1 + bracket.precision
    precision = max(degree, gf.precision) + s
    one = QSeries.one(precision)
    lhs = QSeries.from_coeffs(gf.coeffs, precision) * (one - QSeries.monomial(s, precision))
    rhs = QSeries.monomial(shift, precision)
    rhs = rhs * (one - QSeries.monomial(r + 1, precision))
    rhs = rhs * QSeries.from_coeffs(bracket.coeffs, precision)
    return _path_discrepancy(lambda: enumerate_exact_marks(s, r), lhs, rhs)


# ----------------------------------------------------------------------
# poset-partition and word/path identities
# ----------------------------------------------------------------------


def verify_poset_partition_gf(beta, precision):
    """Weight histogram of order-reversing assignments vs the descent series
    over linear extensions divided by the length-2d Pochhammer product."""
    structure = build_s_beta(beta)
    hist = enumerate_poset_partitions(structure, precision)
    series = pochhammer(structure.size, precision).invert_unit()
    maj_counts = [0] * (precision + 1)
    for w in linear_extensions(structure):
        e = maj_word(w)
        if e <= precision:
            maj_counts[e] += 1
    series = series * QSeries(tuple(maj_counts))
    disc = _first_discrepancy(hist, series.coeffs)
    wits = disc and _take(p.to_json_dict() for p in
                          iter_poset_partitions(structure, disc["exponent"])
                          if p.weight == disc["exponent"])
    return disc, wits


def verify_word_path_gf(beta):
    """Descent statistic over linear extensions vs the shifted valley statistic
    over Dyck paths with the prescribed marked returns; also checks that the
    word-to-path map is a bijection onto that path family."""
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
        return disc, _take(" ".join(map(str, w.word)) for w in words
                           if maj_word(w) == disc["exponent"])
    images = [word_to_dyck(w) for w in words]
    if len(set(images)) != len(images) or set(images) != set(paths):
        disc = {"exponent": None, "expected": len(paths),
                "actual": len(set(images)),
                "detail": "word-to-path images do not match the path family"}
        return disc, _take(p.bar_string() for p in paths)
    return None, []


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
            return disc, _take(f.to_json_dict() for d in range(m, isqrt(n) + 1)
                               for f in iter_frobenius_symbols(n, d)
                               if parity_blocks(f).sign_word.startswith(patterns))
    return None, []


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
    return next(filter(None, discs), None), []


def verify_partition_unity(census, precision):
    """Every nonempty partition is counted once over all (d, m, sign) classes."""
    totals = [sum(count_exact(census, n, d, m, sign) for d in range(1, isqrt(n) + 1)
                  for m in range(1, d + 1) for sign in SIGNS)
              for n in range(1, precision + 1)]
    disc = _first_discrepancy(totals, [partition_number(n) for n in range(1, precision + 1)], 1)
    return disc, []


# ----------------------------------------------------------------------
# the target table and the generic sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One target: its check, its bounds (bound name -> default), the grid axes
    it sweeps (axis name -> values, or a function of the bounds giving them),
    the check arguments read from the bounds, and the constraint a grid point
    must meet, given the point and the bounds.  A setting names a bound, which
    it moves, or an axis, which it fixes to one value.  Those functions are
    handed only the bounds declared here.  A census target's check takes the
    census first; its ``reach`` maps a grid point to ``{d: the largest n the
    check reads}``."""

    check: Callable
    bounds: dict
    axes: dict
    args: Callable = lambda bounds: {}
    where: Callable = lambda point, bounds: True
    reach: Callable | None = None


def _upto(bound):
    return lambda bounds: range(1, bounds[bound] + 1)


def _compositions_upto(bounds):
    return [beta for d in range(1, bounds["max_d"] + 1) for beta in compositions(d)]


def _precision(bounds):
    return {"precision": bounds["precision"]}


def _every_column(point):
    return dict.fromkeys(range(1, isqrt(point["precision"]) + 1), point["precision"])


SPECS = {
    "thm-main": Spec(verify_exact_series, {"precision": 40, "max_d": 5, "max_m": 5},
                     {"d": _upto("max_d"), "m": _upto("max_m"), "sign": SIGNS},
                     _precision, lambda p, bounds: p["m"] <= p["d"],
                     reach=lambda p: {p["d"]: p["precision"]}),
    "thm-1.2": Spec(verify_block_series, {"precision": 40, "max_m": 5},
                    {"m": _upto("max_m"), "sign": SIGNS}, _precision, reach=_every_column),
    "thm-1.4": Spec(verify_column_series, {"precision": 40, "max_d": 5},
                    {"d": _upto("max_d"), "sign": SIGNS}, _precision,
                    reach=lambda p: {p["d"]: p["precision"]}),
    "cor-1.3": Spec(verify_euler_expansion, {"precision": 40, "max_m": 5},
                    {"m": _upto("max_m")}, _precision),
    "cor-1.5": Spec(verify_qbinomial_column_sum, {}, {"d": range(1, 11)}),
    "lemma-2.2": Spec(verify_ballot_gf, {"max_s": 6},
                      {"s": lambda bounds: range(1, 2 * bounds["max_s"] + 1),
                       "t": lambda bounds: range(bounds["max_s"]), "r": range(7)},
                      where=lambda p, bounds: p["t"] < p["s"] <= 2 * bounds["max_s"] - p["t"]),
    "lemma-2.4": Spec(verify_dyck_gf, {"max_s": 6}, {"s": _upto("max_s"), "r": range(7)}),
    "cor-2.5": Spec(verify_exact_mark_gf, {"max_s": 6}, {"s": _upto("max_s"), "r": range(7)}),
    "prop-3.9": Spec(verify_poset_partition_gf, {"max_d": 4, "precision": 20},
                     {"beta": _compositions_upto}, _precision),
    "prop-3.10": Spec(verify_word_path_gf, {"max_d": 5}, {"beta": _compositions_upto}),
    "thm-5.1": Spec(verify_prefix_counts, {"precision": 30}, {"m": range(1, 5)}, _precision,
                    reach=_every_column),
    "remarks": Spec(verify_count_relations, {"precision": 30, "max_d": 4}, {},
                    lambda bounds: {**_precision(bounds), "max_m": 4, "max_d": bounds["max_d"]},
                    # relation (2) reads count_exact(n + d, ...) up to precision + d
                    reach=lambda p: {**_every_column(p), **{d: p["precision"] + d
                                                            for d in range(1, p["max_d"] + 1)}}),
    "partition-unity": Spec(verify_partition_unity, {"precision": 30}, {}, _precision,
                            reach=_every_column),
}


# Every name that is a bound of some target: a setting of one must be at least 1.
_BOUND_NAMES = frozenset().union(*(spec.bounds for spec in SPECS.values()))


def _reject_unusable(names, settings):
    # A bound below 1, which would leave every check with nothing to compare,
    # or a setting that names neither a bound nor an axis of a selected target.
    for flag, value in settings.items():
        if flag in _BOUND_NAMES and value < 1:
            raise ValueError(f"--{flag.replace('_', '-')}: must be at least 1, got {value}")
    for flag in settings:
        ignoring = [name for name in names
                    if flag not in SPECS[name].bounds and flag not in SPECS[name].axes]
        if ignoring:
            raise ValueError(f"--{flag.replace('_', '-')} is not honoured by "
                             f"{', '.join(ignoring)}")


def grid_points(name, settings=None):
    """The keyword arguments of every check the target runs, in sweep order.
    Each setting must name a bound of the target, which it moves, or an axis,
    which it fixes; every bound must be at least 1, and the grid must not be
    empty."""
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


def run_check(name, census=None, /, **point):
    """Run target ``name``'s check at one grid point and build its report:
    the check's time, the target name, ``point`` as the parameters, and the
    status.  A check returns ``(first_discrepancy, witnesses)``, the first
    None when its two sides agree.  A census target's check reads ``census``,
    or, when none is given, a census built for the point's reach before the
    clock starts."""
    if SPECS[name].reach and census is None:
        census = _census([(name, point)])
    census_args = [census] if SPECS[name].reach else []
    started = time.perf_counter()
    discrepancy, witnesses = SPECS[name].check(*census_args, **point)
    elapsed = time.perf_counter() - started
    if discrepancy is None:
        return VerificationReport(name, point, "pass", None, elapsed)
    return VerificationReport(name, point, "fail", discrepancy, elapsed, list(witnesses))


def _census(points):
    """The census read at (target, grid point) pairs: each d up to the largest n."""
    reaches = [SPECS[name].reach(point) for name, point in points if SPECS[name].reach]
    return build_census({d: max(r.get(d, 0) for r in reaches) for d in set().union(*reaches)})


def _sweep(name, points, census):
    for point in points:
        yield run_check(name, census, **point)


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
    """Validate the request, build each grid and the census, and return an
    iterator that runs the checks one at a time, yielding each report as it
    finishes, in canonical (target, parameters) order.

    Each setting names a bound of every selected target (``precision``,
    ``max_d``, ``max_m`` or ``max_s``, at least 1), which moves it, or one of
    its grid axes, which it fixes to one value.  A bound below 1, a setting
    that a selected target has neither as a bound nor as an axis, and a
    setting that leaves a selected target with no grid point raise ValueError
    here, before any check runs.  Each target's grid is built once, and so is
    the census the selected targets read.
    """
    names = target_names(targets)
    settings = settings or {}
    _reject_unusable(names, settings)
    grids = {name: grid_points(name, settings) for name in names}
    census = _census((name, point) for name, points in grids.items() for point in points)
    # A report's parameters are its grid point, so running the points in
    # canonical order yields the reports in canonical order.
    return (report for name in sorted(grids)
            for report in TARGETS[name](sorted(grids[name], key=_parameters_key), census))


def run_reports(targets="all", settings=None):
    """The reports of :func:`iter_reports`, as a list in canonical
    (target, parameters) order."""
    return list(iter_reports(targets, settings))
