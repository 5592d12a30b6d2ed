"""Named verification checks, each comparing the two sides of one claim.

Every target is one entry of :data:`SPECS`.  It declares its two sides, each
a :class:`Side`: a kind (``enumeration`` for a side that lists or counts
objects, ``closed`` for one that evaluates closed forms), the name of its code
path, and a function that gives its coefficient rows.  Most targets set an
enumeration against a closed form; cor-1.3 and cor-1.5 compare two closed
forms, and prop-3.9, prop-3.10 and remarks two enumerations.  The two sides
share no code: a closed side calls no enumeration module, and an enumeration
side calls nothing in ``qseries`` but a few functions, each allowed with its
reason by the run-time audit in ``tests/test_sides.py``.

:func:`run_check` is the one comparer.  It calls both sides, reports the first
discrepancy by one rule, and searches the target's candidates for up to five
witnesses: objects from the enumeration side at the discrepant weight.
"""

import json
import time
from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import zip_longest
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


def _symbols(n, ds, keep):
    # The candidates of a census check: one per symbol of size n with d in
    # ``ds`` columns, its JSON if ``keep`` holds of its blocks, else None.
    return (f.to_json_dict() if keep(parity_blocks(f)) else None
            for d in ds for f in iter_frobenius_symbols(n, d))


def _at_vmr(n, paths):
    # The candidates of a path check: each path, rendered if its vmr is n.
    return (p.bar_string() if vmr(p) == n else None for p in paths)


def _shifted(r, coeffs, tail=0):
    # q^(r(r+1)/2) times a coefficient sequence, with ``tail`` zeros added.
    return [0] * (r * (r + 1) // 2) + list(coeffs) + [0] * tail


def _histogram(exponents, length=0):
    # The coefficients of the sum of q^e over a list of exponents, at least
    # ``length`` of them.
    counts = Counter(exponents)
    return [counts[e] for e in range(max(length, max(counts, default=-1) + 1))]


def _kernel_times_product(product, m, precision):
    """cor-1.3's left side, one row per sign variant: the truncated pentagonal
    kernel times the partition product, of which it reads only its own prefix."""
    if product.precision < precision:
        raise LookupError(f"the partition product stops at q^{product.precision}, "
                          f"short of q^{precision}")
    return [({"variant": v}, _times_kernel(product.coeffs[:precision + 1], m, v)) for v in SIGNS]


def _one_plus_signed_sums(_, m, precision):
    """cor-1.3's right side, one row per sign variant: one plus the signed sum
    of the exact closed forms over every column count."""
    sums = series_exact_sums(m, precision)
    return [({"variant": v}, [(k == 0) + (-1) ** (m + 1) * c
                              for k, c in enumerate(sums[v].coeffs)]) for v in SIGNS]


def _extension_maj_over_pochhammer(_, beta, precision):
    """prop-3.9's right side: the descent counts over linear extensions divided
    by the length-2d Pochhammer product, one ascending pass per factor."""
    structure = build_s_beta(beta)
    row = _histogram([e for e in map(maj_word, linear_extensions(structure)) if e <= precision],
                     precision + 1)
    for a in range(1, structure.size + 1):
        _over_one_minus(row, a)
    return [({}, row)]


def _listing(*beta):
    """prop-3.10's objects for one composition: the words of the linear
    extensions of S_beta, the Dyck paths with marked returns at the inner
    partial sums of beta, and the shift of their maj, twice the sum of those
    positions."""
    structure = build_s_beta(beta)
    positions = structure.beta.partial_sums[1:-1]
    return (linear_extensions(structure),
            list(enumerate_fixed_returns(structure.beta.d, positions)), 2 * sum(positions))


def _shifted_path_maj(listing, beta):
    # prop-3.10's right side: the shifted maj over the path family.
    _, paths, shift = listing(*beta)
    return [({}, _histogram([maj_path(p) - shift for p in paths]))]


def _word_path_bijection(listing, beta):
    """prop-3.10's second half, run when the sides agree: the word-to-path map
    is a bijection onto the path family, or the candidates are the paths that
    no word reaches."""
    words, paths, _ = listing(*beta)
    reached = {word_to_dyck(w) for w in words}
    if len(reached) == len(words) and reached == set(paths):
        return None, ()
    return ({"exponent": None, "expected": len(paths), "actual": len(reached),
             "detail": "word-to-path images do not match the path family"},
            (None if p in reached else p.bar_string() for p in paths))


def _row(labels, precision, *terms, side=0):
    # One labelled row at n = 1..precision: the term of ``side``, a function
    # of n.  The sides of a target whose rows run over shared instances give
    # both terms of each, 0 the left's and 1 the right's.
    return labels, [terms[side](n) for n in range(1, precision + 1)]


def _patterns(m, letter):
    # thm-5.1's two disjoint prefix classes for one last letter.
    if m < 1:
        raise ValueError("m must be positive")
    return alternating_sign_word(m, letter), alternating_sign_word(m + 1, letter)


def _prefix_rows(census, m, precision, side):
    # thm-5.1's rows, for the last letter N, then P: the partitions whose
    # alternating sign word starts with the length-m or the length-(m+1)
    # pattern, against p(n - (3m^2 -+ m)/2).
    return [_row({"last_letter": letter}, precision,
                 lambda n: sum(count_prefix_pattern(census, n, p) for p in _patterns(m, letter)),
                 lambda n: partition_number_or_zero(n - offset), side=side)
            for letter, offset in ((NEGATIVE, m * (3 * m - 1) // 2),
                                   (POSITIVE, m * (3 * m + 1) // 2))]


def _relation_rows(census, precision, max_m, max_d, side):
    # remarks' rows, one per instance of its three relations, in order: (1)
    # the minus/plus by-blocks difference against partition numbers shifted by
    # (3m^2 -+ m)/2, (2) the minus counts against the plus counts at n + d,
    # (3) the minus/plus by-columns difference against the counts one column
    # narrower, summed over steps of 2d.
    return ([_row({"item": 1, "m": m}, precision,
                  lambda n: (count_by_blocks(census, n, m, MINUS)
                             - count_by_blocks(census, n, m, PLUS)),
                  lambda n: (partition_number_or_zero(n - m * (3 * m - 1) // 2)
                             - partition_number_or_zero(n - m * (3 * m + 1) // 2)), side=side)
             for m in range(1, max_m + 1)]
            + [_row({"item": 2, "d": d, "m": m}, precision,
                    lambda n: count_exact(census, n, d, m, MINUS),
                    lambda n: count_exact(census, n + d, d, m, PLUS), side=side)
               for d in range(1, max_d + 1) for m in range(1, d + 1)]
            + [_row({"item": 3, "d": d}, precision,
                    lambda n: (count_by_columns(census, n, d, MINUS)
                               - count_by_columns(census, n, d, PLUS)),
                    lambda n: sum(count_all_columns(census, n - 2 * d * j + 1, d - 1)
                                  for j in range(1, (n + 1) // (2 * d) + 1)), side=side)
               for d in range(1, max_d + 1)])


# ----------------------------------------------------------------------
# the target table and the generic sweep
# ----------------------------------------------------------------------


Side = namedtuple("Side", "kind path rows")
ENUMERATION, CLOSED = "enumeration", "closed"  # the two kinds of side


class Spec(namedtuple("Spec", "sides bounds axes args where table candidates also",
                      defaults=(lambda bounds: {}, lambda point, bounds: True, None,
                                lambda n, disc, **point: (), lambda table, **point: (None, ())))):
    """One target.  ``sides`` is ``(left, right)``, each a :class:`Side`: a
    kind, :data:`ENUMERATION` (it lists or counts objects) or :data:`CLOSED`
    (it evaluates closed forms), the name of its code path, and ``rows(table,
    **point)``, which returns its coefficient rows as a list of ``(labels,
    coefficients)``.  A side looks up what it calls as a global of this
    module when it runs.  Then the bounds (bound name -> default), the grid
    axes (axis name -> values, or a function of the bounds giving them), the
    point arguments read from the bounds, and the constraint a grid point
    must meet, given the point and the bounds.  A setting names a bound,
    which it moves, or an axis, which it fixes to one value.  Those functions
    are handed only the bounds declared here.

    A target whose sides read a run-wide table declares ``table = (build,
    ask)``: ``ask`` maps a grid point to what the sides read (a census reach
    ``{d: the largest n read}``, a product precision, a path read ``(s, t, r,
    exact)``, or the d or beta of a one-entry memo) and refuses a point the
    sides refuse; ``build`` makes one table from a list of asks.  Other
    targets' sides get None as ``table``.
    ``candidates(n, discrepancy, **point)`` lists the enumeration side's
    objects for the witness search of a discrepancy at q^n, each the rendered
    witness or None.
    ``also(table, **point)`` is a further check, run when the sides agree,
    for what rows cannot state; it returns a discrepancy or None, and
    candidates."""

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


def _paths(reads):
    """The marked-path table for a list of reads: one DP for all of them."""
    return marked_path_table(reads)


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


_OWN_COLUMN = (_census, lambda p: {p["d"]: p["precision"]})
_EVERY_COLUMN = (_census, _every_column)

SPECS = {
    "thm-main": Spec(
        (Side(ENUMERATION, "census", lambda census, d, m, sign, precision: [
            _row({}, precision, lambda n: count_exact(census, n, d, m, sign))]),
         Side(CLOSED, "series_exact", lambda _, d, m, sign, precision: [
             ({}, series_exact(d, m, sign, precision).coeffs[1:])])),
        {"precision": 40, "max_d": 5, "max_m": 5},
        {"d": _upto("max_d"), "m": _upto("max_m"), "sign": SIGNS},
        _precision, lambda p, bounds: p["m"] <= p["d"], _OWN_COLUMN,
        lambda n, _, d, m, sign, precision: _symbols(
            n, [d], lambda b: (b.m, b.last_sign) == (m, SIGN_LETTER[sign]))),
    "thm-1.2": Spec(
        # the counts, once against each closed row
        (Side(ENUMERATION, "census", lambda census, m, sign, precision: 2 * [
            _row({}, precision, lambda n: count_by_blocks(census, n, m, sign))]),
         Side(CLOSED, "block_count_formula, series_by_blocks", lambda _, m, sign, precision: [
             _row({"side": "formula"}, precision, lambda n: block_count_formula(n, m, sign)),
             ({"side": "series"}, series_by_blocks(m, sign, precision).coeffs[1:])])),
        {"precision": 40, "max_m": 5}, {"m": _upto("max_m"), "sign": SIGNS}, _precision,
        table=_EVERY_COLUMN, candidates=lambda n, _, m, sign, precision: _symbols(
            n, range(m, isqrt(n) + 1), lambda b: (b.m, b.last_sign) == (m, SIGN_LETTER[sign]))),
    "thm-1.4": Spec(
        (Side(ENUMERATION, "census", lambda census, d, sign, precision: [
            _row({}, precision, lambda n: count_by_columns(census, n, d, sign))]),
         Side(CLOSED, "series_by_columns", lambda _, d, sign, precision: [
             ({}, series_by_columns(d, sign, precision).coeffs[1:])])),
        {"precision": 40, "max_d": 5}, {"d": _upto("max_d"), "sign": SIGNS}, _precision,
        table=_OWN_COLUMN, candidates=lambda n, _, d, sign, precision: _symbols(
            n, [d], lambda b: b.last_sign == SIGN_LETTER[sign])),
    "cor-1.3": Spec(
        (Side(CLOSED, "kernel times euler_inverse", _kernel_times_product),
         Side(CLOSED, "series_exact_sums", _one_plus_signed_sums)),
        {"precision": 40, "max_m": 5}, {"m": _upto("max_m")}, _precision,
        # the partition product at the largest precision asked for
        table=(lambda precisions: euler_inverse(max(precisions)), lambda p: p["precision"])),
    "cor-1.5": Spec(
        (Side(CLOSED, "column sum", lambda both, d: [({}, both(d)[0].coeffs)]),
         Side(CLOSED, "bracket", lambda both, d: [({}, both(d)[1].coeffs)])),
        {}, {"d": range(1, 11)},
        # one function builds both sides, each from its own brackets: call it once
        table=(lambda ds: lru_cache(1)(qbinomial_column_sum_sides), lambda p: p["d"])),
    "lemma-2.2": Spec(
        (Side(ENUMERATION, "path table", lambda paths, s, t, r: [
            ({}, marked_path_coeffs(paths, *_ballot_read(s, t, r)))]),
         Side(CLOSED, "shifted bracket", lambda _, s, t, r: [
             ({}, _shifted(r, qbinomial(s + t, s + r).coeffs))])),
        {"max_s": 6}, {"s": lambda bounds: range(1, 2 * bounds["max_s"] + 1),
                       "t": lambda bounds: range(bounds["max_s"]), "r": range(7)},
        where=lambda p, bounds: p["t"] < p["s"] <= 2 * bounds["max_s"] - p["t"],
        table=(_paths, lambda p: _ballot_read(**p)),
        candidates=lambda n, _, s, t, r: _at_vmr(n, enumerate_marked_paths(s, t, r))),
    "lemma-2.4": Spec(
        (Side(ENUMERATION, "path table", lambda paths, s, r: [
            ({}, marked_path_coeffs(paths, *_dyck_read(s, r)))]),
         Side(CLOSED, "shifted bracket", lambda _, s, r: [
             ({}, _shifted(r, qbinomial(2 * s - 1, s + r).coeffs))])),
        {"max_s": 6}, {"s": _upto("max_s"), "r": range(7)},
        table=(_paths, lambda p: _dyck_read(**p)),
        candidates=lambda n, _, s, r: _at_vmr(n, enumerate_marked_paths(s, s, r))),
    # Both sides times (1 - q^s)(1 - q^(r+1)), so that both stay polynomials.
    "cor-2.5": Spec(
        (Side(ENUMERATION, "path table", lambda paths, s, r: [({}, _times_one_minus(
            marked_path_coeffs(paths, *_dyck_read(s, r, exact=True)) + [0] * s, s))]),
         Side(CLOSED, "shifted bracket", lambda _, s, r: [({}, _times_one_minus(
             _shifted(r, qbinomial(2 * s, s + r + 1).coeffs, r + 1), r + 1))])),
        {"max_s": 6}, {"s": _upto("max_s"), "r": range(7)},
        table=(_paths, lambda p: _dyck_read(**p, exact=True)),
        candidates=lambda n, _, s, r: _at_vmr(n, enumerate_exact_marks(s, r))),
    "prop-3.9": Spec(
        (Side(ENUMERATION, "poset-partition DP", lambda _, beta, precision: [
            ({}, enumerate_poset_partitions(build_s_beta(beta), precision))]),
         Side(ENUMERATION, "linear extensions", _extension_maj_over_pochhammer)),
        {"max_d": 4, "precision": 20}, {"beta": _compositions_upto}, _precision,
        candidates=lambda n, _, beta, precision: (
            p.to_json_dict() if p.weight == n else None
            for p in iter_poset_partitions(build_s_beta(beta), n))),
    "prop-3.10": Spec(
        (Side(ENUMERATION, "linear extensions", lambda listing, beta: [
            ({}, _histogram([maj_word(w) for w in listing(*beta)[0]]))]),
         Side(ENUMERATION, "fixed-return paths", _shifted_path_maj)),
        {"max_d": 5}, {"beta": _compositions_upto}, also=_word_path_bijection,
        # both families of a composition, listed once for its sides and its
        # bijection check; only the last composition's are kept
        table=(lambda betas: lru_cache(1)(_listing), lambda p: p["beta"]),
        candidates=lambda n, _, beta: (" ".join(map(str, w.word)) if maj_word(w) == n else None
                                       for w in linear_extensions(build_s_beta(beta)))),
    "thm-5.1": Spec(
        (Side(ENUMERATION, "census", partial(_prefix_rows, side=0)),
         Side(CLOSED, "partition_number", partial(_prefix_rows, side=1))),
        {"precision": 30}, {"m": range(1, 5)}, _precision, table=_EVERY_COLUMN,
        candidates=lambda n, disc, m, precision: _symbols(n, range(m, isqrt(n) + 1), lambda b: (
            b.sign_word.startswith(_patterns(m, disc["last_letter"]))))),
    "remarks": Spec(
        (Side(ENUMERATION, "census", partial(_relation_rows, side=0)),
         Side(ENUMERATION, "census, partition_number", partial(_relation_rows, side=1))),
        {"precision": 30, "max_d": 4}, {},
        lambda bounds: {**_precision(bounds), "max_m": 4, "max_d": bounds["max_d"]},
        # relation (2) reads count_exact(n + d, ...) up to precision + d
        table=(_census, lambda p: {**_every_column(p), **{
            d: p["precision"] + d for d in range(1, p["max_d"] + 1)}})),
    "partition-unity": Spec(
        (Side(ENUMERATION, "census", lambda census, precision: [_row({}, precision, lambda n: sum(
            count_exact(census, n, d, m, sign)
            for d in range(1, isqrt(n) + 1) for m in range(1, d + 1) for sign in SIGNS))]),
         Side(CLOSED, "partition_number", lambda _, precision: [
             _row({}, precision, partition_number)])),
        {"precision": 30}, {}, _precision, table=_EVERY_COLUMN),
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


def _discrepancies(name, point, left, right):
    """The discrepancies between two sides' rows, in the order the rule reads
    them.  The rows pair up in order, and each pair is read from its lowest
    exponent; a discrepancy carries both rows' labels, the left row's
    coefficient as the expected one.  At a point with a ``precision`` the
    rows are series truncated there, so paired rows must be equally long,
    each ending at q^precision; a row or a coefficient short is a fault of
    the program, not a failed check.  At any other point they are
    polynomials from q^0, padded with zeros to one length, and a missing row
    is the zero polynomial."""
    precision = point.get("precision")
    for (left_labels, lhs), (right_labels, rhs) in zip_longest(left, right, fillvalue=({}, ())):
        if precision is not None and len(lhs) != len(rhs):
            raise RuntimeError(f"{name} at {point}: rows of lengths {len(lhs)} and {len(rhs)}")
        start = 0 if precision is None else precision + 1 - len(lhs)
        yield from ({"exponent": n, "expected": e, "actual": a, **left_labels, **right_labels}
                    for n, (e, a) in enumerate(zip_longest(lhs, rhs, fillvalue=0), start)
                    if e != a)


def run_check(name, table=None, /, **point):
    """Run target ``name``'s check at one grid point and build its report:
    the check's time, the target name, ``point`` as the parameters, and the
    status.  The check calls the left side, then the right, and compares
    their rows; if they agree, it runs the target's ``also``.  On failure it
    searches the candidates and keeps the first five witnesses listed within
    :data:`WITNESS_SCAN_BUDGET` objects; a search that stops at the budget
    says so in ``witness_search``.  The sides of a target with a run-wide
    table read ``table``; when it is not given, it is built for the point's
    own ask before the clock starts."""
    spec = SPECS[name]
    if spec.table and table is None:
        build, ask = spec.table
        table = build([ask(point)])
    started = time.perf_counter()
    discrepancy = next(_discrepancies(name, point, *(side.rows(table, **point)
                                                     for side in spec.sides)), None)
    if discrepancy is None:
        discrepancy, candidates = spec.also(table, **point)
    else:
        candidates = spec.candidates(discrepancy["exponent"], discrepancy, **point)
    witnesses = []
    for listed, witness in enumerate(candidates, 1):
        if witness is not None:
            witnesses.append(witness)
            if len(witnesses) == 5:
                break
        if listed == WITNESS_SCAN_BUDGET:
            discrepancy["witness_search"] = f"stopped after {WITNESS_SCAN_BUDGET} listed objects"
            break
    elapsed = time.perf_counter() - started
    status = "pass" if discrepancy is None else "fail"
    return VerificationReport(name, point, status, discrepancy, elapsed, witnesses)


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
    grids = {name: sorted(grids[name], key=lambda p: json.dumps(p, sort_keys=True))
             for name in sorted(grids)}
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
