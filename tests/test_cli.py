"""The command-line surface: outputs, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankblocks
from rankblocks.cli import COUNT_MODES, SERIES_TARGETS, main
from rankblocks.qseries import block_count_formula, series_by_columns
from rankblocks.verify import SPECS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_exact(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "15", "--d", "3", "--m", "2",
                           "--sign", "plus")
    assert code == 0
    assert out.strip() == "3"


def test_count_exact_deep_point_within_budget(capsys, census_builds):
    # count builds only the table it reads: d = 4, up to n = 80
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", "--n", "80", "--d", "4", "--m", "2",
                           "--sign", "plus")
    assert code == 0
    assert out.strip() == "666064"
    assert time.perf_counter() - started < 10.0
    assert census_builds == [("build", 4, 80)]


@pytest.mark.parametrize("argv", [
    ("--n", "250", "--d", "8", "--m", "0"),
    ("--n", "250", "--d", "8", "--m", "9"),
    ("--n", "0", "--d", "2", "--m", "1"),
    ("--mode", "by-blocks", "--n", "120", "--m", "0"),
    ("--mode", "by-blocks", "--n", "30", "--m", "6"),
    ("--mode", "by-columns", "--n", "30", "--d", "0"),
    ("--mode", "by-columns", "--n", "-3", "--d", "2"),
    ("--n", "8000000", "--d", "3000", "--m", "1"),
    ("--mode", "by-columns", "--n", "24", "--d", "5"),
])
def test_count_of_an_empty_class_builds_no_census(capsys, census_builds, argv):
    # n, d or m below 1, more blocks than columns, or more cells in the
    # d x d square than n: 0 with no table built
    code, out, _ = run_cli(capsys, "count", *argv, "--sign", "plus")
    assert (code, out) == (0, "0\n")
    assert census_builds == []


def test_count_by_blocks_builds_only_columns_that_hold_m_blocks(capsys, census_builds):
    code, out, _ = run_cli(capsys, "count", "--mode", "by-blocks", "--n", "30", "--m", "3",
                           "--sign", "minus")
    assert code == 0
    assert int(out) == block_count_formula(30, 3, "minus")
    assert census_builds == [("build", d, 30) for d in (3, 4, 5)]


@pytest.mark.parametrize("argv, row", [
    (("--mode", "by-blocks", "--n", "20", "--m", "2"), "by-blocks,20,,2,plus,72"),
    (("--mode", "by-columns", "--n", "20", "--d", "2"), "by-columns,20,2,,plus,120"),
])
def test_count_csv_leaves_an_unused_flag_empty(capsys, argv, row):
    # JSON writes null for the flag a mode does not take; CSV an empty field
    code, out, _ = run_cli(capsys, "count", *argv, "--sign", "plus", "--format", "csv")
    assert (code, out) == (0, f"mode,n,d,m,sign,count\n{row}\n")


def test_count_minus_base(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "1", "--d", "1", "--m", "1",
                           "--sign", "minus")
    assert code == 0 and out.strip() == "1"


def test_count_by_blocks_matches_formula(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "20", "--mode", "by-blocks",
                           "--m", "2", "--sign", "plus")
    assert code == 0
    assert int(out.strip()) == block_count_formula(20, 2, "plus")


def test_count_json_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "15", "--d", "3", "--m", "2",
                           "--sign", "plus", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"mode": "exact", "n": 15, "d": 3, "m": 2,
                               "sign": "plus", "count": 3}


def test_count_missing_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "15", "--sign", "plus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "rankblocks: error: mode 'exact' needs --d and --m"]


def test_list_matches_paper_and_count(capsys):
    code, out, _ = run_cli(capsys, "list", "--n", "15", "--d", "3", "--m", "2",
                           "--sign", "plus", "--format", "json")
    assert code == 0
    symbols = json.loads(out)
    assert {(tuple(s["top"]), tuple(s["bottom"])) for s in symbols} == {
        ((3, 2, 1), (5, 1, 0)), ((4, 2, 1), (4, 1, 0)), ((3, 2, 1), (4, 2, 0))}
    code, out, _ = run_cli(capsys, "count", "--n", "15", "--d", "3", "--m", "2",
                           "--sign", "plus")
    assert len(symbols) == int(out.strip())


def test_list_text_uses_block_bars(capsys):
    code, out, _ = run_cli(capsys, "list", "--n", "15", "--d", "3", "--m", "2",
                           "--sign", "plus")
    assert code == 0
    lines = out.strip().splitlines()
    assert "(3 | 2 1 / 5 | 1 0)" in lines


LIST_15_3_2_PLUS = {
    "text": "(4 | 2 1 / 4 | 1 0)\n(3 | 2 1 / 5 | 1 0)\n(3 2 | 1 / 4 2 | 0)\n",
    "json": '[{"top": [4, 2, 1], "bottom": [4, 1, 0], "blocks": {"sizes": [1, 2], '
            '"signs": "NP"}}, {"top": [3, 2, 1], "bottom": [5, 1, 0], "blocks": '
            '{"sizes": [1, 2], "signs": "NP"}}, {"top": [3, 2, 1], "bottom": [4, 2, 0], '
            '"blocks": {"sizes": [2, 1], "signs": "NP"}}]\n',
    "csv": 'top,bottom,sizes,signs\n"4 2 1","4 1 0","1 2",NP\n'
           '"3 2 1","5 1 0","1 2",NP\n"3 2 1","4 2 0","2 1",NP\n',
}


@pytest.mark.parametrize("fmt", sorted(LIST_15_3_2_PLUS))
def test_list_output_is_pinned_in_every_format(capsys, fmt):
    code, out, err = run_cli(capsys, "list", "--n", "15", "--d", "3", "--m", "2",
                             "--sign", "plus", "--format", fmt)
    assert code == 0 and err == ""
    assert out == LIST_15_3_2_PLUS[fmt]


def test_list_empty_result(capsys):
    code, out, _ = run_cli(capsys, "list", "--n", "1", "--d", "1", "--m", "1",
                           "--sign", "plus", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_biject_trace_and_invert(capsys):
    symbol = json.dumps({"top": [16, 14, 13, 12, 10, 4, 3, 1],
                         "bottom": [17, 14, 12, 11, 8, 6, 1, 0]})
    code, out, _ = run_cli(capsys, "biject", "--symbol", symbol, "--format", "json")
    assert code == 0
    trace = json.loads(out)
    assert [st["weight"] for st in trace] == [150, 86, 86, 86, 65]
    code, out, _ = run_cli(capsys, "biject", "--symbol", symbol, "--invert",
                           "--format", "json")
    assert code == 0
    trace = json.loads(out)
    assert trace[-1]["stage"] == "lambda_roundtrip"
    assert trace[-1]["matches_input"] is True


def test_biject_inline_symbol(capsys):
    code, out, _ = run_cli(capsys, "biject", "--symbol", "3 2 1 / 5 1 0",
                           "--format", "json")
    assert code == 0
    trace = json.loads(out)
    assert trace[0]["weight"] == 15


def test_biject_sign_flag_is_usage_error(capsys):
    # The sign is read off the symbol's parity blocks, so biject has no --sign,
    # not even for the value it would infer.
    with pytest.raises(SystemExit) as exc:
        main(["biject", "--symbol", "3 2 1 / 5 1 0", "--sign", "plus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "rankblocks: error: unrecognized arguments: --sign plus"]


@pytest.mark.parametrize("symbol, message", [
    ('{"top": [2.7], "bottom": [0]}', "entries must be nonnegative integers, got 2.7"),
    ('{"top": ["3"], "bottom": [0]}', "entries must be nonnegative integers, got '3'"),
    ('{"top": [true], "bottom": [0]}', "entries must be nonnegative integers, got True"),
    ('{"bottom": [0]}', "symbol JSON needs a 'top' list"),
    ('{"top": 5, "bottom": [0]}', "symbol 'top' must be a list, got 5"),
])
def test_biject_bad_json_symbol_is_usage_error(capsys, symbol, message):
    # entries are validated as given, never rounded or parsed into integers
    with pytest.raises(SystemExit) as exc:
        main(["biject", "--symbol", symbol])
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.endswith(message)


def test_biject_small_symbol_two_chain(capsys):
    code, out, _ = run_cli(capsys, "biject", "--symbol", "4 / 1", "--format", "json")
    assert code == 0
    trace = json.loads(out)
    gamma = next(st for st in trace if st["stage"] == "gamma")
    assert gamma["rows"] == [[4], [1]]


def test_series_anchor_coefficient(capsys):
    code, out, _ = run_cli(capsys, "series", "--target", "thm-main", "--d", "3",
                           "--m", "2", "--sign", "plus", "--precision", "16")
    assert code == 0
    coeffs = [int(c) for c in out.strip().split(",")]
    assert coeffs[15] == 3


def test_series_qbinomial_default_precision(capsys):
    code, out, _ = run_cli(capsys, "series", "--target", "qbinomial", "--n", "4",
                           "--k", "2")
    assert code == 0
    assert out.strip() == "1,1,2,1,1"


def test_series_qbinomial_deep_and_truncated(capsys):
    # j <= min(k, n - k) = 600 leaves every coefficient below q^6 unconstrained,
    # so they are p(0..5); n = 1200 rows is deeper than the recursion limit.
    code, out, _ = run_cli(capsys, "series", "--target", "qbinomial", "--n", "1200",
                           "--k", "600", "--precision", "5")
    assert code == 0
    assert out.strip() == "1,1,2,3,5,7"


def test_series_deep_precision_within_budget():
    # A separate process, so that a quadratic evaluation fails by timeout
    # instead of hanging the suite.
    env = dict(os.environ, PYTHONPATH=str(Path(rankblocks.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "rankblocks.cli", "series", "--target", "thm-1.4",
         "--d", "2", "--sign", "plus", "--precision", "100000"],
        env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0
    coeffs = [int(c) for c in done.stdout.strip().split(",")]
    assert len(coeffs) == 100001
    assert tuple(coeffs[:41]) == series_by_columns(2, "plus", 40).coeffs


@pytest.mark.parametrize("symbol, message", [
    ("1_0 / 0", "inline symbol entries must be integers, got '1_0'"),
    ("\u0663 / \u0660", "inline symbol entries must be integers, got '\u0663'"),
    ("+3 / 0", "inline symbol entries must be integers, got '+3'"),
    ("3 2 1 / 5 x 0", "inline symbol entries must be integers, got 'x'"),
    ("3 2 1 / 5 1 0 / 2", "inline symbol must look like '3 2 1 / 5 1 0'"),
    ("3 2 1", "inline symbol must look like '3 2 1 / 5 1 0'"),
    ("-1 / 0", "entries must be nonnegative integers, got -1"),
])
def test_inline_symbol_takes_only_ascii_integers(capsys, symbol, message):
    # int() would also read '1_0', '+3' and other scripts' digits
    with pytest.raises(SystemExit) as exc:
        main(["biject", "--symbol", symbol])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [f"rankblocks: error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["count", "--n", "10", "--mode", "by-blocks", "--m", "2", "--d", "3", "--sign", "plus"],
     "mode 'by-blocks' does not use --d"),
    (["count", "--n", "10", "--mode", "by-columns", "--d", "2", "--m", "2", "--sign", "plus"],
     "mode 'by-columns' does not use --m"),
    (["series", "--target", "euler-inverse", "--d", "3", "--n", "2"],
     "target 'euler-inverse' does not use --d --n"),
    (["series", "--target", "qbinomial", "--n", "4", "--k", "2", "--sign", "minus"],
     "target 'qbinomial' does not use --sign"),
    (["biject", "--symbol", "3 2 1 / 5 1 0", "--format", "csv"],
     "argument --format: invalid choice: 'csv'"),
])
def test_unused_flag_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert message in line


def test_series_sign_defaults_to_plus(capsys):
    _, default, _ = run_cli(capsys, "series", "--target", "thm-1.4", "--d", "2",
                            "--precision", "12")
    _, plus, _ = run_cli(capsys, "series", "--target", "thm-1.4", "--d", "2",
                         "--sign", "plus", "--precision", "12")
    assert default == plus == ",".join(map(str, series_by_columns(2, "plus", 12).coeffs)) + "\n"


def test_series_precision_zero(capsys):
    code, out, _ = run_cli(capsys, "series", "--target", "euler-inverse",
                           "--precision", "0")
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("target", sorted(SERIES_TARGETS))
def test_series_refuses_a_negative_precision_in_one_line(capsys, target):
    # thm-1.2 used to fail inside QSeries with a message about its length.
    values = {"d": "3", "m": "2", "n": "4", "k": "2", "sign": "plus"}
    argv = ["series", "--target", target, "--precision", "-1"]
    for flag in SERIES_TARGETS[target][1]:
        argv += [f"--{flag}", values[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["rankblocks: error: precision must be nonnegative"]


def test_series_json_uses_string_coefficients(capsys):
    code, out, _ = run_cli(capsys, "series", "--target", "thm-1.2", "--m", "1",
                           "--sign", "plus", "--precision", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["precision"] == 6
    assert all(isinstance(c, str) for c in data["coeffs"])


@pytest.mark.parametrize("targets", [[""], [","], [",", ""]])
def test_verify_refuses_targets_that_name_no_target(capsys, targets):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--targets", *targets])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["rankblocks: error: --targets names no target"]


def test_verify_ignores_a_trailing_comma(capsys):
    code, out, _ = run_cli(capsys, "verify", "--targets", "thm-main,", "--precision", "5")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    assert len(reports) == 30 and {r["target"] for r in reports} == {"thm-main"}


def test_verify_single_target(capsys):
    code, out, err = run_cli(capsys, "verify", "--targets", "thm-main",
                             "--d", "3", "--m", "2", "--sign", "plus",
                             "--precision", "20")
    assert code == 0
    lines = out.strip().splitlines()
    reports = [json.loads(line) for line in lines]
    assert reports[-1]["summary"]["failed"] == 0
    assert reports[0]["target"] == "thm-main"
    assert reports[0]["status"] == "pass"


def test_verify_repeated_target_runs_once(capsys):
    code, out, err = run_cli(capsys, "verify", "--targets", "cor-1.5,cor-1.5")
    assert code == 0
    assert err.strip() == "verify: 10/10 checks passed"
    assert json.loads(out.splitlines()[-1]) == {"summary": {"total": 10, "passed": 10,
                                                            "failed": 0}}
    code, again, _ = run_cli(capsys, "verify", "--targets", "cor-1.5")
    strip = lambda text: re.sub(r', "elapsed": -?[0-9.eE+-]+', "", text)
    assert strip(out) == strip(again)


def test_verify_bad_override_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--targets", "thm-main", "--d", "2", "--m", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "rankblocks: error: thm-main has no grid point under overrides {'d': 2, 'm': 3}"]


def test_verify_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--targets", "no-such-claim"])
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("rankblocks: error: unknown verification targets: ['no-such-claim']")


def test_verify_failure_exit_code(capsys, monkeypatch):
    import rankblocks.verify as verify_mod
    from rankblocks.qseries import QSeries, series_exact

    def perturbed(d, m, sign, precision):
        base = series_exact(d, m, sign, precision)
        return QSeries((0,) + base.coeffs[:-1])

    monkeypatch.setattr(verify_mod, "series_exact", perturbed)
    code = main(["verify", "--targets", "thm-main", "--d", "3", "--m", "2",
                 "--sign", "plus", "--precision", "20"])
    out = capsys.readouterr().out
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["summary"]["failed"] == 1


@pytest.mark.parametrize("argv, message", [
    (["--targets", "prop-3.9", "--d", "2"], "--d is not honoured by prop-3.9"),
    (["--targets", "cor-1.5", "--precision", "50"],
     "--precision is not honoured by cor-1.5"),
    (["--targets", "thm-main,lemma-2.2,thm-1.4", "--m", "2"],
     "--m is not honoured by lemma-2.2, thm-1.4"),
    (["--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["--targets", "prop-3.10", "--precision", "30"],
     "--precision is not honoured by prop-3.10"),
])
def test_verify_rejects_unhonoured_flags(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.endswith(message)


@pytest.mark.parametrize("argv, message", [
    (["--targets", "lemma-2.2,lemma-2.4,cor-2.5", "--r", "-1"], "r must be nonnegative"),
    (["--targets", "lemma-2.2", "--r", "-1"], "r must be nonnegative"),
    (["--targets", "cor-2.5", "--r", "-1"], "r must be nonnegative"),
    (["--targets", "lemma-2.4", "--s", "0"], "s must be positive"),
    (["--targets", "lemma-2.4,cor-2.5", "--s", "0"], "s must be positive"),
    (["--targets", "lemma-2.2", "--t", "-1"], "need s > t >= 0, got s=1, t=-1"),
])
def test_verify_refuses_a_path_point_in_one_line(capsys, argv, message):
    # The path table is built before the first check, and refuses a point
    # with the message its check gives; stdout stays empty.
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"rankblocks: error: {message}"]


@pytest.mark.parametrize("flag, target", [
    ("--precision", "thm-main"),
    ("--precision", "thm-5.1"),
    ("--max-d", "thm-1.4"),
    ("--max-m", "thm-1.2"),
    ("--max-s", "lemma-2.4"),
])
def test_verify_rejects_bound_below_one(capsys, flag, target):
    # a bound of 0 leaves every coefficient range empty, so each check would
    # pass without comparing anything
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--targets", target, flag, "0"])
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.endswith(f"{flag}: must be at least 1, got 0")


def _steps(p):
    return p["s"] + p["t"]


def _columns(p):
    return sum(p["beta"])


@pytest.mark.parametrize("argv, total, size, largest", [
    (["--targets", "lemma-2.2", "--max-s", "2"], 7 * 6, _steps, 4),
    (["--targets", "prop-3.9", "--max-d", "2", "--precision", "25"], 3, _columns, 2),
    (["--targets", "prop-3.9", "--max-d", "6"], 63, _columns, 6),
    (["--targets", "prop-3.10", "--max-d", "6"], 63, _columns, 6),
])
def test_verify_path_and_poset_bounds(capsys, argv, total, size, largest):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    assert len(reports) == total and all(r["status"] == "pass" for r in reports)
    assert max(size(r["parameters"]) for r in reports) == largest
    if "--precision" in argv:
        assert {r["parameters"]["precision"] for r in reports} == {25}


def test_verify_override_outside_grid_is_usage_error(capsys):
    # m=6 exceeds every d <= max_d, so no thm-main check would run
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--targets", "thm-main", "--m", "6"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "rankblocks: error: thm-main has no grid point under overrides {'m': 6}"]


@pytest.mark.parametrize("d", ["0", "-1"])
def test_verify_column_count_below_one_is_usage_error(capsys, d):
    # The census keeps only d >= 1, so d = 0 must reach the check, whose
    # closed form refuses it, and never end in an internal error (exit 3).
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--targets", "thm-1.4", "--d", d])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["rankblocks: error: d must be positive"]


# SHA-256 of `rankblocks verify --targets all` stdout with every "elapsed"
# field removed: 495 passing reports and the summary line.
DEFAULT_SWEEP_DIGEST = "5acf3b2b322e6db4c78c2398869c795fce9a4da8b09c67d8f210a2749327dccc"


def test_verify_default_sweep_output_is_pinned(capsys):
    code, out, err = run_cli(capsys, "verify", "--targets", "all")
    assert code == 0
    assert err.strip() == "verify: 495/495 checks passed"
    assert len(out.splitlines()) == 496
    stripped = re.sub(r', "elapsed": -?[0-9.eE+-]+', "", out)
    assert hashlib.sha256(stripped.encode()).hexdigest() == DEFAULT_SWEEP_DIGEST


def _series_grid():
    """The argv of every pinned `series` run: the four closed forms at five
    precisions, both signs, d and m up to 6 (m > d is refused), and every
    bracket with n <= 11 and k = -1..n+1."""
    for precision in ("0", "1", "7", "40", "150"):
        for sign in ("plus", "minus"):
            for d in range(1, 7):
                yield ("thm-1.4", "--d", str(d), "--sign", sign, "--precision", precision)
                for m in range(1, 7):
                    yield ("thm-main", "--d", str(d), "--m", str(m), "--sign", sign,
                           "--precision", precision)
            for m in range(1, 7):
                yield ("thm-1.2", "--m", str(m), "--sign", sign, "--precision", precision)
        yield ("euler-inverse", "--precision", precision)
    for n in range(12):
        for k in range(-1, n + 2):
            yield ("qbinomial", "--n", str(n), "--k", str(k))


def series_grid_digest():
    """SHA-256 over each pinned run's argv, exit code and stdout, in text and
    in JSON."""
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        for target, *flags in _series_grid():
            argv = ["series", "--target", target, *flags, "--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            digest.update(f"{' '.join(argv)} -> {code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


# series_grid_digest(), recorded while thm-1.2 still used QSeries products;
# the list passes reproduce it byte for byte.
SERIES_GRID_DIGEST = "b661a61f4d9458d26874574c167cdccafd24611228a9fe11acee1fa5fecdc790"


def test_series_output_is_pinned():
    assert series_grid_digest() == SERIES_GRID_DIGEST


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_invocations():
    """(argv, annotated output or None) for every `rankblocks ...` line in the
    README's sh blocks.  An optional `[--flag a|b]` expands into the bare
    form and one invocation per choice; `# -> x` annotates the output."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            if not line.startswith("rankblocks "):
                continue
            command, _, note = line.partition("# -> ")
            optional = re.search(r"\[(--\S+) ([^\]]+)\]", command)
            variants = [command]
            if optional:
                flag, choices = optional.groups()
                variants = [command.replace(optional.group(0), f"{flag} {choice}")
                            for choice in choices.split("|")]
                variants.insert(0, command.replace(optional.group(0), ""))
            for variant in variants:
                yield shlex.split(variant, comments=True)[1:], note.strip() or None


def test_readme_cli_examples_run(capsys):
    invocations = list(_readme_invocations())
    for argv, note in invocations:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert note is None or out.strip() == note, argv
    assert len(invocations) >= 14
    assert [note for _, note in invocations if note] == ["3", "1,1,2,1,1"]


def test_unexpected_exception_exits_3_with_one_line(capsys, monkeypatch):
    # a fault of the program is neither a failed verification (1) nor a usage
    # error (2)
    def broken(*args):
        raise KeyError("census slot")

    monkeypatch.setitem(COUNT_MODES, "exact", (broken, ("d", "m")))
    code, out, err = run_cli(capsys, "count", "--n", "15", "--d", "3", "--m", "2",
                             "--sign", "plus")
    assert code == 3
    assert out == ""
    assert err == "rankblocks: internal error: KeyError: 'census slot'\n"


def _cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(rankblocks.__file__).parents[1]))
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def test_closed_stdout_pipe_exits_141_silently():
    # as `| head -1`: the listing is about 190 kB, far more than a pipe holds,
    # so the writer is still writing when its reader goes
    proc = _cli_process("-m", "rankblocks.cli", "list", "--n", "50", "--d", "3", "--m", "2",
                        "--sign", "plus")
    assert proc.stdout.readline().startswith(b"(")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_sigint_exits_130_with_one_line():
    # the run takes many seconds; the interrupt comes once the CLI is imported
    script = ("import sys; from rankblocks import cli; print('ready', flush=True); "
              "sys.exit(cli.main())")
    proc = _cli_process("-c", script, "verify", "--targets", "thm-1.2", "--precision", "300")
    assert proc.stdout.readline() == b"ready\n"
    time.sleep(0.3)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert out == b""
    assert err == b"rankblocks: interrupted\n"


def test_sigint_keeps_the_reports_finished_before_it():
    # prop-3.10 at --max-d 9 reads no census and runs 511 checks, about 1.5 s,
    # so the interrupt comes once three reports are out and many are still due.
    # A run that held its reports back would write its first 8 kB, over 50 of
    # them, at once.
    proc = _cli_process("-m", "rankblocks.cli", "verify", "--targets", "prop-3.10",
                        "--max-d", "9")
    first = [proc.stdout.readline() for _ in range(3)]
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert err == b"rankblocks: interrupted\n"
    reports = [json.loads(line) for line in b"".join(first + [out]).splitlines()]
    assert 3 <= len(reports) < 50
    assert {r["target"] for r in reports} == {"prop-3.10"}
    assert all(r["status"] == "pass" for r in reports)
    keys = [json.dumps(r["parameters"], sort_keys=True) for r in reports]
    assert keys == sorted(keys)


def test_verify_prints_each_report_as_its_check_finishes(capsys, monkeypatch):
    # The fifth check is interrupted; the four before it are already out, in
    # the order of the full run.
    import rankblocks.verify as verify_mod

    full = verify_mod.run_reports(["prop-3.10"], {"max_d": 3})
    run_check = verify_mod.run_check
    calls = []

    def interrupted_fifth(*args, **point):
        calls.append(point)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return run_check(*args, **point)

    monkeypatch.setattr(verify_mod, "run_check", interrupted_fifth)
    code, out, err = run_cli(capsys, "verify", "--targets", "prop-3.10", "--max-d", "3")
    assert code == 130
    assert err == "rankblocks: interrupted\n"
    printed = [{**json.loads(line), "elapsed": 0} for line in out.splitlines()]
    assert printed == [json.loads(json.dumps({**r.to_json_dict(), "elapsed": 0}))
                       for r in full[:4]]


def test_keyboard_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    import rankblocks.verify as verify_mod

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify_mod, "iter_reports", interrupted)
    code, out, err = run_cli(capsys, "verify", "--targets", "thm-main")
    assert code == 130
    assert out == ""
    assert err == "rankblocks: interrupted\n"


# ----------------------------------------------------------------------
# fuzzing: random small argument vectors never crash the CLI
# ----------------------------------------------------------------------

SMALL = st.integers(-2, 8)
SIGN = st.sampled_from(["plus", "minus"])
FUZZ_FLAGS = {
    "count": {"n": SMALL, "d": SMALL, "m": SMALL, "sign": SIGN,
              "format": st.sampled_from(["text", "json", "csv"])},
    "series": {"d": SMALL, "m": SMALL, "n": SMALL, "k": SMALL, "sign": SIGN,
               "precision": SMALL, "format": st.sampled_from(["text", "json", "csv"])},
    "list": {"n": SMALL, "d": SMALL, "m": SMALL, "sign": SIGN,
             "format": st.sampled_from(["text", "json", "csv"])},
    "biject": {"format": st.sampled_from(["text", "json"])},
    "verify": {"precision": SMALL, "max-d": SMALL, "max-m": SMALL,
               "max-s": SMALL, "d": SMALL, "m": SMALL, "s": SMALL, "t": SMALL,
               "r": SMALL, "sign": SIGN},
}


@st.composite
def _symbol_text(draw):
    # mostly two strictly decreasing rows of one length, sometimes anything
    d = draw(st.integers(1, 4))
    rows = [sorted(draw(st.lists(st.integers(0, 8), min_size=d, max_size=d, unique=True)),
                   reverse=True) for _ in range(2)]
    if draw(st.integers(0, 3)) == 0:
        rows = [draw(st.lists(SMALL, max_size=4)) for _ in range(2)]
    if draw(st.booleans()):
        return json.dumps({"top": rows[0], "bottom": rows[1]})
    tokens = [[str(x) for x in row] for row in rows]
    if tokens[0] and not draw(st.integers(0, 3)):
        # a token int() reads but the inline form refuses
        odd = draw(st.sampled_from(["1_0", "+3", "\u0663", "\uff17"]))
        tokens[0][draw(st.integers(0, len(tokens[0]) - 1))] = odd
    if not draw(st.integers(0, 5)):
        tokens.append(["2"])  # a second '/'
    return " / ".join(" ".join(row) for row in tokens)


def _usual_flags(command, draw):
    # The flags the drawn mode, target or targets take, so that most vectors
    # get past the flag checks; any other flag may still be added.
    if command == "count":
        mode = draw(st.sampled_from(sorted(COUNT_MODES)))
        return ["--mode", mode], {"n", "sign", "format", *COUNT_MODES[mode][1]}
    if command == "series":
        target = draw(st.sampled_from(sorted(SERIES_TARGETS)))
        return ["--target", target], {"precision", "format", *SERIES_TARGETS[target][1]}
    if command == "verify":
        names = draw(st.lists(st.sampled_from(sorted(SPECS) + ["all"]),
                              min_size=1, max_size=2, unique=True))
        honoured = {flag.replace("_", "-") for name in names if name != "all"
                    for flag in [*SPECS[name].bounds, *SPECS[name].axes]}
        if not draw(st.integers(0, 5)):
            return ["--targets", draw(st.sampled_from(["", ",", ",,"]))], set()
        return ["--targets", ",".join(names)], honoured & set(FUZZ_FLAGS["verify"])
    if command == "biject":
        argv = ["--symbol", draw(_symbol_text())]
        return argv + ["--invert"] * draw(st.booleans()), set(FUZZ_FLAGS["biject"])
    return [], set(FUZZ_FLAGS[command])


@st.composite
def _cli_argv(draw, command):
    flags = FUZZ_FLAGS[command]
    argv, usual = _usual_flags(command, draw)
    argv = [command, *argv]
    chosen = [flag for flag in sorted(usual) if draw(st.integers(0, 9))]
    if not draw(st.integers(0, 4)):
        chosen.append(draw(st.sampled_from(sorted(flags))))
    for flag in dict.fromkeys(chosen):
        argv += [f"--{flag}", str(draw(flags[flag]))]
    return argv


@pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
@given(data=st.data())
@settings(max_examples=80, deadline=10_000)
def test_cli_fuzz_exits_cleanly(command, data):
    argv = data.draw(_cli_argv(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:  # a usage error is one stderr line
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
