"""Self-test of the benchmark's output checks (about 5 s).

    python3 perfbench/selftest.py

Shows that a corrupted output is counted as failed and never as a pass:
flipped statuses, dropped reports, wrong digests, nonzero exits, a program
patched to compute a wrong series, and a checkout without the package.  Also
checks that the metric names agree with BENCHMARK.json.  Exits 1 on the first
failed check.
"""

import json
import shutil
import subprocess
import sys

from run import CLI_CODE, END_TO_END_UNITS, HERE, PER_LAYER_UNITS, Bench, count_failures

ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Adds q^p to the Euler-product side of cor-1.3, so every check of it fails.
CORRUPT_SERIES = ("import rankblocks.verify as v; from rankblocks.qseries import QSeries; "
                  "real = v.euler_inverse; "
                  "v.euler_inverse = lambda p: real(p) + QSeries.monomial(p, p); ")


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


class CorruptBench(Bench):
    def command(self, trace=False):
        cmd = super().command(trace)
        return cmd[:2] + [CORRUPT_SERIES + CLI_CODE] + cmd[3:]


def verify_checks():
    workload = "closed-form"
    expected = EXPECTED[workload]
    ops = expected["operations"]
    bench = Bench(ROOT, workload, 0, expected)
    _, _, _, code, out, _ = bench.spawn(bench.command())
    check(count_failures(workload, expected, code, out) == 0, "real closed-form output passes")
    lines = out.splitlines()
    reordered = "\n".join(lines[-2::-1] + lines[-1:])
    check(count_failures(workload, expected, 0, reordered) == 0,
          "report order does not change the digest")
    flipped = out.replace('"status": "pass"', '"status": "fail"', 1)
    check(count_failures(workload, expected, 0, flipped) == ops, "a flipped status fails the run")
    dropped = "\n".join(lines[1:])
    check(count_failures(workload, expected, 0, dropped) == ops, "a dropped report fails the run")
    check(count_failures(workload, expected, 1, out) == ops, "a nonzero exit fails the run")
    check(count_failures(workload, expected, 0, "") == ops, "empty output fails the run")

    corrupt = CorruptBench(ROOT, workload, 0, expected)
    corrupt.run_once()
    check(corrupt.failed == corrupt.attempted == ops,
          "a program computing a wrong series fails every check")


def transfer_checks():
    expected = EXPECTED["transfer"]
    ops = expected["operations"]
    good = {"operations": ops, "failures": 0, "digests": dict(expected["digests"])}

    def failures(result, code=0):
        return count_failures("transfer", expected, code, json.dumps(result))

    check(failures(good) == 0, "recorded transfer result passes")
    check(failures(good, code=1) == ops, "a nonzero transfer exit fails the run")
    check(failures(dict(good, failures=3)) == 3, "failed round trips are counted one by one")
    wrong = dict(good, digests=dict(good["digests"], marked_paths="0" * 16))
    check(failures(wrong) == ops, "a wrong GF digest fails the run")
    check(failures(dict(good, operations=ops - 1)) == ops, "a missing operation fails the run")


def bare_checkout_check():
    # A directory with only BENCHMARK.json and the benchmark must not report a result.
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "transfer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/rankblocks the benchmark exits nonzero and prints no result")


def names_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END_UNITS.items()),
          "end-to-end metric names and units match BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_UNITS.items()),
          "per-layer metric names and units match BENCHMARK.json")


if __name__ == "__main__":
    names_check()
    transfer_checks()
    verify_checks()
    bare_checkout_check()
