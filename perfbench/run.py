"""rankblocks benchmark: cold-process runs of one workload, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/rankblocks``; the package is
imported from that ``src``, so every commit is measured with the same benchmark
code.  Each workload run is a fresh single-threaded child process, one at a
time.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0  Runs the workload cold and untraced until the next run would pass
           --seconds (at least MIN_RUNS runs), with SETUP_REPS fresh imports
           of the entry point before each run.  ``wall_s`` is the parent-side
           wall time of a run, ``cpu_s`` its user+sys time and ``peak_rss_mb``
           its max RSS, from ``os.wait4``; ``setup_s`` is the in-process time
           to import the entry point.  Each metric is the median of its
           samples; the imports are spread over the whole window so that
           their median sees the same mix of host load as the runs.
--trace 1  Alternates untraced and traced runs within --seconds (at least one
           of each) and reports the per-layer metrics of tracing.py, medians
           over the traced runs, plus ``trace.overhead_s``: median traced
           minus median untraced wall time.  The spans of the last traced run
           and the per-layer table are kept in ``.bench_build/perfbench``.

An operation is one verify check, or one round trip or histogram of the
transfer workload.  A run that exits nonzero, or whose output fails a check
against ``expected.json``, counts every one of its operations as failed.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
SETUP_REPS = 3
DEADLINE_S = 170.0

SETUP_CODE = {
    "verify": ("import time; t = time.perf_counter(); import rankblocks.cli as c; "
               "c.build_parser(); print(time.perf_counter() - t)"),
    "transfer": ("import time; t = time.perf_counter(); import rankblocks.bijections, "
                 "rankblocks.lattice_paths, rankblocks.partitions, rankblocks.posets; "
                 "print(time.perf_counter() - t)"),
}
CLI_CODE = "import sys; from rankblocks.cli import console_main; console_main()"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {m: "s" if m.endswith("_s") else "count" for m in tracing.PER_LAYER}


class Bench:
    """One benchmark invocation: a checkout, a workload, a seed and a deadline."""

    def __init__(self, root, workload, seed, expected):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.out_dir = root / ".bench_build" / "perfbench"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # A fixed hash seed gives every run the same set iteration order.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd):
        """Run cmd to completion; return (wall, cpu, rss_mb, exit code, stdout, stderr)."""
        stdout_path, stderr_path = self.out_dir / "stdout", self.out_dir / "stderr"
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, stdout_path.read_text(), stderr_path.read_text())

    def setup_time(self):
        kind = "transfer" if self.workload == "transfer" else "verify"
        _, _, _, code, out, err = self.spawn([sys.executable, "-c", SETUP_CODE[kind]])
        if code != 0:
            raise RuntimeError(f"importing the entry point failed:\n{err}")
        return float(out)

    def command(self, trace=False):
        """Untraced verify runs the CLI as the console script does; the rest
        go through child.py."""
        if trace:
            return [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
                    str(self.out_dir)]
        if self.workload == "transfer":
            return [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed)]
        return [sys.executable, "-c", CLI_CODE, *workloads.verify_argv(self.workload, self.seed)]

    def run_once(self, trace=False):
        """One cold run of the workload; its operations are added to the totals."""
        wall, cpu, rss, code, out, err = self.spawn(self.command(trace))
        attempted = self.expected["operations"]
        failed = count_failures(self.workload, self.expected, code, out)
        if failed:
            print(f"run failed: exit {code}, {failed}/{attempted} operations failed\n"
                  f"{err[-2000:]}", file=sys.stderr)
        self.attempted += attempted
        self.failed += failed
        return wall, cpu, rss

    def untraced(self, seconds):
        self.setup_time()  # warm-up: brings the interpreter and package into the page cache
        setup, runs = [], []
        t0 = time.perf_counter()
        while keep_going(t0, len(runs), runs[-1][0] if runs else 0, MIN_RUNS, seconds):
            setup += [self.setup_time() for _ in range(SETUP_REPS)]
            runs.append(self.run_once())
        walls, cpus, rsses = zip(*runs)
        print(f"{self.workload} seed {self.seed}: wall_s {spread(walls)}; "
              f"setup_s {spread(setup)}", file=sys.stderr)
        return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setup), "peak_rss_mb": statistics.median(rsses)}

    def traced(self, seconds):
        plain, traced, layers = [], [], []
        t0 = time.perf_counter()
        layers_path = self.out_dir / "layers.json"
        while keep_going(t0, len(traced), plain[-1] + traced[-1] if traced else 0, 1, seconds):
            plain.append(self.run_once()[0])
            layers_path.unlink(missing_ok=True)
            traced.append(self.run_once(trace=True)[0])
            layers.append(json.loads(layers_path.read_text()))
        metrics = {m: statistics.median(run[m] for run in layers) for m in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        table = layer_table(metrics)
        name = f"{self.workload}-seed{self.seed}"
        (self.out_dir / f"{name}.layers.txt").write_text(table)
        os.replace(self.out_dir / "spans.jsonl", self.out_dir / f"{name}.spans.jsonl")
        print(f"{self.workload} seed {self.seed}: untraced wall_s {spread(plain)}; "
              f"traced {spread(traced)}\n{table}", file=sys.stderr)
        return metrics


def keep_going(t0, runs, last_wall, minimum, seconds):
    """Start another run while one as long as the last still ends within seconds."""
    return runs < minimum or time.perf_counter() - t0 + last_wall <= seconds


def count_failures(workload, expected, code, stdout):
    """Failed operations of one run: all of them unless the run exits 0 and its
    output matches; in transfer, otherwise just the failed round trips."""
    operations = expected["operations"]
    if code != 0:
        return operations
    try:
        if workload == "transfer":
            result = json.loads(stdout.splitlines()[-1])
            ok = (result["operations"] == operations
                  and result["digests"] == expected["digests"])
            return result["failures"] if ok else operations
        summary = json.loads(stdout.splitlines()[-1])["summary"]
        ok = (summary == {"total": operations, "passed": operations, "failed": 0}
              and workloads.verify_digest(stdout) == expected["digest"])
    except (ValueError, KeyError, IndexError, TypeError):
        return operations
    return 0 if ok else operations


def spread(values):
    return (f"{len(values)} samples, min {min(values):.4f} "
            f"median {statistics.median(values):.4f} max {max(values):.4f}")


def layer_table(metrics):
    width = max(map(len, metrics))
    return "".join(f"{name:<{width}}  {metrics[name]:>12.6g}\n" for name in tracing.PER_LAYER)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "rankblocks" / "cli.py").is_file():
        print(f"no rankblocks package under {root / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("compiling src failed", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    bench = Bench(root, args.workload, args.seed, expected)
    if args.trace:
        values = bench.traced(args.seconds)
        units = PER_LAYER_UNITS
    else:
        values = bench.untraced(args.seconds)
        units = END_TO_END_UNITS
    print(f"fail_ratio {bench.failed}/{bench.attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
