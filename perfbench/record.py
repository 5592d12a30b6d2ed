"""Write expected.json: operation counts and output digests of each workload.

    python3 perfbench/record.py

Runs every workload once, untraced, with seed 0.  Run it only at a commit
whose outputs are known to be right; run.py checks later commits against it.
"""

import json
import sys

from run import HERE, Bench
from workloads import WORKLOADS, verify_digest


def main():
    expected = {}
    for workload in WORKLOADS:
        bench = Bench(HERE.parent, workload, 0, None)
        _, _, _, code, out, err = bench.spawn(bench.command())
        if code != 0:
            sys.exit(f"{workload} exited {code}:\n{err}")
        if workload == "transfer":
            result = json.loads(out.splitlines()[-1])
            if result["failures"]:
                sys.exit(f"transfer: {result['failures']} round trips failed")
            expected[workload] = {"operations": result["operations"],
                                  "digests": result["digests"]}
        else:
            summary = json.loads(out.splitlines()[-1])["summary"]
            if summary["failed"]:
                sys.exit(f"{workload}: {summary['failed']} checks failed")
            expected[workload] = {"operations": summary["total"],
                                  "digest": verify_digest(out)}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
