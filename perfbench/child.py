"""One cold workload process: the transfer workload, or any traced workload.

    python3 perfbench/child.py WORKLOAD SEED [TRACE_DIR]

Runs from the repository root with ``src`` on ``PYTHONPATH``.  A verify
workload calls ``rankblocks.cli.main`` and leaves its stdout untouched; the
transfer workload prints one JSON object with its operation count, round-trip
failures and digests.  With TRACE_DIR the library is wrapped from outside
(see tracing.py) and, when the workload ends, the spans go to
``TRACE_DIR/spans.jsonl`` and the per-layer totals to ``TRACE_DIR/layers.json``.
"""

import json
import os
import sys

import tracing
import workloads


def main(argv):
    workload, seed = argv[0], int(argv[1])
    trace_dir = argv[2] if len(argv) > 2 else None
    tracer = tracing.Tracer() if trace_dir else None
    if workload in workloads.VERIFY:
        from rankblocks import cli

        entry = tracing.instrument_verify(tracer) if tracer else cli.main
        code = entry(workloads.verify_argv(workload, seed))
        sys.stdout.flush()
    else:
        lib = workloads.transfer_library()
        if tracer:
            tracing.instrument_namespace(tracer, lib)
        print(json.dumps(workloads.run_transfer(lib, seed)), flush=True)
        code = 0
    if tracer:
        with open(os.path.join(trace_dir, "spans.jsonl"), "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
        with open(os.path.join(trace_dir, "layers.json"), "w") as out:
            json.dump(tracing.layer_metrics(tracer.spans), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
