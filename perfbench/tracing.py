"""Spans for the traced run, recorded from outside the program.

The tracer replaces library functions with wrappers: the names that
``rankblocks.verify`` and ``rankblocks.cli`` import from other modules, the
verify target sweeps, ``QSeries.__mul__``/``invert_unit``, and the library
calls of the transfer workload.  Each call records one span
``[name, start, end, parent, items]``; spans stay in memory until the process
writes them out.  A wrapped call that returns a generator is drained inside its
span, so enumeration work is timed where it happens and ``items`` counts the
objects it produced.

Per-layer ``*_s`` metrics are sums of self time (span minus its child spans),
so they partition the traced time, except ``verify.<target>_s``, which is the
inclusive time of each target's sweep.
"""

import inspect
import time
import types

from workloads import ALL_TARGETS

# Span name -> metric group; other wrapped names of a layer fall in <layer>.other.
GROUPS = {
    "partitions.count_exact": "partitions.count",
    "partitions.count_by_blocks": "partitions.count",
    "partitions.count_by_columns": "partitions.count",
    "partitions.count_all_columns": "partitions.count",
    "partitions.count_prefix_pattern": "partitions.prefix",
    "partitions.iter_frobenius_symbols": "partitions.iter",
    "qseries.invert_unit": "qseries.invert",
    "qseries.mul": "qseries.mul",
    "qseries.series_exact": "qseries.closed_form",
    "qseries.series_by_blocks": "qseries.closed_form",
    "qseries.series_by_columns": "qseries.closed_form",
    "qseries.block_count_formula": "qseries.closed_form",
    "qseries.pentagonal_kernel": "qseries.closed_form",
    "qseries.pochhammer": "qseries.closed_form",
    "qseries.partition_number": "qseries.closed_form",
    "qseries.partition_number_or_zero": "qseries.closed_form",
    "qseries.qbinomial": "qseries.qbinomial",
    "qseries.euler_inverse": "qseries.euler_inverse",
    "posets.linear_extensions": "posets.linear_extensions",
    "posets.enumerate_poset_partitions": "posets.poset_partitions",
    "posets.iter_poset_partitions": "posets.poset_partitions",
    "lattice_paths.enumerate_marked_paths": "lattice_paths.enumerate",
    "lattice_paths.enumerate_exact_marks": "lattice_paths.enumerate",
    "lattice_paths.enumerate_fixed_returns": "lattice_paths.enumerate",
    "lattice_paths.gf_vmr": "lattice_paths.gf",
    "bijections.lambda_to_pi": "bijections.forward",
    "bijections.pi_to_lambda": "bijections.inverse",
    "verify.run_reports": "verify.self",
    "cli.main": "cli.self",
}

# Counts: metric -> (span name, what to add per span: "calls" or "items").
COUNTS = {
    "partitions.count_calls": ("partitions.count", "calls"),
    "partitions.symbols": ("partitions.iter", "items"),
    "qseries.invert_calls": ("qseries.invert", "calls"),
    "qseries.mul_calls": ("qseries.mul", "calls"),
    "posets.extensions": ("posets.linear_extensions", "items"),
    "lattice_paths.paths": ("lattice_paths.enumerate", "items"),
    "bijections.round_trips": ("bijections.inverse", "calls"),
    "verify.checks": ("verify.target", "items"),
}

LAYERS = ("partitions", "qseries", "posets", "lattice_paths", "bijections")

TIMES = sorted({g for g in GROUPS.values()} | {f"{layer}.other" for layer in LAYERS})

# Every per-layer metric the traced run reports, in a fixed order.
PER_LAYER = ([g + "_s" for g in TIMES] + list(COUNTS)
             + [f"verify.{t}_s" for t in ALL_TARGETS] + ["trace.overhead_s", "trace.spans"])


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, types.GeneratorType):
                    result = list(result)
                    span[4] = len(result)
                    result = iter(result)
                elif isinstance(result, list):
                    span[4] = len(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def _layer(fn):
    return fn.__module__.rsplit(".", 1)[-1]


def instrument_verify(tracer):
    """Wrap what verify and cli call in other modules, the target sweeps and
    the QSeries products; return the wrapped ``cli.main``."""
    from rankblocks import cli, verify
    from rankblocks.qseries import QSeries

    for module in (verify, cli):
        for name, obj in list(vars(module).items()):
            if (callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", "").startswith("rankblocks.")
                    and obj.__module__ != module.__name__):
                setattr(module, name, tracer.wrap(f"{_layer(obj)}.{name}", obj))
    for target, sweep in list(verify.TARGETS.items()):
        verify.TARGETS[target] = tracer.wrap(f"verify.target.{target}", sweep)
    verify.run_reports = tracer.wrap("verify.run_reports", verify.run_reports)
    mul = tracer.wrap("qseries.mul", QSeries.__mul__)
    QSeries.__mul__ = QSeries.__rmul__ = mul
    QSeries.invert_unit = tracer.wrap("qseries.invert_unit", QSeries.invert_unit)
    return tracer.wrap("cli.main", cli.main)


def instrument_namespace(tracer, namespace):
    """Wrap every function of a namespace, named after its defining module."""
    for name, fn in list(vars(namespace).items()):
        setattr(namespace, name, tracer.wrap(f"{_layer(fn)}.{name}", fn))


def _group(name):
    if name.startswith("verify.target."):
        return "verify.self"
    layer = name.split(".", 1)[0]
    return GROUPS.get(name, f"{layer}.other" if layer in LAYERS else None)


def layer_metrics(spans):
    """Per-layer metrics of one traced process, without the overhead figure."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _items in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {m: 0 for m in PER_LAYER if m != "trace.overhead_s"}
    for i, (name, start, end, _parent, items) in enumerate(spans):
        group = _group(name)
        if group is not None:
            out[group + "_s"] += end - start - covered[i]
        source = group
        if name.startswith("verify.target."):
            out[f"verify.{name[len('verify.target.'):]}_s"] += end - start
            source = "verify.target"
        for metric, (wanted, kind) in COUNTS.items():
            if wanted == source:
                out[metric] += 1 if kind == "calls" else (items or 0)
    out["trace.spans"] = len(spans)
    return out
