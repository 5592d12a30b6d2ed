"""The four workloads: what each runs, and how a seed orders it.

A seed only permutes the order in which targets or inputs run, never their
set; seed 0 keeps the order listed here.
"""

import hashlib
import json
import random
from collections import Counter
from math import isqrt

ALL_TARGETS = ("thm-main", "thm-1.2", "thm-1.4", "cor-1.3", "cor-1.5", "lemma-2.2",
               "lemma-2.4", "cor-2.5", "prop-3.9", "prop-3.10", "thm-5.1", "remarks",
               "partition-unity")

# Verify workloads: targets, and extra flags that every one of them honours.
VERIFY = {
    "verify-default": (ALL_TARGETS, ()),
    "verify-deep": (("thm-main", "thm-1.2", "thm-1.4"), ("--precision", "46")),
    "closed-form": (("cor-1.3",), ("--precision", "360")),
}

WORKLOADS = (*VERIFY, "transfer")


def permuted(items, seed):
    items = list(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


def verify_argv(workload, seed):
    targets, flags = VERIFY[workload]
    return ["verify", "--targets", ",".join(permuted(targets, seed)), *flags]


def digest(items):
    """Order-independent digest of JSON-serialisable items."""
    text = json.dumps(sorted(json.dumps(x, sort_keys=True) for x in items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify_digest(stdout):
    """Digest of the sorted (target, parameters, status) triples of a report stream."""
    triples = []
    for line in stdout.splitlines():
        record = json.loads(line)
        if "target" in record:
            triples.append([record["target"], record["parameters"], record["status"]])
    return digest(triples)


# ----------------------------------------------------------------------
# transfer: public library calls in one process
# ----------------------------------------------------------------------


def transfer_library():
    """The library functions the transfer workload calls, as one namespace."""
    from types import SimpleNamespace

    from rankblocks.bijections import lambda_to_pi, pi_to_lambda
    from rankblocks.lattice_paths import enumerate_marked_paths, gf_vmr
    from rankblocks.partitions import iter_frobenius_symbols, parity_blocks
    from rankblocks.posets import (build_s_beta, compositions, enumerate_poset_partitions,
                                   linear_extensions, maj_word)

    return SimpleNamespace(
        iter_frobenius_symbols=iter_frobenius_symbols, parity_blocks=parity_blocks,
        lambda_to_pi=lambda_to_pi, pi_to_lambda=pi_to_lambda,
        compositions=compositions, build_s_beta=build_s_beta,
        linear_extensions=linear_extensions, maj_word=maj_word,
        enumerate_poset_partitions=enumerate_poset_partitions,
        enumerate_marked_paths=enumerate_marked_paths, gf_vmr=gf_vmr)


def _round_trips(lib, seed):
    # Every Frobenius symbol of size <= 26 through lambda -> pi -> lambda.
    cells = [(n, d) for n in range(1, 27) for d in range(1, isqrt(n) + 1)]
    symbols = [f for n, d in permuted(cells, seed) for f in lib.iter_frobenius_symbols(n, d)]
    failures = 0
    shapes = Counter()
    for f in permuted(symbols, seed):
        sign = "plus" if lib.parity_blocks(f).last_sign == "P" else "minus"
        pi = lib.lambda_to_pi(f)
        try:
            back = lib.pi_to_lambda(pi, sign)
        except ValueError:
            back = None
        failures += back != f
        shapes[(f.size, pi.weight, pi.structure.beta.parts)] += 1
    return len(symbols), failures, list(shapes.items())


def _extensions(lib, seed):
    # Descent histogram over the linear extensions of every S_beta with d <= 6.
    betas = [b for d in range(1, 7) for b in lib.compositions(d)]
    out = []
    for beta in permuted(betas, seed):
        words = lib.linear_extensions(lib.build_s_beta(beta))
        out.append([beta, sorted(Counter(lib.maj_word(w) for w in words).items())])
    return len(betas), 0, out


def _poset_partitions(lib, seed):
    # Weight histograms of order-reversing assignments, weight <= 20, d <= 5.
    betas = [b for d in range(1, 6) for b in lib.compositions(d)]
    out = [[beta, lib.enumerate_poset_partitions(lib.build_s_beta(beta), 20)]
           for beta in permuted(betas, seed)]
    return len(betas), 0, out


def _marked_paths(lib, seed):
    # sum q^vmr over marked ballot paths, s + t <= 14, at least r <= 6 marks.
    grid = [(s, t, r) for s in range(1, 15) for t in range(s + 1) if s + t <= 14
            for r in range(7)]
    out = [[[s, t, r], lib.gf_vmr(lib.enumerate_marked_paths(s, t, r)).coeffs]
           for s, t, r in permuted(grid, seed)]
    return len(grid), 0, out


SECTIONS = {
    "round_trips": _round_trips,
    "extensions": _extensions,
    "poset_partitions": _poset_partitions,
    "marked_paths": _marked_paths,
}


def run_transfer(lib, seed):
    """Run the four sections in seed order; return operations, failures, digests."""
    operations = failures = 0
    digests = {}
    for name in permuted(SECTIONS, seed):
        ops, failed, items = SECTIONS[name](lib, seed)
        operations += ops
        failures += failed
        digests[name] = digest(items)
    return {"operations": operations, "failures": failures, "digests": digests}
