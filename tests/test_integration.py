"""Cross-module identities: the pipeline from poset words through marked paths
to the closed-form counts, checked as whole multisets rather than via series."""

from rankblocks.bijections import lambda_to_pi, sign_of_last_block
from rankblocks.lattice_paths import enumerate_exact_marks, vmr
from rankblocks.partitions import iter_frobenius_symbols, parity_blocks
from rankblocks.posets import build_s_beta, compositions, linear_extensions, maj_word
from rankblocks.qseries import PLUS


def test_composition_sum_matches_exact_mark_family():
    # Summing q^(r_1+...+r_{m-1}) * q^maj(w) over all compositions of d with m
    # parts reproduces, exponent by exponent, the vmr multiset of the Dyck
    # paths with exactly m-1 marked returns.
    for d in range(1, 6):
        for m in range(1, d + 1):
            lhs = []
            for beta in compositions(d):
                if len(beta) != m:
                    continue
                structure = build_s_beta(beta)
                shift = sum(structure.beta.partial_sums[1:-1])
                lhs.extend(maj_word(w) + shift for w in linear_extensions(structure))
            rhs = [vmr(p) for p in enumerate_exact_marks(d, m - 1)]
            assert sorted(lhs) == sorted(rhs), (d, m)


def test_chain_weight_matches_count_decomposition():
    # the chain sends a symbol of n to an assignment of weight
    # n - d^2 - (partial-sum total); grouping symbols by that weight must
    # reproduce the poset-partition weight distribution per composition
    for n in range(1, 19):
        d = 1
        while d * d <= n:
            weights_by_beta = {}
            for f in iter_frobenius_symbols(n, d):
                sign = sign_of_last_block(f)
                if sign != PLUS:
                    continue
                pi = lambda_to_pi(f)
                beta = pi.structure.beta.parts
                weights_by_beta.setdefault(beta, []).append(pi.weight)
            for beta, weights in weights_by_beta.items():
                structure = build_s_beta(beta)
                drop = d * d + sum(structure.beta.partial_sums[1:])
                assert all(w == n - drop for w in weights)
                blocks_sizes = beta
                count = sum(1 for f in iter_frobenius_symbols(n, d)
                            if parity_blocks(f).sizes == blocks_sizes
                            and parity_blocks(f).last_sign == "P")
                assert count == len(weights)
            d += 1
