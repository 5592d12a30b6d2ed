"""The staircase / flip / row-subtraction chain and its inverse."""

import pytest

import rankblocks.bijections as bijections_mod
from rankblocks.bijections import (
    FrobeniusArray,
    array_to_gamma,
    array_to_symbol,
    bijection_trace,
    flipped_rows,
    gamma_to_array,
    gamma_to_pi,
    lambda_to_pi,
    pi_to_gamma,
    pi_to_lambda,
    sign_of_last_block,
    symbol_to_array,
)
from rankblocks.partitions import (
    FrobeniusSymbol,
    iter_frobenius_symbols,
    parity_blocks,
)
from rankblocks.posets import PosetPartition, build_s_beta
from rankblocks.qseries import MINUS, PLUS

PAPER_SYMBOL = FrobeniusSymbol((16, 14, 13, 12, 10, 4, 3, 1),
                               (17, 14, 12, 11, 8, 6, 1, 0))


def all_symbols_up_to(max_n):
    for n in range(1, max_n + 1):
        d = 1
        while d * d <= n:
            yield from iter_frobenius_symbols(n, d)
            d += 1


# ----------------------------------------------------------------------
# staircase removal
# ----------------------------------------------------------------------


def test_symbol_to_array_worked_example():
    mu = symbol_to_array(PAPER_SYMBOL)
    assert mu.top == (9, 8, 8, 8, 7, 2, 2, 1)
    assert mu.bottom == (10, 8, 7, 7, 5, 4, 0, 0)
    assert mu.weight == PAPER_SYMBOL.size - 8 * 8 == 86


def test_symbol_to_array_single_column():
    f = FrobeniusSymbol((3,), (1,))
    mu = symbol_to_array(f)
    assert (mu.top, mu.bottom) == ((3,), (1,))


def test_array_round_trip_and_parity_preservation():
    for f in all_symbols_up_to(25):
        mu = symbol_to_array(f)
        assert array_to_symbol(mu) == f
        assert mu.weight == f.size - f.d * f.d
        fb = parity_blocks(f)
        ab = mu.blocks()
        assert (fb.sizes, fb.signs) == (ab.sizes, ab.signs)


def test_array_validation():
    with pytest.raises(ValueError):
        FrobeniusArray((1, 2), (0, 0))
    with pytest.raises(ValueError):
        FrobeniusArray((1,), (-1,))


# ----------------------------------------------------------------------
# array -> gamma
# ----------------------------------------------------------------------


def test_array_to_gamma_worked_example():
    mu = symbol_to_array(PAPER_SYMBOL)
    assert flipped_rows(mu) == ((10, 8, 8, 8, 7, 4, 2, 1), (9, 8, 7, 7, 5, 2, 0, 0))
    gamma = array_to_gamma(mu)
    assert gamma.structure.beta.parts == (2, 3, 1, 2)
    assert gamma.rows() == [[10, 8], [9, 8, 8, 8, 7], [7, 7, 5, 4], [2, 2, 1], [0, 0]]
    assert gamma.weight == 86


def test_array_to_gamma_single_positive_column():
    gamma = array_to_gamma(FrobeniusArray((4,), (1,)))
    assert gamma.rows() == [[4], [1]]


def test_gamma_validity_and_strictness_sweep():
    # order-reversing is enforced by the PosetPartition constructor; on top of
    # that, columns coming from positive blocks must decrease strictly
    for f in all_symbols_up_to(20):
        mu = symbol_to_array(f)
        gamma = array_to_gamma(mu)
        assert gamma.weight == mu.weight
        blocks = mu.blocks()
        sums = gamma.structure.beta.partial_sums
        for l, sign in enumerate(blocks.signs, start=1):
            if sign != "P":
                continue
            for j in range(sums[l - 1] + 1, sums[l] + 1):
                assert gamma.value(l, j) > gamma.value(l + 1, j)


# ----------------------------------------------------------------------
# gamma -> pi and back
# ----------------------------------------------------------------------


def test_gamma_to_pi_worked_example():
    gamma = array_to_gamma(symbol_to_array(PAPER_SYMBOL))
    pi = gamma_to_pi(gamma, PLUS)
    assert pi.rows() == [[8, 6], [7, 6, 6, 6, 5], [6, 6, 4, 3], [1, 1, 0], [0, 0]]
    assert pi.weight == 65
    assert gamma.weight - pi.weight == 21 == 2 + 5 + 6 + 8
    assert pi_to_gamma(pi, PLUS).rows() == gamma.rows()


def test_gamma_to_pi_single_block_offsets():
    # m = 1, plus: subtract 1 from the top row and 0 from the bottom row
    gamma = array_to_gamma(FrobeniusArray((4,), (1,)))
    pi = gamma_to_pi(gamma, PLUS)
    assert pi.rows() == [[3], [1]]


def test_gamma_to_pi_rejects_wrong_sign():
    structure = build_s_beta((1,))
    gamma = PosetPartition(structure, (0, 0))
    with pytest.raises(ValueError):
        gamma_to_pi(gamma, PLUS)  # would drive the top entry to -1


def test_gamma_to_array_detects_wrong_sign():
    # a gamma whose top-vs-bottom difference is 0 in the first block cannot be
    # the flip of a positive first block
    structure = build_s_beta((2, 1))
    gamma = PosetPartition.from_rows(structure, [[3, 3], [3, 3, 1], [0]])
    with pytest.raises(ValueError):
        gamma_to_array(gamma, MINUS)  # expects signs (P, N); block 1 ranks are 0


# ----------------------------------------------------------------------
# full chain
# ----------------------------------------------------------------------


def test_full_chain_round_trip_paper_example():
    pi = lambda_to_pi(PAPER_SYMBOL, PLUS)
    assert pi_to_lambda(pi, PLUS) == PAPER_SYMBOL


def test_two_chain_inverse():
    structure = build_s_beta((1,))
    pi = PosetPartition(structure, (3, 1))
    f = pi_to_lambda(pi, PLUS)
    assert (f.top, f.bottom) == ((4,), (1,))


def test_round_trip_weight_ledger_and_injectivity():
    images = {}
    for f in all_symbols_up_to(22):
        sign = sign_of_last_block(f)
        pi = lambda_to_pi(f, sign)
        assert pi_to_lambda(pi, sign) == f
        beta = pi.structure.beta
        sums = beta.partial_sums
        drop = sum(sums[1:]) if sign == PLUS else sum(sums[1:-1])
        assert f.size == pi.weight + f.d * f.d + drop
        if f.size <= 20:
            key = (f.size, f.d, beta.parts, sign, pi.values)
            assert key not in images, f"images collide: {f} vs {images[key]}"
            images[key] = f


def test_lambda_to_pi_rejects_mismatched_sign():
    with pytest.raises(ValueError):
        lambda_to_pi(PAPER_SYMBOL, MINUS)


def test_bijection_trace_stage_weights():
    trace = bijection_trace(PAPER_SYMBOL)
    assert [st["stage"] for st in trace] == ["lambda", "mu", "mu_hat", "gamma", "pi"]
    assert [st["weight"] for st in trace] == [150, 86, 86, 86, 65]
    assert trace[0]["sign"] == PLUS
    assert trace[3]["beta"] == [2, 3, 1, 2]


def test_forward_chain_reads_parity_blocks_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return parity_blocks(f)

    monkeypatch.setattr(bijections_mod, "parity_blocks", counting)
    pi = lambda_to_pi(PAPER_SYMBOL)
    assert len(calls) == 1
    trace = bijection_trace(PAPER_SYMBOL)
    assert len(calls) == 2
    assert trace[-1]["rows"] == pi.rows()
