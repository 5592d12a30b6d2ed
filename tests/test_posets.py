"""Block posets, natural labeling, linear extensions, order-reversing maps."""

from math import comb

import pytest

from partition_oracle import partitions
from rankblocks.posets import (
    Composition,
    LinearExtensionWord,
    PosetPartition,
    build_s_beta,
    compositions,
    enumerate_poset_partitions,
    iter_poset_partitions,
    linear_extensions,
    maj_word,
    word_to_dyck,
)

EXAMPLE_BETA = (2, 3, 1, 2)
EXAMPLE_WORD = (1, 3, 2, 4, 5, 8, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def linear_extensions_generic(structure):
    """Reference: plain topological backtracking over the whole poset."""
    n = structure.size
    covers = structure.lower_covers
    chosen: list[int] = []
    used = [False] * n
    out = []

    def rec():
        if len(chosen) == n:
            out.append(LinearExtensionWord(tuple(i + 1 for i in chosen), structure))
            return
        for idx in range(n):
            if used[idx]:
                continue
            if all(used[c] for c in covers[idx]):
                used[idx] = True
                chosen.append(idx)
                rec()
                chosen.pop()
                used[idx] = False

    rec()
    return out


# ----------------------------------------------------------------------
# composition and structure
# ----------------------------------------------------------------------


def test_composition_basics():
    beta = Composition(EXAMPLE_BETA)
    assert beta.d == 8 and beta.m == 4
    assert beta.partial_sums == (0, 2, 5, 6, 8)
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0))


def test_structure_example_label_grid():
    s = build_s_beta(EXAMPLE_BETA)
    grid = {}
    for i, j in sorted(s.elements):
        grid.setdefault(i, []).append(s.label(i, j))
    assert grid == {
        1: [1, 2],
        2: [3, 4, 5, 6, 7],
        3: [8, 9, 10, 11],
        4: [12, 13, 14],
        5: [15, 16],
    }


def test_structure_single_part():
    s = build_s_beta((1,))
    assert s.size == 2
    assert [s.label(1, 1), s.label(2, 1)] == [1, 2]
    for b in range(1, 6):
        s = build_s_beta((b,))
        assert [s.label(1, j) for j in range(1, b + 1)] == list(range(1, b + 1))
        assert [s.label(2, j) for j in range(1, b + 1)] == list(range(b + 1, 2 * b + 1))


def generic_lower_covers(elements):
    """Reference: the Hasse diagram of (i1 <= i2 and j1 <= j2), by exhaustive scan."""
    def less(a, b):
        return a != b and a[0] <= b[0] and a[1] <= b[1]

    return tuple(
        tuple(ai for ai, a in enumerate(elements)
              if less(a, b) and not any(less(a, c) and less(c, b) for c in elements))
        for b in elements)


def test_structures_natural_up_to_d8():
    # The cover formula has no branch on d, so every composition of d <= 8
    # reaches every kind of cell and block junction.
    for d in range(1, 9):
        for beta in compositions(d):
            s = build_s_beta(beta)
            assert len(set(s.elements)) == s.size == 2 * d
            assert all(a < b for b, covers in enumerate(s.lower_covers) for a in covers)
            assert s.lower_covers == generic_lower_covers(s.elements), beta


# ----------------------------------------------------------------------
# linear extensions
# ----------------------------------------------------------------------


def test_extension_counts_are_catalan_products():
    for b in range(1, 9):
        assert len(linear_extensions(build_s_beta((b,)))) == catalan(b)
    assert len(linear_extensions(build_s_beta((2, 2)))) == 4
    assert len(linear_extensions(build_s_beta(EXAMPLE_BETA))) == 2 * 5 * 1 * 2


def test_extension_counts_factor_over_blocks():
    for d in range(1, 7):
        for beta in compositions(d):
            expected = 1
            for b in beta:
                expected *= catalan(b)
            assert len(linear_extensions(build_s_beta(beta))) == expected


def test_extensions_match_generic_oracle():
    for d in range(1, 5):
        for beta in compositions(d):
            s = build_s_beta(beta)
            fast = sorted(w.word for w in linear_extensions(s))
            slow = sorted(w.word for w in linear_extensions_generic(s))
            assert fast == slow


def test_example_word_is_an_extension():
    s = build_s_beta(EXAMPLE_BETA)
    words = {w.word for w in linear_extensions(s)}
    assert EXAMPLE_WORD in words


def test_all_ones_has_identity_extension_only():
    s = build_s_beta((1, 1, 1, 1))
    words = [w.word for w in linear_extensions(s)]
    assert words == [tuple(range(1, 9))]


def test_word_validation():
    s = build_s_beta((2,))
    with pytest.raises(ValueError):
        LinearExtensionWord((2, 1, 3, 4), s)  # 2 covers nothing below it yet
    with pytest.raises(ValueError):
        LinearExtensionWord((1, 1, 2, 3), s)


@pytest.mark.parametrize("labels", [(1.0, 2.0), (True, 2), (1, 2.0), ("1", "2"), (None, 2)])
def test_word_labels_that_are_not_ints_are_refused(labels):
    # 1.0 == 1 and True == 1, so the permutation check alone let them through.
    bad = next(x for x in labels if type(x) is not int)
    with pytest.raises(ValueError, match=f"labels must be integers, got {bad!r}"):
        LinearExtensionWord(labels, build_s_beta((1,)))


def test_int_subclass_labels_pass():
    class Label(int):
        pass

    w = LinearExtensionWord((Label(1), Label(2)), build_s_beta((1,)))
    assert w == LinearExtensionWord((1, 2), build_s_beta((1,)))
    assert maj_word(w) == 0


def test_maj_word_examples():
    s = build_s_beta(EXAMPLE_BETA)
    w = next(w for w in linear_extensions(s) if w.word == EXAMPLE_WORD)
    assert maj_word(w) == 8
    identity = next(w for w in linear_extensions(build_s_beta((1, 1))) )
    assert maj_word(identity) == 0


@pytest.mark.parametrize("b", range(1, 7))
def test_catalan_prefix_dominance(b):
    # in every extension of the two-row grid, prefixes never hold more
    # bottom-row labels than top-row labels
    for w in linear_extensions(build_s_beta((b,))):
        low = high = 0
        for x in w.word:
            if x <= b:
                low += 1
            else:
                high += 1
            assert low - high >= 0


@pytest.mark.parametrize("b", range(1, 7))
def test_descents_straddle_the_rows(b):
    for w in linear_extensions(build_s_beta((b,))):
        for k in range(1, 2 * b):
            if w.word[k - 1] > w.word[k]:
                assert w.word[k - 1] > b >= w.word[k]


# ----------------------------------------------------------------------
# order-reversing assignments
# ----------------------------------------------------------------------


def test_histogram_two_chain():
    assert enumerate_poset_partitions(build_s_beta((1,)), 3) == [1, 1, 2, 2]


def test_histogram_matches_iterator():
    # the column DP against the depth-first listing, for every composition of
    # d <= 5 and every weight bound up to 20
    for d in range(1, 6):
        for beta in compositions(d):
            s = build_s_beta(beta)
            seen = [0] * 21
            for p in iter_poset_partitions(s, 20):
                seen[p.weight] += 1
            for max_weight in range(21):
                assert enumerate_poset_partitions(s, max_weight) == seen[:max_weight + 1], (
                    beta, max_weight)


def test_histogram_chain_counts_partitions_into_few_parts():
    # beta = (1, ..., 1) is a chain of 2d cells: partitions with at most 2d parts
    for d in (1, 3, 6):
        hist = enumerate_poset_partitions(build_s_beta((1,) * d), 30)
        assert hist == [1] + [sum(1 for p in partitions(n) if len(p) <= 2 * d)
                              for n in range(1, 31)]


def test_histogram_rejects_negative_weight():
    with pytest.raises(ValueError):
        enumerate_poset_partitions(build_s_beta((1,)), -1)


def test_listing_refuses_a_negative_weight_as_the_histogram_does():
    # It used to list nothing, where the histogram refuses.
    with pytest.raises(ValueError, match="^max_weight must be nonnegative$"):
        next(iter_poset_partitions(build_s_beta((1,)), -1))


def test_example_assignment_is_valid():
    s = build_s_beta(EXAMPLE_BETA)
    rows = [[8, 6], [7, 6, 6, 6, 5], [6, 6, 4, 3], [1, 1, 0], [0, 0]]
    p = PosetPartition.from_rows(s, rows)
    assert p.weight == 65
    assert p.rows() == rows


def test_order_reversing_violations_raise():
    s = build_s_beta((1,))
    with pytest.raises(ValueError):
        PosetPartition(s, (0, 1))
    with pytest.raises(ValueError):
        PosetPartition(s, (1, -1))
    s2 = build_s_beta((2,))
    with pytest.raises(ValueError):
        PosetPartition.from_rows(s2, [[1, 2], [0, 0]])


def test_from_rows_rejects_wrong_shape():
    s = build_s_beta((1,))
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        PosetPartition.from_rows(s, [[5]])
    with pytest.raises(ValueError, match="expected 2 rows, got 3"):
        PosetPartition.from_rows(s, [[5], [2], [7, 7]])
    with pytest.raises(ValueError, match="row 2 expects 3 entries, got 2"):
        PosetPartition.from_rows(build_s_beta((1, 2)), [[3], [1, 1], [0, 0]])


# ----------------------------------------------------------------------
# the word-to-path map
# ----------------------------------------------------------------------


def test_word_to_dyck_paper_example():
    s = build_s_beta(EXAMPLE_BETA)
    w = next(w for w in linear_extensions(s) if w.word == EXAMPLE_WORD)
    path = word_to_dyck(w)
    assert path.bar_string() == "udud|uduudd|ud|uudd"
    assert path.marks == (4, 10, 12)
    from rankblocks.lattice_paths import maj_path
    assert maj_path(path) == 34
    assert maj_path(path) - 2 * (2 + 5 + 6) == maj_word(w)


def test_word_to_dyck_all_ones():
    s = build_s_beta((1, 1, 1))
    w = linear_extensions(s)[0]
    assert word_to_dyck(w).bar_string() == "ud|ud|ud"


def test_word_to_dyck_bijective_small():
    from rankblocks.lattice_paths import enumerate_fixed_returns
    for d in range(1, 5):
        for beta in compositions(d):
            s = build_s_beta(beta)
            positions = s.beta.partial_sums[1:-1]
            images = [word_to_dyck(w) for w in linear_extensions(s)]
            target = set(enumerate_fixed_returns(d, positions))
            assert len(set(images)) == len(images)
            assert set(images) == target
