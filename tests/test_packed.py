"""The packed-polynomial format of the three enumeration DPs, and its guard:
a width too narrow for a coefficient a DP forms raises instead of misreading."""

import pytest

import rankblocks._record as record_mod
import rankblocks.lattice_paths as lattice_paths_mod
import rankblocks.partitions as partitions_mod
import rankblocks.posets as posets_mod
from rankblocks.cli import main


def test_unpack_reads_back_what_was_packed():
    for width in (1, 2, 7, 64):
        coeffs = [c % (1 << width) for c in (5, 0, 3, 1 << 70, 0, 9)]
        packed = sum(c << width * e for e, c in enumerate(coeffs))
        assert record_mod.unpack(packed, width) == coeffs
    assert record_mod.unpack(0, 5) == []


def test_guard_fires_on_a_guard_bit_only():
    width = record_mod.field_width(5)  # 3 bits for 5, and the guard bit
    assert width == 4
    check = record_mod.guard(3, width, "a DP")
    for coeffs in ([5, 7, 0], [0, 0, 7]):
        check(sum(c << width * e for e, c in enumerate(coeffs)), "a point")
    for coeffs in ([8, 0, 0], [0, 7, 9], [0, 0, 15]):
        with pytest.raises(OverflowError) as raised:
            check(sum(c << width * e for e, c in enumerate(coeffs)), "a point")
        assert str(raised.value) == "a DP: a coefficient overflows its 4-bit field at a point"


def _census_40_1():
    return [count for row in partitions_mod._census_table(40, 1) for count in row.values()]


def _poset_2_1():
    return posets_mod.enumerate_poset_partitions(posets_mod.build_s_beta((2, 1)), 20)


def _path_6_4():
    read = (6, 4, 0, False)
    return lattice_paths_mod.marked_path_coeffs(lattice_paths_mod.marked_path_table([read]),
                                                *read)


# Each DP at one point: the largest coefficient it forms there (the census
# table's largest count, the histogram's largest entry, the whole path
# family's largest coefficient) and the message a narrower field raises.
DPS = {
    "census": (partitions_mod, _census_40_1, 20,
               "census DP: a coefficient overflows its 5-bit field at d = 1, n <= 40"),
    "poset": (posets_mod, _poset_2_1, 481,
              "poset-partition DP: a coefficient overflows its 9-bit field "
              "at beta = (2, 1), weight <= 20"),
    "path": (lattice_paths_mod, _path_6_4, 18,
             "marked-path DP: a coefficient overflows its 5-bit field at s = 6, t = 4"),
}


@pytest.mark.parametrize("dp", DPS)
def test_a_field_too_narrow_for_the_largest_coefficient_raises(monkeypatch, dp):
    module, run, largest, message = DPS[dp]
    result = run()
    assert max(result) == largest
    # The field the largest coefficient needs, with its guard bit, reads it.
    monkeypatch.setattr(module, "field_width", lambda bound: largest.bit_length() + 1)
    assert run() == result
    # One bit less leaves it no room: the guard bit is set, and the DP raises.
    monkeypatch.setattr(module, "field_width", lambda bound: largest.bit_length())
    with pytest.raises(OverflowError) as raised:
        run()
    assert str(raised.value) == message


@pytest.mark.parametrize("module, argv, dp", [
    (partitions_mod, ["count", "--n", "40", "--d", "1", "--m", "1", "--sign", "plus"],
     "census DP"),
    (posets_mod, ["verify", "--targets", "prop-3.9"], "poset-partition DP"),
    (lattice_paths_mod, ["verify", "--targets", "lemma-2.2"], "marked-path DP"),
])
def test_an_overflow_exits_3_with_one_line(monkeypatch, capsys, module, argv, dp):
    # Without the guard, the census 4 bits narrower answers 2 for this count,
    # where the true count is 20; the other two DPs keep one bit and the guard
    # bit per field.
    field_width = record_mod.field_width
    monkeypatch.setattr(module, "field_width", (lambda bound: field_width(bound) - 4)
                        if module is partitions_mod else (lambda bound: 2))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"rankblocks: internal error: OverflowError: {dp}: ")
