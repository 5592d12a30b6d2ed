"""The value-record contract every record class keeps: value equality and
hashing, immutability, the ``Name(field=value, ...)`` repr, keyword
construction, and pickle and copy round trips.  Plus the import guards
that keep the package free of the ``dataclasses`` machinery and each module
free of the modules it does not import."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from rankblocks.bijections import FrobeniusArray
from rankblocks.lattice_paths import MarkedBallotPath
from rankblocks.partitions import FrobeniusSymbol, ParityBlocks
from rankblocks.posets import Composition, LinearExtensionWord, PosetPartition, build_s_beta
from rankblocks.qseries import QSeries
from rankblocks.verify import Spec, VerificationReport

SRC = Path(__file__).resolve().parents[1] / "src"

# (class, constructor keywords, the pinned repr).  Every keyword set is built
# twice from fresh values, so equality below never rests on identity.
RECORDS = {
    "FrobeniusSymbol": (FrobeniusSymbol, lambda: {"top": (2, 0), "bottom": (1, 0)},
                        "FrobeniusSymbol(top=(2, 0), bottom=(1, 0))"),
    "ParityBlocks": (ParityBlocks, lambda: {"sizes": (1, 2), "last_sign": "P"},
                     "ParityBlocks(sizes=(1, 2), last_sign='P')"),
    "FrobeniusArray": (FrobeniusArray, lambda: {"top": (2, 0), "bottom": (1, 0)},
                       "FrobeniusArray(top=(2, 0), bottom=(1, 0))"),
    "Composition": (Composition, lambda: {"parts": (1, 2)}, "Composition(parts=(1, 2))"),
    "LinearExtensionWord": (
        LinearExtensionWord, lambda: {"word": (1, 3, 2, 4), "source": build_s_beta((2,))},
        "LinearExtensionWord(word=(1, 3, 2, 4), source=SBetaStructure(beta=(2,)))"),
    "PosetPartition": (
        PosetPartition, lambda: {"structure": build_s_beta((1,)), "values": (1, 0)},
        "PosetPartition(structure=SBetaStructure(beta=(1,)), values=(1, 0))"),
    "MarkedBallotPath": (MarkedBallotPath, lambda: {"steps": "udud", "marks": (2,)},
                         "MarkedBallotPath(steps='udud', marks=(2,))"),
    "QSeries": (QSeries, lambda: {"coeffs": (1, 2, 0, -1)}, "QSeries(1 + 2*q - q^3; prec=3)"),
    "VerificationReport": (
        VerificationReport,
        lambda: {"target": "thm-main", "parameters": {"d": 1}, "status": "fail",
                 "first_discrepancy": {"exponent": 2}, "elapsed": 0.5, "witnesses": ["w"]},
        "VerificationReport(target='thm-main', parameters={'d': 1}, status='fail', "
        "first_discrepancy={'exponent': 2}, elapsed=0.5, witnesses=['w'])"),
    # Module-level callables, so that the record pickles by reference, and
    # tuples for the bound and axis dicts, so that it hashes.
    "Spec": (Spec, lambda: {"sides": (), "bounds": (), "axes": (), "args": dict,
                            "where": max, "table": None, "candidates": len, "also": min},
             "Spec(sides=(), bounds=(), axes=(), args=<class 'dict'>, "
             "where=<built-in function max>, table=None, "
             "candidates=<built-in function len>, also=<built-in function min>)"),
}
UNHASHABLE = {"QSeries", "VerificationReport"}
MUTABLE = {"VerificationReport"}


def _build(name):
    cls, fields, _ = RECORDS[name]
    return cls(**fields())


def _same(a, b):
    # Equal, of the same class, and with the same repr (QSeries compares only
    # up to the smaller precision; its repr also shows the precision).
    return type(a) is type(b) and a == b and repr(a) == repr(b)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    cls, fields, _ = RECORDS[name]
    a, b = cls(**fields()), cls(*fields().values())
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(fields().values()))


def test_different_fields_or_classes_give_unequal_records():
    assert FrobeniusSymbol((2, 0), (1, 0)) != FrobeniusArray((2, 0), (1, 0))
    assert FrobeniusArray((2, 0), (1, 0)) != FrobeniusSymbol((2, 0), (1, 0))
    assert FrobeniusSymbol((2, 0), (1, 0)) != FrobeniusSymbol((2, 1), (1, 0))
    assert MarkedBallotPath("udud", (2,)) != MarkedBallotPath("udud")
    assert Composition((2, 1)) != (2, 1)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = _build(name)
    for field in RECORDS[name][1]():
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _same(record, _build(name))


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_no_attribute_can_be_added(name):
    # Slotted frozen dataclasses raised TypeError here, from a zero-argument
    # super() bound to the class that slots=True replaced.
    record = _build(name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    with pytest.raises(AttributeError):
        del record.unknown


def test_a_report_is_a_mutable_record_of_its_fields_in_order():
    report = _build("VerificationReport")
    assert list(vars(report)) == ["target", "parameters", "status", "first_discrepancy",
                                  "elapsed", "witnesses"]
    first, second = (VerificationReport("t", {}, "pass", None, 0.0) for _ in range(2))
    assert first.witnesses == [] and first.witnesses is not second.witnesses
    report.status = "pass"
    assert report != _build("VerificationReport")


@pytest.mark.parametrize("name", RECORDS)
def test_repr_keeps_its_form(name):
    assert repr(_build(name)) == RECORDS[name][2]


def test_marks_default_to_empty():
    assert MarkedBallotPath("ud") == MarkedBallotPath(steps="ud") == MarkedBallotPath("ud", ())
    assert MarkedBallotPath("ud").marks == ()


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_records_round_trip_through_pickle_and_copy(name, how):
    record = _build(name)
    clone = {"pickle": lambda r: pickle.loads(pickle.dumps(r)),
             "copy": copy.copy, "deepcopy": copy.deepcopy}[how](record)
    assert _same(clone, record)
    if name == "MarkedBallotPath":
        assert clone.returns() == record.returns() and clone.valleys() == record.valleys()
    if name not in MUTABLE:
        with pytest.raises(AttributeError):
            setattr(clone, next(iter(RECORDS[name][1]())), None)


def test_the_symbol_and_the_array_share_one_two_row_record():
    # The array says only that its rows decrease weakly; the base checks the
    # rows and gives both classes their columns and their JSON form.
    assert {"__init__", "d", "to_json_dict"}.isdisjoint(vars(FrobeniusArray))
    array, symbol = FrobeniusArray((2, 0), (1, 0)), FrobeniusSymbol((2, 0), (1, 0))
    assert not isinstance(array, FrobeniusSymbol) and not isinstance(symbol, FrobeniusArray)
    assert array.d == symbol.d == 2
    assert array.to_json_dict() == symbol.to_json_dict() == {"top": [2, 0], "bottom": [1, 0]}
    assert FrobeniusArray._fields == FrobeniusSymbol._fields == ("top", "bottom")


def test_the_package_does_not_import_the_dataclasses_machinery():
    # A fresh interpreter without site hooks, so that only the package's own
    # imports count: the CLI, then the four modules the transfer set-up loads.
    code = ("import sys; import rankblocks.cli, rankblocks.bijections, "
            "rankblocks.lattice_paths, rankblocks.partitions, rankblocks.posets; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("modules, absent", [
    # the transfer set-up loads neither the verification suite nor the CLI
    ("rankblocks.partitions, rankblocks.posets, rankblocks.lattice_paths, "
     "rankblocks.bijections", ["rankblocks.cli", "rankblocks.verify"]),
    # the closed forms stand alone, apart from every enumeration-side module
    ("rankblocks.qseries", ["rankblocks._record", "rankblocks.bijections", "rankblocks.cli",
                            "rankblocks.lattice_paths", "rankblocks.partitions",
                            "rankblocks.posets", "rankblocks.verify"]),
], ids=["transfer-set-up", "closed-forms"])
def test_a_module_loads_only_the_modules_it_imports(modules, absent):
    code = f"import sys; import {modules}; print(sorted({absent!r} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"



# What the enumeration side may take from the closed-form module: the sign
# names, the sign check, and the container that gf_vmr returns.
SHARED_WITH_THE_CLOSED_FORMS = {"MINUS", "PLUS", "SIGNS", "check_sign", "QSeries"}


def _imported(module):
    """Every name a package module imports, made absolute: ``a.b`` for
    ``import a.b``, ``a.b.c`` for ``from a.b import c``."""
    for node in ast.walk(ast.parse((SRC / "rankblocks" / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ("rankblocks" if node.level else None, node.module)))
            yield from (f"{source}.{alias.name}" for alias in node.names)


def test_the_enumeration_side_shares_no_code_with_the_closed_forms():
    # Code that a check's two sides shared could carry one fault into both.
    # This is the static half of that rule, on imports; tests/test_sides.py
    # audits what each side of each check calls at run time, including the
    # checks that compare two closed forms or two enumerations.
    assert [name for name in _imported("qseries") if name.startswith("rankblocks")] == []
    # The records and the packed format of the enumeration DPs import no
    # package module, so none of the closed forms either.
    assert [name for name in _imported("_record") if name.startswith("rankblocks")] == []
    allowed = {f"rankblocks.qseries.{name}" for name in SHARED_WITH_THE_CLOSED_FORMS}
    for module in ("partitions", "lattice_paths", "posets", "bijections"):
        taken = {name for name in _imported(module) if name.startswith("rankblocks.qseries")}
        assert taken <= allowed, (module, sorted(taken - allowed))
