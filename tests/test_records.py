"""The result records: immutable values, equal and hashed by their fields."""

import pytest

from padiclds.catalog import (EntryVerification, MatchReport, ParameterResult, SearchConstraints,
                              dickson_entries)
from padiclds.discrepancy import padic_discrepancy
from padiclds.permcheck import (METHOD_BRUTE_FORCE, DivergenceEntry, DivergenceReport, Verdict,
                                classify_low_discrepancy, classify_via_reduction)
from padiclds.polynomials import IntPolynomial

CUBIC = IntPolynomial([0, 1, 0, 1])  # x^3 + x, low-discrepancy at p = 3


def _records():
    lds = classify_low_discrepancy(CUBIC, 3)
    entry = DivergenceEntry(CUBIC, lds, classify_via_reduction(CUBIC, 3))
    result = ParameterResult(1, CUBIC, True, (0,))
    return [
        lds,
        entry,
        DivergenceReport(candidates=7, entries=(entry,)),
        padic_discrepancy([0, 1, 4], 3),
        dickson_entries()[0],
        result,
        EntryVerification((result,), ("a failure",), ()),
        SearchConstraints(monic=True),
        MatchReport(table1=(CUBIC,), prop_family=(), affine=(), linear=(), unexplained=()),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_is_an_immutable_value(record):
    twin = type(record)(**{name: getattr(record, name) for name in record._fields})
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    text = repr(record)
    assert text.startswith(f"{type(record).__name__}(")
    assert all(f"{name}=" in text for name in record._fields)


def test_int_polynomial_is_an_immutable_value():
    f, g = IntPolynomial([1, 2]), IntPolynomial((1, 2, 0, 0))
    assert f == g and hash(f) == hash(g) and f.coeffs == (1, 2)
    assert f != IntPolynomial([1, 2, 3])
    assert f != (1, 2) and f != ((1, 2),) and (1, 2) != f
    for name in ("coeffs", "degree", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, (3,))
    with pytest.raises(AttributeError):
        del f.coeffs
    assert f.coeffs == (1, 2)
    assert repr(f) == "IntPolynomial([1, 2])"


def test_verdict_checks_on_construction_and_replace():
    lds = classify_low_discrepancy(CUBIC, 3)
    assert lds.method == METHOD_BRUTE_FORCE and lds.low_discrepancy
    with pytest.raises(ValueError, match="conjunction"):
        lds._replace(perm_mod_p2=False)
    with pytest.raises(ValueError, match="conjunction"):
        Verdict._make([True, True, False, 0, None, METHOD_BRUTE_FORCE])
    with pytest.raises(ValueError, match="conjunction"):
        Verdict(low_discrepancy=True, perm_mod_p=True, perm_mod_p2=False, derivative_root=0,
                missing_residue=None, method=METHOD_BRUTE_FORCE)
    assert lds._replace() == lds
    with pytest.raises(TypeError):
        Verdict(True, True, True, None, None)


def test_dickson_entry_as_dict_keeps_its_key_order():
    entry = dickson_entries()[0]
    assert list(entry.as_dict()) == [name for name in entry._fields if name != "build"]
    assert list(classify_low_discrepancy(CUBIC, 3).as_dict()) == list(Verdict._fields)
