import pytest

from cmforms import linalg
from cmforms.catalog import (build_catalog, catalog, catalog_entry,
                             entry_from_json, entry_to_json, verify_entry)


def test_catalog_has_expected_entries():
    names = {e.name for e in catalog()}
    for want in ["C2", "C3", "C5", "C12", "Q8", "2D3", "2D6", "2T", "2O",
                 "2I"]:
        assert want in names
    assert len(names) >= 10


def test_expected_orders():
    orders = {e.name: e.expected_order for e in catalog()}
    assert orders["Q8"] == 8
    assert orders["2T"] == 24
    assert orders["2O"] == 48
    assert orders["2I"] == 120


@pytest.mark.parametrize("entry", build_catalog(), ids=lambda e: e.name)
def test_verify_every_entry(entry):
    group = verify_entry(entry)
    assert group.order == entry.expected_order


def test_generators_are_block_diagonal():
    for e in catalog():
        for g in e.generators:
            assert len(g) == 3
            assert g[0][2].is_zero() and g[1][2].is_zero()
            assert g[2][0].is_zero() and g[2][1].is_zero()


def test_json_round_trip():
    e = catalog_entry("2I")
    e2 = entry_from_json(entry_to_json(e))
    assert e2.name == e.name and e2.expected_order == e.expected_order
    assert e2.field == e.field
    assert all(linalg.mat_eq(a, b)
               for a, b in zip(e.generators, e2.generators))


def test_catalog_is_built_once():
    entries = catalog()
    assert isinstance(entries, tuple)
    assert catalog() is entries
    assert catalog_entry("Q8") is next(e for e in entries if e.name == "Q8")


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog_entry("nope")
