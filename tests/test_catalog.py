import pytest

from cmforms.catalog import (CatalogEntry, _block, build_catalog, catalog,
                             catalog_entry, verify_entry)
from cmforms.field import cyclotomic_field_containing


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


def test_verify_entry_rejects_non_unitary_element():
    # [[0, 2], [1/2, 0]] squares to 1, so the closure has the claimed
    # order 2, but it does not preserve diag(1, 1, 1)
    f, _ = cyclotomic_field_containing(4)
    two, half = f.from_rational(2), f.from_rational(1) / 2
    bad = _block(f, ((f.zero(), two), (half, f.zero())), f.one())
    with pytest.raises(ValueError, match="bad: non-unitary element"):
        verify_entry(CatalogEntry("bad", 4, f, [bad], 2))


def test_catalog_is_built_once():
    entries = catalog()
    assert isinstance(entries, tuple)
    assert catalog() is entries
    assert catalog_entry("Q8") is next(e for e in entries if e.name == "Q8")


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog_entry("nope")
