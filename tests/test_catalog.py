"""Named constructions and the certified two-vertex presentation of the
endomorphism ring built from the two-loop local algebra."""
import pytest

from quiverhom import catalog
from quiverhom.catalog import (
    is_construction_text, klein_endo_algebra, klein_module_pair,
    parse_construction, verify_endo_presentation,
)
from quiverhom.errors import ParseError
from quiverhom.homology import mueller_domdim, syzygy
from quiverhom.invariants import (
    algebra_dominant_dimension, gendo_gorenstein_check, gorenstein_dimension,
)
from quiverhom.modules import direct_sum, iso_test, regular_rep
from quiverhom.stratify import (
    characteristic_tilting, classify_stratification, search_orders,
    tilting_conjecture_report, verify_duality_consequences,
)
from quiverhom.values import Dim


def _word(quiver, p):
    """A path as its arrow names joined by '*', e_v for a trivial path."""
    if not p.word:
        return "e_%s" % (p.source,)
    return "*".join(quiver.arrows[i].name for i in p.word)


@pytest.fixture(scope="module")
def endo():
    return klein_endo_algebra()


def test_presentation_basis(endo):
    assert endo.dim == 10
    assert [_word(endo.quiver, p) for p in endo.basis] == [
        "e_1", "e_2", "y", "de", "al", "be", "y*al", "de*be", "al*be",
        "y*al*be"]


def test_presentation_certificate(endo):
    assert verify_endo_presentation(endo) == {
        "dim": 10, "hom_dim": 10, "rank": 10, "relations_vanish": True,
        "cartan_symmetric": True}


def test_module_pair_periodicity():
    a, xa = klein_module_pair()
    assert xa.dim_vector() == (2,)
    assert iso_test(syzygy(xa, 2), xa).is_iso
    assert gendo_gorenstein_check(xa) == 2
    assert mueller_domdim(direct_sum([regular_rep(a), xa])) == Dim.exact(2)


def test_endo_invariants(endo):
    assert algebra_dominant_dimension(endo) == Dim.exact(2)
    right, left, flag = gorenstein_dimension(endo)
    assert (right, left, flag) == (Dim.exact(2), Dim.exact(2), True)


def test_endo_stratification(endo):
    rows = search_orders(endo)
    assert [r["properly_stratified"] for r in rows] == [True, False]
    assert not any(r["quasi_hereditary"] for r in rows)
    st = classify_stratification(endo, (1, 2), duality_asserted=True)
    assert st.properly_stratified and not st.schurian
    t = characteristic_tilting(st)
    assert t.projdim == 1
    assert sorted(s.dim_vector() for s in t.summands) == [(2, 0), (4, 2)]
    out = verify_duality_consequences(st)
    assert (out["m"], out["gordim"]) == (1, 2)
    assert len(out["modules"]) == 13
    conj = tilting_conjecture_report(st)
    assert conj["verdict"] == "conjecture consistent"


def test_build_named_dimensions():
    cases = [
        ("kupisch:2,2,3", 7),
        ("bnlambda:3,1", 9),
        ("symmetric_chain:2", 6),
        ("klein_four", 4),
        ("endo-of:klein_four@1", 7),
    ]
    for text, dim in cases:
        assert parse_construction(text).dim == dim, text
    for bad in ("group_algebra", "klein_four:3"):
        with pytest.raises(ParseError):
            parse_construction(bad)


def test_parse_construction_shorthand():
    assert parse_construction("endo-of:symmetric_chain:2@2").dim == 9
    assert is_construction_text("kupisch:4,5,5")
    assert not is_construction_text("some/path.alg")
    for bad in ("unknown:1", "bnlambda", "endo-of:klein_four", "kupisch:a,b",
                "symmetric_chain", "endo-of"):
        with pytest.raises(ParseError):
            parse_construction(bad)


def test_parse_construction_passes_the_bound_to_every_endo_of(monkeypatch):
    """Each endo-of level, nested ones too, is built at the given bound;
    the stand-in returns its base so the outer level has a symmetric
    algebra to take."""
    seen = []

    def recorded(a, socle, bound):
        seen.append(bound)
        return a

    monkeypatch.setattr(catalog, "endo_quiver_construction", recorded)
    parse_construction("endo-of:endo-of:klein_four@1@1", 3)
    assert seen == [3, 3]
    parse_construction("endo-of:klein_four@1")
    assert seen == [3, 3, 64]
