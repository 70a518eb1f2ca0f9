"""Named constructions and the certified presentations of endomorphism
rings: a symmetric algebra extended by socle simples (endo-of), and the
two-vertex one built from the two-loop local algebra."""
import pytest

from quiverhom import catalog
from quiverhom.algebra import (
    bnlambda_family, klein_four_like, symmetric_chain_family,
)
from quiverhom.catalog import (
    endo_quiver_construction, is_construction_text, klein_endo_algebra,
    klein_module_pair, parse_construction, verify_endo_presentation,
)
from quiverhom.errors import (
    BoundExceeded, CertificateFailure, InvalidParameters, ParseError,
    PreconditionFailed,
)
from quiverhom.homology import mueller_domdim, syzygy
from quiverhom.invariants import (
    algebra_dominant_dimension, gendo_gorenstein_check, gorenstein_dimension,
)
from quiverhom.modules import (
    direct_sum, iso_test, projective_rep, regular_rep, socle_rows,
    sub_representation,
)
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


def test_endo_extension_dimensions_and_domdim():
    cases = [
        (symmetric_chain_family(2), [2], 9, 4),
        (symmetric_chain_family(3), [3], 13, 6),
        (klein_four_like(), [1], 7, 2),
    ]
    for base, socs, dim, dd in cases:
        out = endo_quiver_construction(base, socs)
        assert out.dim == dim
        assert len(out.quiver.vertices) == len(base.quiver.vertices) + len(socs)
        assert algebra_dominant_dimension(out) == Dim.exact(dd)


def test_endo_extension_quiver_shape():
    out = endo_quiver_construction(symmetric_chain_family(2), [2])
    assert tuple(out.quiver.vertices) == (1, 2, 3)
    assert [(ar.name, ar.source, ar.target) for ar in out.quiver.arrows] == [
        ("a1", 1, 2), ("b1", 2, 1), ("al2", 2, 3), ("be2", 3, 2)]


def test_endo_extension_needs_symmetric_base():
    with pytest.raises(PreconditionFailed):
        endo_quiver_construction(bnlambda_family(3, (1,)), [3])


def test_endo_cross_check_tells_a_cut_off_from_a_contradiction(monkeypatch):
    # the endomorphism side has dominant dimension 6; below bound 6 one or
    # both values are floors the other can meet, which is no contradiction
    base = symmetric_chain_family(3)
    for bound in range(6):
        with pytest.raises(BoundExceeded) as err:
            endo_quiver_construction(base, [3], bound=bound)
        assert str(err.value).startswith("bound %d cut " % bound)
    assert str(err.value) == ("bound 5 cut the dominant dimension "
                              "cross-check off: >=5 vs 6")
    for bound in (6, 64):
        assert endo_quiver_construction(base, [3], bound=bound).dim == 13
    for wrong in (Dim.exact(5), Dim.at_least(7)):
        monkeypatch.setattr(catalog, "mueller_domdim",
                            lambda *args, wrong=wrong: wrong)
        with pytest.raises(CertificateFailure,
                           match="^dominant dimension cross-check failed"):
            endo_quiver_construction(base, [3])


def test_endo_extension_refuses_bad_socle_lists():
    base = klein_four_like()
    for socs in ([], [1, 1], [9]):
        with pytest.raises(InvalidParameters):
            endo_quiver_construction(base, socs)


def _built_socle_word(a, v):
    """The socle word as read before: the inclusion row at v of the socle
    submodule of P(v), built and certified."""
    p = projective_rep(a, v)
    soc, incl = sub_representation(p, socle_rows(p))
    if sum(soc.dims.values()) != 1 or soc.dims.get(v, 0) != 1:
        raise PreconditionFailed("socle is not simple at %r" % (v,))
    at_v = [q for q in a.basis if q.source == v and q.target == v]
    return [(c, q) for c, q in zip(incl.blocks[v].data[0], at_v) if c]


@pytest.mark.parametrize("text", [
    "symmetric_chain:2", "symmetric_chain:3", "symmetric_chain:4",
    "klein_four", "bnlambda:3,1", "bnlambda:3,0"])
def test_socle_word_matches_the_built_socle_submodule(text):
    # P(2) over bnlambda:3,0 has socle dimension vector (1, 1, 0)
    a = parse_construction(text)
    for v in a.quiver.vertices:
        try:
            want = _built_socle_word(a, v)
        except PreconditionFailed:
            with pytest.raises(PreconditionFailed):
                catalog._socle_word(a, v)
        else:
            assert catalog._socle_word(a, v) == want
