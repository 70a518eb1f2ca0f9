"""Relative almost split sequences inside the categories of modules with
bounded-below dominant dimension, on the self-injective-quotient Nakayama
family where every translate is known in closed form."""
import pytest

from quiverhom.algebra import nakayama_from_kupisch
from quiverhom.errors import (
    BoundExceeded, ExtProjective, InvalidParameters, NotInSubcategory,
)
from quiverhom.homology import ar_translate
from quiverhom.invariants import dominant_dimension
from quiverhom.modules import (
    direct_sum, iso_test, projective_rep, simple_rep, uniserial_quotient,
)
from quiverhom.relar import (
    omega_approximation, relative_ar_sequence, relative_ar_translate,
)


@pytest.fixture(scope="module")
def a23():
    return nakayama_from_kupisch([2, 3])


@pytest.fixture(scope="module")
def a45():
    return nakayama_from_kupisch([4, 5])


def test_sequence_for_top_simple_23(a23):
    res = relative_ar_sequence(simple_rep(a23, 1), 1)
    assert res.determinate and res.ext1_dim == 1
    assert iso_test(res.translate, projective_rep(a23, 0)).is_iso
    assert iso_test(res.middle, projective_rep(a23, 1)).is_iso


def test_first_family_45(a45):
    # 0 -> u(1,3) -> u(1,1) + u(0,4) -> u(0,2) -> 0
    res = relative_ar_sequence(uniserial_quotient(a45, 0, 2), 1)
    assert res.determinate
    assert iso_test(res.translate, uniserial_quotient(a45, 1, 3)).is_iso
    mid = direct_sum([uniserial_quotient(a45, 1, 1),
                      uniserial_quotient(a45, 0, 4)])
    assert iso_test(res.middle, mid).is_iso


def test_second_family_45(a45):
    # 0 -> u(0,4) -> u(1,5) + u(0,2) -> u(1,3) -> 0
    res = relative_ar_sequence(uniserial_quotient(a45, 1, 3), 1)
    assert res.determinate
    assert iso_test(res.translate, uniserial_quotient(a45, 0, 4)).is_iso
    mid = direct_sum([uniserial_quotient(a45, 1, 5),
                      uniserial_quotient(a45, 0, 2)])
    assert iso_test(res.middle, mid).is_iso


@pytest.mark.parametrize("kupisch", [[2, 3], [4, 5], [6, 7]])
def test_parity_rule_for_dominant_dimension(kupisch):
    a = nakayama_from_kupisch(kupisch)
    for i, cap in enumerate(kupisch):
        for k in range(1, cap + 1):
            m = uniserial_quotient(a, i, k)
            assert dominant_dimension(m).geq(1) == ((i - k) % 2 == 0)


def test_translate_of_projective_injective_is_ext_projective(a45):
    with pytest.raises(ExtProjective):
        relative_ar_translate(projective_rep(a45, 1), 1)


def test_subcategory_membership_enforced(a45):
    # u(0,1) has odd parity, so it sits outside the level-one subcategory
    with pytest.raises(NotInSubcategory):
        relative_ar_translate(uniserial_quotient(a45, 0, 1), 1)


def test_membership_cut_off_by_the_bound_is_undecided(a45):
    # u(0,2) has dominant dimension 2; at bound 0 that reads >=0, which
    # settles nothing, while u(0,1) is certified outside at any bound
    with pytest.raises(BoundExceeded) as err:
        relative_ar_translate(uniserial_quotient(a45, 0, 2), 1, bound=0)
    assert err.value.bound == 0
    with pytest.raises(BoundExceeded):
        relative_ar_sequence(uniserial_quotient(a45, 0, 2), 1, bound=0)
    with pytest.raises(NotInSubcategory):
        relative_ar_translate(uniserial_quotient(a45, 0, 1), 1, bound=0)
    assert relative_ar_sequence(uniserial_quotient(a45, 0, 2), 1,
                                bound=2).determinate


def test_negative_level_is_refused(a45):
    with pytest.raises(InvalidParameters):
        relative_ar_translate(uniserial_quotient(a45, 0, 2), -1)


def test_level_zero_matches_ordinary_translate(a45):
    m = uniserial_quotient(a45, 0, 2)
    r = iso_test(relative_ar_translate(m, 0).translate, ar_translate(m))
    assert r.is_iso


def test_omega_approximation_of_bottom_simple(a23):
    core, proj = omega_approximation(simple_rep(a23, 0), 1)
    assert core == []
    assert [p.dim_vector() for p in proj] == [(1, 1)]
    assert iso_test(proj[0], projective_rep(a23, 0)).is_iso
