"""Dimension invariants against hand-checked and cross-validated values."""
from itertools import product

import pytest

from oracles import nakayama_combinatorics, nakayama_injective_projectives

from quiverhom.algebra import (
    bnlambda_family, klein_four_like, nakayama_from_kupisch,
    symmetric_chain_family,
)
from quiverhom import invariants, modules, verify
from quiverhom.errors import (
    BoundExceeded, CertificateFailure, DecompositionInconclusive,
    DominantDimensionZero, NotApplicable,
)
from quiverhom.homology import ext_dim, mueller_domdim
from quiverhom.invariants import (
    algebra_dominant_dimension, all_uniserial_quotients, auslander_gorenstein_parameter,
    canonical_test_set, codominant_dimension, dominant_dimension,
    gendo_gorenstein_check, gi_dimension, global_dimension, gorenstein_dimension,
    gp_dimension, injective_dimension, injective_projective_vertices,
    invariant_report, is_gorenstein_projective, is_selfinjective,
    minimal_faithful_projinj, projective_dimension, verify_dom_gproj,
)
from quiverhom.homology import injective_term_vertices, projective_resolution
from quiverhom.modules import (
    cyclic_submodule, decompose, direct_sum, iso_test, projective_rep,
    regular_rep, simple_rep, uniserial_quotient,
)
from quiverhom.values import Dim


@pytest.fixture(scope="module")
def a223():
    return nakayama_from_kupisch([2, 2, 3])


@pytest.fixture(scope="module")
def a23():
    return nakayama_from_kupisch([2, 3])


@pytest.fixture(scope="module")
def a455():
    return nakayama_from_kupisch([4, 5, 5])


@pytest.fixture(scope="module")
def klein():
    return klein_four_like()


def test_gldim_and_domdim_223(a223):
    assert global_dimension(a223) == Dim.exact(3)
    assert algebra_dominant_dimension(a223) == Dim.exact(3)


def test_simple_dimensions_223(a223):
    assert projective_dimension(simple_rep(a223, 0)) == Dim.exact(3)
    assert projective_dimension(simple_rep(a223, 1)) == Dim.exact(2)
    assert projective_dimension(simple_rep(a223, 2)) == Dim.exact(1)
    assert projective_dimension(projective_rep(a223, 0)) == Dim.exact(0)


def test_gorenstein_223(a223):
    right, left, flag = gorenstein_dimension(a223)
    assert (right, left, flag) == (Dim.exact(3), Dim.exact(3), True)


def test_one_sided_self_injective_dimensions_must_agree(monkeypatch):
    a = nakayama_from_kupisch([2, 2, 3])
    monkeypatch.setattr(invariants, "injective_dimension",
                        lambda m, bound=64: Dim.exact(3 if m.algebra is a
                                                      else 2))
    with pytest.raises(CertificateFailure,
                       match="one-sided self-injective dimensions disagree"):
        gorenstein_dimension(a)


def test_gp_dimension_must_match_the_top_extension_degree(a223,
                                                          monkeypatch):
    # S(0) has projective dimension 3, so Ext^3(S(0), A) is nonzero
    monkeypatch.setattr(invariants, "is_gorenstein_projective",
                        lambda m, bound=64: True)
    with pytest.raises(CertificateFailure,
                       match="Gorenstein-projective dimension 0 does not "
                             "match the top nonvanishing extension degree 3"):
        gp_dimension(simple_rep(a223, 0))


def test_domdim_codomdim_s1_over_23(a23):
    # resolution 0 -> e_0 A -> e_1 A -> S_1 -> 0: the cover is injective,
    # the next term is not, so exactly one leading injective term
    s1 = simple_rep(a23, 1)
    assert dominant_dimension(s1) == Dim.exact(1)
    assert codominant_dimension(s1) == Dim.exact(1)


def test_minimal_faithful_23(a23):
    verts, ea = minimal_faithful_projinj(a23)
    assert verts == [1]
    assert ea.dim_vector() == projective_rep(a23, 1).dim_vector()


def test_injective_projectives_of_every_registry_kupisch_series(
        monkeypatch):
    series = []
    real = verify.nakayama_from_kupisch

    def record(kupisch, *args, **kwargs):
        series.append(list(kupisch))
        return real(kupisch, *args, **kwargs)
    monkeypatch.setattr(verify, "nakayama_from_kupisch", record)
    for eid in verify.all_example_ids():
        verify.verify_paper_example(eid)
    assert [2, 2, 3] in series and [4, 5, 5] in series
    for k in series:
        a = nakayama_from_kupisch(k)
        want = nakayama_injective_projectives(k)
        assert list(injective_projective_vertices(a)) == want
        assert is_selfinjective(a) == (len(want) == len(k))


def test_projinj_module_has_terminated_resolution(a23):
    d = dominant_dimension(projective_rep(a23, 1), bound=8)
    assert d.is_infinite and "terminated" in d.note
    assert d.geq(1)


def test_selfinjective_klein(klein):
    assert is_selfinjective(klein)
    right, left, flag = gorenstein_dimension(klein)
    assert (right, left, flag) == (Dim.exact(0), Dim.exact(0), True)
    d = algebra_dominant_dimension(klein)
    assert d.is_infinite


def test_xa_projective_dimension_certified_infinite(klein):
    reg = regular_rep(klein)
    xa, _ = cyclic_submodule(reg, 1, [0, 1, 0, 0])
    d = projective_dimension(xa)
    assert d.is_infinite
    assert (d.onset, d.period) == (1, 1)
    assert injective_dimension(xa).is_infinite


def test_gendo_gorenstein_check_klein(klein):
    reg = regular_rep(klein)
    xa, _ = cyclic_submodule(reg, 1, [0, 1, 0, 0])
    assert gendo_gorenstein_check(xa) == 2


def test_gendo_gorenstein_check_refusals(klein, a223):
    reg = regular_rep(klein)
    xa, _ = cyclic_submodule(reg, 1, [0, 1, 0, 0])
    # the first self-extension of the pair is in degree 1, past bound 0
    with pytest.raises(BoundExceeded,
                       match="^no self-extension found within bound; "
                             "cannot certify$"):
        gendo_gorenstein_check(xa, bound=0)
    with pytest.raises(NotApplicable,
                       match="^needs a certified symmetric algebra$"):
        gendo_gorenstein_check(simple_rep(a223, 0))


def test_455_auslander_gorenstein(a455):
    right, left, flag = gorenstein_dimension(a455)
    assert (right, left, flag) == (Dim.exact(2), Dim.exact(2), True)
    assert algebra_dominant_dimension(a455) == Dim.exact(2)
    assert auslander_gorenstein_parameter(a455) == 2
    g = global_dimension(a455)
    assert g.is_infinite and g.period is not None


def test_344_global_equals_dominant():
    a = nakayama_from_kupisch([3, 4, 4])
    assert global_dimension(a) == Dim.exact(4)
    assert algebra_dominant_dimension(a) == Dim.exact(4)


def test_bnlambda_dominant_dimensions():
    assert algebra_dominant_dimension(bnlambda_family(3, (0,))) == Dim.exact(0)
    with pytest.raises(DominantDimensionZero):
        minimal_faithful_projinj(bnlambda_family(3, (0,)))
    b31 = bnlambda_family(3, (1,))
    assert algebra_dominant_dimension(b31) == Dim.exact(4)
    assert global_dimension(b31) == Dim.exact(4)
    b2 = bnlambda_family(2, ())
    assert algebra_dominant_dimension(b2) == Dim.exact(2)
    assert global_dimension(b2) == Dim.exact(2)


def test_mueller_crosscheck_chain_vs_family():
    chain = symmetric_chain_family(2)
    assert mueller_domdim(simple_rep(chain, 2)) == Dim.exact(4)


def test_domdim_parity_rule():
    for d in (1, 2):
        a = nakayama_from_kupisch([2 * d, 2 * d + 1])
        for name, m in all_uniserial_quotients(a):
            i = int(name[1])
            k = int(name.split("J")[1])
            assert dominant_dimension(m).geq(1) == ((i - k) % 2 == 0), name


def test_gp_dimensions_455(a455):
    # S_0 has a periodic resolution through projective-injectives, so it is
    # Gorenstein projective outright; S_1 hits the other extreme
    assert is_gorenstein_projective(projective_rep(a455, 0))
    assert gp_dimension(projective_rep(a455, 1)) == 0
    s0, s1 = simple_rep(a455, 0), simple_rep(a455, 1)
    assert gp_dimension(s0) == 0
    assert gi_dimension(s0) == 2
    assert gp_dimension(s1) == 2
    assert gi_dimension(s1) == 0


def test_verify_dom_gproj_455(a455):
    report = verify_dom_gproj(a455, testset=all_uniserial_quotients(a455))
    assert report["r"] == 2
    assert report["agree"]
    assert len(report["modules"]) == 14


def test_prop_quadruple_on_cosyzygy_summands(a455):
    # modules in add of the first cosyzygy of the regular module:
    # (projdim, injdim, domdim, codomdim) = (1, 1, 1, 1) at r = 2
    from quiverhom.homology import cosyzygy
    parts = decompose(cosyzygy(regular_rep(a455), 1))
    assert parts
    for m in parts:
        assert projective_dimension(m) == Dim.exact(1)
        assert injective_dimension(m) == Dim.exact(1)
        assert dominant_dimension(m) == Dim.exact(1)
        assert codominant_dimension(m) == Dim.exact(1)


def test_ext_quotient_lemma_crosscheck(a223):
    # nonvanishing of Ext^l(N, S) matches S being a quotient of the l-th
    # projective term; dually for Ext^l(S, N) and the injective terms
    for nv in a223.quiver.vertices:
        n = simple_rep(a223, nv)
        res = projective_resolution(n)
        for sv in a223.quiver.vertices:
            s = simple_rep(a223, sv)
            for l in range(4):
                hit = ext_dim(n, s, l) != 0
                assert hit == (sv in res.term(l).proj_summand_vertices)
                hit2 = ext_dim(s, n, l) != 0
                assert hit2 == (sv in injective_term_vertices(n, l))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_dim_comparisons_answer_only_what_every_admitted_value_gives(n):
    inf = float("inf")
    # at_least(n) admits n, n + 1, ... and infinity; past n + 2 no
    # comparison with k <= n + 1 changes
    cases = [(Dim.exact(n), [n]), (Dim.at_least(n), [n, n + 1, n + 2, inf]),
             (Dim.infinite(), [inf])]
    relations = [("geq", lambda v, k: v >= k), ("leq", lambda v, k: v <= k),
                 ("eq", lambda v, k: v == k)]
    refused = 0
    for d, values in cases:
        for k in (n - 1, n, n + 1):
            for rel, holds in relations:
                answers = {holds(v, k) for v in values}
                if len(answers) == 1:
                    assert getattr(d, rel)(k) is answers.pop(), (d, rel, k)
                    continue
                with pytest.raises(BoundExceeded) as err:
                    getattr(d, rel)(k)
                assert err.value.bound == n
                assert "at >=%d" % n in str(err.value)
                refused += 1
    # geq at n + 1, leq at n and n + 1, eq at n and n + 1
    assert refused == 5


def test_monotone_bounds(klein):
    d8 = algebra_dominant_dimension(klein, bound=8)
    d16 = algebra_dominant_dimension(klein, bound=16)
    # an infinite value has n None and stays infinite at a larger bound
    assert d16.is_infinite if d8.is_infinite else (
        d16.is_infinite or d16.n >= d8.n)


def test_canonical_test_set_doesnt_duplicate(a223):
    named = canonical_test_set(a223, depth=2)
    assert all(not m.is_zero() for _, m in named)
    names = [n for n, _ in named]
    assert len(names) == len(set(names))


def test_invariant_report_keys(a223):
    rep = invariant_report(a223)
    assert rep["dim"] == 7
    assert rep["gldim"] == Dim.exact(3)
    assert rep["projinj_vertices"] == [1, 2]
    assert rep["gorenstein"]


def test_projinj_vertices_survive_a_truncating_bound(a455):
    # bound 0 truncates the dominant dimension to at_least 0, which
    # decides nothing; faithfulness of the projective-injective sum does
    assert algebra_dominant_dimension(a455, bound=0) == Dim.at_least(0)
    verts, ea = minimal_faithful_projinj(a455, bound=0)
    assert verts == minimal_faithful_projinj(a455)[0] == [1, 2]
    assert invariant_report(a455, bound=0)["projinj_vertices"] == [1, 2]
    with pytest.raises(DominantDimensionZero):
        minimal_faithful_projinj(bnlambda_family(3, (0,)), bound=0)


def test_syzygy_period_is_never_missed_on_a_stalled_test(monkeypatch, a455):
    # the fourth syzygy of S(0)+S(1) has the arrow matrices of the second,
    # so equal data certifies the period and no splitting search runs
    m = direct_sum([simple_rep(a455, 0), simple_rep(a455, 1)])
    pd = projective_dimension(m)
    assert (pd.kind, pd.period, pd.onset) == ("infinite", 2, 2)
    res = projective_resolution(m)
    assert res.syzygy(4).mats == res.syzygy(2).mats

    def stall(*args):
        raise DecompositionInconclusive("splitting search stalled")
    monkeypatch.setattr(modules, "decompose", stall)
    assert projective_dimension(m) == pd
    # a stalled search is never read as a negative: P(0)+P(1) against
    # P(1)+P(0) differ in data, no Hom-basis map is invertible, and the
    # summands cannot be matched
    p0, p1 = projective_rep(a455, 0), projective_rep(a455, 1)
    with pytest.raises(DecompositionInconclusive):
        iso_test(direct_sum([p0, p1]), direct_sum([p1, p0]))


def _cyclic_series(nmax, cmax):
    """Every cyclic Kupisch series with at most nmax entries, each at most
    cmax, once per rotation class (the least rotation)."""
    out = []
    for n in range(1, nmax + 1):
        for c in product(range(2, cmax + 1), repeat=n):
            if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n)) and \
                    c == min(c[i:] + c[:i] for i in range(n)):
                out.append(list(c))
    return out


def _kind(d):
    if d.is_exact:
        return ("exact", d.n)
    return ("infinite", d.period, d.onset) if d.is_infinite else (d.kind,)


def test_nakayama_census_matches_the_combinatorial_oracle():
    # every uniserial of every cyclic series with n <= 4, entries <= 6:
    # pd and id exact or infinite with the same period and onset, domdim
    # and codomdim exact where the oracle says so and never exact where it
    # says infinity
    series = _cyclic_series(4, 6)
    assert len(series) == 65
    bad, count = [], 0
    for c in series:
        a = nakayama_from_kupisch(c)
        for (i, l), want in nakayama_combinatorics(c).items():
            m = uniserial_quotient(a, i, l)
            count += 1
            got = {"pd": _kind(projective_dimension(m)),
                   "id": _kind(injective_dimension(m))}
            for key, f in (("domdim", dominant_dimension),
                           ("codomdim", codominant_dimension)):
                d = f(m)
                got[key] = _kind(d) if d.is_exact else ("infinite",)
            if got != want:
                bad.append((c, i, l, got, want))
    assert count == 844
    assert bad == []
