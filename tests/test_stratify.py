"""Stratifications, characteristic tilting modules and the extensional
verifiers, frozen against hand-worked orders on small Nakayama and
two-way chain algebras."""
from itertools import combinations, permutations

import pytest

from quiverhom import homology, invariants, linalg, modules, stratify
from quiverhom.algebra import (
    bnlambda_family, klein_four_like, nakayama_from_kupisch,
    symmetric_chain_family,
)
from quiverhom.catalog import klein_endo_algebra, parse_construction
from quiverhom.dsl import parse_algebra_dsl
from quiverhom.errors import (
    BoundExceeded, CertificateFailure, DecompositionInconclusive,
    NotApplicable, NotStratified, TooManyVertices,
)
from quiverhom.homology import ext_dim
from quiverhom.invariants import (
    algebra_dominant_dimension, auslander_gorenstein_parameter,
    canonical_test_set, global_dimension,
)
from quiverhom.modules import (
    direct_sum, dualize, iso_test, projective_rep, quotient_by_rows,
    radical_rows, regular_rep, same_add_closure, simple_rep,
)
from quiverhom.stratify import (
    characteristic_cotilting, characteristic_tilting, classify_stratification,
    filtration_test, search_orders, tilting_conjecture_report,
    verify_duality_consequences, verify_main_equivalences, verify_tilting,
)
from quiverhom.values import Dim

from oracles import (
    closed_standard, quotient_tower_walk, rediscovered_quotient,
    solved_sub_representation,
)


@pytest.fixture(scope="module")
def a223():
    return nakayama_from_kupisch([2, 2, 3])


@pytest.fixture(scope="module")
def st223(a223):
    return classify_stratification(a223, (1, 2, 0))


@pytest.fixture(scope="module")
def b31():
    return bnlambda_family(3, (1,))


@pytest.fixture(scope="module")
def st31(b31):
    return classify_stratification(b31, (1, 2, 3), duality_asserted=True)


def test_standard_modules_223(st223):
    assert {v: st223.delta[v].dim_vector() for v in (0, 1, 2)} == {
        0: (1, 1, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    assert {v: st223.nablabar[v].dim_vector() for v in (0, 1, 2)} == {
        0: (1, 0, 1), 1: (0, 1, 0), 2: (0, 1, 1)}
    # schurian case: proper and plain standards agree, costandards too
    for v in (0, 1, 2):
        assert iso_test(st223.delta[v], st223.deltabar[v]).is_iso
        assert iso_test(st223.nabla[v], st223.nablabar[v]).is_iso


def test_proper_standard_is_quotient_of_standard(st223, st31):
    for st in (st223, st31):
        for v in st.order:
            d = st.delta[v]
            rows = radical_rows(d)
            if v in rows and rows[v].nrows:
                _, incl = solved_sub_representation(d, {v: rows[v]})
                q, _ = quotient_by_rows(d, incl.blocks)
            else:
                q = d
            assert iso_test(q, st.deltabar[v]).is_iso


def test_classification_flags_223(st223):
    assert st223.flags() == {
        "standardly_stratified": True, "delta_filtered_regular": True,
        "properly_stratified": True, "quasi_hereditary": True,
        "schurian": True}


def test_regular_filtration_multiplicities_223(a223, st223):
    ok, mult = filtration_test(regular_rep(a223), "delta", st223)
    assert ok and mult == {0: 2, 1: 1, 2: 2}
    # the classification's own plain walk reads the same multiplicities
    assert st223.regular_filtration == mult
    total = sum(mult[v] * sum(st223.delta[v].dim_vector()) for v in mult)
    assert total == a223.dim


def test_filtration_matches_ext_vanishing_oracle(a223, st223, b31, st31):
    # degree-one orthogonality against the (proper) costandards decides
    # filtration membership; run both pairings over the canonical sets
    for a, st in ((a223, st223), (b31, st31)):
        for _, m in canonical_test_set(a):
            in_fd = filtration_test(m, "delta", st)[0]
            no_ext = all(ext_dim(m, st.nablabar[v], 1) == 0 for v in st.order)
            assert in_fd == no_ext
            in_fdb = filtration_test(m, "deltabar", st)[0]
            no_ext = all(ext_dim(m, st.nabla[v], 1) == 0 for v in st.order)
            assert in_fdb == no_ext


def test_characteristic_tilting_223(st223):
    t = characteristic_tilting(st223)
    assert t.route == "cosyzygy"
    assert t.projdim == 2
    assert sorted(s.dim_vector() for s in t.summands) == [
        (0, 1, 0), (0, 1, 1), (1, 1, 1)]
    c = characteristic_cotilting(st223)
    assert same_add_closure(t.summands, c.summands)


def test_main_equivalences_223(st223):
    out = verify_main_equivalences(st223)
    assert (out["r"], out["i"]) == (3, 2)
    assert out["conditions"] == (True, True, True, True)
    assert out["holds"] and out["agree"]
    assert len(out["modules"]) == 7


def test_tilting_conjecture_223(st223):
    out = tilting_conjecture_report(st223)
    assert out == {"gorenstein": True, "tilting_equals_cotilting": True,
                   "verdict": "conjecture consistent"}


def test_regular_and_coregular_are_tilting_223(a223):
    rep = verify_tilting(regular_rep(a223))
    assert rep["tilting"] and rep["cotilting"]
    assert rep["projdim"] == Dim.exact(0)
    assert rep["injdim"] == Dim.exact(3)
    assert rep["coresolution_length"] == 1
    da = dualize(regular_rep(a223.opposite_algebra()))
    rep = verify_tilting(da)
    assert rep["tilting"] and rep["cotilting"]
    assert rep["projdim"] == Dim.exact(3)
    assert rep["injdim"] == Dim.exact(0)
    assert rep["coresolution_length"] == 4


def test_tilting_that_is_not_cotilting():
    # both self-injective dimensions of kupisch:3,4 are infinite, so D(A)
    # has infinite projective dimension over the opposite algebra
    a = parse_construction("kupisch:3,4")
    period = Dim.infinite(period=1, onset=2)
    assert invariants.gorenstein_dimension(a) == (period, period, False)
    rep = verify_tilting(regular_rep(a))
    assert rep["tilting"] and not rep["cotilting"]
    assert rep["injdim"] == period
    assert rep["cotilting_failure"] == (
        "D(T): projective dimension is infinite (syzygy period 1 from 2)")


def test_tilting_check_cut_off_by_the_bound_is_refused():
    # the self-injective dimension 3 of kupisch:2,2,3 reads ">=1" at bound
    # 1: cotilting is undecided, not false
    a = parse_construction("kupisch:2,2,3")
    with pytest.raises(BoundExceeded) as e:
        verify_tilting(regular_rep(a), 1)
    assert e.value.bound == 1
    assert verify_tilting(regular_rep(a), 3)["cotilting"]


def test_no_stratifying_order_455():
    rows = search_orders(nakayama_from_kupisch([4, 5, 5]))
    assert len(rows) == 6
    assert not any(r["standardly_stratified"] for r in rows)


def test_no_quasi_hereditary_order_344():
    rows = search_orders(nakayama_from_kupisch([3, 4, 4]))
    assert len(rows) == 6
    assert not any(r["quasi_hereditary"] for r in rows)


def _tower(n):
    return nakayama_from_kupisch([2] * (n - 1) + [3])


def _reference_rows(a):
    """search_orders as the trace recursion runs order by order: the
    regular module through _filt_core, cross-checked against the families
    of classify_stratification."""
    op = a.opposite_algebra()
    reg = regular_rep(a)
    rows = []
    for perm in permutations(sorted(a.quiver.vertices)):
        st = classify_stratification(a, perm)
        ss = filtration_test(reg, "deltabar", st)[0]
        op_ok = stratify._filt_core(regular_rep(op), op, perm, True)[0]
        rows.append({
            "order": perm,
            "standardly_stratified": ss,
            "delta_filtered_regular": filtration_test(reg, "delta", st)[0],
            "properly_stratified": ss and op_ok,
            "quasi_hereditary": ss and global_dimension(a).is_exact,
            "schurian": all(st.delta[v].dims[v] == 1 for v in perm),
        })
    return rows


def _loop_algebra(*relations, back=False):
    """A loop x at 1 and an arrow a from 1 to 2 (b back from 2 to 1 too,
    if asked): on these the proper and the plain standard walks differ."""
    text = ("algebra loop\nvertices 1 2\narrow x : 1 -> 1\n"
            "arrow a : 1 -> 2\n" + ("arrow b : 2 -> 1\n" if back else "")
            + "relations:\n" + "".join("    %s\n" % r for r in relations)
            + "loewy_cap 4\n")
    return parse_algebra_dsl(text).build()


REFERENCE_ALGEBRAS = pytest.mark.parametrize("build", [
    lambda: _tower(3), lambda: _tower(4), lambda: _tower(5),
    lambda: bnlambda_family(3, (1,)), lambda: bnlambda_family(4, (1, 1)),
    lambda: nakayama_from_kupisch([4, 5, 5]),
    lambda: nakayama_from_kupisch([3, 4, 4]),
    lambda: nakayama_from_kupisch([3, 3, 4]),
    lambda: _loop_algebra("x*x", "x*a"),
    lambda: _loop_algebra("x*x", "a*b", "x*a", back=True),
], ids=["tower3", "tower4", "tower5", "b3", "b4", "455", "344", "334",
        "loop", "loop-back"])


QUOTIENT_ALGEBRAS = pytest.mark.parametrize(
    "build", REFERENCE_ALGEBRAS.args[1] + [
        lambda: symmetric_chain_family(2), lambda: symmetric_chain_family(3),
        lambda: symmetric_chain_family(4), klein_endo_algebra,
        lambda: parse_construction("endo-of:symmetric_chain:3@2")],
    ids=REFERENCE_ALGEBRAS.kwargs["ids"] + [
        "sym2", "sym3", "sym4", "klein-endo", "endo-sym3"])


def _arrow_words(alg, relations):
    """Each relation as its list of (coefficient, arrow names) terms."""
    return [[(c, tuple(alg.quiver.arrows[i].name for i in p.word))
             for c, p in r.terms] for r in relations]


def _images_of_relations(a, kept):
    """A's relations, each without the terms whose path visits a vertex
    outside kept, in the form of _arrow_words; relations left with no
    term are dropped."""
    out = []
    for terms in _arrow_words(a, a.relations):
        terms = [(c, names) for c, names in terms
                 if all(a.quiver.arrow(x).source in kept
                        and a.quiver.arrow(x).target in kept for x in names)]
        if terms:
            out.append(terms)
    return out


@QUOTIENT_ALGEBRAS
def test_quotients_match_the_rediscovered_presentation(build):
    # on A and A^op, for every proper nonempty S: A/Ae_SA presented by
    # the images of A's relations has the quiver, basis, Loewy bound and
    # multiplication table of the presentation found from scratch
    a = build()
    for side in (a, a.opposite_algebra()):
        verts = side.quiver.vertices
        for size in range(1, len(verts)):
            for killed in combinations(verts, size):
                quo = side.quotient_by_idempotent_ideal(killed)
                ref = rediscovered_quotient(side, frozenset(killed))
                assert quo.quiver.vertices == ref.quiver.vertices
                assert [(x.name, x.source, x.target)
                        for x in quo.quiver.arrows] == \
                    [(x.name, x.source, x.target) for x in ref.quiver.arrows]
                assert [p.key() for p in quo.basis] == \
                    [p.key() for p in ref.basis]
                assert quo.loewy_bound == ref.loewy_bound
                assert quo.mult == ref.mult
                assert _arrow_words(quo, quo.relations) == \
                    _images_of_relations(side, set(quo.quiver.vertices))


@REFERENCE_ALGEBRAS
def test_search_orders_matches_order_by_order_recursion(build):
    # separate instances, so neither run sees the other's caches
    assert search_orders(build()) == _reference_rows(build())


def _iso_reference_layer(cur, alg, t):
    """The standard layer as decided by an isomorphism test: k = dim u /
    dim P_t when that divides, then u against P_t^k; None on failure."""
    u, _ = solved_sub_representation(
        cur, {t: linalg.Matrix.identity(cur.dims[t])})
    du = sum(u.dims.values())
    p = projective_rep(alg, t)
    dp = sum(p.dims.values())
    if du % dp:
        return None
    k = du // dp
    if k and not iso_test(u, direct_sum([p] * k)).is_iso:
        return None
    return k


@REFERENCE_ALGEBRAS
def test_standard_layer_count_matches_the_iso_reference(build):
    a = build()
    for side in (a, a.opposite_algebra()):
        verts = list(side.quiver.vertices)
        for t in verts:
            rest = [v for v in verts if v != t]
            for r in range(len(rest) + 1):
                for above in combinations(rest, r):
                    alg = side.quotient_by_idempotent_ideal(frozenset(above))
                    cur = regular_rep(alg)
                    step = stratify._layer(stratify._Chain(cur), alg, t,
                                           False)
                    assert step == _iso_reference_layer(cur, alg, t)


@REFERENCE_ALGEBRAS
def test_search_orders_decides_without_hom_or_iso_searches(
        monkeypatch, build):
    def refuse(*args):
        raise AssertionError("hom space or iso test asked for")
    for module in (modules, homology, invariants, stratify):
        for name in ("iso_test", "hom_basis"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert len(search_orders(build())) > 0


@REFERENCE_ALGEBRAS
def test_search_orders_builds_no_standard_module(monkeypatch, build):
    # the standard modules' dimension vectors are counted inside e_vA:
    # no standard, submodule or quotient module is built
    def refuse(*args, **kwargs):
        raise AssertionError("module constructed during the order search")
    monkeypatch.setattr(stratify, "_standard_at", refuse)
    for module in (modules, stratify):
        for name in ("sub_representation", "quotient_by_rows"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert len(search_orders(build())) > 0


@QUOTIENT_ALGEBRAS
def test_counted_standard_dims_match_the_built_modules(build):
    # both readings of the row builder, the counted dimension vector and
    # the built quotient, against the closure of the radical rows
    a = build()
    for side in (a, a.opposite_algebra()):
        verts = list(side.quiver.vertices)
        for v in verts:
            for r in range(len(verts) + 1):
                for cut in combinations(verts, r):
                    want = closed_standard(side, v, cut)
                    got = stratify._standard_at(side, v, cut)
                    assert (got.dims, got.mats) == (want.dims, want.mats)
                    assert stratify._standard_dims(
                        side, v, frozenset(cut)) == stratify._dimdict(want)


def _steps(side):
    """Every (t, S) with t a vertex of side and S a set of other vertices."""
    verts = list(side.quiver.vertices)
    for t in verts:
        rest = [v for v in verts if v != t]
        for r in range(len(rest) + 1):
            for above in combinations(rest, r):
                yield t, frozenset(above)


@QUOTIENT_ALGEBRAS
def test_trace_grows_read_the_quotient_layer_sizes(build):
    # on each side, for B = side/side e_S side: the grow of t on the trace
    # chain of S counts the layer of B's own regular chain, the other
    # side's grow gives dim P_B(t) and the proper standard's dimension,
    # and each verdict of the step record is _layer on a regular module
    # of a quotient: proper and plain on B, proper on B^op
    a = build()
    for side in (a, a.opposite_algebra()):
        other = side.opposite_algebra()
        for t, above in _steps(side):
            quo = side.quotient_by_idempotent_ideal(above)
            op_quo = other.quotient_by_idempotent_ideal(above)
            _, plain, proper, size = stratify._trace_grow(side, t, above)
            reg = regular_rep(quo)
            assert (plain, proper, size) == stratify._Chain(reg).grow(t)
            assert proper == reg.dims[t]
            _, op_plain, op_proper, _ = stratify._trace_grow(other, t, above)
            assert op_proper == len(quo.paths_from(t))
            assert op_plain == sum(stratify._standard_dims(
                quo, t, frozenset({t})).values())
            assert stratify._regular_step(side, t, above) == tuple(
                stratify._layer(stratify._Chain(regular_rep(alg)), alg, t,
                                bar)
                for alg, bar in ((quo, True), (quo, False), (op_quo, True)))


def _check_trace_chains(side):
    # the chain of a nonempty S is the grown chain of (max S, S - {max S})
    verts = list(side.quiver.vertices)
    for r in range(1, len(verts) + 1):
        for killed in combinations(verts, r):
            top = max(killed)
            chain = stratify._trace_grow(
                side, top, frozenset(killed) - {top})[0]
            rest = (side.quotient_by_idempotent_ideal(killed).dim
                    if r < len(verts) else 0)
            assert chain.dim == side.dim - rest
            assert chain.dim == sum(len(e) for e in chain.basis.values())


@REFERENCE_ALGEBRAS
def test_trace_chains_span_the_traces(build):
    # dim Ae_SA = dim A - dim A/Ae_SA for every S on both sides, and the
    # order search grows no memoized chain in place
    a = build()
    sides = (a, a.opposite_algebra())
    for side in sides:
        _check_trace_chains(side)
    search_orders(a)
    for side in sides:
        _check_trace_chains(side)


@REFERENCE_ALGEBRAS
def test_search_orders_builds_no_quotient_algebra(monkeypatch, build):
    def refuse(*args):
        raise AssertionError("quotient algebra built during the order search")
    a = build()
    monkeypatch.setattr(type(a), "quotient_by_idempotent_ideal", refuse)
    assert len(search_orders(a)) > 0


def _quotients_built(alg):
    return sum(1 + _quotients_built(q) for q in alg._quotients.values())


def test_search_orders_shares_steps_between_orders(monkeypatch):
    layers = []
    real = stratify._Chain.grow
    monkeypatch.setattr(stratify._Chain, "grow",
                        lambda chain, t: layers.append(t) or real(chain, t))
    n = 5
    a = _tower(n)
    search_orders(a)
    # the steps are read on trace chains: no quotient algebra on either side
    for side in (a, a.opposite_algebra()):
        assert _quotients_built(side) == 0
    # one grow per (t, set above t) on each side, shared by the three walks
    # and by the trace chains; order by order, the 120 orders took 516 steps
    assert 0 < len(layers) <= n * 2 ** n


@pytest.mark.parametrize(
    "build, grows", list(zip(REFERENCE_ALGEBRAS.args[1],
                             (14, 30, 58, 14, 26, 6, 6, 6, 8, 6))),
    ids=REFERENCE_ALGEBRAS.kwargs["ids"])
def test_search_orders_grows_only_the_steps_a_walk_reaches(
        monkeypatch, build, grows):
    # a step record, and the grows behind it, is made only while one of
    # the three walks of some order still runs; building every record
    # would grow each (t, S) on both sides
    count = []
    real = stratify._Chain.grow
    monkeypatch.setattr(stratify._Chain, "grow",
                        lambda chain, t: count.append(t) or real(chain, t))
    search_orders(build())
    assert len(count) == grows


@pytest.mark.parametrize("spec, order", [
    ("kupisch:2,2,3", (1, 2, 0)), ("bnlambda:4,1,1", (1, 2, 3, 4))])
def test_filtrations_walk_the_classified_quotients(spec, order):
    # every family's walk reads A/Ae_SA, S the vertices above each layer:
    # at most one quotient per such S on each side, none over a quotient,
    # and a second pass over the same modules builds nothing
    a = parse_construction(spec)
    st = classify_stratification(a, order)
    sides = (a, a.opposite_algebra())
    above = {frozenset(order[pos + 1:]) for pos in range(len(order))}

    def snapshot():
        return [(dict(side._quotients),
                 {s: set(q._quotients) for s, q in side._quotients.items()})
                for side in sides]

    def walk():
        for _, m in canonical_test_set(a):
            for family in stratify.FAMILIES:
                filtration_test(m, family, st)
    walk()
    first = snapshot()
    for built, inner in first:
        assert set(built) <= above
        assert not any(inner.values())
    walk()
    assert snapshot() == first


@REFERENCE_ALGEBRAS
def test_filtrations_match_the_quotient_tower_walk(build):
    # every order for n <= 4, the identity and reversed orders above that;
    # on the loop algebras the plain and proper walks differ
    a = build()
    op = a.opposite_algebra()
    verts = sorted(a.quiver.vertices)
    orders = (list(permutations(verts)) if len(verts) <= 4
              else [tuple(verts), tuple(reversed(verts))])
    mods = [m for _, m in canonical_test_set(a)]
    for order in orders:
        st = classify_stratification(a, order)
        for m in mods:
            for family in stratify.FAMILIES:
                side, probe = ((op, dualize(m)) if family.startswith("nabla")
                               else (a, m))
                want = quotient_tower_walk(probe, side, order,
                                           family.endswith("bar"))
                assert filtration_test(m, family, st) == want


@pytest.mark.parametrize("spec, order", [
    ("kupisch:2,2,3", (1, 2, 0)), ("bnlambda:4,1,1", (1, 2, 3, 4))])
def test_filtrations_build_no_module(monkeypatch, spec, order):
    # once the order is classified, a walk only counts dimensions: no
    # submodule and no quotient module is built
    a = parse_construction(spec)
    st = classify_stratification(a, order)
    mods = [m for _, m in canonical_test_set(a)]

    def refuse(*args):
        raise AssertionError("module constructed during a filtration walk")
    for module in (modules, stratify):
        for name in ("sub_representation", "quotient_by_rows"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert filtration_test(regular_rep(a), "delta", st)[0]
    for m in mods:
        for family in stratify.FAMILIES:
            filtration_test(m, family, st)


def test_tampered_standard_dims_fail_the_cross_check():
    a = nakayama_from_kupisch([2, 2, 3])
    # (1, 2, 0) filters the regular module by standards, 0 on top twice
    stratify._standard_dims(a, 0, frozenset())[1] += 1
    with pytest.raises(CertificateFailure):
        classify_stratification(a, (1, 2, 0))
    with pytest.raises(CertificateFailure):
        search_orders(a)


def test_inconclusive_iso_is_never_a_negative(monkeypatch):
    a = nakayama_from_kupisch([2, 2, 3])
    st = classify_stratification(a, (1, 2, 0))
    x, y = projective_rep(a, 0), projective_rep(a, 1)

    def stall(*args):
        raise DecompositionInconclusive("splitting search stalled")
    # decompose's splitting search is the one search left to stall
    for module in (modules, stratify):
        monkeypatch.setattr(module, "decompose", stall)
    # no Hom-basis map from X+Y to Y+X is invertible, so the summands are
    # compared; a stalled decomposition raises instead of a negative
    with pytest.raises(DecompositionInconclusive):
        iso_test(direct_sum([x, y]), direct_sum([y, x]))
    with pytest.raises(DecompositionInconclusive):
        stratify._basic_parts([x, y])
    with pytest.raises(DecompositionInconclusive):
        stratify._extension_route(st, 64)
    # Y+X after X+Y in the test set is neither dropped nor kept on an
    # undecided test
    with pytest.raises(DecompositionInconclusive):
        canonical_test_set(a, extras=[("x+y", direct_sum([x, y])),
                                      ("y+x", direct_sum([y, x]))])


@pytest.mark.parametrize("build, order", [
    (lambda: parse_construction("bnlambda:2"), (1, 2)),
    (lambda: parse_construction("bnlambda:3,1"), (1, 2, 3)),
    (lambda: parse_construction("bnlambda:4,1,1"), (1, 2, 3, 4)),
    (lambda: parse_construction("kupisch:2,2,3"), (1, 2, 0)),
    (lambda: parse_construction("kupisch:2,2,2,3"), (1, 2, 3, 0)),
    (klein_endo_algebra, (1, 2)),
], ids=["b2", "b3", "b4", "223", "2223", "klein-endo"])
def test_extension_route_agrees_with_the_cosyzygy_route(build, order):
    # on Auslander-Gorenstein inputs both routes reach the characteristic
    # tilting module: same projective dimension, same summands up to iso
    a = build()
    st = classify_stratification(a, order)
    cos = stratify._ag_route(st, auslander_gorenstein_parameter(a), 64)
    assert cos is not None and cos.route == "cosyzygy"
    ext = stratify._extension_route(st, 64)
    assert (ext.route, ext.projdim) == ("extension", cos.projdim)
    assert same_add_closure(ext.summands, cos.summands)


@pytest.mark.parametrize("spec, projdim, dims", [
    ("bnlambda:3,0", 2, [(1, 0, 0), (2, 1, 0), (2, 2, 1)]),
    ("bnlambda:4,0,1", 3,
     [(1, 0, 0, 0), (2, 1, 0, 0), (2, 2, 1, 0), (0, 1, 2, 1)]),
    ("bnlambda:4,0,0", 3,
     [(1, 0, 0, 0), (2, 1, 0, 0), (2, 2, 1, 0), (2, 2, 2, 1)]),
])
def test_extension_route_builds_the_tilting_module(spec, projdim, dims):
    # quasi-hereditary at the identity order with dominant dimension 0,
    # so only the extension route applies
    a = parse_construction(spec)
    assert algebra_dominant_dimension(a) == Dim.exact(0)
    st = classify_stratification(a, tuple(sorted(a.quiver.vertices)))
    assert st.quasi_hereditary
    t = characteristic_tilting(st)
    assert (t.route, t.projdim) == ("extension", projdim)
    assert [s.dim_vector() for s in t.summands] == dims
    rep = verify_tilting(t.module)
    assert rep["tilting"] and rep["cotilting"]
    assert rep["projdim"] == Dim.exact(projdim)


def test_extension_route_bound_caps_the_extensions():
    # over bnlambda:3,0, delta(1) needs no extension, delta(2) one and
    # delta(3) two; the refusal names the vertex and the bound
    a = parse_construction("bnlambda:3,0")
    st = classify_stratification(a, (1, 2, 3))
    for bound, v in ((0, 2), (1, 3)):
        with pytest.raises(BoundExceeded) as err:
            stratify._extension_route(st, bound)
        assert str(err.value) == ("universal extensions at %d did not "
                                  "stabilize within bound %d" % (v, bound))
    for bound in (2, 3):
        t = stratify._extension_route(st, bound)
        assert [s.dim_vector() for s in t.summands] == \
            [(1, 0, 0), (2, 1, 0), (2, 2, 1)]


def test_quasi_hereditary_needs_no_global_dimension(monkeypatch):
    # klein four: infinite global dimension whose syzygies never repeat
    def refuse(*args):
        raise AssertionError("global dimension asked for")
    monkeypatch.setattr(stratify, "global_dimension", refuse)
    assert search_orders(klein_four_like()) == [{
        "order": (1,), "standardly_stratified": True,
        "delta_filtered_regular": True, "properly_stratified": True,
        "quasi_hereditary": False, "schurian": False}]


def test_classification_flags_b31(st31):
    assert all(st31.flags().values())
    assert st31.duality_asserted


def test_characteristic_tilting_b31(b31, st31):
    t = characteristic_tilting(st31)
    assert t.projdim == 2
    assert sorted(s.dim_vector() for s in t.summands) == [
        (1, 0, 0), (1, 2, 1), (2, 1, 0)]
    simple = [s for s in t.summands if sum(s.dim_vector()) == 1]
    assert len(simple) == 1
    assert iso_test(simple[0], simple_rep(b31, 1)).is_iso
    rep = verify_tilting(t.module)
    assert rep["tilting"] and rep["cotilting"]
    assert rep["projdim"] == Dim.exact(2)
    assert rep["coresolution_length"] == 3


def test_duality_consequences_b31(st31):
    out = verify_duality_consequences(st31)
    assert (out["m"], out["gordim"], out["gldim"]) == (2, 4, 4)
    assert out["agree"]
    assert len(out["modules"]) == 11


def test_tilting_modules_are_built_once_per_stratification(monkeypatch, a223):
    # each route builds at most once for a StratData, and the opposite
    # order is classified once, however often the modules are asked for
    st = classify_stratification(a223, (1, 2, 0))
    built = []
    for name in ("_ag_route", "_extension_route"):
        def once(strat, *args, name=name, route=getattr(stratify, name)):
            assert (name, strat) not in built, "%s ran again" % name
            built.append((name, strat))
            return route(strat, *args)
        monkeypatch.setattr(stratify, name, once)
    classified = []

    def classify(a, order):
        classified.append(a)
        return classify_stratification(a, order)
    monkeypatch.setattr(stratify, "classify_stratification", classify)
    t = characteristic_tilting(st)
    assert characteristic_tilting(st) is t
    c = characteristic_cotilting(st)
    assert characteristic_cotilting(st) is c
    assert tilting_conjecture_report(st)["tilting_equals_cotilting"]
    assert (st.tilting, st.cotilting) == (t, c)
    assert classified == [a223.opposite_algebra()]
    assert len(built) == 2


def test_error_paths(a223):
    with pytest.raises(NotApplicable):
        classify_stratification(a223, (0, 1))
    a455 = nakayama_from_kupisch([4, 5, 5])
    bad = classify_stratification(a455, (0, 1, 2))
    assert not bad.standardly_stratified
    with pytest.raises(NotStratified):
        characteristic_tilting(bad)
    with pytest.raises(NotApplicable):
        verify_main_equivalences(bad)
    with pytest.raises(CertificateFailure):
        classify_stratification(a223, (1, 2, 0), duality_asserted=True)
    with pytest.raises(TooManyVertices):
        search_orders(nakayama_from_kupisch([2] * 9))
