from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    fraction_solve_xa_b, reduced_quotient_by_rows, searched_iso_test,
    solved_sub_representation, total_space_is_faithful,
)
from test_stratify import REFERENCE_ALGEBRAS

from quiverhom import invariants, linalg, modules
from quiverhom.catalog import parse_construction
from quiverhom.errors import (
    CertificateFailure, DecompositionInconclusive, InvalidParameters,
)
from quiverhom.algebra import (
    Quiver, build_algebra, klein_four_like, monomial_relation,
    nakayama_from_kupisch,
)
from quiverhom.linalg import Matrix
from quiverhom.modules import (
    Representation, ModuleMap, zero_rep, simple_rep, projective_rep,
    projective_map, regular_rep, injective_rep,
    dualize, direct_sum, summand_inclusion, summand_projection,
    radical_rows, socle_rows, top_dims, socle_dims,
    sub_representation, cyclic_submodule, quotient_by_rows,
    kernel_of_map, cokernel_of_map, hom_basis,
    iso_test, decompose, uniserial_quotient, radical_power_rows,
    is_faithful, map_in_span, _map_from_flat, same_add_closure,
    first_of_each_iso_class,
)
from quiverhom.invariants import all_uniserial_quotients, canonical_test_set


@pytest.fixture(scope="module")
def naka223():
    return nakayama_from_kupisch([2, 2, 3])


@pytest.fixture(scope="module")
def klein():
    return klein_four_like()


def test_projective_dims(naka223):
    assert projective_rep(naka223, 0).dim_vector() == (1, 1, 0)
    assert projective_rep(naka223, 1).dim_vector() == (0, 1, 1)
    assert projective_rep(naka223, 2).dim_vector() == (1, 1, 1)
    assert regular_rep(naka223).total_dim == 7


def test_injective_dims(naka223):
    assert injective_rep(naka223, 0).dim_vector() == (1, 0, 1)
    assert injective_rep(naka223, 1).dim_vector() == (1, 1, 1)
    assert injective_rep(naka223, 2).dim_vector() == (0, 1, 1)


def test_proj_inj_matches(naka223):
    r = iso_test(injective_rep(naka223, 1), projective_rep(naka223, 2))
    assert r.is_iso
    r = iso_test(injective_rep(naka223, 2), projective_rep(naka223, 1))
    assert r.is_iso
    r = iso_test(injective_rep(naka223, 0), projective_rep(naka223, 0))
    assert r.kind == "not_iso"


def test_double_dual_is_identity(naka223):
    m = projective_rep(naka223, 2)
    assert dualize(dualize(m)) is m


def test_top_socle(naka223):
    p2 = projective_rep(naka223, 2)
    assert top_dims(p2) == (0, 0, 1)
    assert socle_dims(p2) == (0, 1, 0)
    top, proj = quotient_by_rows(p2, radical_rows(p2))
    assert top.dim_vector() == (0, 0, 1)
    assert proj.is_surjective()
    soc, incl = sub_representation(p2, socle_rows(p2))
    assert soc.dim_vector() == (0, 1, 0)
    assert incl.is_injective()


def test_yoneda_hom_dims(naka223):
    mods = [projective_rep(naka223, 1), injective_rep(naka223, 0),
            simple_rep(naka223, 2)]
    for m in mods:
        for i, v in enumerate(naka223.quiver.vertices):
            assert len(hom_basis(projective_rep(naka223, v), m)) == \
                m.dim_vector()[i]


def test_vertex_trace(naka223):
    p2 = projective_rep(naka223, 2)
    # the trace of vertex 0: the smallest submodule containing P(2)e_0,
    # its rows closed by the reference fixpoint
    _, ref = solved_sub_representation(p2, {0: Matrix.identity(p2.dims[0])})
    sub, incl = sub_representation(p2, ref.blocks)
    assert sub.dim_vector() == (1, 1, 0)
    assert incl.is_injective()


def test_klein_principal_submodule(klein):
    a = klein
    reg = regular_rep(a)
    x_row = a.element_vector(a.arrow_element("x"))
    xa, incl = cyclic_submodule(reg, 1, x_row)
    assert xa.total_dim == 2
    assert top_dims(xa) == (1,)
    assert socle_dims(xa) == (1,)


def test_projective_map_cover(naka223):
    p = projective_rep(naka223, 2)
    s = simple_rep(naka223, 2)
    f = projective_map(p, s, [[1]])
    assert f.is_surjective()
    ker, incl = kernel_of_map(f)
    assert ker.dim_vector() == (1, 1, 0)
    coker, proj = cokernel_of_map(incl)
    assert coker.dim_vector() == s.dim_vector()


def test_quotient_roundtrip(naka223):
    p = projective_rep(naka223, 2)
    _, ref = solved_sub_representation(p, {0: Matrix.identity(p.dims[0])})
    sub, incl = sub_representation(p, ref.blocks)
    quot, proj = quotient_by_rows(p, incl.blocks)
    assert quot.total_dim == p.total_dim - sub.total_dim
    assert incl.then(proj).is_zero()


def test_direct_sum_slices(naka223):
    parts = [projective_rep(naka223, 0), simple_rep(naka223, 1)]
    tot = direct_sum(parts)
    assert tot.total_dim == 3
    inc = summand_inclusion(tot, parts, 1)
    prj = summand_projection(tot, parts, 1)
    comp = inc.then(prj)
    for v in naka223.quiver.vertices:
        assert comp.block(v) == Matrix.identity(parts[1].dims[v])


def test_decompose_regular(naka223):
    parts = decompose(regular_rep(naka223))
    dimvecs = sorted(p.dim_vector() for p in parts)
    assert dimvecs == sorted([(1, 1, 0), (0, 1, 1), (1, 1, 1)])


def test_decompose_square(naka223):
    m = direct_sum([projective_rep(naka223, 0), projective_rep(naka223, 0)])
    parts = decompose(m)
    assert len(parts) == 2
    for p in parts:
        assert iso_test(p, projective_rep(naka223, 0)).is_iso


def test_decompose_indecomposable_certificate(klein):
    reg = regular_rep(klein)
    x_row = klein.element_vector(klein.arrow_element("x"))
    xa, _ = cyclic_submodule(reg, 1, x_row)
    # End(xA) is 2-dimensional and local; stays in one piece
    assert len(hom_basis(xa, xa)) == 2
    assert decompose(xa) == [xa]


def test_uniserial_quotient():
    a = nakayama_from_kupisch([4, 5])
    m = uniserial_quotient(a, 0, 2)
    assert m.dim_vector() == (1, 1)
    assert top_dims(m) == (1, 0)
    m3 = uniserial_quotient(a, 1, 3)
    assert m3.total_dim == 3


def test_radical_power(naka223):
    p = projective_rep(naka223, 2)
    r1 = radical_power_rows(p, 1)
    assert sum(r.nrows for r in r1.values()) == 2
    r3 = radical_power_rows(p, 3)
    assert sum(r.nrows for r in r3.values()) == 0


def test_faithfulness(naka223):
    assert is_faithful(regular_rep(naka223))
    assert not is_faithful(simple_rep(naka223, 0))


def _socle_quotients(a):
    """A/kp for each basis path p that every arrow kills on both sides: kp
    is a two-sided ideal, so A/kp is annihilated by p alone and fails
    faithfulness at p's pair of endpoints only."""
    reg = regular_rep(a)
    arrows = a._arrow_basis.values()
    out = []
    for t in a.quiver.vertices:
        for r, (_, i) in enumerate(reg.proj_row_paths[t]):
            if a.basis[i].word and not any(a.mult[i][x] or a.mult[x][i]
                                           for x in arrows):
                row = [int(k == r) for k in range(reg.dims[t])]
                out.append(quotient_by_rows(reg, {t: [row]})[0])
    return out


@REFERENCE_ALGEBRAS
def test_faithfulness_matches_the_total_space_reference(build):
    a = build()
    mods = [m for _, m in canonical_test_set(a)] + [zero_rep(a),
                                                    regular_rep(a)]
    mods += _socle_quotients(a)
    got = [is_faithful(m) for m in mods]
    assert got == [total_space_is_faithful(m) for m in mods]
    assert set(got) == {True, False}


def test_hom_maps_are_natural(naka223):
    m = projective_rep(naka223, 2)
    n = injective_rep(naka223, 1)
    for f in hom_basis(m, n):
        ModuleMap(m, n, f.blocks, validate=True)


def test_zero_module_edge_cases(naka223):
    z = zero_rep(naka223)
    assert z.is_zero()
    assert iso_test(z, zero_rep(naka223)).is_iso
    assert decompose(z) == []
    assert hom_basis(z, projective_rep(naka223, 0)) == []


# -- the candidate list ----------------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_iso_search_builds_no_combination_when_a_basis_map_succeeds(
        monkeypatch, naka223):
    calls = _count_calls(monkeypatch, modules, "linear_combination")
    r = iso_test(injective_rep(naka223, 1), projective_rep(naka223, 2))
    assert r.is_iso
    assert calls == []
    # the counter sees the moment-curve points of a search that exhausts
    # the basis: End(M) = Q(sqrt 2) has s = 2, so t = 1 only, as the point
    # at t = 0 is the basis map g_0
    m = _kronecker_sqrt2()
    assert decompose(m) == [m]
    assert len(calls) == 1


def test_local_certificate_skips_the_splitting_search(
        monkeypatch, klein, naka223):
    calls = _count_calls(monkeypatch, modules, "minimal_polynomial")
    xa, _ = cyclic_submodule(regular_rep(klein), 1, [0, 1, 0, 0])
    assert decompose(xa) == [xa]
    for v in naka223.quiver.vertices:
        p = projective_rep(naka223, v)
        assert decompose(p) == [p]
    assert calls == []
    # a decomposable module still goes through the search
    parts = decompose(regular_rep(naka223))
    assert sorted(m.dim_vector() for m in parts) == sorted(
        projective_rep(naka223, v).dim_vector()
        for v in naka223.quiver.vertices)
    assert calls


def test_symmetric_form_unchanged():
    assert klein_four_like().symmetric_form() == tuple(
        Fraction(x) for x in (0, 0, 0, 1))
    # k[x]/x^2 times k[y]/y^2: no basis functional is nondegenerate, so
    # the answer is a point of the moment curve, the sum of the basis at t = 1
    q = Quiver([1, 2], [("x", 1, 1), ("y", 2, 2)])
    a = build_algebra(q, [monomial_relation(q, ["x", "x"]),
                          monomial_relation(q, ["y", "y"])], loewy_cap=4)
    assert a.symmetric_form() == (1, 1, 1, 1)


# -- exact isomorphism against Auslander's oracle ---------------------------

def _oracle_reasons(pool, indecs):
    """Check iso_test on every pair of the pool against the Hom-dimension
    profiles; return the reasons it gave."""
    profile = [tuple(len(hom_basis(x, m)) for x in indecs) for m in pool]
    reasons = set()
    for i, m in enumerate(pool):
        for j in range(i, len(pool)):
            r = iso_test(m, pool[j])
            assert r.is_iso == (profile[i] == profile[j])
            if r.is_iso and r.map is not None:
                assert r.map.is_iso()
            reasons.add(r.reason)
    return reasons


@pytest.mark.parametrize("kupisch", [[2, 2, 3], [3, 4, 4]])
def test_iso_test_matches_hom_dimensions_from_indecomposables(kupisch):
    """Auslander: M and N are isomorphic iff dim Hom(X, M) = dim Hom(X, N)
    for every indecomposable X; on a Nakayama algebra the uniserial
    quotients of the projectives are all of them."""
    a = nakayama_from_kupisch(kupisch)
    indecs = [m for _, m in all_uniserial_quotients(a)]
    tests = [m for _, m in canonical_test_set(a)]
    first = tests[:6]
    pool = tests + [direct_sum([x, y]) for i, x in enumerate(first)
                    for j, y in enumerate(first) if i != j]
    # X+Y against Y+X: no basis map is invertible, the summands match
    assert "summands match" in _oracle_reasons(pool, indecs)
    pairs = [direct_sum([x, y]) for i, x in enumerate(indecs)
             for y in indecs[i:]]
    reasons = _oracle_reasons(pairs, indecs)
    if kupisch == [3, 4, 4]:
        assert "summands differ" in reasons


@REFERENCE_ALGEBRAS
def test_iso_test_agrees_with_the_searched_reference(build, monkeypatch):
    # every module canonical_test_set considers before it drops repeats,
    # so that equal data, isomorphic modules with different data and
    # modules with equal dimension vectors all meet
    a = build()
    with monkeypatch.context() as mp:
        mp.setattr(invariants, "first_of_each_iso_class",
                   lambda mods: range(len(mods)))
        mods = [m for _, m in canonical_test_set(a)]
    for i, m in enumerate(mods):
        for n in mods[i:]:
            got, want = iso_test(m, n), searched_iso_test(m, n)
            assert got.is_iso == want.is_iso
            # on equal data iso_test returns the identity, unsearched
            if m.mats != n.mats:
                assert got.reason == want.reason
                assert (got.map is None) == (want.map is None)
                if got.map is not None:
                    assert got.map.blocks == want.map.blocks

    def refuse(*args):
        raise AssertionError("equal data needs no search")
    monkeypatch.setattr(modules, "hom_basis", refuse)
    monkeypatch.setattr(modules, "decompose", refuse)
    for m in mods:
        copy = Representation(m.algebra, m.dims, m.mats)
        r = iso_test(m, copy)
        assert r.is_iso
        f = ModuleMap(m, copy, r.map.blocks, validate=True)
        assert (r.map.source, r.map.target) == (m, copy) and f.is_iso()


def _all_pairs_dedupe(mods):
    """The deduplication canonical_test_set made before it compared a
    module only with kept modules of its dimension vector."""
    out = []
    for i, rep in enumerate(mods):
        if rep.is_zero():
            continue
        if any(iso_test(rep, mods[j]).is_iso for j in out):
            continue
        out.append(i)
    return out


@REFERENCE_ALGEBRAS
def test_dedupe_keeps_what_the_all_pairs_loop_keeps(build, monkeypatch):
    a = build()
    with monkeypatch.context() as mp:
        mp.setattr(invariants, "first_of_each_iso_class",
                   lambda mods: range(len(mods)))
        mods = [m for _, m in canonical_test_set(a)]
    assert first_of_each_iso_class(mods) == _all_pairs_dedupe(mods)


@pytest.mark.parametrize("fn", [radical_rows, socle_rows, hom_basis],
                         ids=["radical_rows", "socle_rows", "hom_basis"])
def test_module_memo_computes_once_per_module_and_argument(monkeypatch, fn):
    calls = []
    undecorated = fn.__wrapped__

    def counting(owner, *a):
        calls.append((owner, a))
        return undecorated(owner, *a)

    monkeypatch.setattr(fn, "__wrapped__", counting)
    a = nakayama_from_kupisch([2, 2, 3])
    m, n = projective_rep(a, 0), injective_rep(a, 1)
    args = [(n,), (m,)] if fn is hom_basis else [()]
    values = [fn(m, *arg) for arg in args]
    assert all(fn(m, *arg) is v for arg, v in zip(args, values))
    assert calls == [(m, arg) for arg in args]
    # a module with equal data is another owner, and another argument
    copy = Representation(m.algebra, m.dims, m.mats)
    got = fn(copy, *args[0])
    assert calls[-1] == (copy, args[0]) and got is not values[0]
    if fn is hom_basis:
        assert [f.blocks for f in got] == [f.blocks for f in values[0]]
        n_copy = Representation(n.algebra, n.dims, n.mats)
        fn(m, n_copy)
        assert calls[-1] == (m, (n_copy,))
    else:
        assert got == values[0]
    assert len(calls) == len(args) + 1 + (fn is hom_basis)


def _kronecker_algebra():
    q = Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
    return build_algebra(q, [], loewy_cap=2)


def _kronecker_root(k, c):
    """Kronecker module over k with M_a = I and M_b = [[0, c], [1, 0]]: for
    c not a rational square End(M) is Q(sqrt c), a field, so M is
    indecomposable, and no endomorphism has a split minimal polynomial."""
    return Representation(k, {1: 2, 2: 2}, {
        "a": Matrix.identity(2), "b": Matrix.from_rows([[0, c], [1, 0]])})


def _kronecker_sqrt2():
    return _kronecker_root(_kronecker_algebra(), 2)


def _change_basis(m, mix):
    """m with the component at each vertex v moved by the invertible
    matrix mix[v]: arrow a: s -> t acts by mix[s]^-1 M_a mix[t], and the
    blocks mix[v] are an isomorphism from m to the result."""
    inv = {v: linalg.solve_linear(p, Matrix.identity(p.nrows))
           for v, p in mix.items()}
    q = m.algebra.quiver
    return Representation(m.algebra, m.dims, {
        a.index: inv[a.source] @ m.mats[a.index] @ mix[a.target]
        for a in q.arrows})


def _unitriangular_mix(n):
    """U L with U and L the unit upper and lower triangular matrices of
    ones: determinant 1, and no entry zero."""
    u = Matrix.from_rows([[int(j >= i) for j in range(n)] for i in range(n)])
    return u @ u.transpose()


def test_kronecker_sqrt2_is_decided_and_its_sums_match():
    m = _kronecker_sqrt2()
    assert decompose(m) == [m]
    r = iso_test(direct_sum([m, m]), direct_sum([m, m]))
    assert r.is_iso and r.map.is_iso()
    # the same sum after a basis change at vertex 2 in one summand differs
    # in data; its summands are decided and match
    g = Matrix.from_rows([[1, 1], [0, 1]])
    moved = Representation(m.algebra, m.dims,
                           {i: x @ g for i, x in m.mats.items()})
    r = iso_test(direct_sum([m, m]), direct_sum([m, moved]))
    assert r.is_iso and r.reason == "summands match"


def test_quadratic_fields_and_a_simple_split_after_a_basis_change():
    k = _kronecker_algebra()
    parts = [_kronecker_root(k, 2), _kronecker_root(k, 3), simple_rep(k, 2)]
    total = direct_sum(parts)
    mixed = _change_basis(total, {v: _unitriangular_mix(d)
                                  for v, d in total.dims.items()})
    assert mixed.mats != total.mats
    got = decompose(mixed)
    assert len(got) == 3
    assert same_add_closure(got, parts)


def test_noncommutative_top_refuses_only_when_nothing_splits(monkeypatch):
    # End(M + M) / rad is M_2(Q(sqrt 2)), not commutative; with every
    # split withheld the curve is exhausted and the refusal names it,
    # while M alone, End(M) = Q(sqrt 2), is still decided
    monkeypatch.setattr(modules, "_coprime_split", lambda coeffs: None)
    m = _kronecker_sqrt2()
    with pytest.raises(DecompositionInconclusive, match="not commutative"):
        decompose(direct_sum([m, m]))
    assert decompose(m) == [m]


def _distinct_indecomposables():
    """Pairwise non-isomorphic indecomposables: every uniserial module of
    kupisch:3,4,4, and Kronecker modules with End(M) = Q, Q(sqrt 2),
    Q(sqrt 3) and Q(i)."""
    k = _kronecker_algebra()
    return [
        [m for _, m in all_uniserial_quotients(nakayama_from_kupisch(
            [3, 4, 4]))],
        [simple_rep(k, 1), simple_rep(k, 2), projective_rep(k, 1)]
        + [_kronecker_root(k, c) for c in (2, 3, -1)]]


_POOLS = _distinct_indecomposables()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_decompose_recovers_distinct_summands_after_a_basis_change(data):
    pool = data.draw(st.sampled_from(_POOLS))
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                             max_size=4, unique=True))
    parts = [pool[i] for i in idx]
    total = direct_sum(parts)
    mix = {}
    for v, d in total.dims.items():
        p = Matrix.identity(d)
        steps = data.draw(st.integers(0, 2 * d)) if d > 1 else 0
        for _ in range(steps):
            i, j = data.draw(st.sampled_from(
                [(i, j) for i in range(d) for j in range(d) if i != j]))
            e = [[int(r == c) for c in range(d)] for r in range(d)]
            e[i][j] = data.draw(st.sampled_from([-2, -1, 1, 2]))
            p = p @ Matrix.from_rows(e)
        mix[v] = p
    got = decompose(_change_basis(total, mix))
    assert len(got) == len(parts)
    assert same_add_closure(got, parts)


def test_equal_data_over_different_algebras_is_refused():
    m = _kronecker_sqrt2()
    other = _kronecker_sqrt2()
    assert other.mats == m.mats
    with pytest.raises(InvalidParameters):
        iso_test(m, other)


SUBQUOTIENT_ALGEBRAS = pytest.mark.parametrize(
    "build", REFERENCE_ALGEBRAS.args[1] + [
        lambda: parse_construction("endo-of:klein_four@1"),
        lambda: parse_construction("endo-of:symmetric_chain:3@2")],
    ids=REFERENCE_ALGEBRAS.kwargs["ids"] + ["klein-endo1", "endo-sym3"])

_TEST_MODULES = {}


def _test_modules(build):
    """The canonical test modules of build(), made once per session."""
    if build not in _TEST_MODULES:
        _TEST_MODULES[build] = [m for _, m in canonical_test_set(build())]
    return _TEST_MODULES[build]


def _outcome(construct, m, *args):
    """(dims, arrow matrices, blocks of the map), or the type of the
    refusal."""
    try:
        obj, f = construct(m, *args)
    except (CertificateFailure, InvalidParameters) as e:
        return type(e)
    return obj.dims, obj.mats, f.blocks


def _with_dependent_rows(rows, data):
    """The rows, some vertices with combinations of their rows appended
    (a row twice, or the sum of two of them)."""
    out = {}
    for v, rs in rows.items():
        rs = [list(r) for r in rs]
        if rs and data.draw(st.booleans()):
            pick = st.integers(0, len(rs) - 1)
            i, j = data.draw(pick), data.draw(pick)
            rs.append([2 * x - y for x, y in zip(rs[i], rs[j])])
        out[v] = rs
    return out


@SUBQUOTIENT_ALGEBRAS
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_sub_and_quotient_match_the_solved_references(build, data):
    # random rows (mostly not closed), their closure (closed rows), both
    # with dependent rows mixed in, and no rows at all: the matrices read
    # off the echelon rows equal the solved ones, and both refuse alike.
    # In m + m, the rows (u, c u) span the graph of c times the inclusion
    # of the rows u, closed when the u are, with echelon rows that are not
    # unit rows.  The submodule a random row generates, the image of a map
    # from a projective, is the reference closure of that row.
    m = data.draw(st.sampled_from(_test_modules(build)))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    raw = {v: data.draw(st.lists(st.lists(entry, min_size=m.dims[v],
                                          max_size=m.dims[v]), max_size=2))
           for v in m.algebra.quiver.vertices}
    _, incl = solved_sub_representation(m, raw)
    closed = {v: b.data for v, b in incl.blocks.items()}
    c = data.draw(st.sampled_from([-1, 2, 3]))
    pair = direct_sum([m, m])

    def graph(rows):
        return {v: [list(r) + [c * x for x in r] for r in rs]
                for v, rs in rows.items()}
    for mod, rows in ((m, {}), (m, closed), (pair, graph(closed)),
                      (m, _with_dependent_rows(closed, data)), (m, raw),
                      (pair, graph(raw)),
                      (m, _with_dependent_rows(raw, data))):
        assert _outcome(sub_representation, mod, rows) == \
            _outcome(solved_sub_representation, mod, rows, False)
        assert _outcome(quotient_by_rows, mod, rows) == \
            _outcome(reduced_quotient_by_rows, mod, rows)
    for mod, rows in ((m, closed), (pair, graph(closed))):
        assert _outcome(sub_representation, mod, rows) != CertificateFailure
        assert _outcome(quotient_by_rows, mod, rows) != InvalidParameters
    for v, rs in raw.items():
        for row in rs:
            assert _outcome(cyclic_submodule, m, v, row) == \
                _outcome(solved_sub_representation, m, {v: [row]})


@pytest.mark.parametrize("build", REFERENCE_ALGEBRAS.args[1][:6],
                         ids=REFERENCE_ALGEBRAS.kwargs["ids"][:6])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_map_in_span_matches_the_fraction_solve(build, data):
    mods = _test_modules(build)
    m, n = data.draw(st.sampled_from(mods)), data.draw(st.sampled_from(mods))
    basis = hom_basis(m, n)
    maps = [f for f in basis if data.draw(st.booleans())]
    zero = ModuleMap.zero(m, n)
    width = len(modules.flat_blocks(zero))
    rows = [modules.flat_blocks(f) for f in maps]
    coeffs = [data.draw(st.integers(-2, 2)) for _ in maps]
    inside = linalg.linear_combination(coeffs, rows) if rows else [0] * width
    anywhere = data.draw(st.lists(st.integers(-1, 1), min_size=width,
                                  max_size=width))
    for vec in (inside, anywhere):
        want = fraction_solve_xa_b(rows, [vec], width) is not None
        assert map_in_span(_map_from_flat(zero, vec), maps) == want
    assert map_in_span(_map_from_flat(zero, inside), maps)


def test_map_in_span_decides_both_ways(naka223):
    p = regular_rep(naka223)
    basis = hom_basis(p, p)
    assert len(basis) == 7
    assert map_in_span(basis[0], basis)
    assert not map_in_span(basis[-1], basis[:-1])
    assert map_in_span(ModuleMap.zero(p, p), [])
    assert not map_in_span(basis[0], [])
