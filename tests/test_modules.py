import random
from fractions import Fraction

import pytest

from oracles import total_space_is_faithful
from test_stratify import REFERENCE_ALGEBRAS

from quiverhom import linalg, modules
from quiverhom.algebra import (
    Quiver, build_algebra, klein_four_like, monomial_relation,
    nakayama_from_kupisch,
)
from quiverhom.linalg import Matrix, seeded_combinations
from quiverhom.modules import (
    Representation, ModuleMap, zero_rep, simple_rep, projective_rep,
    projective_from_vertices, projective_map, regular_rep, injective_rep,
    dualize, direct_sum, summand_inclusion, summand_projection,
    radical_rows, top_dims, socle_dims, socle_submodule,
    sub_representation, cyclic_submodule, quotient_by_rows,
    quotient_by_submodule, kernel_of_map, cokernel_of_map, hom_basis,
    iso_test, decompose, uniserial_quotient, radical_power_rows,
    is_faithful, _seeded_maps,
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
    soc, incl = socle_submodule(p2)
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
    # the trace of vertex 0: the smallest submodule containing P(2)e_0
    sub, incl = sub_representation(p2, {0: Matrix.identity(p2.dims[0])})
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
    sub, incl = sub_representation(p, {0: Matrix.identity(p.dims[0])})
    quot, proj = quotient_by_submodule(p, incl)
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


# -- the seeded search ------------------------------------------------------

def _eager_candidates(maps, budget, seed):
    """Reference: every candidate built up front, each combination as a
    chain of block additions and scalings."""
    out = list(maps)
    rng = random.Random(seed)
    while len(out) < budget:
        coeffs = [rng.randint(-3, 3) for _ in maps]
        f = ModuleMap.zero(maps[0].source, maps[0].target)
        for c, g in zip(coeffs, maps):
            if c:
                f = ModuleMap(f.source, f.target,
                              {v: f.blocks[v] + g.blocks[v].scale(c)
                               for v in f.blocks}, validate=False)
        out.append(f)
    return out


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_seeded_maps_match_the_eager_loop(klein, naka223):
    reg = regular_rep(klein)
    for m in (reg, regular_rep(naka223)):
        endos = hom_basis(m, m)
        for seed in (0, 3):
            lazy = list(_seeded_maps(endos, 24, seed))
            eager = _eager_candidates(endos, 24, seed)
            assert len(lazy) == 24
            assert [f.blocks for f in lazy] == [f.blocks for f in eager]


def test_seeded_combinations_of_vectors():
    vecs = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(-1)]]
    got = list(seeded_combinations(vecs, 5, 1))
    rng = random.Random(1)
    want = list(vecs)
    for _ in range(3):
        c = [rng.randint(-3, 3) for _ in vecs]
        want.append([c[0] * vecs[0][i] + c[1] * vecs[1][i] for i in range(2)])
    assert got == want
    assert all(isinstance(x, Fraction) for v in got for x in v)
    assert list(seeded_combinations([], 5, 1)) == []
    assert list(seeded_combinations(vecs, 1, 1)) == vecs


def test_iso_search_builds_no_combination_when_a_basis_map_succeeds(
        monkeypatch, naka223):
    calls = _count_calls(monkeypatch, linalg, "linear_combination")
    r = iso_test(injective_rep(naka223, 1), projective_rep(naka223, 2))
    assert r.is_iso
    assert calls == []


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
    # the answer is a seeded combination
    q = Quiver([1, 2], [("x", 1, 1), ("y", 2, 2)])
    a = build_algebra(q, [monomial_relation(q, ["x", "x"]),
                          monomial_relation(q, ["y", "y"])], loewy_cap=4)
    assert a.symmetric_form() == tuple(Fraction(x) for x in (0, 3, 3, -1))


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
