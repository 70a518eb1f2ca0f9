import pytest
from hypothesis import given, settings, strategies as st

from quiverhom.algebra import (
    Quiver, Relation, BoundQuiverAlgebra, build_algebra, monomial_relation,
    combination_relation, nakayama_from_kupisch, klein_four_like,
    symmetric_chain_family, bnlambda_family,
)
from quiverhom import algebra, invariants, modules, stratify
from quiverhom.catalog import parse_construction
from quiverhom.errors import (
    BoundExceeded, InvalidParameters, InvalidSeries, QuotientCollapse,
)
from quiverhom.linalg import Matrix, kernel_vectors, rank

from oracles import path_normal_form, word_space_dimension


def _klein_primitive():
    arrows = [("x", 1, 1), ("y", 1, 1)]
    rels = [
        [(1, ("x", "x"))],
        [(1, ("y", "y"))],
        [(1, ("x", "y")), (-1, ("y", "x"))],
    ]
    return [1], arrows, rels, 3


def _chain_primitive(m):
    verts = list(range(1, m + 1))
    arrows = [("a%d" % i, i, i + 1) for i in range(1, m)]
    arrows += [("b%d" % i, i + 1, i) for i in range(1, m)]
    rels = []
    for i in range(1, m - 1):
        rels.append([(1, ("a%d" % i, "a%d" % (i + 1)))])
        rels.append([(1, ("b%d" % (i + 1), "b%d" % i))])
    for i in range(2, m):
        rels.append([(1, ("a%d" % i, "b%d" % i)),
                     (-1, ("b%d" % (i - 1), "a%d" % (i - 1)))])
    rels.append([(1, ("a1", "b1", "a1"))])
    rels.append([(1, ("b%d" % (m - 1), "a%d" % (m - 1), "b%d" % (m - 1)))])
    return verts, arrows, rels, 3


def test_klein_structure():
    a = klein_four_like()
    assert a.dim == 4
    assert a.loewy_bound == 3
    words = {p.word for p in a.basis}
    # yx is rewritten to xy, so only the xy word survives
    x = a.quiver.arrow("x").index
    y = a.quiver.arrow("y").index
    assert (x, y) in words
    assert (y, x) not in words
    prod = a.multiply(a.arrow_element("y"), a.arrow_element("x"))
    assert prod == path_normal_form(a, a.quiver.path_from_names(["x", "y"]))
    assert a.multiply(a.arrow_element("x"), a.arrow_element("x")) == {}


def test_klein_oracle_dim():
    verts, arrows, rels, loewy = _klein_primitive()
    assert word_space_dimension(verts, arrows, rels, loewy) == 4


def test_klein_symmetric():
    a = klein_four_like()
    lam = a.symmetric_form()
    assert lam is not None
    # defining identities, rechecked directly
    n = a.dim
    for i in range(n):
        for j in range(n):
            ab = a.multiply(a.basis_element(i), a.basis_element(j))
            ba = a.multiply(a.basis_element(j), a.basis_element(i))
            val = sum(c * lam[k] for k, c in ab.items())
            lav = sum(c * lam[k] for k, c in ba.items())
            assert val == lav
    gram = Matrix.from_rows([
        [sum(c * lam[k] for k, c in a.multiply(a.basis_element(i),
                                               a.basis_element(j)).items())
         for j in range(n)] for i in range(n)])
    assert rank(gram) == n


def test_cyclic_nakayama_dims():
    for kup in ([2, 2, 3], [2, 3], [4, 5], [3, 3, 3]):
        a = nakayama_from_kupisch(kup)
        assert a.dim == sum(kup)
        assert a.loewy_bound == max(kup)
        for i, v in enumerate(a.quiver.vertices):
            assert len(a.paths_from(v)) == kup[i]


def test_cyclic_nakayama_oracle():
    kup = [2, 2, 3]
    n = len(kup)
    arrows = [("a%d" % i, i, (i + 1) % n) for i in range(n)]
    rels = [[(1, tuple("a%d" % ((i + k) % n) for k in range(kup[i])))]
            for i in range(n)]
    assert word_space_dimension(list(range(n)), arrows, rels, max(kup)) == 7


def test_linear_nakayama():
    a = nakayama_from_kupisch([2, 2, 1], cyclic=False)
    assert a.dim == 5
    assert len(a.quiver.arrows) == 2


def test_kupisch_validation():
    with pytest.raises(InvalidSeries):
        nakayama_from_kupisch([2, 1])
    with pytest.raises(InvalidSeries):
        nakayama_from_kupisch([4, 2])
    with pytest.raises(InvalidSeries):
        nakayama_from_kupisch([])
    with pytest.raises(InvalidSeries):
        nakayama_from_kupisch([3, 1], cyclic=False)
    with pytest.raises(InvalidSeries):
        nakayama_from_kupisch([2, 2], cyclic=False)


def test_cartan_223():
    a = nakayama_from_kupisch([2, 2, 3])
    c = a.cartan_matrix()
    assert c == Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 1, 1]])


def test_symmetric_chain_dims():
    for m in (2, 3, 4):
        a = symmetric_chain_family(m)
        assert a.dim == 4 * m - 2
        assert a.loewy_bound == 3
        c = a.cartan_matrix()
        assert c == c.transpose()
        verts, arrows, rels, loewy = _chain_primitive(m)
        assert word_space_dimension(verts, arrows, rels, loewy) == 4 * m - 2


def test_symmetric_chain_is_symmetric():
    assert symmetric_chain_family(2).is_symmetric
    assert symmetric_chain_family(3).is_symmetric


# -- symmetric_form decides -------------------------------------------------

def _two_dual_numbers():
    """k[x]/x^2 times k[y]/y^2, a disconnected symmetric algebra."""
    q = Quiver([1, 2], [("x", 1, 1), ("y", 2, 2)])
    return build_algebra(q, [monomial_relation(q, ["x", "x"]),
                             monomial_relation(q, ["y", "y"])], loewy_cap=4)


SYMMETRY_PROBES = {
    name: (lambda name=name: parse_construction(name)) for name in (
        "klein_four", "symmetric_chain:2", "symmetric_chain:3",
        "symmetric_chain:4", "kupisch:3,3", "kupisch:2,2", "kupisch:2,3",
        "kupisch:2,2,3", "kupisch:3,4,4", "kupisch:4,5,5", "bnlambda:2",
        "bnlambda:3,0", "bnlambda:3,1", "bnlambda:4,1,1",
        "endo-of:klein_four@1", "endo-of:symmetric_chain:3@2")}
SYMMETRY_PROBES["dual-numbers-twice"] = _two_dual_numbers
SYMMETRIC = {"klein_four", "symmetric_chain:2", "symmetric_chain:3",
             "symmetric_chain:4", "kupisch:3,3", "dual-numbers-twice"}
_BUILT = {}


def _probe(name):
    if name not in _BUILT:
        _BUILT[name] = SYMMETRY_PROBES[name]()
    return _BUILT[name]


def _pairing(a, lam):
    """Gram matrix of (x, y) -> lam(xy) on the basis."""
    return Matrix.from_rows([
        [sum(c * lam[k] for k, c in a.multiply(a.basis_element(i),
                                               a.basis_element(j)).items())
         for j in range(a.dim)] for i in range(a.dim)])


def _gram_ranks(monkeypatch, a):
    """(symmetric_form of a, the number of ranks it took)."""
    calls = []
    orig = algebra.rank

    def counted(m):
        calls.append(m)
        return orig(m)

    monkeypatch.setattr(algebra, "rank", counted)
    return a.symmetric_form(), len(calls)


def test_symmetric_form_refuses_an_asymmetric_cartan_matrix_at_once(
        monkeypatch):
    a = nakayama_from_kupisch([2, 2, 3])
    assert a.cartan_matrix() != a.cartan_matrix().transpose()
    assert _gram_ranks(monkeypatch, a) == (None, 0)


def test_symmetric_form_tries_the_basis_then_the_moment_curve(monkeypatch):
    # Cartan-symmetric, not weakly symmetric: k = 2 symmetric functionals
    # on n = 2 vertices give k + n(k - 1) + 1 = 5 candidates, all degenerate
    a = bnlambda_family(2, [])
    assert a.cartan_matrix() == a.cartan_matrix().transpose()
    assert _gram_ranks(monkeypatch, a) == (None, 5)


def test_symmetric_form_decides_the_probes():
    assert {name for name in SYMMETRY_PROBES
            if _probe(name).is_symmetric} == SYMMETRIC


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SYMMETRY_PROBES)),
       coeffs=st.lists(st.integers(-3, 3), min_size=40, max_size=40))
def test_symmetric_form_none_means_no_nondegenerate_functional(name, coeffs):
    a = _probe(name)
    commutators = [
        [x - y for x, y in zip(a.element_vector(a.multiply(bi, bj)),
                               a.element_vector(a.multiply(bj, bi)))]
        for bi in map(a.basis_element, range(a.dim))
        for bj in map(a.basis_element, range(a.dim))]
    space = kernel_vectors(Matrix.from_rows(commutators))
    lam = a.symmetric_form()
    if lam is None:
        combo = [sum(c * v[i] for c, v in zip(coeffs, space))
                 for i in range(a.dim)]
        assert rank(_pairing(a, combo)) < a.dim
    else:
        assert all(sum(x * l for x, l in zip(row, lam)) == 0
                   for row in commutators)
        assert rank(_pairing(a, lam)) == a.dim


def test_bnlambda_dims():
    for m, lams in ((2, []), (3, [0]), (3, [1]), (4, [1, 1]), (4, [0, 1])):
        a = bnlambda_family(m, lams)
        assert a.dim == 4 * m - 3
    with pytest.raises(InvalidParameters):
        bnlambda_family(3, [2])
    with pytest.raises(InvalidParameters):
        bnlambda_family(3, [])


def test_bnlambda_oracle():
    m = 3
    arrows = [("a1", 1, 2), ("a2", 2, 3), ("b1", 2, 1), ("b2", 3, 2)]
    for lam in (0, 1):
        rels = [
            [(1, ("b2", "a2"))],
            [(1, ("b1", "a1")), (-lam, ("a2", "b2"))],
            [(1, ("a1", "a2"))],
            [(1, ("b2", "b1"))],
        ]
        rels = [[t for t in r if t[0]] for r in rels]
        assert word_space_dimension([1, 2, 3], arrows, rels, 3) == 9


def test_bound_exceeded():
    q = Quiver([0, 1], [("a", 0, 1), ("b", 1, 0)])
    with pytest.raises(BoundExceeded):
        build_algebra(q, [], loewy_cap=5)


def test_hereditary_accepts_at_longest_path():
    q = Quiver([0, 1, 2], [("a", 0, 1), ("b", 1, 2)])
    a = build_algebra(q, [])
    assert a.dim == 6
    assert a.loewy_bound == 3


def test_path_normal_form_truncates():
    a = klein_four_like()
    p = a.quiver.path_from_names(["x", "y", "x"])
    assert path_normal_form(a, p) == {}


def test_opposite_roundtrip():
    a = nakayama_from_kupisch([2, 3])
    op = a.opposite_algebra()
    assert op.opposite_algebra() is a
    assert op.dim == a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            assert op.mult[i][j] == a.mult[j][i]
    # opposite basis paths are the reversed originals
    for p, qp in zip(a.basis, op.basis):
        assert qp.source == p.target
        assert qp.word == tuple(reversed(p.word))


def test_opposite_respects_relations():
    a = symmetric_chain_family(3)
    op = a.opposite_algebra()
    # reversal of the vanishing word a1*a2 composes as a2 then a1
    p = op.quiver.path_from_names(["a2", "a1"])
    assert path_normal_form(op, p) == {}


def test_quotient_kill_vertex():
    a = nakayama_from_kupisch([2, 2, 3])
    b = a.quotient_by_idempotent_ideal([0])
    assert b.dim == 3
    assert b.quiver.vertices == (1, 2)
    assert len(b.quiver.arrows) == 1


def test_quotient_chain_to_point():
    a = symmetric_chain_family(2)
    b = a.quotient_by_idempotent_ideal([2])
    assert b.dim == 1
    assert b.quiver.vertices == (1,)
    assert b.quiver.arrows == ()


def test_quotient_cached_and_guarded():
    a = nakayama_from_kupisch([2, 2, 3])
    assert a.quotient_by_idempotent_ideal([0]) is a.quotient_by_idempotent_ideal([0])
    assert a.quotient_by_idempotent_ideal([]) is a
    with pytest.raises(QuotientCollapse):
        a.quotient_by_idempotent_ideal([0, 1, 2])
    with pytest.raises(InvalidParameters):
        a.quotient_by_idempotent_ideal([7])


def test_relation_validation():
    q = Quiver([0, 1], [("a", 0, 1), ("b", 1, 0)])
    with pytest.raises(InvalidParameters):
        Relation([(1, q.path_from_names(["a"]))])
    with pytest.raises(InvalidParameters):
        combination_relation(q, [(1, ["a", "b"]), (1, ["b", "a"])])


def test_idempotents_and_one():
    a = nakayama_from_kupisch([2, 3])
    # the idempotents sit on distinct basis paths, so their sum is a merge
    one = {i: c for v in a.quiver.vertices
           for i, c in a.idempotent(v).items()}
    for i in range(a.dim):
        x = a.basis_element(i)
        assert a.multiply(one, x) == x
        assert a.multiply(x, one) == x
    e0 = a.idempotent(0)
    assert a.multiply(e0, e0) == e0
    assert a.multiply(e0, a.idempotent(1)) == {}


# -- one memo owns every value cache ----------------------------------------

# (memoized function, arguments after the owner)
MEMOIZED = [
    (modules.simple_rep, (0,)),
    (modules.projective_from_vertices, ((0,),)),
    (invariants.injective_projective_vertices, ()),
    (invariants.algebra_dominant_dimension, (8,)),
    (invariants.global_dimension, (8,)),
    (invariants.gorenstein_dimension, (8,)),
    (stratify._regular_step, (0, frozenset({1}))),
    (stratify._trace_grow, (0, frozenset())),
    (stratify._standard_dims, (0, frozenset({1}))),
    (BoundQuiverAlgebra.symmetric_form, ()),
]


@pytest.mark.parametrize("fn,args", MEMOIZED,
                         ids=[fn.__name__ for fn, _ in MEMOIZED])
def test_memo_computes_once_per_owner_and_arguments(monkeypatch, fn, args):
    calls = []
    undecorated = fn.__wrapped__

    def counting(owner, *a, **kw):
        calls.append((owner, a))
        return undecorated(owner, *a, **kw)

    monkeypatch.setattr(fn, "__wrapped__", counting)
    a, b = (nakayama_from_kupisch([2, 2, 3]) for _ in range(2))
    first = fn(a, *args)
    assert fn(a, *args) is first
    assert calls == [(a, args)]
    fn(b, *args)
    assert calls == [(a, args), (b, args)]


def test_memo_takes_keyword_arguments():
    a = nakayama_from_kupisch([2, 2, 3])
    by_name = invariants.global_dimension(a, bound=0)
    assert by_name == invariants.global_dimension(a, 0)
    assert invariants.global_dimension(a, bound=0) is by_name


def test_memo_keeps_an_algebra_apart_from_its_opposite():
    a = nakayama_from_kupisch([2, 3, 3])
    op = a.opposite_algebra()
    assert invariants.injective_projective_vertices(a) == (1, 2)
    assert invariants.injective_projective_vertices(op) == (0, 1)
    key = ("injective_projective_vertices",)
    assert (a._cache[key], op._cache[key]) == ((1, 2), (0, 1))


def test_injective_rep_is_the_shared_dual_projective():
    a = nakayama_from_kupisch([2, 3, 3])
    for v in a.quiver.vertices:
        inj = modules.injective_rep(a, v)
        assert inj is modules.injective_rep(a, v)
        assert inj is modules.dualize(
            modules.projective_rep(a.opposite_algebra(), v))
