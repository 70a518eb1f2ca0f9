"""Projectives are built once per vertex tuple, relations are checked once
per construction and once per indecomposable projective, and sympy is
imported only for a minimal polynomial with no rational root: decompose
splits off linear factors in integer arithmetic, in the order sympy's
factor_list would give, so the paper examples never load sympy.

Constructions that prove their relations (sub_representation,
quotient_by_rows, dualize, sums of several projectives) skip
Representation._check_relations, and maps that commute with the arrows by
construction (projective_map, the inclusion of sub_representation) skip
the ModuleMap check; the differential tests run each check on every
construction anyway and assert that nothing fails and that no answer
changes."""
import os
import subprocess
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    is_irreducible_over_q, solved_sub_representation, sympy_coprime_split,
)
from test_stratify import REFERENCE_ALGEBRAS

from quiverhom import homology, modules
from quiverhom.algebra import Path, bnlambda_family, nakayama_from_kupisch
from quiverhom.catalog import parse_construction
from quiverhom.errors import CertificateFailure, InvalidParameters
from quiverhom.homology import ext_dims, projective_cover
from quiverhom.invariants import canonical_test_set
from quiverhom.linalg import Matrix
from quiverhom.modules import (
    ModuleMap, Representation, decompose, direct_sum, dualize,
    projective_from_vertices, projective_map, projective_rep,
    quotient_by_rows, regular_rep, simple_rep, sub_representation,
    uniserial_quotient, _coprime_split,
)
from quiverhom.stratify import search_orders
from quiverhom.verify import verify_paper_example

FAST_IDS = [
    "ex3.1-n3", "ex3.1-n4", "ex3.1-n5", "ex3.2", "ex3.3", "ex3.6-d1",
    "ex3.6-d2", "ex3.6-parity", "prop4.4-B3lambda0", "thm4.7-n2",
    "lemma4.3-n3", "lemma4.3-n4", "props-core", "props-benson", "props-ext",
    "props-quadruple",
]


def _ext_table(kupisch):
    a = nakayama_from_kupisch(kupisch)
    mods = [m for _, m in canonical_test_set(a)]
    return [ext_dims(m, n, 3) for m in mods for n in mods]


def _reports():
    return ([verify_paper_example(eid) for eid in FAST_IDS],
            _ext_table([2, 2, 3]),
            search_orders(nakayama_from_kupisch([3, 4, 4])))


# -- cheaper, never dropped -------------------------------------------------

def test_checking_every_construction_changes_no_answer(monkeypatch):
    plain = _reports()
    skipped = []
    orig = Representation.__init__

    def always_validating(self, algebra, dims, mats, validate=True):
        if not validate:
            skipped.append(self)
        orig(self, algebra, dims, mats, validate=True)

    monkeypatch.setattr(Representation, "__init__", always_validating)
    assert _reports() == plain
    assert skipped


def test_checking_every_module_map_changes_no_answer(monkeypatch):
    plain = _reports()
    skipped = []
    orig = ModuleMap.__init__

    def always_validating(self, source, target, blocks, validate=True):
        if not validate:
            skipped.append(self)
        orig(self, source, target, blocks, validate=True)

    monkeypatch.setattr(ModuleMap, "__init__", always_validating)
    assert _reports() == plain
    assert skipped


def test_proven_maps_skip_the_arrow_check(monkeypatch):
    a = nakayama_from_kupisch([2, 2, 3])
    p = projective_rep(a, 0)
    # closed rows from the reference fixpoint, which builds a map too
    rows = solved_sub_representation(
        p, {1: Matrix.identity(p.dims[1])})[1].blocks
    flags = []
    orig = ModuleMap.__init__

    def recorded(self, source, target, blocks, validate=True):
        flags.append(validate)
        orig(self, source, target, blocks, validate)

    monkeypatch.setattr(ModuleMap, "__init__", recorded)
    f = projective_map(p, simple_rep(a, 0), [[1]])
    _, incl = sub_representation(p, rows)
    assert flags == [False, False]
    assert f.is_surjective() and incl.is_injective()


def test_path_action_is_the_product_of_its_arrows():
    def product(m, p):
        out = Matrix.identity(m.dims[p.source])
        for ai in p.word:
            out = out @ m.mats[ai]
        return out

    for a in (nakayama_from_kupisch([3, 4, 4]), bnlambda_family(3, [1])):
        reg = regular_rep(a)
        for v in a.quiver.vertices:
            assert reg.path_action(Path(v, v, ())) == \
                Matrix.identity(reg.dims[v])
        for x in a.quiver.arrows:
            assert reg.path_action(Path(x.source, x.target, (x.index,))) \
                is reg.mats[x.index]
        for p in a.basis:
            assert reg.path_action(p) == product(reg, p)


def test_proven_constructions_skip_the_relation_check(monkeypatch):
    a = nakayama_from_kupisch([2, 2, 3])
    calls = []
    orig = Representation._check_relations

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(Representation, "_check_relations", counted)
    p = projective_rep(a, 2)
    assert calls == [p]
    projective_rep(a, 2)
    projective_from_vertices(a, (2,))
    assert calls == [p]
    rows = solved_sub_representation(
        p, {0: Matrix.identity(p.dims[0])})[1].blocks
    sub, incl = sub_representation(p, rows)
    quot, _ = quotient_by_rows(p, incl.blocks)
    dualize(sub)
    dualize(quot)
    assert calls == [p]
    s = simple_rep(a, 1)
    assert calls == [p, s]
    m = Representation(a, {0: 1}, {})
    assert calls == [p, s, m]
    # a sum of several projectives is checked only through its summands,
    # each built and checked first unless it is built already
    del calls[:]
    projective_from_vertices(a, (0, 2, 2))
    regular_rep(a)
    checked = list(calls)
    assert checked == [projective_rep(a, 0), projective_rep(a, 1)]


@pytest.mark.parametrize("build", REFERENCE_ALGEBRAS.args[1] + [
    lambda: parse_construction("endo-of:klein_four@1"),
    lambda: parse_construction("endo-of:symmetric_chain:3@2"),
], ids=REFERENCE_ALGEBRAS.kwargs["ids"] + ["klein-endo", "endo-sym3"])
def test_sums_of_projectives_are_their_direct_sums(build):
    a = build()
    vs = list(a.quiver.vertices)
    for verts in (vs, vs[::-1], vs + vs, [vs[0], vs[-1], vs[0]]):
        got = projective_from_vertices(a, tuple(verts))
        want = direct_sum([projective_rep(a, v) for v in verts])
        assert got.dims == want.dims and got.mats == want.mats


def test_rows_that_are_not_closed_are_refused():
    a = nakayama_from_kupisch([2, 2, 3])
    p = projective_rep(a, 2)
    # the top of P(2) alone: the arrow 2 -> 0 leaves the span
    with pytest.raises(CertificateFailure):
        sub_representation(p, {2: [[1]]})
    # the projection onto P(2)/top does not commute with that arrow
    with pytest.raises(InvalidParameters):
        quotient_by_rows(p, {2: [[1]]})


def test_a_module_that_breaks_a_relation_is_refused():
    a = nakayama_from_kupisch([2, 2, 3])
    one = Matrix([[Fraction(1)]], 1, 1)
    # a0 a1 = 0 in A, but here the path 0 -> 1 -> 2 acts as 1
    with pytest.raises(InvalidParameters):
        Representation(a, {0: 1, 1: 1, 2: 1},
                       {x.index: one for x in a.quiver.arrows})


# -- one projective per vertex tuple ----------------------------------------

def test_projectives_are_shared():
    a = nakayama_from_kupisch([2, 2, 3])
    for v in a.quiver.vertices:
        assert projective_rep(a, v) is projective_from_vertices(a, (v,))
    assert regular_rep(a) is projective_from_vertices(a, a.quiver.vertices)
    assert regular_rep(a).proj_summand_vertices == (0, 1, 2)
    top0 = projective_cover(simple_rep(a, 0))[0]
    assert projective_cover(uniserial_quotient(a, 0, 2))[0] is top0
    assert top0 is projective_rep(a, 0)


def test_each_projective_is_built_once(monkeypatch):
    requested, built = set(), []
    orig = modules.projective_from_vertices

    def counting(algebra, verts):
        key = (id(algebra), tuple(verts))
        requested.add(key)
        if ("projective_from_vertices", tuple(verts)) not in algebra._cache:
            built.append(key)
        return orig(algebra, verts)

    monkeypatch.setattr(modules, "projective_from_vertices", counting)
    monkeypatch.setattr(homology, "projective_from_vertices", counting)
    _ext_table([2, 2, 3])
    assert built
    assert len(built) == len(requested)


# -- sympy only for a minimal polynomial with no rational root --------------

def _fresh(code):
    """stdout of code run in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(modules.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_import_leaves_sympy_out():
    code = "import sys, quiverhom, quiverhom.cli; print('sympy' in sys.modules)"
    assert _fresh(code).strip() == "False"


def test_paper_examples_that_split_leave_sympy_out():
    # each of these decomposes modules by splitting minimal polynomials
    code = "\n".join([
        "import io, sys",
        "from quiverhom import cli",
        "from quiverhom.verify import verify_paper_example",
        "ids = ['ex3.5', 'ex3.6-d2', 'lemma4.3-n3', 'lemma4.3-n4']",
        "passed = [verify_paper_example(i)['pass'] for i in ids]",
        "out, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())",
        "code = cli.main(['tilting', 'bnlambda:3,1', '--format', 'structured'])",
        "sys.stdout = out",
        "print(passed, code, 'sympy' in sys.modules)",
    ])
    assert _fresh(code).split() == ["[True,", "True,", "True,", "True]", "0",
                                    "False"]


def _times(*polys):
    out = [Fraction(1)]
    for p in polys:
        prod = [Fraction(0)] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def test_coprime_split():
    fr = lambda *xs: [Fraction(x) for x in xs]
    # x^2 - 1 = (x - 1)(x + 1)
    assert _coprime_split(fr(-1, 0, 1)) == [fr(-1, 1), fr(1, 1)]
    # x^3 - x^2 = x^2 (x - 1): sympy lists x - 1 first
    assert _coprime_split(fr(0, 0, -1, 1)) == [fr(-1, 1), fr(0, 0, 1)]
    assert _coprime_split(fr(0, 0, 1)) is None
    assert _coprime_split(fr(2, 0, 1)) is None
    # (x^2 + 1)(x^2 + 2) has no rational root, so sympy splits it
    assert _coprime_split(_times(fr(1, 0, 1), fr(2, 0, 1))) == \
        [fr(1, 0, 1), fr(2, 0, 1)]


_root = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def _split_inputs(draw):
    """A monic polynomial over Q (low degree first, Fraction entries): a
    product of linear factors with multiplicities, with or without an
    irreducible quadratic or cubic cofactor."""
    linear = draw(st.lists(st.tuples(_root, st.integers(1, 3)), max_size=4))
    polys = [[-r, Fraction(1)] for r, e in linear for _ in range(e)]
    deg = draw(st.sampled_from([0, 2, 3]))
    if deg:
        cof = draw(st.lists(_coeff, min_size=deg, max_size=deg)) + [Fraction(1)]
        assume(is_irreducible_over_q(cof))
        polys.append(cof)
    assume(polys)
    return _times(*polys), bool(linear)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_split_inputs())
def test_coprime_split_matches_sympy(case):
    f, has_root = case
    with patch.object(modules, "_sympy_split",
                      side_effect=AssertionError("sympy for a rational root")
                      if has_root else modules._sympy_split):
        got = _coprime_split(f)
    assert got == sympy_coprime_split(f)
    if got is not None:
        assert all(type(c) is int for g in got for c in g)


def test_split_summands_keep_their_order():
    a = nakayama_from_kupisch([3, 4, 4])
    parts = decompose(regular_rep(a))
    assert [p.dim_vector() for p in parts] == [(1, 1, 1), (1, 2, 1),
                                               (1, 1, 2)]
    m = direct_sum([uniserial_quotient(a, 1, 2), simple_rep(a, 0),
                    projective_rep(a, 2)])
    assert [p.dim_vector() for p in decompose(m)] == [(1, 0, 0), (0, 1, 1),
                                                      (1, 1, 2)]
