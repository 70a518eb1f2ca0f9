"""Resolutions, extension groups, transposes and translates on small
algebras whose homology is known by hand."""
import pytest

from quiverhom import homology
from quiverhom.algebra import (
    klein_four_like, nakayama_from_kupisch, symmetric_chain_family,
)
from quiverhom.catalog import parse_construction
from quiverhom.errors import CertificateFailure, NotGeneratorCogenerator
from quiverhom.homology import (
    ProjectiveResolution, ShortExact, ar_translate, cosyzygy, ext1_cocycles,
    ext_dim, ext_dims, ext_dims_proj, extension_from_cocycle,
    generator_cogenerator_check, injective_term_vertices, is_injective_mod,
    is_projective, mueller_domdim, projective_cover, projective_resolution,
    syzygy, tau_minus, transpose_of,
)
from quiverhom.invariants import (
    canonical_test_set, dominant_dimension, projective_dimension,
)
from quiverhom.linalg import Matrix
from quiverhom.modules import (
    ModuleMap, cyclic_submodule, direct_sum, dualize, iso_test,
    projective_map, projective_rep, radical_rows, regular_rep, simple_rep,
    summand_inclusion, summand_projection, zero_rep,
)
from quiverhom.values import Dim

from oracles import flat_ext_dims, flat_resolution


@pytest.fixture(scope="module")
def a223():
    return nakayama_from_kupisch([2, 2, 3])


@pytest.fixture(scope="module")
def a21():
    return nakayama_from_kupisch([2, 1])


@pytest.fixture(scope="module")
def klein():
    return klein_four_like()


@pytest.fixture(scope="module")
def chain2():
    return symmetric_chain_family(2)


def test_cover_of_simple_is_projective_at_vertex(a223):
    s0 = simple_rep(a223, 0)
    P, f = projective_cover(s0)
    assert list(P.proj_summand_vertices) == [0]
    assert f.is_surjective()
    assert is_projective(P)


def test_syzygy_chain_223(a223):
    s0 = simple_rep(a223, 0)
    assert syzygy(s0, 1).dim_vector() == (0, 1, 0)
    assert syzygy(s0, 2).dim_vector() == (0, 0, 1)
    om3 = syzygy(s0, 3)
    assert om3.dim_vector() == (1, 1, 0)
    assert is_projective(om3)
    assert iso_test(om3, projective_rep(a223, 0)).is_iso
    assert syzygy(s0, 4).is_zero()
    assert projective_resolution(s0) is projective_resolution(s0)


def test_resolution_differentials_compose_to_zero(a223):
    res = ProjectiveResolution(simple_rep(a223, 0))
    for i in range(2, 4):
        assert res.differential(i).then(res.differential(i - 1)).is_zero()


def _reference_coord_matrix(res, i, n):
    """Coordinate matrix of degree i built from the composed differential
    i + 1, one element block per generator pair.  The image of generator
    j1 of P1, at vertex w, is its proj_gen row of d.blocks[w]; the columns
    of that row are the pairs (j0, path) of P0.proj_row_paths[w], and the
    block of (j0, j1) is the sum of c times the action of each path from
    v, the vertex of j0, to w with coefficient c in that row."""
    d = res.differential(i + 1)
    P0, P1 = d.target, d.source
    offs0, h0 = homology._hom_offsets(P0, n)
    offs1, h1 = homology._hom_offsets(P1, n)
    blocks = {}
    for j1, (w, pos) in enumerate(P1.proj_gen):
        row = d.blocks[w].data[pos]
        for (j0, bi), c in zip(P0.proj_row_paths[w], row):
            v = P0.proj_gen[j0][0]
            p = n.algebra.basis[bi]
            assert (p.source, p.target) == (v, w)
            block = blocks.get((j0, j1), Matrix.zeros(n.dims[v], n.dims[w]))
            blocks[j0, j1] = block + n.path_action(p).scale(c)
    out = [[0] * h1 for _ in range(h0)]
    for (j0, j1), block in blocks.items():
        for r, brow in enumerate(block.data):
            for k, x in enumerate(brow):
                out[offs0[j0] + r][offs1[j1] + k] += x
    return Matrix(out, h0, h1)


@pytest.mark.parametrize("spec", ["kupisch:2,2,3", "kupisch:3,4,4",
                                  "bnlambda:3,1"])
def test_coordinate_matrices_match_the_composed_differentials(spec):
    mods = [m for _, m in canonical_test_set(parse_construction(spec))]
    imax = 4
    nonzero = 0
    shape_only = 0
    for m in mods:
        res = projective_resolution(m)
        for n in mods:
            entries = homology._ext_links(m, n, imax)
            assert len(entries) == imax + 1
            for i, (rows, cols, B, _, _) in enumerate(entries):
                ref = _reference_coord_matrix(res, i, n)
                if B is None:
                    # an entry that holds only its shape stands for the
                    # empty matrix of that shape
                    assert not (ref.nrows and ref.ncols)
                    assert ref == Matrix.zeros(rows, cols)
                    shape_only += 1
                else:
                    assert B == ref
                    nonzero += not B.is_zero()
    assert nonzero and shape_only


def _distinct_data(mods):
    """Number of modules among mods that differ in their dimension vector
    or one of their arrow matrices."""
    seen = []
    for x in mods:
        data = (x.dim_vector(), x.mats)
        if data not in seen:
            seen.append(data)
    return len(seen)


def test_presentations_are_built_once_per_degree(monkeypatch):
    a = nakayama_from_kupisch([3, 4, 4])
    targets = [m for _, m in canonical_test_set(a)]
    m = targets[0]
    built = []
    orig = homology._presentation_elements

    def counted(d):
        built.append(d)
        return orig(d)

    monkeypatch.setattr(homology, "_presentation_elements", counted)
    imax = 3
    for n in targets:
        ext_dims_proj(m, n, imax)
    assert len(targets) > 1
    # one presentation per distinct first step of degrees 0..imax
    own = _distinct_data(flat_resolution(m, imax)[2][:imax + 1])
    assert len(built) == own
    # the other side of the duality resolves the dual targets, whose
    # syzygies are shared between them as well
    for n in targets:
        ext_dims(m, n, imax)
    duals = _distinct_data([x for n in targets for x in
                            flat_resolution(dualize(n), imax)[2][:imax + 1]])
    assert len(built) == own + duals
    for i in range(1, imax + 2):
        projective_resolution(m).presentation(i)
    assert len(built) == own + duals
    # the transpose reads the presentation of degree 1 that is kept
    transpose_of(m)
    assert len(built) == own + duals


SHARING_SPECS = ["kupisch:2,2,3", "kupisch:3,4,4", "kupisch:4,5,5",
                 "bnlambda:3,1", "symmetric_chain:2"]


@pytest.mark.parametrize("spec", SHARING_SPECS)
def test_shared_resolutions_match_the_flat_reference(spec):
    mods = [m for _, m in canonical_test_set(parse_construction(spec))]
    flats = [flat_resolution(m, 8) for m in mods]
    for m, (covers, _, syz) in zip(mods, flats):
        res = projective_resolution(m)
        for i in range(9):
            assert res.term(i).proj_summand_vertices == \
                covers[i].source.proj_summand_vertices
            assert res.syzygy(i).dim_vector() == syz[i].dim_vector()
            assert res.syzygy(i).mats == syz[i].mats
    for m, flat in zip(mods, flats):
        for n in mods:
            assert ext_dims(m, n, 6) == flat_ext_dims(flat, n, 6)


def test_hash_collisions_are_settled_by_the_matrices(monkeypatch):
    def ext_table(spec):
        mods = [m for _, m in canonical_test_set(parse_construction(spec))]
        return [[ext_dims(m, n, 4) for n in mods] for m in mods]

    want = ext_table("kupisch:3,4,4")
    monkeypatch.setattr(Matrix, "__hash__", lambda self: 0)
    assert ext_table("kupisch:3,4,4") == want
    a = nakayama_from_kupisch([2, 2, 3])
    p0 = projective_rep(a, 0)
    split = direct_sum([simple_rep(a, 0), simple_rep(a, 1)])
    assert split.dim_vector() == p0.dim_vector()
    assert split.mats != p0.mats
    assert projective_resolution(split) is not projective_resolution(p0)
    assert projective_resolution(split).term(0).proj_summand_vertices == (0, 1)
    assert is_projective(p0) and not is_projective(split)


def test_deep_chains_are_walked_in_a_loop(monkeypatch):
    covers = []
    orig = homology.projective_cover

    def counted(m):
        covers.append(m)
        return orig(m)

    monkeypatch.setattr(homology, "projective_cover", counted)
    d = dominant_dimension(simple_rep(symmetric_chain_family(2), 1), 2000)
    assert str(d) == ">=2000" and d.note == "bound reached"
    assert len(covers) <= 10
    a = nakayama_from_kupisch([4, 5, 5])
    want = {0: [1] + [0, 0, 1, 1] * 10, 1: [1] + [0, 0, 1, 1] * 10,
            2: [1] + [0] * 40}
    for v in a.quiver.vertices:
        s = simple_rep(a, v)
        assert ext_dims(s, s, 1000)[:41] == want[v]


def test_a_corrupted_coordinate_matrix_fails_the_certificate(monkeypatch):
    """Perturbing the second link's matrix where the first one reads it
    breaks the coordinate complex, and the check between the two links
    refuses the answer."""
    made = []
    orig = homology._coord_matrix

    def perturbed(P0, P1, ents, n):
        h0, h1, B = orig(P0, P1, ents, n)
        if len(made) == 1:
            # a column c with a nonzero entry in the first matrix: one
            # more in row c of the second makes their product nonzero
            c = next(c for row in made[0].data for c, x in enumerate(row) if x)
            rows = [list(r) for r in B.data]
            rows[c][0] += 1
            B = Matrix(rows, B.nrows, B.ncols)
        made.append(B)
        return h0, h1, B

    monkeypatch.setattr(homology, "_coord_matrix", perturbed)
    a = nakayama_from_kupisch([2, 2, 3])
    with pytest.raises(CertificateFailure) as err:
        ext_dims_proj(simple_rep(a, 0), regular_rep(a), 2)
    assert str(err.value) == "coordinate complex fails to compose to zero"
    assert len(made) == 2


def _periodic_test_set():
    """Fresh modules of the canonical test set of kupisch:4,5,5, whose
    simples at vertices 0 and 1 have syzygies of period 4."""
    return [m for _, m in canonical_test_set(parse_construction("kupisch:4,5,5"))]


def _links(m, imax):
    res = projective_resolution(m)
    return [res._at(i) for i in range(imax + 1)]


def test_cached_ext_dimensions_are_prefixes_of_the_longest_answer():
    """Each pair answers at imax 2, then 6, then 3 from the entries kept
    on its resolution's links; every answer is a prefix of the
    longest one and equals the answer on modules built afresh.  Degree 6
    is past the period, so the walk goes through a cycle's closing link,
    and every link above the last one walked is checked against the link
    below it, the closing link included."""
    mods = _periodic_test_set()
    closing = [m for m in mods
               if len({id(r) for r in _links(m, 6)}) < 7]
    assert closing
    answers = {}
    for imax in (2, 6, 3):
        fresh = _periodic_test_set()
        for i, m in enumerate(mods):
            for j, n in enumerate(mods):
                got = ext_dims_proj(m, n, imax)
                assert got == ext_dims_proj(fresh[i], fresh[j], imax)
                answers.setdefault((i, j), []).append(got)
    for dims in answers.values():
        longest = dims[1]
        assert len(longest) == 7
        assert all(d == longest[:len(d)] for d in dims)
    for m in closing:
        for n in mods:
            assert all(res._ext[n][4] for res in _links(m, 6)[:-1])


@pytest.mark.parametrize("spec", ["kupisch:2,2,3", "bnlambda:3,1"])
def test_no_entry_stores_a_matrix_with_a_zero_dimension(spec):
    """After all-pairs ext_dims, on both sides of the duality, every entry
    with an empty shape holds that shape only, with rank 0, and every
    stored matrix has the stored shape, with no zero dimension."""
    mods = [m for _, m in canonical_test_set(parse_construction(spec))]
    imax = 4
    entries = []
    for m in mods:
        for n in mods:
            ext_dims(m, n, imax)
            for x, y in ((m, n), (dualize(n), dualize(m))):
                entries += [res._ext[y] for res in _links(x, imax)]
    assert any(B is None for _, _, B, _, _ in entries)
    for rows, cols, B, r, _ in entries:
        if B is None:
            assert not (rows and cols) and r == 0
        else:
            assert rows and cols and B.shape == (rows, cols)


def test_each_link_builds_its_coordinate_matrix_once_per_target(monkeypatch):
    built = []
    orig = homology._coord_matrix

    def counted(P0, P1, ents, n):
        built.append(n)
        return orig(P0, P1, ents, n)

    monkeypatch.setattr(homology, "_coord_matrix", counted)
    mods = _periodic_test_set()
    imax = 6
    for _ in range(2):
        for m in mods:
            for n in mods:
                ext_dims_proj(m, n, imax)
    walked = {(id(res), id(n)) for m in mods for res in _links(m, imax)
              for n in mods}
    assert len(built) == len(walked)
    assert len(walked) < len(mods) ** 2 * (imax + 1)


def _empty_pairs(mods, imax):
    """(m, n, i) with links i and i + 1 of m against n adjacent and at
    least one of their coordinate matrices empty."""
    out = []
    for m in mods:
        for n in mods:
            es = homology._ext_links(m, n, imax)
            for i in range(imax):
                if not all(rows and cols for rows, cols, *_ in es[i:i + 2]):
                    out.append((m, n, i))
    return out


def test_a_pair_with_an_empty_coordinate_matrix_is_still_checked():
    """An empty matrix skips the product, not the check: every link above
    the last one walked is marked checked, pairs with an empty side
    among them."""
    mods = [m for _, m in canonical_test_set(parse_construction("kupisch:2,2,3"))]
    imax = 3
    pairs = _empty_pairs(mods, imax)
    assert pairs
    for m, n, i in pairs:
        assert projective_resolution(m)._at(i)._ext[n][4]


def test_a_stored_matrix_of_the_wrong_width_fails_the_shape_check():
    """Link 0's entry widened by a column no longer agrees with the rows
    of link 1's, and the check refuses it even where link 1's matrix is
    empty, so nothing is multiplied: the shapes compared are the stored
    ones, also for an entry that holds only its shape."""
    mods = [m for _, m in canonical_test_set(parse_construction("kupisch:2,2,3"))]
    found = [(m, n) for m, n, i in _empty_pairs(mods, 1)
             if not projective_resolution(m)._at(1)._ext[n][1]]
    assert found
    assert any(projective_resolution(m)._ext[n][2] is None for m, n in found)
    for m, n in found:
        e = projective_resolution(m)._ext[n]
        saved = list(e)
        B = e[2]
        e[1] += 1
        if B is not None:
            e[2] = Matrix([row + [0] for row in B.data], B.nrows, B.ncols + 1)
        e[4] = False
        with pytest.raises(CertificateFailure) as err:
            homology._ext_links(m, n, 1)
        assert str(err.value) == "coordinate complex shapes disagree"
        e[:] = saved


@pytest.mark.parametrize("spec", ["kupisch:2,2,3", "bnlambda:3,1",
                                  "klein_four"])
def test_covers_are_the_maps_of_their_unit_rows(spec):
    """The cover read off by row selection is the map projective_map
    builds from the unit rows of the top: the columns off the pivots of
    the radical's RREF, in order.  Its rows are copies, not the rows of
    the module's path actions."""
    for _, m in canonical_test_set(parse_construction(spec)):
        P, f = projective_cover(m)
        rad = radical_rows(m)
        units = []
        for v in m.algebra.quiver.vertices:
            pivots = {r.index(1) for r in rad[v].data}
            units += [[int(k == c) for k in range(m.dims[v])]
                      for c in range(m.dims[v]) if c not in pivots]
        assert f.blocks == projective_map(P, m, units).blocks
        shared = {id(row) for mat in m._paths.values() for row in mat.data}
        assert not any(id(row) in shared
                       for b in f.blocks.values() for row in b.data)


def test_resolving_leaves_the_path_actions_unchanged():
    """Covers, kernels and coordinate matrices read the path actions of
    every module they resolve; none of them writes into one."""
    a = parse_construction("bnlambda:3,1")
    mods = [m for _, m in canonical_test_set(a)]
    before = [{p.key(): [list(r) for r in m.path_action(p).data]
               for p in a.basis} for m in mods]
    for m in mods:
        for n in mods:
            ext_dims(m, n, 3)
    assert before == [{p.key(): m.path_action(p).data for p in a.basis}
                      for m in mods]


def test_injective_envelope_223(a223):
    s0 = simple_rep(a223, 0)
    # the envelope is the dual of the opposite side's projective cover
    cover, proj = projective_cover(dualize(s0))
    assert dualize(cover).dim_vector() == (1, 0, 1)
    assert proj.is_surjective()
    assert cosyzygy(s0, 1).dim_vector() == (0, 0, 1)
    assert injective_term_vertices(s0, 0) == [0]


def test_injectivity_detection(a223):
    # the last projective is also injective, the first is not
    assert is_injective_mod(projective_rep(a223, 2))
    assert not is_injective_mod(projective_rep(a223, 0))


def test_ext_simple_pairs_223(a223):
    s0, s1 = simple_rep(a223, 0), simple_rep(a223, 1)
    assert ext_dim(s0, s1, 1) == 1
    assert ext_dim(s0, s0, 1) == 0
    assert ext_dim(s0, s0, 0) == 1


def test_ext_into_injective_projective_vanishes(a223):
    s0 = simple_rep(a223, 0)
    p2 = projective_rep(a223, 2)
    for i in (1, 2, 3):
        assert ext_dim(s0, p2, i) == 0


def test_ext_into_noninjective_projective(a223):
    s2 = simple_rep(a223, 2)
    assert ext_dim(s2, projective_rep(a223, 0), 1) == 1


def test_klein_self_extensions(klein):
    s = simple_rep(klein, 1)
    assert ext_dim(s, s, 1) == 2


def test_chain2_simple_ext_vanishing_pattern(chain2):
    s2 = simple_rep(chain2, 2)
    assert ext_dims_proj(s2, s2, 3) == [1, 0, 0, 1]
    assert ext_dim(s2, s2, 3) == 1


def test_klein_syzygy_period(klein):
    reg = regular_rep(klein)
    xa, _ = cyclic_submodule(reg, 1, [0, 1, 0, 0])
    assert iso_test(syzygy(xa, 1), xa).is_iso
    d = projective_dimension(xa, 4)
    assert d.is_infinite and (d.onset, d.period) == (1, 1)


def test_periodicity_absent_for_finite_resolution(a223):
    assert projective_dimension(simple_rep(a223, 0), 6).is_exact


def test_transpose_and_translate_linear(a21):
    s0, s1 = simple_rep(a21, 0), simple_rep(a21, 1)
    tr = transpose_of(s0)
    assert tr.algebra is a21.opposite_algebra()
    assert iso_test(ar_translate(s0), s1).is_iso
    assert iso_test(tau_minus(s1), s0).is_iso
    assert ar_translate(projective_rep(a21, 0)).is_zero()
    assert tau_minus(dualize(projective_rep(a21.opposite_algebra(), 0))).is_zero()


def test_translate_on_symmetric_local_algebra(klein):
    reg = regular_rep(klein)
    xa, _ = cyclic_submodule(reg, 1, [0, 1, 0, 0])
    assert iso_test(ar_translate(xa), xa).is_iso


def test_extension_realizes_cocycle(a21):
    s0, s1 = simple_rep(a21, 0), simple_rep(a21, 1)
    cocycles = ext1_cocycles(s0, s1)
    assert len(cocycles) == 1
    seq = extension_from_cocycle(s0, cocycles[0])
    assert seq.mid.dim_vector() == (1, 1)
    assert iso_test(seq.mid, projective_rep(a21, 0)).is_iso
    assert not seq.is_split()
    assert ext1_cocycles(s0, s0) == []


@pytest.mark.parametrize("why", [
    "cocycle does not factor through the syzygy",
    "quotient map does not descend",
])
def test_factor_refuses_a_map_that_does_not_factor(a21, why):
    """The cover P0 -> S0 has a kernel, so the identity of P0 does not
    factor through it; through the identity, the cover factors as
    itself."""
    P, cover = projective_cover(simple_rep(a21, 0))
    ident = ModuleMap.identity(P)
    with pytest.raises(CertificateFailure) as err:
        homology._factor(cover, ident, why)
    assert str(err.value) == why
    h = homology._factor(ident, cover, why)
    assert h.source is P and h.target is cover.target
    assert all(h.blocks[v] == cover.blocks[v] for v in a21.quiver.vertices)


def test_a_radical_that_claims_a_top_vector_fails_the_cover_check(
        a223, monkeypatch):
    """A radical that claims the top vector of S(0) leaves the cover with
    no generator, so it misses the module."""
    orig = homology.radical_rows

    def claimed(m):
        rad = dict(orig(m))
        rad[0] = Matrix([[1]], 1, 1)
        return rad

    monkeypatch.setattr(homology, "radical_rows", claimed)
    with pytest.raises(CertificateFailure) as err:
        projective_cover(simple_rep(a223, 0))
    assert str(err.value) == "cover misses part of the module"


def test_a_perturbed_dual_side_fails_the_duality_check(a223, monkeypatch):
    """ext_dims asks the dual side, over the opposite algebra, for the
    same dimensions; one more in its degree 0 is refused."""
    orig = homology.ext_dims_proj

    def perturbed(m, n, imax):
        dims = orig(m, n, imax)
        if m.algebra is not a223:
            dims[0] += 1
        return dims

    monkeypatch.setattr(homology, "ext_dims_proj", perturbed)
    s0 = simple_rep(a223, 0)
    with pytest.raises(CertificateFailure) as err:
        ext_dims(s0, s0, 2)
    assert str(err.value).startswith(
        "extension dimensions disagree across the duality: ")


def test_short_exact_refuses_each_broken_sequence(a21):
    """Each of ShortExact's three checks refuses a sequence built to break
    it and no check before it: a zero map from S0 is not injective; the
    identity twice composes to the identity; and 0 -> 0 -> S0 + S0 -> S0
    -> 0, with the projection onto a summand, has a middle term too
    large."""
    s0 = simple_rep(a21, 0)
    zero = zero_rep(a21)
    ident = ModuleMap.identity(s0)
    with pytest.raises(CertificateFailure) as err:
        ShortExact(s0, ModuleMap.zero(s0, s0), s0, ModuleMap.zero(s0, zero),
                   zero)
    assert str(err.value) == "not a short exact sequence"
    with pytest.raises(CertificateFailure) as err:
        ShortExact(s0, ident, s0, ident, s0)
    assert str(err.value) == "composite along the sequence is nonzero"
    ds = direct_sum([s0, s0])
    with pytest.raises(CertificateFailure) as err:
        ShortExact(zero, ModuleMap.zero(zero, ds), ds,
                   summand_projection(ds, [s0, s0], 0), s0)
    assert str(err.value) == "middle term has wrong dimension"


def test_split_sequence_detected(a21):
    s0, s1 = simple_rep(a21, 0), simple_rep(a21, 1)
    ds = direct_sum([s1, s0])
    seq = ShortExact(s1, summand_inclusion(ds, [s1, s0], 0),
                     ds, summand_projection(ds, [s1, s0], 1), s0)
    assert seq.is_split()


def test_mueller_on_symmetric_local_algebra(klein):
    reg = regular_rep(klein)
    xa, _ = cyclic_submodule(reg, 1, [0, 1, 0, 0])
    assert mueller_domdim(xa) == Dim.exact(2)


def test_generator_cogenerator_check_rejects(a223):
    with pytest.raises(NotGeneratorCogenerator):
        generator_cogenerator_check(simple_rep(a223, 0))
