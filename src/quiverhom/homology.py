"""Covers, envelopes, resolutions, extension groups and translates.

Projective machinery is primary; everything injective is obtained by
dualizing the projective machinery of the opposite algebra.  Extension
groups are computed in generator coordinates: a map out of a direct sum of
projectives is the tuple of generator images, so Hom(P, n) is a direct sum
of components of n and the differentials become explicit rational matrices.
The public ext_dim runs the computation on both sides of the duality and
insists the answers agree.

A resolution is one step (cover and inclusion of the first syzygy) plus a
link to the resolution of the syzygy.  Each algebra keeps a table of the
modules it has resolved, keyed by their data, so a module or syzygy equal
to one already there shares its resolution: every cover, kernel,
presentation and extension-group matrix is made once per distinct
module, and a periodic resolution is a cycle of links.  The
extension-group data lives on the links: each keeps, per target, the
coordinate matrix of its degree 0 with its size and rank, and a module
keeps only the dimensions it was asked for, per target, read off its
links.

Most of those coordinate matrices are empty: Hom(term 0, n) or
Hom(term 1, n) is zero whenever n vanishes at the vertices of the term's
tops.  An empty matrix is made with no path action read and has rank 0
with no elimination, and a product with an empty factor is zero, so two
links are multiplied out to check that they compose to zero only when both
matrices are nonempty; their shapes are compared for every pair.  These
are exact, not cut-offs: an empty matrix has no entries to compute.
"""
from __future__ import annotations

from .errors import CertificateFailure, NotGeneratorCogenerator
from .linalg import Echelon, Matrix, rank, rref, left_kernel, solve_linear
from .modules import (
    ModuleMap, direct_sum, dualize, decompose,
    hom_basis, iso_test, kernel_of_map, map_in_span, projective_from_vertices,
    projective_map, projective_rep, radical_rows, regular_rep,
    injective_rep, summand_inclusion, cokernel_of_map,
)
from .values import Dim


def projective_cover(m):
    """(P, f) with f: P -> m the minimal surjection from a projective.

    The top of m at v has the basis of the unit rows off the pivot columns
    of radical_rows(m)[v], an RREF whose rows each lead with 1 at their
    pivot column.  Generator j goes to the unit row at column c_j of its
    vertex, so the row of path p from generator j is row c_j of the action
    of p: f is read off the path actions by row selection, the map
    projective_map would build from those unit rows, with each row copied
    so that f shares no list with m."""
    rad = radical_rows(m)
    verts = []
    cols = []
    for v in m.algebra.quiver.vertices:
        pivset = {r.index(1) for r in rad[v].data}
        for c in range(m.dims[v]):
            if c not in pivset:
                verts.append(v)
                cols.append(c)
    P = projective_from_vertices(m.algebra, tuple(verts))
    basis = m.algebra.basis
    f = ModuleMap(P, m, {
        w: Matrix([list(m.path_action(basis[i]).data[cols[j]])
                   for j, i in P.proj_row_paths[w]], P.dims[w], m.dims[w])
        for w in m.algebra.quiver.vertices}, validate=False)
    if not f.is_surjective():
        raise CertificateFailure("cover misses part of the module")
    return P, f


class ProjectiveResolution:
    """Minimal projective resolution of a module: its projective cover,
    the inclusion of the first syzygy into the cover, and a link to the
    resolution of that syzygy.  Term i, syzygy i and differential i lie i
    links down the chain, which is walked in a loop.

    Every resolution is the one its module has in the algebra's table
    (see projective_resolution), so a syzygy with the data of a module
    already resolved is that module, and two modules with equal syzygies
    share the rest of their resolutions: every later term, presentation
    and extension-group matrix.  A periodic chain closes into a cycle.
    When a syzygy is found in the table, its inclusion is rebuilt with
    the module in the table as source and not checked again: its blocks
    are those of the kernel's inclusion, and the two sources have equal
    components and arrow matrices, so the same squares commute.

    Each link is made once, on demand, and keeps the presentation of the
    differential from the next term into its own, as the list of its
    nonzero generator-to-generator terms (see _presentation_elements).
    The presentation does not depend on the target of an extension group,
    so every target reads the same terms.  Against each target, a link
    keeps the degree-0 coordinate matrix of its module with its size and
    rank, and whether it composes to zero with the next link's
    (see _ext_links); the extension dimensions of a module, per target,
    are kept on the module (see _ext_lists)."""

    def __init__(self, m):
        self.module = m
        self._cover = self._incl = self._next = self._presentation = None
        self._ext = {}

    def _link(self):
        """This resolution, with its cover, inclusion and link made."""
        if self._next is None:
            P, f = projective_cover(self.module)
            ker, incl = kernel_of_map(f)
            nxt = projective_resolution(ker)
            if nxt.module is not ker:
                incl = ModuleMap(nxt.module, P, incl.blocks, validate=False)
            self._cover, self._incl, self._next = f, incl, nxt
        return self

    def _at(self, i):
        """The resolution of syzygy i, i links down."""
        res = self
        for _ in range(i):
            nxt = res._next
            res = nxt if nxt is not None else res._link()._next
        return res

    def term(self, i):
        return self.cover(i).source

    def cover(self, i):
        return self._at(i)._link()._cover

    def inclusion(self, i):
        """Inclusion of syzygy i + 1 into term i."""
        return self._at(i)._link()._incl

    def syzygy(self, i):
        return self._at(i).module

    def differential(self, i):
        if i < 1:
            raise ValueError("differentials start at 1")
        return self.cover(i).then(self.inclusion(i - 1))

    def presentation(self, i):
        """Nonzero generator-to-generator terms of differential i, built
        once per link."""
        if i < 1:
            raise ValueError("differentials start at 1")
        res = self._at(i - 1)
        if res._presentation is None:
            res._presentation = _presentation_elements(res.differential(1))
        return res._presentation


def projective_resolution(m):
    """The resolution of m, shared by every module with m's data.

    The algebra's table keys each resolved module on its dimension vector
    and the hashes of its arrow matrices, and a hit counts only when every
    arrow matrix is equal, so a hash collision costs a comparison and
    nothing else.  The table holds references to the modules and their
    resolutions, never copies of their matrices."""
    res = m._cache.get("projres")
    if res is None:
        key = ("projres", m.dim_vector(),
               tuple(hash(mat) for mat in m.mats.values()))
        bucket = m.algebra._cache.setdefault(key, [])
        for res in bucket:
            if all(res.module.mats[a] == mat for a, mat in m.mats.items()):
                break
        else:
            res = ProjectiveResolution(m)
            bucket.append(res)
        m._cache["projres"] = res
    return res


def syzygy(m, i):
    return m if i == 0 else projective_resolution(m).syzygy(i)


def is_projective(m):
    return syzygy(m, 1).is_zero()


def cosyzygy(m, i):
    return dualize(syzygy(dualize(m), i))


def injective_term_vertices(m, i):
    """Vertices of the indecomposable injective summands of the i-th term
    of the minimal injective resolution."""
    res = projective_resolution(dualize(m))
    return list(res.term(i).proj_summand_vertices)


def is_injective_mod(m):
    return is_projective(dualize(m))


# -- extension groups ------------------------------------------------------

def _presentation_elements(d):
    """The nonzero generator-to-generator terms of a map between
    projectives built by projective_from_vertices, one tuple (j1, j0, bi, c)
    each: the image of generator j1 of the source has coefficient c at
    basis path bi from generator j0 of the target, a path in
    e_{v_j0} A e_{w_j1}.  Terms come in the order of j1, then of the
    target's rows at w_j1.  A generator pair with no term has the zero
    entry, and costs its readers nothing."""
    P1, P0 = d.source, d.target
    terms = []
    for j1, (w, pos) in enumerate(P1.proj_gen):
        for (j0, bi), c in zip(P0.proj_row_paths[w], d.block(w).data[pos]):
            if c:
                terms.append((j1, j0, bi, c))
    return terms


def _hom_offsets(P, n):
    offs = []
    total = 0
    for v, _ in P.proj_gen:
        offs.append(total)
        total += n.dims[v]
    return offs, total


def _coord_matrix(P0, P1, terms, n):
    """Matrix of composing with a differential P1 -> P0, given by its
    presentation terms, on generator coordinates: a map P0 -> n given as
    a row over the generator components of n goes to the row of the
    composite P1 -> P0 -> n.  A term (j1, j0, bi, c) has a path p from v,
    the vertex of generator j0, to w, that of generator j1, and adds c
    times the action of p, from the component of n at v to the one at w,
    into the (j0, j1) block.

    When Hom(P0, n) or Hom(P1, n) is zero (h0 or h1 is 0) the matrix has
    no entries, whatever the terms: it is returned with no path action
    read."""
    offs0, h0 = _hom_offsets(P0, n)
    offs1, h1 = _hom_offsets(P1, n)
    out = [[0] * h1 for _ in range(h0)]
    if h0 and h1:
        basis = n.algebra.basis
        for j1, j0, bi, c in terms:
            r0, c1 = offs0[j0], offs1[j1]
            for i, prow in enumerate(n.path_action(basis[bi]).data):
                orow = out[r0 + i]
                for j, x in enumerate(prow):
                    if x:
                        orow[c1 + j] += c * x
    return Matrix(out, h0, h1)


def _ext_links(m, n, imax):
    """The entries against n of links 0..imax of m's resolution.

    Degree i of m is degree 0 of its syzygy i, so each link keeps, per
    target, one entry [n, B, h, rank, checked]: B is the coordinate matrix
    of degree 0 of the link's module, h its row count (the dimension of
    Hom(term 0, n)) and rank its rank.  It holds n so that id(n) stays
    that target's key.  The entry is made once per link and target, and
    checked is set when B and the next link's matrix have been found to
    compose to zero, so each pair of links is checked once per target; a
    cycle's closing link is one of them.

    An empty B (no rows or no columns) has rank 0, found with no
    elimination.  Every pair must agree in shape (the columns of the
    upper B are the rows of the lower); it is multiplied out only when
    both matrices are nonempty, since any other product of agreeing
    shapes has no entries or a zero inner dimension, and is zero."""
    key = id(n)
    res = projective_resolution(m)
    out = []
    above = None
    for _ in range(imax + 1):
        e = res._ext.get(key)
        if e is None:
            nxt = res._link()._next
            B = _coord_matrix(res._cover.source, nxt._link()._cover.source,
                              res.presentation(1), n)
            e = res._ext[key] = [n, B, B.nrows,
                                 rank(B) if B.nrows and B.ncols else 0, False]
        if above is not None and not above[4]:
            A, B = above[1], e[1]
            if A.ncols != B.nrows:
                raise CertificateFailure("coordinate complex shapes disagree")
            if A.nrows and A.ncols and B.ncols and not (A @ B).is_zero():
                raise CertificateFailure("coordinate complex fails to compose to zero")
            above[4] = True
        out.append(e)
        above = e
        # a link with an entry has been linked: its cover made its next link
        res = res._next
    return out


def _ext_lists(m, n, imax):
    """Dimensions of the extension groups of m against n, kept on m per
    target as (n, dims) and grown to degree imax when shorter.  Degree i
    is h_i - r_i - r_(i-1), read off link i and the link above it."""
    cache = m._cache.setdefault("extco", {})
    entry = cache.get(id(n))
    if entry is None or len(entry[1]) <= imax:
        dims = []
        r_above = 0
        for _, _, h, r, _ in _ext_links(m, n, imax):
            dims.append(h - r - r_above)
            r_above = r
        entry = cache[id(n)] = (n, dims)
    return entry[1]


def ext_dims_proj(m, n, imax):
    """Dimensions of the extension groups of degrees 0..imax, computed on
    the projective side only."""
    if m.is_zero() or n.is_zero():
        return [0] * (imax + 1)
    return _ext_lists(m, n, imax)[:imax + 1]


def ext_dims(m, n, imax):
    """Dimensions of the extension groups of degrees 0..imax, computed on
    the projective side and again on the injective side through the
    duality; any disagreement is an error."""
    a = ext_dims_proj(m, n, imax)
    b = ext_dims_proj(dualize(n), dualize(m), imax)
    if a != b:
        raise CertificateFailure(
            "extension dimensions disagree across the duality: %r vs %r" % (a, b))
    return a


def ext_dim(m, n, i):
    """dim Ext^i(m, n), verified on both sides of the duality."""
    return ext_dims(m, n, i)[i]


def ext1_cocycles(m, n):
    """One representative map syzygy(m) -> n per basis vector of the first
    extension group: the cocycles, rows of the left kernel of B1, that
    grow the span of the coboundaries (the row space of B0) and of the
    cocycles kept before them, one Echelon pass over the kernel rows."""
    if m.is_zero() or n.is_zero():
        return []
    res = projective_resolution(m)
    B0, B1 = (e[1] for e in _ext_links(m, n, 1))
    P1 = res.term(1)
    ker = left_kernel(B1)
    if ker.nrows == 0:
        return []
    R, piv = rref(B0)
    seen = Echelon(R.data[:len(piv)], piv)
    reps = [ker.row(r) for r in range(ker.nrows)
            if seen.add(ker.row(r)) is not None]
    offs1, _ = _hom_offsets(P1, n)
    cover1 = res.cover(1)
    out = []
    for row in reps:
        images = []
        for j, (v, _) in enumerate(P1.proj_gen):
            images.append(row[offs1[j]:offs1[j] + n.dims[v]])
        phi = projective_map(P1, n, images)
        out.append(_factor(cover1, phi,
                           "cocycle does not factor through the syzygy"))
    return out


def _factor(f, g, why):
    """The map h with f.then(h) = g, for maps f and g out of one module,
    solved vertex by vertex; CertificateFailure(why) when g does not
    factor through f."""
    blocks = {}
    for v in f.source.algebra.quiver.vertices:
        sol = solve_linear(f.block(v), g.block(v))
        if sol is None:
            raise CertificateFailure(why)
        blocks[v] = sol
    return ModuleMap(f.target, g.target, blocks)


class ShortExact:
    """0 -> sub -> mid -> quot -> 0 with both maps stored."""

    __slots__ = ("sub", "incl", "mid", "proj", "quot")

    def __init__(self, sub, incl, mid, proj, quot):
        self.sub = sub
        self.incl = incl
        self.mid = mid
        self.proj = proj
        self.quot = quot
        if not incl.is_injective() or not proj.is_surjective():
            raise CertificateFailure("not a short exact sequence")
        if not incl.then(proj).is_zero():
            raise CertificateFailure("composite along the sequence is nonzero")
        if mid.total_dim != sub.total_dim + quot.total_dim:
            raise CertificateFailure("middle term has wrong dimension")

    def is_split(self):
        """True iff the projection admits a section: the identity of quot
        is a combination of the Hom-basis maps quot -> mid followed by the
        projection."""
        return map_in_span(ModuleMap.identity(self.quot),
                           [h.then(self.proj)
                            for h in hom_basis(self.quot, self.mid)])


def extension_from_cocycle(m, psi):
    """Short exact sequence with quotient m realizing the cocycle psi,
    which maps the syzygy of m to the kernel-side module."""
    res = projective_resolution(m)
    n = psi.target
    omega = res.syzygy(1)
    incl = res.inclusion(0)
    cover0 = res.cover(0)
    ns = direct_sum([n, res.term(0)])
    g = ModuleMap(omega, ns,
                  {v: Matrix([pr + ir for pr, ir in
                              zip(psi.block(v).data,
                                  incl.block(v).scale(-1).data)],
                             omega.dims[v], ns.dims[v])
                   for v in m.algebra.quiver.vertices})
    mid, pi = cokernel_of_map(g)
    iota = summand_inclusion(ns, [n, res.term(0)], 0).then(pi)
    h = ModuleMap(ns, m,
                  {v: Matrix(
                      [[0] * m.dims[v] for _ in range(n.dims[v])] + cover0.block(v).data,
                      ns.dims[v], m.dims[v])
                   for v in m.algebra.quiver.vertices})
    hbar = _factor(pi, h, "quotient map does not descend")
    return ShortExact(n, iota, mid, hbar, m)


# -- transpose and translates ----------------------------------------------

def transpose_of(m):
    """Cokernel of the dual of a minimal presentation; a module over the
    opposite algebra.  Projective summands die."""
    a = m.algebra
    op = a.opposite_algebra()
    res = projective_resolution(m)
    P0, P1 = res.term(0), res.term(1)
    terms = res.presentation(1)
    P0op = projective_from_vertices(op, P0.proj_summand_vertices)
    P1op = projective_from_vertices(op, P1.proj_summand_vertices)
    pos1 = {w: {ji: r for r, ji in enumerate(P1op.proj_row_paths[w])}
            for w in op.quiver.vertices}
    images = [[0] * P1op.dims[v] for v, _ in P0op.proj_gen]
    for j1, j0, bi, c in terms:
        v = P0op.proj_gen[j0][0]
        images[j0][pos1[v][(j1, bi)]] += c
    g = projective_map(P0op, P1op, images)
    coker, _ = cokernel_of_map(g)
    return coker


def ar_translate(m):
    """Dual of the transpose; zero for projectives."""
    return dualize(transpose_of(m))


def tau_minus(m):
    """Transpose of the dual; zero for injectives."""
    return transpose_of(dualize(m))


# -- endomorphism-side dominant dimension ----------------------------------

def generator_cogenerator_check(m):
    """Certify that the regular module of m's algebra plus m contains every
    injective up to isomorphism; raises NotGeneratorCogenerator otherwise."""
    algebra = m.algebra
    parts = decompose(m) if not m.is_zero() else []
    pool = [projective_rep(algebra, v) for v in algebra.quiver.vertices] + parts
    for v in algebra.quiver.vertices:
        inj = injective_rep(algebra, v)
        if not any(iso_test(inj, cand).is_iso for cand in pool):
            raise NotGeneratorCogenerator(
                "injective at %r is not a summand" % (v,))


def mueller_domdim(m, bound=64):
    """Dominant dimension of the endomorphism algebra of (regular + m),
    read off from self-extension vanishing of the generator-cogenerator."""
    generator_cogenerator_check(m)
    g = direct_sum([regular_rep(m.algebra), m])
    for i in range(1, bound + 1):
        if ext_dims(m, g, i)[i]:
            return Dim.exact(i + 1)
    return Dim.at_least(bound + 2)
