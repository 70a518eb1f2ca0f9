"""Right modules over bound quiver algebras, stored as quiver representations.

Row convention throughout: vectors of the component at a vertex are rows, an
arrow with source v and target w acts by right multiplication with a matrix
of shape (dim at v, dim at w), and composing maps f then g multiplies their
matrices in that order.

Duality is the vector space dual: it transposes all arrow matrices and
yields a module over the opposite algebra.  Applying it twice returns the
original object, which downstream code relies on.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from .algebra import memo
from .errors import (
    CertificateFailure, DecompositionInconclusive, InvalidParameters,
)
from .linalg import (
    Matrix, exact, hstack, vstack, rank, reduce_row, rref, kernel_vectors,
    left_kernel, linear_combination, row_space, minimal_polynomial,
    moment_curve, poly_eval_matrix,
)


class Representation:
    """Module given by one space per vertex and one matrix per arrow.

    Every instance satisfies the relations of its algebra: either its
    relations were checked when it was built (validate=True, the default,
    used for simples, projectives and every module that comes from a
    catalog, the DSL or a caller), or it was built from checked
    modules by a construction whose docstring proves the relations hold:
    sub_representation, quotient_by_rows, dualize, or direct_sum, zero_rep
    and projective_from_vertices of several vertices, where they hold
    summand by summand."""

    def __init__(self, algebra, dims, mats, validate=True):
        self.algebra = algebra
        q = algebra.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in q.vertices}
        self.mats = {}
        for a in q.arrows:
            mat = mats.get(a.index, mats.get(a.name))
            if mat is None:
                mat = Matrix.zeros(self.dims[a.source], self.dims[a.target])
            if mat.shape != (self.dims[a.source], self.dims[a.target]):
                raise InvalidParameters(
                    "arrow %s matrix has shape %s, expected %s"
                    % (a.name, mat.shape, (self.dims[a.source], self.dims[a.target])))
            self.mats[a.index] = mat
        self.total_dim = sum(self.dims.values())
        self._dual = None
        self._paths = {}
        self._cache = {}
        self.proj_summand_vertices = None
        self.proj_row_paths = None
        self.proj_gen = None
        if validate:
            self._check_relations()

    def _check_relations(self):
        """Every relation acts as zero.  A relation whose source or target
        component is zero acts between empty spaces and is not summed."""
        for r in self.algebra.relations:
            if not (self.dims[r.source] and self.dims[r.target]):
                continue
            acc = Matrix.zeros(self.dims[r.source], self.dims[r.target])
            for c, p in r.terms:
                acc = acc + self.path_action(p).scale(c)
            if not acc.is_zero():
                raise InvalidParameters("relations do not annihilate this data")

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    def is_zero(self):
        return self.total_dim == 0

    def path_action(self, p):
        """Matrix of the path p from the component at its source to the
        one at its target: the identity for a trivial path, otherwise the
        product of its arrow matrices in order."""
        key = p.key()
        got = self._paths.get(key)
        if got is None:
            word = p.word
            got = self.mats[word[0]] if word else Matrix.identity(self.dims[p.source])
            for ai in word[1:]:
                got = got @ self.mats[ai]
            self._paths[key] = got
        return got

    def __repr__(self):
        return "Representation(dim %s)" % (self.dim_vector(),)


class ModuleMap:
    """Homomorphism of representations, one matrix block per vertex.

    Validation checks the square of each arrow a: s -> t, of shape (source
    dim at s, target dim at t); an arrow with a zero end has an empty
    square and is skipped."""

    def __init__(self, source, target, blocks, validate=True):
        if source.algebra is not target.algebra:
            raise InvalidParameters("map between modules over different algebras")
        self.source = source
        self.target = target
        q = source.algebra.quiver
        self.blocks = {}
        for v in q.vertices:
            b = blocks.get(v)
            if b is None:
                b = Matrix.zeros(source.dims[v], target.dims[v])
            if b.shape != (source.dims[v], target.dims[v]):
                raise InvalidParameters("block at %r has wrong shape" % (v,))
            self.blocks[v] = b
        if validate:
            for a in q.arrows:
                if not (source.dims[a.source] and target.dims[a.target]):
                    continue
                lhs = source.mats[a.index] @ self.blocks[a.target]
                rhs = self.blocks[a.source] @ target.mats[a.index]
                if lhs != rhs:
                    raise InvalidParameters(
                        "blocks do not commute with arrow %s" % a.name)

    def then(self, other):
        if other.source is not self.target:
            raise InvalidParameters("maps do not compose")
        return ModuleMap(self.source, other.target,
                         {v: self.blocks[v] @ other.blocks[v]
                          for v in self.blocks}, validate=False)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def is_injective(self):
        return all(rank(b) == self.source.dims[v]
                   for v, b in self.blocks.items())

    def is_surjective(self):
        return all(rank(b) == self.target.dims[v]
                   for v, b in self.blocks.items())

    def is_iso(self):
        return (self.source.dim_vector() == self.target.dim_vector()
                and self.is_injective())

    @classmethod
    def identity(cls, m):
        return cls(m, m, {v: Matrix.identity(m.dims[v]) for v in m.dims},
                   validate=False)

    @classmethod
    def zero(cls, m, n):
        return cls(m, n, {}, validate=False)


# -- basic constructions ---------------------------------------------------

def zero_rep(algebra):
    return Representation(algebra, {}, {}, validate=False)


@memo
def simple_rep(algebra, v):
    return Representation(algebra, {v: 1}, {})


@memo
def projective_from_vertices(algebra, verts):
    """Direct sum of the projectives at the vertices of the tuple verts,
    with the path basis recorded row by row so maps out of it can be
    written down from generator images alone.  Built once per vertex tuple
    and cached on the algebra; nothing changes a projective after it is
    built, so every caller shares the module and its caches.

    Relations are checked on the single-vertex projectives only.  A sum of
    several is not checked: at each vertex its rows are grouped by summand
    j, each group in the path-basis order of P(v_j), and an arrow maps the
    rows of summand j into those of summand j by P(v_j)'s own matrix.  So
    every arrow matrix is block-diagonal in the checked P(v_j), and every
    relation holds summand by summand, as in direct_sum."""
    if len(verts) > 1:
        for v in verts:
            projective_rep(algebra, v)
    q = algebra.quiver
    row_paths = {w: [] for w in q.vertices}
    for j, v in enumerate(verts):
        for i in algebra.paths_from(v):
            row_paths[algebra.basis[i].target].append((j, i))
    dims = {w: len(row_paths[w]) for w in q.vertices}
    pos = {w: {ji: r for r, ji in enumerate(row_paths[w])} for w in q.vertices}
    mats = {}
    for a in q.arrows:
        ab = algebra._arrow_basis[a.index]
        rows = []
        for j, i in row_paths[a.source]:
            row = [0] * dims[a.target]
            prod = algebra.mult[i][ab]
            if prod:
                for k, c in prod.items():
                    row[pos[a.target][(j, k)]] = c
            rows.append(row)
        mats[a.index] = Matrix(rows, dims[a.source], dims[a.target])
    rep = Representation(algebra, dims, mats, validate=len(verts) == 1)
    rep.proj_summand_vertices = verts
    rep.proj_row_paths = row_paths
    rep.proj_gen = [(v, pos[v][(j, algebra._idem[v])]) for j, v in enumerate(verts)]
    return rep


def projective_rep(algebra, v):
    return projective_from_vertices(algebra, (v,))


def regular_rep(algebra):
    return projective_from_vertices(algebra, algebra.quiver.vertices)


def injective_rep(algebra, v):
    """The dual of P(v) over the opposite algebra: that projective is
    shared and the dual is crosslinked, so every call returns one module."""
    return dualize(projective_rep(algebra.opposite_algebra(), v))


def projective_map(proj, target, images):
    """Map out of projective_from_vertices data: images[j] is a row of the
    target component at the j-th generator vertex.

    Row (p, j) is images[j]·action(p), the combination of the rows of
    action(p) with the entries of images[j] as coefficients.  The map is
    not checked against the arrows: an arrow a sends row (p, j) to the sum
    of c_k·row (p_k, j), where p·a = sum c_k p_k in A, and the map sends
    that to images[j]·(sum c_k action(p_k)) = images[j]·action(p)·T_a,
    because the target satisfies the relations (the Representation
    invariant).  A vertex where the target is zero gets its zero-width
    block at once, with no path action read."""
    basis = proj.algebra.basis
    blocks = {}
    for w in proj.algebra.quiver.vertices:
        if not target.dims[w]:
            blocks[w] = Matrix.zeros(proj.dims[w], 0)
            continue
        blocks[w] = Matrix(
            [linear_combination(images[j], target.path_action(basis[i]).data)
             if any(images[j]) else [0] * target.dims[w]
             for j, i in proj.proj_row_paths[w]], proj.dims[w], target.dims[w])
    return ModuleMap(proj, target, blocks, validate=False)


def dualize(m):
    """Dual module over the opposite algebra; arrow matrices transpose.

    The relations are not checked again: those of the opposite algebra are
    the reversed words, and (M_a1 ... M_ak)^T = M_ak^T ... M_a1^T, so each
    one acts on the dual as the transpose of a relation acting on m, which
    is zero."""
    if m._dual is not None:
        return m._dual
    op = m.algebra.opposite_algebra()
    mats = {a.index: m.mats[a.index].transpose() for a in m.algebra.quiver.arrows}
    d = Representation(op, dict(m.dims), mats, validate=False)
    d._dual = m
    m._dual = d
    return d


def direct_sum(reps):
    reps = list(reps)
    if not reps:
        raise InvalidParameters("empty direct sum; use zero_rep")
    algebra = reps[0].algebra
    q = algebra.quiver
    dims = {v: sum(r.dims[v] for r in reps) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        out = [[0] * dims[a.target] for _ in range(dims[a.source])]
        ro = co = 0
        for r in reps:
            b = r.mats[a.index]
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[ro + i][co + j] = b.data[i][j]
            ro += r.dims[a.source]
            co += r.dims[a.target]
        mats[a.index] = Matrix(out, dims[a.source], dims[a.target])
    return Representation(algebra, dims, mats, validate=False)


def summand_inclusion(total, reps, idx):
    """The inclusion of reps[idx] into total, their direct sum: at each
    vertex its rows follow those of the summands before it."""
    r = reps[idx]
    blocks = {}
    for v in total.algebra.quiver.vertices:
        lo = sum(s.dims[v] for s in reps[:idx])
        n = total.dims[v]
        blocks[v] = Matrix([[int(c == lo + i) for c in range(n)]
                            for i in range(r.dims[v])], r.dims[v], n)
    return ModuleMap(r, total, blocks, validate=False)


def summand_projection(total, reps, idx):
    """The blockwise transpose of summand_inclusion."""
    incl = summand_inclusion(total, reps, idx)
    return ModuleMap(total, reps[idx],
                     {v: b.transpose() for v, b in incl.blocks.items()},
                     validate=False)


# -- radical, top, socle ---------------------------------------------------

@memo
def radical_rows(m):
    """Row space of the radical at each vertex: a dict from vertex to the
    nonzero rows of an RREF, the span of the images of the arrows into v.
    A zero component has the empty row space, and an arrow out of a zero
    component has no rows, so it is left out of the stack.  Computed once
    per module and kept on it (algebra.memo); callers never mutate the
    shared dict or its matrices."""
    q = m.algebra.quiver
    out = {}
    for v in q.vertices:
        pieces = [m.mats[a.index] for a in q.arrows_to(v) if m.dims[a.source]]
        if pieces and m.dims[v]:
            out[v] = row_space(vstack(pieces))
        else:
            out[v] = Matrix.zeros(0, m.dims[v])
    return out


def radical_power_rows(m, k):
    """Row space of the k-th radical power at each vertex, k >= 1."""
    q = m.algebra.quiver
    cur = radical_rows(m)
    for _ in range(k - 1):
        nxt = {}
        for v in q.vertices:
            pieces = [cur[a.source] @ m.mats[a.index] for a in q.arrows_to(v)]
            nxt[v] = row_space(vstack(pieces)) if pieces else Matrix.zeros(0, m.dims[v])
        cur = nxt
    return cur


def top_dims(m):
    rad = radical_rows(m)
    return tuple(m.dims[v] - rad[v].nrows for v in m.algebra.quiver.vertices)


@memo
def socle_rows(m):
    """Basis rows of the socle at each vertex: a dict from vertex to the
    rows killed by every arrow out of it.  Computed once per module and
    kept on it (algebra.memo); callers never mutate the shared dict or its
    matrices."""
    q = m.algebra.quiver
    out = {}
    for v in q.vertices:
        pieces = [m.mats[a.index] for a in q.arrows_from(v)]
        if pieces:
            out[v] = left_kernel(hstack(pieces))
        else:
            out[v] = Matrix.identity(m.dims[v])
    return out


def socle_dims(m):
    soc = socle_rows(m)
    return tuple(soc[v].nrows for v in m.algebra.quiver.vertices)


# -- sub and quotient objects ----------------------------------------------

def sub_representation(m, rows_by_vertex):
    """Subrepresentation spanned by the given rows (per vertex), which must
    be closed under the arrow action: rows of kernels, socles, radicals and
    images are.  Returns (sub, inclusion).  A submodule generated by rows
    that are not closed is the image of a map from a projective
    (cyclic_submodule).

    Each span is held as the nonzero rows of its RREF.  Such a row is 1 at
    its own pivot column, the first nonzero entry, and 0 at every other
    pivot column, so a combination sum x_r B_r has the entry x_r at pivot
    r.  For an arrow a: s -> t, if img = span_s M_a lies in span_t, then
    X_a = img[:, piv_t] are its unique coordinates, and if it does not,
    X_a span_t differs from img; so X_a span_t == img certifies X_a, and
    a failed check raises CertificateFailure.

    The relations are not checked again: span_s M_a = X_a span_t for
    every arrow a, so for every path and hence every relation rho,
    span_s rho(M) = rho(X) span_t.  rho(M) = 0 and span_t has full row
    rank, so rho(X) = 0.  Nor is the inclusion checked against the
    arrows: its block at v is span_v, and span_s M_a = X_a span_t is
    exactly the commuting square for the arrow a, just certified in exact
    arithmetic.

    When span_s has no rows, or the component of m at t is zero, X_a is
    the empty matrix of its shape, with no product and no check: img has
    no entries.  An empty span_t over a nonzero component is multiplied
    and checked, since then img must be zero."""
    q = m.algebra.quiver
    spans = {}
    for v in q.vertices:
        rows = rows_by_vertex.get(v, [])
        mat = rows if isinstance(rows, Matrix) else Matrix(
            [list(r) for r in rows], len(rows), m.dims[v])
        spans[v] = row_space(mat)
    mats = {}
    for a in q.arrows:
        span_s, span_t = spans[a.source], spans[a.target]
        if not (span_s.nrows and m.dims[a.target]):
            mats[a.index] = Matrix.zeros(span_s.nrows, span_t.nrows)
            continue
        img = span_s @ m.mats[a.index]
        piv = [r.index(1) for r in span_t.data]
        x = Matrix([[r[c] for c in piv] for r in img.data],
                   img.nrows, len(piv))
        if x @ span_t != img:
            raise CertificateFailure("rows are not closed under the action")
        mats[a.index] = x
    dims = {v: spans[v].nrows for v in q.vertices}
    sub = Representation(m.algebra, dims, mats, validate=False)
    incl = ModuleMap(sub, m, dict(spans), validate=False)
    return sub, incl


def cyclic_submodule(m, v, row):
    """(sub, inclusion) of the submodule generated by a row of m at v: the
    image of the map P(v) -> m that sends the generator to the row."""
    f = projective_map(projective_rep(m.algebra, v), m, [list(row)])
    return sub_representation(m, f.blocks)


def quotient_by_rows(m, rows_by_vertex):
    """Quotient by the subrepresentation spanned by the rows.  Returns
    (quotient, projection).

    With R the RREF of the rows at v and free its non-pivot columns, the
    quotient component has the basis of the unit rows at free, and the
    projection pi_v sends the unit row c in free to the unit vector at c's
    position in free, and the unit row at the pivot of R_r to -R_r
    restricted to free: each is the unit row less its multiple of R_r,
    which vanishes at every pivot.  Q_a is the rows of M_a at free[s]
    times pi_t, the action on the lifted basis, projected.

    Rows that are not closed raise InvalidParameters from the check of the
    projection pi, which commutes with the arrows (M_a pi_t = pi_s Q_a)
    exactly when the rows are closed.  The relations are not checked
    again: for every relation rho, pi_s rho(Q) = rho(M) pi_t = 0, and pi_s
    is onto (its rows span the quotient component), so rho(Q) = 0."""
    q = m.algebra.quiver
    free = {}
    blocks = {}
    for v in q.vertices:
        rows = rows_by_vertex.get(v)
        if rows is None:
            rows = Matrix.zeros(0, m.dims[v])
        elif not isinstance(rows, Matrix):
            rows = Matrix([list(r) for r in rows], len(rows), m.dims[v])
        R, piv = rref(rows)
        free[v] = [c for c in range(m.dims[v]) if c not in piv]
        pi = [[int(c == f) for f in free[v]] for c in range(m.dims[v])]
        for r, c in enumerate(piv):
            pi[c] = [-R.data[r][f] for f in free[v]]
        blocks[v] = Matrix(pi, m.dims[v], len(free[v]))
    dims = {v: len(free[v]) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        ma = m.mats[a.index]
        lifted = Matrix([ma.data[c] for c in free[a.source]],
                        dims[a.source], ma.ncols)
        mats[a.index] = lifted @ blocks[a.target]
    quot = Representation(m.algebra, dims, mats, validate=False)
    proj = ModuleMap(m, quot, blocks, validate=True)
    return quot, proj


def kernel_of_map(f):
    """(kernel, inclusion) of a module map."""
    ker_rows = {v: left_kernel(f.blocks[v]) for v in f.blocks}
    return sub_representation(f.source, ker_rows)


def cokernel_of_map(f):
    """(cokernel, projection) of a module map: the quotient of its target
    by the span of the rows of its blocks, which quotient_by_rows reduces
    once."""
    return quotient_by_rows(f.target, f.blocks)


def radical_submodule(m):
    return sub_representation(m, radical_rows(m))


def uniserial_quotient(algebra, v, k):
    """Projective at v modulo the k-th radical power."""
    p = projective_rep(algebra, v)
    return quotient_by_rows(p, radical_power_rows(p, k))[0]


# -- hom spaces ------------------------------------------------------------

@memo
def hom_basis(m, n):
    """Basis of the homomorphism space as a list of maps, deterministic.
    Computed once per pair and kept on m (algebra.memo), so m keeps n
    alive; callers never mutate the shared list or its maps."""
    q = m.algebra.quiver
    offs = {}
    total = 0
    for v in q.vertices:
        offs[v] = total
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return []
    rows = []
    for a in q.arrows:
        v, w = a.source, a.target
        ma, na = m.mats[a.index], n.mats[a.index]
        for i in range(m.dims[v]):
            for k in range(n.dims[w]):
                row = [0] * total
                for j in range(m.dims[w]):
                    row[offs[w] + j * n.dims[w] + k] += ma.data[i][j]
                for j in range(n.dims[v]):
                    row[offs[v] + i * n.dims[v] + j] -= na.data[j][k]
                if any(row):
                    rows.append(row)
    zero = ModuleMap.zero(m, n)
    return [_map_from_flat(zero, v)
            for v in kernel_vectors(Matrix(rows, len(rows), total))]


def is_faithful(m):
    """True iff no nonzero algebra element acts as zero.

    A basis path acts only from its source's component to its target's, so
    this holds iff, for each pair of endpoints, the flattened actions of the
    basis paths between them are linearly independent."""
    groups = {}
    for p in m.algebra.basis:
        groups.setdefault((p.source, p.target), []).append(
            [x for r in m.path_action(p).data for x in r])
    return all(rank(Matrix(rows, len(rows), len(rows[0]))) == len(rows)
               for rows in groups.values())


# -- isomorphism and decomposition -----------------------------------------

class IsoResult:
    __slots__ = ("kind", "map", "reason")

    def __init__(self, kind, map=None, reason=None):
        self.kind = kind
        self.map = map
        self.reason = reason

    @property
    def is_iso(self):
        return self.kind == "iso"

    def __repr__(self):
        return "IsoResult(%s)" % self.kind


def flat_blocks(f):
    """Entries of the blocks of a map, vertex by vertex in quiver order,
    each block row by row."""
    return [x for b in f.blocks.values() for row in b.data for x in row]


def map_in_span(h, maps):
    """True when the map h is a linear combination of the maps, all of
    them with the block shapes of h: when flat_blocks(h) leaves a zero
    residual against the RREF of the maps' flat_blocks rows."""
    target = flat_blocks(h)
    R, piv = rref(Matrix([flat_blocks(f) for f in maps], len(maps),
                         len(target)))
    return not any(reduce_row(target, R.data, piv))


def _map_from_flat(like, vec):
    """Map with the source, target and block shapes of `like` whose block
    entries, laid out as flat_blocks lays them out, are vec."""
    blocks = {}
    pos = 0
    for v, b in like.blocks.items():
        r, c = b.nrows, b.ncols
        blocks[v] = Matrix([vec[pos + i * c:pos + (i + 1) * c]
                            for i in range(r)], r, c)
        pos += r * c
    return ModuleMap(like.source, like.target, blocks, validate=False)


def iso_test(m, n):
    """Exact isomorphism decision.

    The checks run in this order.  Differing dimension vectors certify "not
    isomorphic".  Equal data certifies "isomorphic" before any search: when
    every arrow matrix of m equals that of n, the identity at each vertex
    commutes with every arrow, so it is an invertible module map m -> n.
    Differing tops or socles certify "not isomorphic".  Then the Hom basis
    m -> n is built, and an invertible basis map certifies "isomorphic".
    Only then are the other three Hom bases built: isomorphic modules have
    equal Hom dimensions, so trying the maps first changes no answer, and
    differing dimensions certify "not isomorphic", as does an empty
    Hom(m, n).  If no basis map f_i: m -> n is invertible and m is
    indecomposable, the answer is "not isomorphic": End(m) is local
    (Fitting's lemma), and for an isomorphism f = sum a_i f_i with inverse
    g = sum b_j g_j, id = sum a_i b_j f_i g_j, so some f_i g_j is a unit of
    End(m), which makes f_i injective and so invertible.  Otherwise the
    decompositions of m and n are matched summand by summand
    (Krull-Schmidt).  decompose decides every module whose End/rad is
    commutative; the DecompositionInconclusive it raises for the others
    propagates and is never read as a negative."""
    if m.dim_vector() != n.dim_vector():
        return IsoResult("not_iso", reason="dimension vectors differ")
    if m.total_dim == 0:
        return IsoResult("iso", map=ModuleMap.zero(m, n))
    if m.mats == n.mats:
        return IsoResult("iso", map=ModuleMap(
            m, n, {v: Matrix.identity(d) for v, d in m.dims.items()},
            validate=False))
    if top_dims(m) != top_dims(n):
        return IsoResult("not_iso", reason="tops differ")
    if socle_dims(m) != socle_dims(n):
        return IsoResult("not_iso", reason="socles differ")
    fwd = hom_basis(m, n)
    for f in fwd:
        if f.is_iso():
            return IsoResult("iso", map=f)
    if not len(fwd) == len(hom_basis(n, m)) == len(hom_basis(m, m)) \
            == len(hom_basis(n, n)):
        return IsoResult("not_iso", reason="hom dimensions differ")
    if not fwd:
        return IsoResult("not_iso", reason="no nonzero maps")
    parts = decompose(m)
    if len(parts) == 1:
        return IsoResult("not_iso", reason="indecomposable, no basis map "
                                           "is invertible")
    if same_add_closure(parts, decompose(n)):
        return IsoResult("iso", reason="summands match")
    return IsoResult("not_iso", reason="summands differ")


def first_of_each_iso_class(mods):
    """Positions of the nonzero modules of the list, each kept unless it is
    isomorphic to one kept before it.  A module is compared only with the
    kept modules of its dimension vector, in the order they were kept:
    iso_test answers "not isomorphic" to every other one at its first
    check.  Positions, not modules, so that one module listed twice (under
    two names, say) is kept once, at its first place."""
    kept = []
    by_dims = {}
    for i, m in enumerate(mods):
        if m.is_zero():
            continue
        same = by_dims.setdefault(m.dim_vector(), [])
        if any(iso_test(m, n).is_iso for n in same):
            continue
        same.append(m)
        kept.append(i)
    return kept


def same_add_closure(parts_a, parts_b):
    """True when two lists of indecomposables match pairwise up to
    isomorphism, so they generate the same additive closure."""
    if len(parts_a) != len(parts_b):
        return False
    unused = list(parts_b)
    for p in parts_a:
        hit = next((q for q in unused if iso_test(p, q).is_iso), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


def _poly_of_map(f, coeffs):
    """Evaluate a polynomial (low degree first) at an endomorphism."""
    blocks = {v: poly_eval_matrix(coeffs, b) for v, b in f.blocks.items()}
    return ModuleMap(f.source, f.target, blocks, validate=False)


def _primitive(coeffs):
    """The integer polynomial (low degree first) that is a rational multiple
    of coeffs with coprime coefficients and a positive leading one."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _divisors(n):
    """Positive divisors of a nonzero int, by trial division."""
    n = abs(n)
    low = [d for d in range(1, isqrt(n) + 1) if not n % d]
    return sorted(set(low + [n // d for d in low]))


def _divide_linear(f, q, p):
    """The integer quotient of f (low degree first) by q*x - p, or None
    when q*x - p does not divide f.  With gcd(p, q) = 1 the linear factor
    is primitive, so by Gauss's lemma it divides f over Q exactly when the
    synthetic division below stays in the integers and leaves no
    remainder."""
    out = [0] * (len(f) - 1)
    b = 0
    for k in range(len(f) - 1, 0, -1):
        b, r = divmod(f[k] + p * b, q)
        if r:
            return None
        out[k - 1] = b
    return out if f[0] + p * b == 0 else None


def _coprime_split(coeffs):
    """Split a polynomial (low degree first) into coprime factors g1, g2,
    both integer coefficient lists; None when the polynomial is a power of
    one irreducible.

    g1 is the power of the first irreducible factor in sympy's factor_list
    order and g2 the product of the rest.  factor_list returns primitive
    integer factors with positive leading coefficients, sorted by degree,
    then multiplicity, then coefficients leading first.  So whenever the
    polynomial has a rational root its first factor is linear, q*x - p with
    q > 0 and gcd(p, q) = 1, and that order picks the least
    (multiplicity, q, -p).  Those linear factors are found here in integer
    arithmetic: the power of x, then the roots p/q with p dividing the
    lowest nonzero coefficient and q the leading one of the primitive part,
    each divided out with its multiplicity.  g2 is the primitive part
    divided by g1.  Only a polynomial with no rational root goes to sympy,
    which is imported then and not before."""
    f = _primitive(coeffs)
    low = next(c for c in f if c)
    cands = [(1, 0)] + [(q, s * p) for q in _divisors(f[-1])
                        for p in _divisors(low) for s in (1, -1)
                        if gcd(p, q) == 1]
    roots = []
    rest = f
    for q, p in cands:
        e = 0
        while len(rest) > 1:
            quo = _divide_linear(rest, q, p)
            if quo is None:
                break
            rest, e = quo, e + 1
        if e:
            roots.append((e, q, p))
    if not roots:
        return _sympy_split(coeffs)
    if len(roots) == 1 and len(rest) == 1:
        return None
    e, q, p = min(roots, key=lambda t: (t[0], t[1], -t[2]))
    g2 = f
    for _ in range(e):
        g2 = _divide_linear(g2, q, p)
    return [[comb(e, k) * q ** k * (-p) ** (e - k) for k in range(e + 1)], g2]


def _sympy_split(coeffs):
    """_coprime_split by sympy's factor_list, for a polynomial with no
    rational root."""
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], x)
    _, facs = poly.factor_list()
    if len(facs) < 2:
        return None
    g2 = sympy.Poly(1, x)
    for p, e in facs[1:]:
        g2 = g2 * p ** e
    return [[exact(Fraction(c.p, c.q)) for c in reversed(g.all_coeffs())]
            for g in (facs[0][0] ** facs[0][1], g2)]


def _trace_form(endos):
    """Gram matrix tr(f_i f_j) of the trace form on the span of the
    endomorphisms.  Maps act vertex by vertex, so tr(f_i f_j) is the sum
    of the entrywise products of the blocks of f_i with the transposed
    blocks of f_j; the matrix is symmetric, so each pair is summed once."""
    flat = [flat_blocks(f) for f in endos]
    flat_t = [[b.data[i][j] for b in f.blocks.values()
               for j in range(b.ncols) for i in range(b.nrows)]
              for f in endos]
    k = len(endos)
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            t = sum((x * y for x, y in zip(flat[i], flat_t[j]) if x and y), 0)
            gram[i][j] = gram[j][i] = t
    return Matrix(gram, k, k)


def _trace(f):
    return sum(b.data[i][i] for b in f.blocks.values() for i in range(b.nrows))


def _candidates(endos, basis):
    """The maps endos, then the moment-curve points sum_j t^j basis[j] for
    t = 1..(s-1)^2 s/2 with s = len(basis), each point built only when
    the search asks for it, and the basis flattened only once the endos
    are used up."""
    yield from endos
    s = len(basis)
    for vec in moment_curve([flat_blocks(g) for g in basis],
                            (s - 1) ** 2 * s // 2):
        yield _map_from_flat(basis[0], vec)


def decompose(m):
    """Indecomposable summands, via kernels of polynomials in endomorphisms.

    Let S = End(M)/rad.  By Dickson's theorem the kernel of the trace form
    tr(fg) on End(M) is rad End(M) in characteristic 0, so the pivot
    columns of the reduced Gram matrix of the Hom basis pick endomorphisms
    g_0..g_{s-1} whose images form a basis of S.  A one-dimensional
    End(M), or s = 1, certifies M indecomposable: End(M) is then local
    with residue field Q, every endomorphism is a scalar plus a nilpotent,
    and none can split M.

    Otherwise the candidates are tried in turn: the Hom basis, then the
    moment-curve points x_t = sum_j t^j g_j for t = 1..(s-1)^2 s/2.  The
    point x_0 = g_0 is a Hom-basis map, so the list holds x_t for every t
    in 0..(s-1)^2 s/2, and it builds each once.  A candidate whose minimal
    polynomial has two coprime factors splits M into their kernels
    (Fitting), and each kernel is decomposed in turn.

    The list decides every M whose S is commutative.  S is then a product
    of number fields K_1..K_r with s embeddings sigma_a into C, and the
    image of x in S generates S exactly when the sigma_a(x) are distinct.
    For a != b the embeddings differ on S, so (sigma_a - sigma_b)(x_t) =
    sum_j t^j (sigma_a - sigma_b)(g_j) is a nonzero polynomial in t of
    degree at most s - 1.  The s(s-1)/2 of them vanish at no more than
    (s-1)^2 s/2 integers in all, so one of the (s-1)^2 s/2 + 1 values of t
    in 0..(s-1)^2 s/2 gives a generator x_t.  The minimal polynomial of
    its image in S is then a product of r distinct irreducibles, one per
    K_i, and the minimal polynomial of x_t on M has the same irreducible
    factors, because rad End(M) is nilpotent.  It has coprime factors
    exactly when r >= 2, that is, when S is not a field, which is when S,
    and so End(M), has a nontrivial idempotent and M is decomposable.  So
    when no candidate splits and S is commutative, M is indecomposable.  S
    is commutative when every commutator [g_i, g_j] lies in rad, the kernel
    of the trace form: when tr([g_i, g_j] g_l) = 0 for all i, j and l,
    since the g_l and rad span End(M) and tr(c r) = 0 for r in rad.  If S
    is not commutative, DecompositionInconclusive is raised: finding zero
    divisors in a noncommutative S is hard in general.
    """
    if m.total_dim == 0:
        return []
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [m]
    basis = [endos[i] for i in rref(_trace_form(endos))[1]]
    if len(basis) == 1:
        return [m]
    for f in _candidates(endos, basis):
        split = _coprime_split(minimal_polynomial(list(f.blocks.values())))
        if split is None:
            continue
        k1, k2 = (kernel_of_map(_poly_of_map(f, g))[0] for g in split)
        if k1.total_dim + k2.total_dim != m.total_dim or k1.total_dim == 0 \
                or k2.total_dim == 0:
            raise CertificateFailure("fitting split does not add up")
        return decompose(k1) + decompose(k2)
    if all(_trace(g.then(h).then(x)) == _trace(h.then(g).then(x))
           for i, g in enumerate(basis) for h in basis[i + 1:]
           for x in basis):
        return [m]
    raise DecompositionInconclusive(
        "End(M)/rad is not commutative and no candidate endomorphism "
        "splits M")
