"""Independent cross-checks used to freeze expected values in the tests.

word_space_dimension recomputes the dimension of a presented algebra from
scratch: words are enumerated by arrow name, the relation span is padded
inside the truncated word space, and the rank comes from sympy's rref.  The
caller supplies a Loewy bound known from the theory of the family under
test, so nothing here depends on the package's own truncation search.

fraction_rref and the functions built on it are the reference for the
package's linear algebra: the same pivot rule and output bases, computed
with every entry a Fraction, on plain lists of rows.

sympy_coprime_split is the reference for modules._coprime_split: the split
read off sympy's factor_list for every polynomial.

flat_resolution is the reference for homology.ProjectiveResolution: the
minimal resolution built degree by degree with one cover and one kernel
each, every syzygy a new module, nothing shared between modules.
flat_ext_dims reads extension dimensions off it, with ranks from
fraction_rref.

quotient_tower_walk is the reference for stratify._filt_core: the trace
recursion as it ran before the submodule chain, building the trace of the
top vertex and the quotient by it as modules at every layer, with the
solved references below.  closed_standard is the reference for
stratify._standard_at: the standard module as the package built it
before it read the submodule's rows off products of paths, a closure of
radical rows and the quotient by them.

total_space_is_faithful is the reference for modules.is_faithful: each
basis element's action written out on the whole module, all of them
flattened into one matrix whose rank must be the algebra's dimension.

nakayama_injective_projectives lists the projective-injectives of a cyclic
Nakayama algebra from its Kupisch series alone.  nakayama_combinatorics
reads the projective, injective, dominant and codominant dimension of every
uniserial module off the Kupisch series, with no linear algebra.

solved_sub_representation and reduced_quotient_by_rows are the references
for modules.sub_representation and modules.quotient_by_rows, as the package
built them before it read their matrices off the reduced echelon rows: a
fixpoint that re-reduces every target span on every pass followed by one
solve per arrow for X_a with X_a span_t = span_s M_a, and a projection
that reduces one unit row per basis column, with the quotient's arrows
taken through an explicit lift.

searched_iso_test is the reference for modules.iso_test, as the package
decided isomorphism before equal data certified it: structural invariants,
four Hom-basis solves, an invertible basis map, and otherwise the
decompositions matched summand by summand with the same search.  It
shares modules.decompose, which tries the Hom basis and then a finite,
deterministic list of combinations; no seeded search is left in it.

textbook_nakayama is the reference for algebra.nakayama_from_kupisch:
the Nakayama algebra of a Kupisch series under the textbook conditions
(Assem-Simson-Skowronski, Elements I, chapter V), tested shape by shape.  A
series c_0 .. c_{n-1} is linear when c_{n-1} = 1, 2 <= c_i <= n - i and
c_i <= c_{i+1} + 1 for i < n - 1, and cyclic when every c_i >= 2 and
c_i <= c_{i+1} + 1 with indices mod n.  The quiver and the zero relations
are written out and passed straight to build_algebra.

path_normal_form is the image of a quiver path in an algebra, a product
of arrow elements.  rediscovered_quotient is the reference for
BoundQuiverAlgebra.quotient_by_idempotent_ideal: the presentation of
A/Ae_SA found from scratch, as the package built it before it took the
images of A's relations.  Every path of the kept subquiver up to A's Loewy
bound is taken to its normal form in A and reduced modulo the ideal, and
the relations are a left kernel per pair of endpoints.
"""
from fractions import Fraction

import sympy

from quiverhom.algebra import Path, Quiver, Relation, build_algebra
from quiverhom.homology import (
    _coord_matrix, _hom_offsets, _presentation_elements, projective_cover,
)
from quiverhom.errors import CertificateFailure
from quiverhom.linalg import (
    Matrix, left_kernel, reduce_row, row_space, rref, solve_linear, vstack,
)
from quiverhom.modules import (
    IsoResult, ModuleMap, Representation, decompose, hom_basis,
    kernel_of_map, projective_rep, radical_rows, socle_dims, top_dims,
)


def word_space_dimension(vertices, arrows, relations, loewy):
    """Dimension of the quiver algebra modulo the relations, given that
    words of length >= loewy vanish.

    arrows: list of (name, source, target).
    relations: list of [(coeff, (name, ...)), ...] with nonempty words.
    """
    arr = {name: (s, t) for name, s, t in arrows}

    def w_target(w, s):
        return arr[w[-1]][1] if w else s

    levels = [[(v, ()) for v in vertices]]
    for _ in range(loewy - 1):
        nxt = []
        for s, w in levels[-1]:
            end = w_target(w, s)
            for name in sorted(arr):
                if arr[name][0] == end:
                    nxt.append((s, w + (name,)))
        levels.append(nxt)
    allw = sorted(w for lev in levels for w in lev)
    col = {w: i for i, w in enumerate(allw)}

    rows = []
    for rel in relations:
        rsrc = arr[rel[0][1][0]][0]
        rtgt = w_target(rel[0][1], rsrc)
        for us, uw in allw:
            if w_target(uw, us) != rsrc:
                continue
            for vs, vw in allw:
                if vs != rtgt:
                    continue
                row = [0] * len(allw)
                hit = False
                for c, names in rel:
                    if len(uw) + len(names) + len(vw) <= loewy - 1:
                        row[col[(us, uw + tuple(names) + vw)]] += sympy.Rational(c)
                        hit = True
                if hit and any(row):
                    rows.append(row)
    r = sympy.Matrix(rows).rank() if rows else 0
    return len(allw) - r


def fraction_rref(rows, ncols):
    """Reduced row echelon form with every entry a Fraction: scan columns
    left to right, pivot on the first unused row with a nonzero entry.
    Returns (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def fraction_right_kernel(rows, ncols):
    """Kernel columns x (rows @ x = 0), one per free column, as a list of
    columns."""
    R, piv = fraction_rref(rows, ncols)
    cols = []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):
            v[pc] = -R[r][fc]
        cols.append(v)
    return cols


def fraction_solve_xa_b(a, b, ncols):
    """Rows X with X @ a = b (a has ncols columns), free variables zero;
    None when inconsistent."""
    at = [list(c) for c in zip(*a)] if a else [[] for _ in range(ncols)]
    bt = [list(c) for c in zip(*b)] if b else [[] for _ in range(ncols)]
    R, piv = fraction_rref([x + y for x, y in zip(at, bt)], len(a) + len(b))
    if any(c >= len(a) for c in piv):
        return None
    sol = [[Fraction(0)] * len(a) for _ in b]
    for r, pc in enumerate(piv):
        for j in range(len(b)):
            sol[j][pc] = R[r][len(a) + j]
    return sol


def fraction_minimal_polynomial(rows):
    """Monic minimal polynomial, low degree first: the first dependence of
    M^k on I, M, ..., M^(k-1); [1] for the 0 x 0 matrix."""
    n = len(rows)
    if n == 0:
        return [Fraction(1)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    flat = [[x for r in power for x in r]]
    while True:
        power = [[sum((r[k] * rows[k][j] for k in range(n)), Fraction(0))
                  for j in range(n)] for r in power]
        target = [x for r in power for x in r]
        sol = fraction_solve_xa_b(flat, [target], n * n)
        if sol is not None:
            return [-x for x in sol[0]] + [Fraction(1)]
        flat.append(target)


def sympy_coprime_split(coeffs):
    """[g1, g2] for a polynomial (low degree first): g1 the power of the
    first factor in sympy's factor_list order, g2 the product of the rest,
    both as integer lists low degree first; None for a power of one
    irreducible."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], x)
    _, facs = poly.factor_list()
    if len(facs) < 2:
        return None
    g2 = sympy.Poly(1, x)
    for p, e in facs[1:]:
        g2 = g2 * p ** e
    out = []
    for g in (facs[0][0] ** facs[0][1], g2):
        cs = [sympy.Rational(c) for c in reversed(g.all_coeffs())]
        assert all(c.q == 1 for c in cs)
        out.append([int(c.p) for c in cs])
    return out


def is_irreducible_over_q(coeffs):
    """True when the polynomial (low degree first, degree >= 1) has no
    nontrivial factorization over Q, by sympy."""
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], x).is_irreducible


def total_space_is_faithful(m):
    """True iff no nonzero algebra element acts as zero on m, read off the
    total-space matrix of every basis path."""
    a, n = m.algebra, m.total_dim
    if n == 0:
        return a.dim == 0
    offsets, off = {}, 0
    for v in a.quiver.vertices:
        offsets[v] = off
        off += m.dims[v]
    rows = []
    for p in a.basis:
        t = [[0] * n for _ in range(n)]
        pa = m.path_action(p)
        ro, co = offsets[p.source], offsets[p.target]
        for i in range(pa.nrows):
            for j in range(pa.ncols):
                t[ro + i][co + j] = pa.data[i][j]
        rows.append([x for r in t for x in r])
    return len(fraction_rref(rows, n * n)[1]) == a.dim


def nakayama_injective_projectives(kupisch):
    """Vertices i, ascending, whose projective P(i) is injective over the
    cyclic Nakayama algebra with this Kupisch series k.  The radical of
    P(i-1) (indices mod n) is the quotient of P(i) of length k[i-1] - 1,
    so P(i) embeds properly in P(i-1) exactly when k[i-1] - 1 >= k[i];
    a series drops by at most one a step, so P(i) is injective exactly
    when k[i-1] <= k[i]."""
    k = list(kupisch)
    return [i for i in range(len(k)) if k[i - 1] <= k[i]]


def nakayama_combinatorics(kupisch):
    """{(i, l): dimensions} for every uniserial M(i, l), top i and length
    l, over the cyclic Nakayama algebra with Kupisch series c = kupisch
    (arrows i -> i+1, indices mod n).  The syzygy of M(i, l) is
    M(i+l, c_i - l).  The injective envelope of a module with socle s is
    the longest uniserial with socle s, of length
    d_s = max{l : c_(s-l+1) >= l}, and the cosyzygy of M(i, l), socle
    s = i+l-1, is M(s-d_s+1, d_s - l).  I(s) is projective iff
    d_s = c_(s-d_s+1), and P(i) is injective iff d_(i+c_i-1) = c_i.

    "pd" and "id" are ("exact", k) when the k+1-th syzygy (cosyzygy) is
    zero, else ("infinite", period, onset) from the first repeated one,
    onset >= 1, as invariants.projective_dimension counts them.  "domdim"
    and "codomdim" are ("exact", t), t the first term of the injective
    (projective) resolution that is not projective (injective), or
    ("infinite",) when the resolution ends or repeats first."""
    c = list(kupisch)
    n = len(c)

    def d(s):
        return max(l for l in range(1, max(c) + 1) if c[(s - l + 1) % n] >= l)

    def syzygy(i, l):
        return (i + l) % n, c[i] - l

    def cosyzygy(i, l):
        s = (i + l - 1) % n
        return (s - d(s) + 1) % n, d(s) - l

    def dimension(state, step):
        seen = {}
        k = 0
        while state[1]:
            if state in seen:
                return ("infinite", k - seen[state], seen[state])
            if k:
                seen[state] = k
            state = step(*state)
            k += 1
        return ("exact", k - 1)

    def leading(state, step, good):
        seen = set()
        t = 0
        while state[1] and state not in seen:
            if not good(*state):
                return ("exact", t)
            seen.add(state)
            state = step(*state)
            t += 1
        return ("infinite",)

    def injective_is_projective(i, l):
        s = (i + l - 1) % n
        return d(s) == c[(s - d(s) + 1) % n]

    def projective_is_injective(i, l):
        return d((i + c[i] - 1) % n) == c[i]

    return {(i, l): {"pd": dimension((i, l), syzygy),
                     "id": dimension((i, l), cosyzygy),
                     "domdim": leading((i, l), cosyzygy,
                                       injective_is_projective),
                     "codomdim": leading((i, l), syzygy,
                                         projective_is_injective)}
            for i in range(n) for l in range(1, c[i] + 1)}


def solved_sub_representation(m, rows_by_vertex, close=True):
    """(sub, inclusion) spanned by the rows: every target span re-reduced
    against each arrow's image until a pass changes none (close=True),
    then X_a with X_a span_t = span_s M_a from solve_linear on the
    transposes, CertificateFailure when it has no solution."""
    q = m.algebra.quiver
    spans = {}
    for v in q.vertices:
        rows = rows_by_vertex.get(v, [])
        mat = rows if isinstance(rows, Matrix) else Matrix(
            [list(r) for r in rows], len(rows), m.dims[v])
        spans[v] = row_space(mat)
    changed = close
    while changed:
        changed = False
        for a in q.arrows:
            if spans[a.source].nrows == 0:
                continue
            img = spans[a.source] @ m.mats[a.index]
            joint = row_space(vstack([spans[a.target], img]))
            if joint.nrows != spans[a.target].nrows:
                spans[a.target] = joint
                changed = True
    mats = {}
    for a in q.arrows:
        coords = solve_linear(
            spans[a.target].transpose(),
            (spans[a.source] @ m.mats[a.index]).transpose())
        if coords is None:
            raise CertificateFailure("rows are not closed under the action")
        mats[a.index] = coords.transpose()
    sub = Representation(m.algebra, {v: spans[v].nrows for v in q.vertices},
                         mats, validate=False)
    return sub, ModuleMap(sub, m, dict(spans), validate=False)


def reduced_quotient_by_rows(m, rows_by_vertex):
    """(quotient, projection) by the span of the rows: each unit row
    reduced against the RREF and kept at the non-pivot columns, each arrow
    lift @ M_a @ projection; the projection checked against the arrows,
    which raises InvalidParameters when the rows are not closed."""
    q = m.algebra.quiver
    red, npv = {}, {}
    for v in q.vertices:
        rows = rows_by_vertex.get(v)
        if rows is None:
            rows = Matrix.zeros(0, m.dims[v])
        elif not isinstance(rows, Matrix):
            rows = Matrix([list(r) for r in rows], len(rows), m.dims[v])
        R, piv = rref(rows)
        red[v] = (R.data, piv)
        npv[v] = [c for c in range(m.dims[v]) if c not in piv]
    dims = {v: len(npv[v]) for v in q.vertices}
    blocks = {}
    for v in q.vertices:
        out = []
        for row in Matrix.identity(m.dims[v]).data:
            vec = reduce_row(row, *red[v])
            out.append([vec[c] for c in npv[v]])
        blocks[v] = Matrix(out, m.dims[v], dims[v])
    mats = {}
    for a in q.arrows:
        lift = Matrix([[int(j == c) for j in range(m.dims[a.source])]
                       for c in npv[a.source]],
                      dims[a.source], m.dims[a.source])
        mats[a.index] = lift @ m.mats[a.index] @ blocks[a.target]
    quot = Representation(m.algebra, dims, mats, validate=False)
    return quot, ModuleMap(m, quot, blocks, validate=True)


def searched_iso_test(m, n):
    """IsoResult for m and n from invariants, Hom-basis maps and
    decompositions, with no equal-data shortcut.  DecompositionInconclusive
    propagates."""
    if m.dim_vector() != n.dim_vector():
        return IsoResult("not_iso", reason="dimension vectors differ")
    if m.total_dim == 0:
        return IsoResult("iso", map=ModuleMap.zero(m, n))
    if top_dims(m) != top_dims(n):
        return IsoResult("not_iso", reason="tops differ")
    if socle_dims(m) != socle_dims(n):
        return IsoResult("not_iso", reason="socles differ")
    fwd = hom_basis(m, n)
    if not len(fwd) == len(hom_basis(n, m)) == len(hom_basis(m, m)) \
            == len(hom_basis(n, n)):
        return IsoResult("not_iso", reason="hom dimensions differ")
    if not fwd:
        return IsoResult("not_iso", reason="no nonzero maps")
    for f in fwd:
        if f.is_iso():
            return IsoResult("iso", map=f)
    parts = decompose(m)
    if len(parts) == 1:
        return IsoResult("not_iso", reason="indecomposable, no basis map "
                                           "is invertible")
    unused = decompose(n)
    if len(parts) != len(unused):
        return IsoResult("not_iso", reason="summands differ")
    for p in parts:
        hit = next((q for q in unused if searched_iso_test(p, q).is_iso),
                   None)
        if hit is None:
            return IsoResult("not_iso", reason="summands differ")
        unused.remove(hit)
    return IsoResult("iso", reason="summands match")


def flat_resolution(m, depth):
    """(covers, inclusions, syzygies) of the minimal resolution of m for
    degrees 0..depth: cover i maps term i onto syzygy i, inclusion i puts
    syzygy i + 1 into term i, and syzygy 0 is m."""
    covers, incls, syz = [], [], [m]
    while len(covers) <= depth:
        P, f = projective_cover(syz[-1])
        ker, incl = kernel_of_map(f)
        covers.append(f)
        incls.append(incl)
        syz.append(ker)
    return covers, incls, syz


def flat_ext_dims(flat, n, imax):
    """Dimensions of Ext^0..Ext^imax(m, n) from flat_resolution(m, d),
    d > imax: the homology of Hom(term, n) in generator coordinates."""
    covers, incls, _ = flat
    hs, ranks = [], []
    for i in range(imax + 1):
        P0, P1 = covers[i].source, covers[i + 1].source
        d = covers[i + 1].then(incls[i])
        h0, h1, B = _coord_matrix(P0, P1, _presentation_elements(d), n)
        if B is None:
            B = Matrix.zeros(h0, h1)
        hs.append(_hom_offsets(P0, n)[1])
        ranks.append(len(fraction_rref(B.data, B.ncols)[1]))
    return [hs[i] - ranks[i] - (ranks[i - 1] if i else 0)
            for i in range(imax + 1)]


def closed_standard(alg, v, cut):
    """P(v) modulo the submodule its radical generates at the cut vertices:
    the radical rows at cut closed by solved_sub_representation's fixpoint,
    and the quotient by reduced_quotient_by_rows.  P(v) itself when the
    radical is zero at every cut vertex."""
    p = projective_rep(alg, v)
    rad = radical_rows(p)
    gens = {w: rad[w] for w in cut if rad[w].nrows}
    if not gens:
        return p
    _, incl = solved_sub_representation(p, gens)
    return reduced_quotient_by_rows(p, incl.blocks)[0]


def quotient_tower_walk(m, algebra, order, proper):
    """(ok, multiplicities) of the trace recursion on m along the order,
    over algebra: at each layer t, from the top of the order, build the
    trace u of t in the current module and the quotient by it.  The layer
    has k = dim u_t - dim (rad u)_t (plain) or k = dim of the current
    module at t (proper), and passes when dim u is k times the dimension
    of the projective (or the proper standard, closed_standard) at t over
    A/Ae_SA, S the vertices above t."""
    cur = m
    mult = {}
    for idx in range(len(order) - 1, -1, -1):
        t = order[idx]
        if cur.is_zero():
            for w in order[:idx + 1]:
                mult[w] = 0
            return True, mult
        alg = algebra.quotient_by_idempotent_ideal(frozenset(order[idx + 1:]))
        u, incl = solved_sub_representation(
            cur, {t: Matrix.identity(cur.dims[t])})
        if proper:
            k = cur.dims[t]
            d = sum(closed_standard(alg, t, (t,)).dims.values())
        else:
            k = u.dims[t] - radical_rows(u)[t].nrows
            d = sum(projective_rep(alg, t).dims.values())
        if sum(u.dims.values()) != k * d:
            return False, None
        mult[t] = k
        cur = reduced_quotient_by_rows(cur, incl.blocks)[0]
    return (True, mult) if cur.is_zero() else (False, None)


def textbook_nakayama(kupisch):
    """The Nakayama algebra with this Kupisch series, or None when the
    series is neither a linear nor a cyclic one."""
    c = list(kupisch)
    n = len(c)
    linear = n > 0 and c[-1] == 1 and all(
        2 <= c[i] <= n - i and c[i] <= c[i + 1] + 1 for i in range(n - 1))
    cyclic = n > 0 and all(
        c[i] >= 2 and c[i] <= c[(i + 1) % n] + 1 for i in range(n))
    if linear:
        arrows = [("a%d" % i, i, i + 1) for i in range(n - 1)]
        starts = [i for i in range(n) if i + c[i] <= n - 1]
    elif cyclic:
        arrows = [("a%d" % i, i, (i + 1) % n) for i in range(n)]
        starts = list(range(n))
    else:
        return None
    rels = [Relation([(1, Path(i, (i + c[i]) % n,
                               tuple((i + k) % n for k in range(c[i]))))])
            for i in starts]
    return build_algebra(Quiver(list(range(n)), arrows), rels,
                         loewy_cap=max(c) + 1)


def path_normal_form(alg, path):
    """Image of an arbitrary quiver path in the algebra, as an element
    dict."""
    x = alg.idempotent(path.source)
    for ai in path.word:
        x = alg.multiply(x, {alg._arrow_basis[ai]: 1})
        if not x:
            return {}
    return x


def rediscovered_quotient(alg, killed):
    """A/Ae_SA, S = killed (a proper nonempty vertex set), presented by
    relations rediscovered from A's multiplication: for each pair of
    endpoints, the combinations of kept paths of length 2 .. N (N A's
    Loewy bound) that lie in Ae_SA.  Built afresh, never cached."""
    n = alg.dim
    rows = []
    for k in killed:
        for i, p in enumerate(alg.basis):
            for j, q in enumerate(alg.basis):
                if p.target == k and q.source == k and alg.mult[i][j]:
                    rows.append(alg.element_vector(alg.mult[i][j]))
    R, piv = rref(Matrix(rows, len(rows), n) if rows else Matrix.zeros(0, n))
    sub = alg.quiver.subquiver([v for v in alg.quiver.vertices
                                if v not in killed])
    amap = {a.index: alg.quiver.arrow(a.name).index for a in sub.arrows}
    groups = {}
    for level in sub.paths_by_length(alg.loewy_bound)[2:]:
        for p in level:
            word = tuple(amap[i] for i in p.word)
            x = path_normal_form(alg, Path(p.source, p.target, word))
            res = reduce_row(alg.element_vector(x), R.data, piv)
            groups.setdefault((p.source, p.target), []).append((p, res))
    rels = []
    for key in sorted(groups, key=lambda st: (sub.vertex_index(st[0]),
                                              sub.vertex_index(st[1]))):
        items = groups[key]
        K = left_kernel(Matrix([res for _, res in items], len(items), n))
        for r in range(K.nrows):
            terms = [(K.entry(r, c), items[c][0]) for c in range(K.ncols)
                     if K.entry(r, c)]
            if terms:
                rels.append(Relation(terms))
    return build_algebra(sub, rels, loewy_cap=max(2, alg.loewy_bound))
