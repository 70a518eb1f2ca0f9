"""Bound quiver algebras with exact rational structure constants.

A quiver is a finite directed graph.  Paths compose left to right: pq means
"p, then q", so a path from v to w followed by a path from w to u gives a
path from v to u.  An algebra is presented by a quiver and a list of
relations, each a rational combination of parallel paths of length at least
two (an admissible presentation).

Construction runs inside truncated path algebras.  For N = 2, 3, ... the
relation ideal is expanded by all padded products u r v of total length at
most N, and N is accepted once every path of length exactly N lies in that
span.  Then the ideal contains all paths of length N, the surviving shorter
paths form a basis, and the multiplication table is tabulated once and for
all.  If no N up to the cap is accepted the presentation is rejected.

Row reduction orders path coordinates by decreasing degree-lexicographic
position (longer first, then larger arrow word), so each eliminated path is
rewritten in terms of strictly smaller ones and the basis is deterministic.
"""
from __future__ import annotations

from functools import wraps
from itertools import chain

from .errors import (
    BoundExceeded, CertificateFailure, InvalidParameters, InvalidSeries,
    QuotientCollapse,
)
from .linalg import (
    Matrix, exact, kernel_vectors, moment_curve, rank, reduce_row, rref,
)


class Arrow:
    """Directed edge; index is the declaration position in the quiver."""

    __slots__ = ("name", "source", "target", "index")

    def __init__(self, name, source, target, index):
        self.name = name
        self.source = source
        self.target = target
        self.index = index

    def __repr__(self):
        return "Arrow(%s: %s -> %s)" % (self.name, self.source, self.target)


class Path:
    """Composable word of arrows with an explicit source vertex.

    The source is part of the identity so that trivial paths at different
    vertices stay distinct; the word is a tuple of arrow indices.
    """

    __slots__ = ("source", "target", "word")

    def __init__(self, source, target, word):
        self.source = source
        self.target = target
        self.word = word

    def key(self):
        return (self.source, self.word)

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.source == other.source and self.word == other.word

    def __hash__(self):
        return hash((self.source, self.word))

    def __repr__(self):
        return "Path(%s, %s)" % (self.source, self.word)


class Quiver:
    """Finite quiver with ordered vertices and named arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidParameters("duplicate vertex labels")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        built = []
        names = set()
        for i, (name, s, t) in enumerate(arrows):
            if name in names:
                raise InvalidParameters("duplicate arrow name %r" % (name,))
            names.add(name)
            if s not in self._vindex or t not in self._vindex:
                raise InvalidParameters("arrow %r has unknown endpoint" % (name,))
            built.append(Arrow(name, s, t, i))
        self.arrows = tuple(built)
        self._aname = {a.name: a for a in self.arrows}
        self._from = {v: tuple(a for a in self.arrows if a.source == v)
                      for v in self.vertices}
        self._to = {v: tuple(a for a in self.arrows if a.target == v)
                    for v in self.vertices}

    def vertex_index(self, v):
        return self._vindex[v]

    def arrow(self, name):
        return self._aname[name]

    def arrows_from(self, v):
        return self._from[v]

    def arrows_to(self, v):
        return self._to[v]

    def trivial_path(self, v):
        if v not in self._vindex:
            raise InvalidParameters("unknown vertex %r" % (v,))
        return Path(v, v, ())

    def arrow_path(self, a):
        return Path(a.source, a.target, (a.index,))

    def compose(self, p, q):
        if p.target != q.source:
            raise InvalidParameters("paths do not compose")
        return Path(p.source, q.target, p.word + q.word)

    def path_from_names(self, names, source=None):
        if not names:
            if source is None:
                raise InvalidParameters("trivial path needs a vertex")
            return self.trivial_path(source)
        seq = [self.arrow(n) for n in names]
        p = self.arrow_path(seq[0])
        for a in seq[1:]:
            p = self.compose(p, self.arrow_path(a))
        return p

    def paths_by_length(self, max_len):
        """Lists of all paths, one list per length 0 .. max_len."""
        levels = [[self.trivial_path(v) for v in self.vertices]]
        for _ in range(max_len):
            nxt = []
            for p in levels[-1]:
                for a in self._from[p.target]:
                    nxt.append(Path(p.source, a.target, p.word + (a.index,)))
            levels.append(nxt)
        return levels

    def opposite(self):
        """Same vertices and arrow names, every arrow reversed."""
        return Quiver(self.vertices,
                      [(a.name, a.target, a.source) for a in self.arrows])

    def subquiver(self, kept):
        kept = [v for v in self.vertices if v in set(kept)]
        ks = set(kept)
        return Quiver(kept, [(a.name, a.source, a.target) for a in self.arrows
                             if a.source in ks and a.target in ks])


def _deglex_key(quiver, p):
    return (len(p.word), p.word, quiver.vertex_index(p.source))


class Relation:
    """Rational combination of parallel paths of length >= 2."""

    __slots__ = ("terms", "source", "target")

    def __init__(self, terms):
        merged = {}
        first = None
        for c, p in terms:
            c = exact(c)
            if first is None:
                first = p
            if p.source != first.source or p.target != first.target:
                raise InvalidParameters("relation mixes different endpoints")
            if len(p) < 2:
                raise InvalidParameters("relation path %r too short" % (p,))
            merged[p] = merged.get(p, 0) + c
        kept = [(c, p) for p, c in merged.items() if c]
        kept.sort(key=lambda t: (len(t[1].word), t[1].word))
        self.terms = tuple(kept)
        self.source = first.source if first is not None else None
        self.target = first.target if first is not None else None

    def reversed(self):
        return Relation([(c, Path(p.target, p.source, tuple(reversed(p.word))))
                         for c, p in self.terms])

    def __repr__(self):
        return "Relation(%d terms)" % len(self.terms)


def monomial_relation(quiver, names):
    return Relation([(1, quiver.path_from_names(names))])


def combination_relation(quiver, combo):
    """combo: iterable of (coeff, list of arrow names)."""
    return Relation([(c, quiver.path_from_names(names)) for c, names in combo])


def memo(fn):
    """Compute fn(owner, ...) once per owner and arguments.

    The value is kept in owner._cache under (fn.__name__,) + args, with the
    sorted keyword items appended as one more entry when there are any, for
    as long as the owner lives.  The arguments must be hashable.  A miss
    calls the undecorated function through cached.__wrapped__."""
    name = fn.__name__

    @wraps(fn)
    def cached(owner, *args, **kwargs):
        key = (name,) + args
        if kwargs:
            key += (tuple(sorted(kwargs.items())),)
        cache = owner._cache
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = cached.__wrapped__(owner, *args, **kwargs)
            return value
    return cached


class BoundQuiverAlgebra:
    """Finite-dimensional path algebra modulo an admissible ideal.

    Elements are dicts {basis index: coefficient}, each coefficient an
    exact rational (an int when integral, else a Fraction; see
    linalg.exact).  The basis consists of the surviving paths, listed in
    increasing degree-lexicographic order, so trivial paths come first (one
    per vertex), then arrows, then longer paths.  loewy_bound is an
    accepted truncation level: every path of that length is zero in the
    algebra.
    """

    def __init__(self, quiver, relations, loewy_bound, basis, mult):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.loewy_bound = loewy_bound
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.mult = mult
        self._index = {p.key(): i for i, p in enumerate(self.basis)}
        self._idem = {v: self._index[(v, ())] for v in quiver.vertices}
        self._arrow_basis = {a.index: self._index[(a.source, (a.index,))]
                             for a in quiver.arrows}
        self._opposite = None
        self._quotients = {}
        self._cache = {}

    # -- elements ----------------------------------------------------------

    def idempotent(self, v):
        return {self._idem[v]: 1}

    def arrow_element(self, name):
        a = self.quiver.arrow(name)
        return {self._arrow_basis[a.index]: 1}

    def basis_element(self, i):
        return {i: 1}

    def multiply(self, x, y):
        out = {}
        mult = self.mult
        for i, a in x.items():
            row = mult[i]
            for j, b in y.items():
                prod = row[j]
                if prod:
                    ab = a * b
                    for k, c in prod.items():
                        out[k] = out.get(k, 0) + ab * c
        return {k: v for k, v in out.items() if v}

    def element_vector(self, x):
        row = [0] * self.dim
        for k, c in x.items():
            row[k] = c
        return row

    # -- structure ---------------------------------------------------------

    def paths_from(self, v):
        return [i for i, p in enumerate(self.basis) if p.source == v]

    def cartan_matrix(self):
        """Entry (i, j): dim e_{v_i} A e_{v_j}, the number of basis paths
        from vertex i to vertex j."""
        vs = self.quiver.vertices
        counts = {(v, w): 0 for v in vs for w in vs}
        for p in self.basis:
            counts[(p.source, p.target)] += 1
        return Matrix.from_rows([[counts[(v, w)] for w in vs] for v in vs])

    def opposite_algebra(self):
        """Algebra on the reversed quiver; basis index i corresponds to the
        reversed path of basis element i, so element dicts carry over
        unchanged."""
        if self._opposite is None:
            opq = self.quiver.opposite()
            basis_op = [Path(p.target, p.source, tuple(reversed(p.word)))
                        for p in self.basis]
            mult_op = [[self.mult[j][i] for j in range(self.dim)]
                       for i in range(self.dim)]
            op = BoundQuiverAlgebra(opq, [r.reversed() for r in self.relations],
                                    self.loewy_bound, basis_op, mult_op)
            op._opposite = self
            self._opposite = op
        return self._opposite

    # -- symmetric structure ----------------------------------------------

    @memo
    def symmetric_form(self):
        """Linear functional L with L(xy) = L(yx) and nondegenerate pairing
        (x, y) -> L(xy), or None when the algebra is not symmetric.

        This is a decision over a finite candidate list.  A symmetric L
        pairs e_u A e_v nondegenerately with e_v A e_u, so a Cartan matrix
        that is not symmetric gives None at once.  Otherwise let c_0 ..
        c_{k-1} be the kernel basis of the symmetric functionals and n the
        number of vertices; the candidates are the c_j, then the points
        L_t = sum_j t^j c_j of the moment curve for t = 1 .. n(k-1) (L_0 is
        c_0), and the rank of the Gram matrix certifies each one.

        The list is complete.  Let A be symmetric and L a symmetric
        functional.  The left radical {x : L(xy) = 0 for all y} is a right
        ideal, so when it is nonzero it holds a simple right submodule of
        A, which lies in the socle.  A symmetric algebra is weakly
        symmetric (Skowronski-Yamagata, Frobenius Algebras I): soc(e_v A)
        is simple with top S_v, so the socle of A is the direct sum of the
        pairwise nonisomorphic lines s_v Q, s_v in e_v A e_v, and its only
        simple submodules are these lines.  Since s_v y lies in s_v Q, L is
        nondegenerate iff L(s_v) != 0 for each of the n vertices v.  Each
        form L -> L(s_v) is nonzero at a nondegenerate functional, so
        t -> L_t(s_v) is a nonzero polynomial of degree at most k - 1 and
        vanishes at no more than k - 1 values of t; some t in 0 .. n(k-1)
        avoids all n of them.  So None certifies "not symmetric"; the
        socle appears only in this proof, never in the computation.
        """
        cartan = self.cartan_matrix()
        if cartan != cartan.transpose():
            return None
        d = self.dim
        rows = []
        for i in range(d):
            for j in range(i + 1, d):
                vec = [0] * d
                prod = self.mult[i][j]
                if prod:
                    for k, c in prod.items():
                        vec[k] += c
                prod = self.mult[j][i]
                if prod:
                    for k, c in prod.items():
                        vec[k] -= c
                if any(vec):
                    rows.append(vec)
        cands = kernel_vectors(Matrix(rows, len(rows), d))
        last = len(self.quiver.vertices) * (len(cands) - 1)
        for lam in chain(cands, moment_curve(cands, last)):
            gram = []
            for i in range(d):
                row = [0] * d
                for j in range(d):
                    prod = self.mult[i][j]
                    if prod:
                        row[j] = sum(c * lam[k] for k, c in prod.items())
                gram.append(row)
            if rank(Matrix(gram, d, d)) == d:
                return tuple(lam)
        return None

    @property
    def is_symmetric(self):
        return self.symmetric_form() is not None

    # -- quotients ---------------------------------------------------------

    def quotient_by_idempotent_ideal(self, killed):
        """A/Ae_SA, S the given vertices, presented on the full subquiver
        Q' of the kept vertices by the images of A's relations.  Cached
        per vertex set.

        Let pi: kQ -> kQ' kill every path through a vertex of S and keep
        every other path.  It is a surjective algebra map whose kernel is
        the ideal generated by e_S, so A/Ae_SA = kQ'/pi(I), and pi(I) is
        generated by the images pi(r) of A's relations r: each keeps the
        terms whose path avoids S.  A's closure at its Loewy bound N (every
        path of length N lies in I) maps under pi to the closure of the
        quotient at or below N, so build_algebra finds the truncation level
        within the cap N.  The row reduction of the relation rows depends
        only on their span, so the quotient has the deglex basis and
        multiplication table of every presentation of pi(I).  Its dimension
        is checked against an independent count: the rank of Ae_SA in A's
        basis.

        Modules over the quotient are validated against these images of
        A's relations, the same kind of check A makes of its own modules:
        neither checks the truncation J^N."""
        killed = frozenset(killed)
        unknown = killed - set(self.quiver.vertices)
        if unknown:
            raise InvalidParameters("unknown vertices %r" % (sorted(unknown, key=repr),))
        if not killed:
            return self
        if killed == set(self.quiver.vertices):
            raise QuotientCollapse("all vertices removed")
        if killed in self._quotients:
            return self._quotients[killed]

        n = self.dim
        rows = []
        for k in killed:
            us = [i for i, p in enumerate(self.basis) if p.target == k]
            vs = [j for j, p in enumerate(self.basis) if p.source == k]
            for i in us:
                for j in vs:
                    prod = self.mult[i][j]
                    if prod:
                        rows.append(self.element_vector(prod))
        mat = Matrix(rows, len(rows), n) if rows else Matrix.zeros(0, n)
        R, piv = rref(mat)
        qdim = n - len(piv)

        kept = [v for v in self.quiver.vertices if v not in killed]
        for v in kept:
            res = reduce_row(self.element_vector(self.idempotent(v)), R.data,
                             piv)
            if not any(res):
                raise QuotientCollapse("idempotent of %r dies" % (v,))
        sub = self.quiver.subquiver(kept)
        index = {self.quiver.arrow(a.name).index: a.index for a in sub.arrows}
        images = [Relation([(c, Path(p.source, p.target,
                                     tuple(index[i] for i in p.word)))
                            for c, p in r.terms
                            if all(i in index for i in p.word)])
                  for r in self.relations]
        quo = build_algebra(sub, images, loewy_cap=max(2, self.loewy_bound))
        if quo.dim != qdim:
            raise CertificateFailure(
                "quotient rebuild dimension %d, expected %d" % (quo.dim, qdim))
        self._quotients[killed] = quo
        return quo


def check_asserted_duality(a):
    """Necessary Cartan-symmetry check for an asserted simple-preserving
    duality; a failure is a contradiction, not a soft negative."""
    c = a.cartan_matrix()
    n = len(a.quiver.vertices)
    for i in range(n):
        for j in range(n):
            if c.entry(i, j) != c.entry(j, i):
                raise CertificateFailure(
                    "asserted duality contradicted: Cartan matrix is "
                    "asymmetric at (%d, %d)" % (i, j))


def build_algebra(quiver, relations, loewy_cap=12):
    """Construct the algebra presented by the quiver and relations.

    Raises BoundExceeded if no truncation level up to loewy_cap closes the
    relation ideal.
    """
    rels = []
    for r in relations:
        if not isinstance(r, Relation):
            r = Relation(r)
        if r.terms:
            rels.append(r)

    for N in range(2, loewy_cap + 1):
        by_len = quiver.paths_by_length(N)
        cols = [p for level in by_len for p in level]
        cols.sort(key=lambda p: _deglex_key(quiver, p), reverse=True)
        col_of = {p.key(): c for c, p in enumerate(cols)}
        nc = len(cols)

        rows = []
        for r in rels:
            lmin = min(len(p) for _, p in r.terms)
            pad = N - lmin
            lefts = [u for level in by_len[:pad + 1] for u in level
                     if u.target == r.source]
            rights = [v for level in by_len[:pad + 1] for v in level
                      if v.source == r.target]
            for u in lefts:
                for v in rights:
                    if len(u) + lmin + len(v) > N:
                        continue
                    vec = [0] * nc
                    hit = False
                    for c, p in r.terms:
                        if len(u) + len(p) + len(v) <= N:
                            w = (u.source, u.word + p.word + v.word)
                            vec[col_of[w]] += c
                            hit = True
                    if hit and any(vec):
                        rows.append(vec)
        mat = Matrix(rows, len(rows), nc) if rows else Matrix.zeros(0, nc)
        R, piv = rref(mat)

        closed = True
        for p in by_len[N]:
            vec = [0] * nc
            vec[col_of[p.key()]] = 1
            if any(reduce_row(vec, R.data, piv)):
                closed = False
                break
        if not closed:
            continue

        pivot_keys = {cols[c].key() for c in piv}
        basis = [p for level in by_len[:N] for p in level
                 if p.key() not in pivot_keys]
        basis.sort(key=lambda p: _deglex_key(quiver, p))
        bindex = {p.key(): i for i, p in enumerate(basis)}

        nf = {p.key(): {i: 1} for i, p in enumerate(basis)}
        for r_i, c in enumerate(piv):
            p = cols[c]
            if len(p) >= N:
                continue
            row = R.data[r_i]
            elem = {}
            for c2 in range(nc):
                if c2 != c and row[c2]:
                    elem[bindex[cols[c2].key()]] = -row[c2]
            nf[p.key()] = elem

        dim = len(basis)
        mult = [[None] * dim for _ in range(dim)]
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                if p.target != q.source:
                    continue
                if len(p) + len(q) >= N:
                    continue
                prod = nf[(p.source, p.word + q.word)]
                mult[i][j] = prod if prod else None
        return BoundQuiverAlgebra(quiver, rels, N, basis, mult)

    raise BoundExceeded(
        "relation ideal not closed by truncation level %d" % loewy_cap,
        loewy_cap)


# -- canonical families ----------------------------------------------------

def nakayama_from_kupisch(kupisch, cyclic=True):
    """Nakayama algebra with the given Kupisch series.

    Vertices are 0 .. n-1 with arrows i -> i+1 (mod n when cyclic); entry i
    is the composition length of the projective at vertex i, so the path of
    that length starting at i is a relation whenever it exists.
    """
    kup = [int(a) for a in kupisch]
    n = len(kup)
    if n == 0:
        raise InvalidSeries("empty series")
    if any(a < 1 for a in kup):
        raise InvalidSeries("entries must be positive")
    if cyclic:
        if any(a < 2 for a in kup):
            raise InvalidSeries("cyclic series needs all entries >= 2")
        for i in range(n):
            if kup[(i + 1) % n] < kup[i] - 1:
                raise InvalidSeries(
                    "entry %d drops by more than one after position %d"
                    % (kup[(i + 1) % n], i))
    else:
        if kup[n - 1] != 1:
            raise InvalidSeries("linear series must end in 1")
        for i in range(n - 1):
            if kup[i] < 2:
                raise InvalidSeries("linear series needs interior entries >= 2")
            if kup[i] > n - i:
                raise InvalidSeries("entry %d at position %d overruns the quiver"
                                    % (kup[i], i))
            if kup[i + 1] < kup[i] - 1:
                raise InvalidSeries(
                    "entry %d drops by more than one after position %d"
                    % (kup[i + 1], i))

    verts = list(range(n))
    if cyclic:
        arrows = [("a%d" % i, i, (i + 1) % n) for i in range(n)]
    else:
        arrows = [("a%d" % i, i, i + 1) for i in range(n - 1)]
    q = Quiver(verts, arrows)

    rels = []
    for i in range(n):
        a = kup[i]
        if not cyclic and i + a > n - 1:
            continue
        names = ["a%d" % ((i + k) % n if cyclic else i + k) for k in range(a)]
        rels.append(monomial_relation(q, names))
    alg = build_algebra(q, rels, loewy_cap=max(kup) + 1)
    alg.kupisch = list(kup)
    return alg


def klein_four_like():
    """Local four-dimensional algebra on two commuting square-zero loops."""
    q = Quiver([1], [("x", 1, 1), ("y", 1, 1)])
    rels = [
        monomial_relation(q, ["x", "x"]),
        monomial_relation(q, ["y", "y"]),
        combination_relation(q, [(1, ["x", "y"]), (-1, ["y", "x"])]),
    ]
    return build_algebra(q, rels, loewy_cap=4)


def _two_way_chain(m):
    """The quiver on vertices 1..m with arrows a_i: i -> i+1 and
    b_i: i+1 -> i."""
    return Quiver(list(range(1, m + 1)),
                  [("a%d" % i, i, i + 1) for i in range(1, m)]
                  + [("b%d" % i, i + 1, i) for i in range(1, m)])


def bnlambda_family(m, lams):
    """Two-way chain algebra on m >= 2 vertices with 0/1 twist parameters.

    Arrows a_i: i -> i+1 and b_i: i+1 -> i.  The loop at the last vertex
    vanishes, two-step outward paths vanish, and at each interior vertex i
    the incoming loop b_{i-1}a_{i-1} equals lams[i-2] times the outgoing
    loop a_i b_i.  Dimension 4m - 3.
    """
    if m < 2:
        raise InvalidParameters("family needs at least two vertices")
    lams = list(lams)
    if len(lams) != m - 2:
        raise InvalidParameters("expected %d twist parameters, got %d"
                                % (m - 2, len(lams)))
    if any(l not in (0, 1) for l in lams):
        raise InvalidParameters("twist parameters must be 0 or 1")
    q = _two_way_chain(m)
    rels = [monomial_relation(q, ["b%d" % (m - 1), "a%d" % (m - 1)])]
    for i in range(2, m):
        combo = [(1, ["b%d" % (i - 1), "a%d" % (i - 1)])]
        if lams[i - 2]:
            combo.append((-1, ["a%d" % i, "b%d" % i]))
        rels.append(combination_relation(q, combo))
        rels.append(monomial_relation(q, ["a%d" % (i - 1), "a%d" % i]))
        rels.append(monomial_relation(q, ["b%d" % i, "b%d" % (i - 1)]))
    return build_algebra(q, rels, loewy_cap=4)


def symmetric_chain_family(m):
    """Symmetric radical-cube-zero algebra on a chain of m >= 2 vertices.

    Arrows a_i: i -> i+1 and b_i: i+1 -> i; paths two steps outward vanish,
    the two loops at an interior vertex agree, and the boundary loops square
    to zero against their outgoing arrow.  Dimension 4m - 2.
    """
    if m < 2:
        raise InvalidParameters("chain needs at least two vertices")
    q = _two_way_chain(m)
    rels = []
    for i in range(1, m - 1):
        rels.append(monomial_relation(q, ["a%d" % i, "a%d" % (i + 1)]))
        rels.append(monomial_relation(q, ["b%d" % (i + 1), "b%d" % i]))
    for i in range(2, m):
        rels.append(combination_relation(
            q, [(1, ["a%d" % i, "b%d" % i]), (-1, ["b%d" % (i - 1), "a%d" % (i - 1)])]))
    rels.append(monomial_relation(q, ["a1", "b1", "a1"]))
    rels.append(monomial_relation(q, ["b%d" % (m - 1), "a%d" % (m - 1), "b%d" % (m - 1)]))
    return build_algebra(q, rels, loewy_cap=4)
