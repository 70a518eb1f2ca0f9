"""Reference computations the benchmark checks the program against.

They read only an algebra's path basis and multiplication table and do
their own arithmetic in plain Fractions; nothing here calls the package's
linear algebra, module or homology code.
"""
from fractions import Fraction


def _rank(rows):
    """Rank of a list of equal-length Fraction rows (Gaussian elimination)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


class StandardDims:
    """Dimensions of standard modules straight from the multiplication
    table.  The standard module at v with cut set S is e_vA modulo the sum
    of e_v J e_w A over w in S; the proper costandard at v has the dimension
    of the left-module analogue A e_v modulo the sum of A e_w J e_v over
    w in S, with S the vertices above v together with v."""

    def __init__(self, a):
        self.a = a
        self._memo = {}

    def _products(self, left, right):
        """Coordinate rows of every product x*y with x in `left`, y in
        `right` (lists of basis indices)."""
        a = self.a
        rows = []
        for i in left:
            for j in right:
                prod = a.mult[i][j]
                if prod:
                    row = [Fraction(0)] * a.dim
                    for k, c in prod.items():
                        row[k] = Fraction(c)
                    rows.append(row)
        return rows

    def _dim(self, v, cut, right):
        key = (v, cut, right)
        if key not in self._memo:
            basis = self.a.basis
            if right:
                top = [i for i, p in enumerate(basis) if p.source == v]
            else:
                top = [i for i, p in enumerate(basis) if p.target == v]
            rows = []
            for w in cut:
                if right:
                    arrows = [i for i, p in enumerate(basis)
                              if p.source == v and p.target == w and len(p)]
                    ends = [i for i, p in enumerate(basis) if p.source == w]
                    rows += self._products(arrows, ends)
                else:
                    starts = [i for i, p in enumerate(basis) if p.target == w]
                    arrows = [i for i, p in enumerate(basis)
                              if p.source == w and p.target == v and len(p)]
                    rows += self._products(starts, arrows)
            self._memo[key] = len(top) - _rank(rows)
        return self._memo[key]

    def standard(self, v, above):
        return self._dim(v, frozenset(above), True)

    def proper_costandard(self, v, above):
        return self._dim(v, frozenset(above) | {v}, False)

    def bgg_sum(self, order):
        """Sum over v of dim standard(v) * dim proper costandard(v); it
        equals dim A exactly when the order is standardly stratified."""
        total = 0
        for pos, v in enumerate(order):
            above = order[pos + 1:]
            total += self.standard(v, above) * self.proper_costandard(v, above)
        return total


def _inverse(rows):
    """Inverse of a square matrix of integers, by Gauss-Jordan elimination
    in Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [r[n:] for r in m]


class EulerForm:
    """The Euler form <M, N> = dim(M)^T C^-1 dim(N) of an algebra of finite
    global dimension, which equals sum_i (-1)^i dim Ext^i(M, N).  C[v][w]
    is the number of basis paths from v to w, the dimension vector of the
    projective e_vA, counted from the path basis."""

    def __init__(self, a):
        self.verts = sorted(a.quiver.vertices)
        pos = {v: i for i, v in enumerate(self.verts)}
        c = [[0] * len(self.verts) for _ in self.verts]
        for p in a.basis:
            c[pos[p.source]][pos[p.target]] += 1
        self.cinv = _inverse(c)

    def __call__(self, dm, dn):
        """dm, dn: dimension vectors as dicts vertex -> dimension."""
        vs = self.verts
        return sum(dm[v] * self.cinv[i][j] * dn[w]
                   for i, v in enumerate(vs) if dm[v]
                   for j, w in enumerate(vs) if dn[w])


def nakayama_projinj(kupisch):
    """Vertices i of a cyclic Nakayama algebra (arrows i -> i+1, entry i the
    length of the projective at i) whose projective is injective: exactly
    those with kupisch[i-1] <= kupisch[i]."""
    n = len(kupisch)
    return [i for i in range(n) if kupisch[i - 1] <= kupisch[i]]
