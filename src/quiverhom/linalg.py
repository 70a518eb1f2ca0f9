"""Exact dense linear algebra over the rationals.

Everything is a dense Matrix of exact rational entries, each an int or a
Fraction (exact() normalizes a value to an int when it is integral).  rref
eliminates on integer rows and divides each pivot row by its pivot only at
the end, the only true division, which returns an int whenever the pivot
divides the entry.  So every integral entry that rref, row_space,
kernel_vectors (and left_kernel, its row form) and solve_linear return is an
int, whatever the input holds.  Other arithmetic on Fractions (matmul, add,
scale) may leave an integral Fraction, which is equal to and hashes like the
int.  No float ever arises.

Row reduction uses the fixed pivoting rule "first nonzero column, smallest
row index", so every derived object (echelon forms, kernel and image bases,
particular solutions, minimal polynomials) is deterministic: same input,
same output, bit for bit.

Each question has one routine: kernel_vectors (with left_kernel, its row
form) for kernels, and solve_linear for every linear system.  Nothing here
is random.
"""
from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm


def exact(x):
    """x as an exact rational: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _divide(x, p):
    """x / p exactly: x // p when p divides x, else exact(x / p)."""
    if type(x) is int and type(p) is int and not x % p:
        return x // p
    return exact(Fraction(x) / p)


class Matrix:
    """Immutable-by-convention dense rational matrix."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [[exact(x) for x in r] for r in rows]
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        return cls(rows, len(rows), ncols)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], n, n)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i):
        return list(self.data[i])

    def entry(self, i, j):
        return self.data[i][j]

    def transpose(self):
        return Matrix([[self.data[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], self.ncols, self.nrows)

    def is_zero(self):
        return all(x == 0 for r in self.data for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "Matrix(%d x %d)" % self.shape

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in add")
        return Matrix([[a + b for a, b in zip(r, s)]
                       for r, s in zip(self.data, other.data)],
                      self.nrows, self.ncols)

    def scale(self, c):
        c = exact(c)
        return Matrix([[c * a for a in r] for r in self.data], self.nrows, self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul: %s @ %s"
                             % (self.shape, other.shape))
        ot = other.data
        out = []
        for r in self.data:
            row = [0] * other.ncols
            for k, a in enumerate(r):
                if a:
                    ok = ot[k]
                    for j in range(other.ncols):
                        b = ok[j]
                        if b:
                            row[j] += a * b
            out.append(row)
        return Matrix(out, self.nrows, other.ncols)


def hstack(mats):
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack of nothing")
    n = mats[0].nrows
    for m in mats:
        if m.nrows != n:
            raise ValueError("hstack row mismatch")
    data = [sum((m.data[i] for m in mats), []) for i in range(n)]
    return Matrix(data, n, sum(m.ncols for m in mats))


def vstack(mats):
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    c = mats[0].ncols
    for m in mats:
        if m.ncols != c:
            raise ValueError("vstack column mismatch")
    data = [list(r) for m in mats for r in m.data]
    return Matrix(data, len(data), c)


# -- echelon machinery -----------------------------------------------------

def _integer_rows(mat):
    """The rows of mat as lists of ints, each row scaled by the lcm of its
    entries' denominators."""
    out = []
    for row in mat.data:
        if all(type(x) is int for x in row):
            out.append(list(row))
        else:
            den = lcm(*(x.denominator for x in row))
            out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _echelon(mat):
    """Fraction-free Gauss-Jordan elimination of mat: (rows, pivots), where
    each row is a nonzero multiple of the matching row of the RREF, with
    integer entries.

    The pivoting rule is rref's.  Row i is cleared at the pivot column c of
    the pivot row by p*row_i - f*pivot_row (p the pivot, f the entry of row
    i at c, both divided by their gcd), and the result is divided by its
    content when p is not +-1, so the entries stay small.  Each step scales
    a row by a nonzero integer, so every row stays a multiple of the row
    that elimination in Fractions would hold: the zero tests, and so the
    pivots and row swaps, are the same."""
    rows = _integer_rows(mat)
    nr = mat.nrows
    pivots = []
    r = 0
    for c in range(mat.ncols):
        if r >= nr:
            break
        for sel in range(r, nr):
            if rows[sel][c]:
                break
        else:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nr):
            f = rows[i][c]
            if not f or i == r:
                continue
            ri = rows[i]
            if p == 1:
                rows[i] = [a - f * b for a, b in zip(ri, prow)]
            elif p == -1:
                rows[i] = [a + f * b for a, b in zip(ri, prow)]
            else:
                g = gcd(p, f)
                s, t = p // g, f // g
                row = [s * a - t * b for a, b in zip(ri, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(mat):
    """Reduced row echelon form.

    Returns (R, pivot_cols).  Pivoting: scan columns left to right, take the
    first row (smallest index among the unused) with a nonzero entry.  An
    empty shape is its own reduced form.  Elimination runs on integer rows
    (_echelon), and each pivot row is divided by its pivot only at the end;
    the RREF is unique, so it is the one elimination in Fractions gives, and
    every integral entry of it is an int.
    """
    rows, pivots = _echelon(mat)
    for r, c in enumerate(pivots):
        p = rows[r][c]
        if p != 1:
            rows[r] = [_divide(x, p) if x else 0 for x in rows[r]]
    return Matrix(rows, mat.nrows, mat.ncols), tuple(pivots)


def rank(mat):
    """The number of pivots of the RREF, read before the pivot rows are
    divided.  One row or one column has rank 1 exactly when some entry is
    nonzero, which is read with no elimination."""
    if mat.nrows == 1:
        return int(any(mat.data[0]))
    if mat.ncols == 1:
        return int(any(r[0] for r in mat.data))
    return len(_echelon(mat)[1])


def row_space(mat):
    """Basis of the row space: the nonzero rows of the RREF."""
    R, piv = rref(mat)
    return Matrix(R.data[:len(piv)], len(piv), mat.ncols)


def reduce_row(vec, rows, piv):
    """vec minus its multiples of the echelon rows, rows[r] with leading
    entry 1 at column piv[r] and piv increasing (the pivot rows of an rref,
    or the rows of an Echelon): zero at every pivot column, and zero
    everywhere exactly when vec lies in their span.  Row r is zero left of
    its pivot, so clearing column piv[r] leaves the earlier pivot columns
    clear."""
    for row, c in zip(rows, piv):
        f = vec[c]
        if f:
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


class Echelon:
    """Row echelon basis of a growing subspace of Q^n: rows with leading
    entry 1, kept in increasing pivot order, never reduced above their
    pivots.  Rows are shared, never mutated, so a copy is cheap."""

    __slots__ = ("rows", "pivots")

    def __init__(self, rows=(), pivots=()):
        self.rows = list(rows)
        self.pivots = list(pivots)

    def __len__(self):
        return len(self.pivots)

    def copy(self):
        return Echelon(self.rows, self.pivots)

    def add(self, vec):
        """Put vec into the span; returns the new basis row, or None when
        vec already lies in the span."""
        vec = reduce_row(vec, self.rows, self.pivots)
        for c, x in enumerate(vec):
            if x:
                break
        else:
            return None
        if x != 1:
            vec = [_divide(y, x) if y else 0 for y in vec]
        i = bisect(self.pivots, c)
        self.pivots.insert(i, c)
        self.rows.insert(i, vec)
        return vec

    def complete(self, n):
        """Add the unit rows at the columns below n that carry no pivot, so
        the span becomes all of Q^n; returns the added rows."""
        free = sorted(set(range(n)).difference(self.pivots))
        added = [[int(j == c) for j in range(n)] for c in free]
        for c, row in zip(free, added):
            i = bisect(self.pivots, c)
            self.pivots.insert(i, c)
            self.rows.insert(i, row)
        return added


def kernel_vectors(mat):
    """Vectors x with mat @ x = 0, one per free column of the RREF, with 1
    at the free column and minus the pivot rows' entries there."""
    R, piv = rref(mat)
    pivset = set(piv)
    out = []
    for fc in range(mat.ncols):
        if fc not in pivset:
            v = [0] * mat.ncols
            v[fc] = 1
            for r, pc in enumerate(piv):
                v[pc] = -R.data[r][fc]
            out.append(v)
    return out


def left_kernel(mat):
    """Rows x with x @ mat = 0, stacked as a matrix: the right kernel of
    the transpose, built row by row."""
    rows = kernel_vectors(mat.transpose())
    return Matrix(rows, len(rows), mat.nrows)


def solve_linear(a, b):
    """Solve a @ X = b for X; None when the system is inconsistent.

    Free variables are set to zero, so the particular solution is
    deterministic.
    """
    if a.nrows != b.nrows:
        raise ValueError("solve_linear shape mismatch")
    R, piv = rref(hstack([a, b]))
    if piv and piv[-1] >= a.ncols:
        return None
    sol = [[0] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(piv):
        sol[pc] = R.data[r][a.ncols:]
    return Matrix(sol, a.ncols, b.ncols)


# -- minimal polynomial ----------------------------------------------------

def minimal_polynomial(blocks):
    """Monic minimal polynomial of the block-diagonal matrix with these
    square blocks, coefficients low degree first.

    Powers are taken block by block, and the first linear dependence among
    I, M, M^2, ... is found among their concatenated block entries by exact
    elimination, so the result is the true minimal polynomial.
    """
    if any(b.ncols != b.nrows for b in blocks):
        raise ValueError("minimal polynomial of non-square matrix")

    def flat(mats):
        return Matrix.from_rows([[x] for m in mats for r in m.data for x in r])

    power = [Matrix.identity(b.nrows) for b in blocks]
    cols = flat(power)
    if not cols.nrows:
        return [1]
    while True:
        power = [p @ b for p, b in zip(power, blocks)]
        target = flat(power)
        sol = solve_linear(cols, target)
        if sol is not None:
            return [-r[0] for r in sol.data] + [1]
        cols = hstack([cols, target])


def linear_combination(coeffs, vectors):
    """Sum of c * v over the nonzero coefficients, built in one pass over
    the entries of each vector; entries are exact rationals (int or
    Fraction), as everywhere in this module."""
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += x * c
    return out


def moment_curve(vectors, last):
    """The points sum_j t^j vectors[j] of the moment curve for t = 1..last,
    each built only when it is asked for; nothing when last <= 0.  The
    point at t = 0 is vectors[0], so it is not built here."""
    for t in range(1, last + 1):
        yield linear_combination([t ** j for j in range(len(vectors))],
                                 vectors)


def poly_eval_matrix(coeffs, mat):
    """Evaluate a polynomial (low degree first) at a square matrix."""
    n = mat.nrows
    out = Matrix.zeros(n, n)
    for c in reversed(coeffs):
        out = out @ mat
        if c:
            ident = Matrix.identity(n)
            out = out + ident.scale(c)
    return out
