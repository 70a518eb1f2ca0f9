import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import (
    fraction_minimal_polynomial, fraction_right_kernel, fraction_rref,
    fraction_solve_xa_b,
)
from quiverhom import linalg
from quiverhom.linalg import (
    Matrix, hstack, vstack, rref, rank, row_space, kernel_vectors,
    left_kernel, solve_linear, minimal_polynomial, moment_curve,
    poly_eval_matrix,
)


def _random_matrix(rng, nr, nc):
    return Matrix.from_rows([[rng.randint(-3, 3) for _ in range(nc)]
                             for _ in range(nr)], ncols=nc)


def test_matmul_identity():
    rng = random.Random(1)
    m = _random_matrix(rng, 4, 5)
    assert Matrix.identity(4) @ m == m
    assert m @ Matrix.identity(5) == m


def test_rref_known():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    R, piv = rref(m)
    assert piv == (0, 2)
    assert R.data[0] == [Fraction(1), Fraction(2), Fraction(0)]
    assert R.data[1] == [Fraction(0), Fraction(0), Fraction(1)]
    assert R.data[2] == [Fraction(0), Fraction(0), Fraction(0)]


def test_rref_deterministic():
    rng = random.Random(7)
    m = _random_matrix(rng, 6, 6)
    assert rref(m) == rref(m)


def test_random_battery():
    rng = random.Random(0)
    for _ in range(100):
        nr = rng.randint(0, 6)
        nc = rng.randint(0, 6)
        m = _random_matrix(rng, nr, nc)
        r, ker, im = rank(m), kernel_vectors(m), row_space(m.transpose())
        assert r == rank(m.transpose())
        assert r + len(ker) == nc
        assert im.nrows == r
        for x in ker:
            assert (m @ Matrix([[c] for c in x], nc, 1)).is_zero()
        # the column-space basis vectors really solve m @ x = col
        for j in range(im.nrows):
            col = Matrix.from_rows([[x] for x in im.row(j)])
            assert solve_linear(m, col) is not None


def test_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = _random_matrix(rng, a.ncols, 2)
        b = a @ x
        sol = solve_linear(a, b)
        assert sol is not None
        assert a @ sol == b


def test_solve_inconsistent():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    b = Matrix.from_rows([[1], [2]])
    assert solve_linear(a, b) is None


def test_row_conventions():
    rng = random.Random(5)
    a = _random_matrix(rng, 3, 4)
    x = _random_matrix(rng, 2, 3)
    b = x @ a
    sol = solve_linear(a.transpose(), b.transpose())
    assert sol is not None
    assert sol.transpose() @ a == b
    lk = left_kernel(a)
    if lk.nrows:
        assert (lk @ a).is_zero()


def test_row_space_dims():
    m = Matrix.from_rows([[1, 1], [2, 2], [3, 4]])
    rs = row_space(m)
    assert rs.nrows == 2
    cs = row_space(m.transpose())
    assert cs.nrows == 2


def test_stack_helpers():
    a = Matrix.identity(2)
    b = Matrix.zeros(2, 3)
    h = hstack([a, b])
    assert h.shape == (2, 5)
    v = vstack([a, Matrix.zeros(1, 2)])
    assert v.shape == (3, 2)


def test_moment_curve_yields_the_points_from_one_to_last(monkeypatch):
    vecs = [[1, 0, 2], [0, 1, -1], [Fraction(1, 2), 0, 0]]
    want = [[sum(t ** j * v[i] for j, v in enumerate(vecs))
             for i in range(3)] for t in (1, 2, 3)]
    assert list(moment_curve(vecs, 3)) == want
    assert want[0] == [Fraction(3, 2), 1, 1]
    for last in (0, -1, -4):
        assert list(moment_curve(vecs, last)) == []
    assert list(moment_curve([], 0)) == []
    # each point is built when it is asked for, not before
    calls = []
    orig = linalg.linear_combination
    monkeypatch.setattr(linalg, "linear_combination",
                        lambda *args: calls.append(args) or orig(*args))
    points = moment_curve(vecs, 10 ** 9)
    assert calls == []
    assert next(points) == want[0] and len(calls) == 1


def test_minimal_polynomial_nilpotent():
    m = Matrix.from_rows([[0, 1], [0, 0]])
    # t^2
    assert minimal_polynomial([m]) == [Fraction(0), Fraction(0), Fraction(1)]
    assert poly_eval_matrix(minimal_polynomial([m]), m).is_zero()


def test_minimal_polynomial_idempotent():
    m = Matrix.from_rows([[1, 0], [0, 0]])
    # t^2 - t
    assert minimal_polynomial([m]) == [Fraction(0), Fraction(-1), Fraction(1)]


def test_minimal_polynomial_annihilates():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        p = minimal_polynomial([m])
        assert p[-1] == 1
        assert poly_eval_matrix(p, m).is_zero()


# -- differential test against the all-Fraction reference ----------------

ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))

# wide entries for the elimination: large ints make the row contents that
# rref divides out, denominators reach 10^3, and integral Fractions such
# as Fraction(2, 1) reach rref as they are (the tests below build the
# Matrix directly, not through Matrix.from_rows, which would make them ints)
WIDE_ENTRIES = st.one_of(
    ENTRIES,
    st.integers(-10 ** 9, 10 ** 9),
    st.integers(-10 ** 9, 10 ** 9).map(Fraction),
    st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                 max_denominator=10 ** 3))


def _rows(nr, nc, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr)


@st.composite
def _matrices(draw, max_side=6):
    nr, nc = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    return draw(_rows(nr, nc, WIDE_ENTRIES)), nc


def _raw(rows, nc):
    """The Matrix holding the entries as they are."""
    return Matrix([list(r) for r in rows], len(rows), nc)


def _exact_types(m):
    """Every entry is an int or a Fraction, and no Fraction is integral."""
    return all(type(x) is int or type(x) is Fraction and x.denominator != 1
               for r in m.data for x in r)


def test_rref_leaves_no_integral_fraction():
    rng = random.Random(1)
    for _ in range(2000):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert _exact_types(rref(m)[0])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_matrices())
def test_echelon_and_kernels_match_the_fraction_reference(mat):
    rows, nc = mat
    m = _raw(rows, nc)
    R, piv = rref(m)
    want, want_piv = fraction_rref(rows, nc)
    assert (R.data, piv) == (want, want_piv)
    assert R.shape == m.shape and _exact_types(R)
    assert rank(m) == len(want_piv)
    rk = kernel_vectors(m)
    assert rk == fraction_right_kernel(rows, nc)
    assert _exact_types(Matrix(rk, len(rk), nc))
    lk = left_kernel(m)
    assert lk.shape[1] == len(rows) and _exact_types(lk)
    assert lk.data == fraction_right_kernel([list(c) for c in zip(*rows)]
                                            if nc else [], len(rows))
    rs = row_space(m)
    assert rs.data == want[:len(want_piv)] and _exact_types(rs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 6), st.booleans(), st.booleans(), st.data())
def test_rank_of_one_row_or_one_column_is_the_rref_pivot_count(
        k, one_row, zero, data):
    """rank reads a 1 x k or k x 1 matrix without elimination; it agrees
    with rref on int and Fraction entries, on zero vectors of either type
    and on k = 0."""
    entries = st.sampled_from([0, Fraction(0)]) if zero else WIDE_ENTRIES
    vec = data.draw(st.lists(entries, min_size=k, max_size=k))
    m = _raw([vec], k) if one_row else _raw([[x] for x in vec], 1)
    assert rank(m) == len(rref(m)[1])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_solve_linear_for_a_left_unknown_matches_the_fraction_reference(
        mat, data):
    """X @ a = b solved as a^T @ X^T = b^T."""
    rows, nc = mat
    a = _raw(rows, nc)
    k = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        b = _raw(data.draw(_rows(k, len(rows), WIDE_ENTRIES)), len(rows)) @ a
    else:
        b = _raw(data.draw(_rows(k, nc, WIDE_ENTRIES)), nc)
    sol = solve_linear(a.transpose(), b.transpose())
    want = fraction_solve_xa_b(rows, b.data, nc)
    if want is None:
        assert sol is None
    else:
        sol = sol.transpose()
        assert sol.shape == (k, len(rows)) and _exact_types(sol)
        assert sol.data == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: _rows(n, n)))
def test_minimal_polynomial_matches_the_fraction_reference(rows):
    p = minimal_polynomial([Matrix.from_rows(rows, ncols=len(rows))])
    assert all(type(x) in (int, Fraction) for x in p)
    assert p == fraction_minimal_polynomial(rows)


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, r in enumerate(b):
            out[off + i][off:off + len(b)] = r
        off += len(b)
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4).flatmap(lambda n: _rows(n, n)),
                min_size=1, max_size=3))
def test_minimal_polynomial_of_blocks_is_that_of_the_assembled_matrix(
        blocks):
    p = minimal_polynomial([Matrix.from_rows(b, ncols=len(b))
                            for b in blocks])
    assert p == fraction_minimal_polynomial(_block_diagonal(blocks))
