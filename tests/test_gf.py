"""Field and matrix layer: frozen arithmetic values, axioms, dual multiply paths."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_paths as ref
from regenrepair.gf import (
    DEFAULT_MODULI,
    DuplicatePointError,
    Field,
    LinearMap,
    Matrix,
    SingularMatrixError,
    ZeroInverseError,
    _reduce,
    _reduce_packed,
    all_square_submatrices_invertible,
    cauchy,
    is_irreducible,
    lagrange_rows,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_solve,
    mat_vec,
    vandermonde,
)


# Each field once: building GF(2^16)'s tables takes tens of milliseconds.
field_of = functools.cache(Field)


# --- independent oracle: bitwise polynomial multiply written from scratch ---

def ref_mul(a: int, b: int, m: int, modulus: int) -> int:
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            acc ^= a << i
    for deg in range(2 * m - 2, m - 1, -1):
        if (acc >> deg) & 1:
            acc ^= modulus << (deg - m)
    return acc


def random_field_elems(field, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(field.size) for _ in range(count)]


def test_frozen_gf8_products_and_inverses():
    f = Field(3, 0b1011)
    assert f.mul(3, 5) == 4
    assert f.mul(2, 5) == 1
    assert f.inv(2) == 5
    assert f.inv(4) == 7


def test_default_moduli_pinned():
    assert DEFAULT_MODULI[5] == 0b100101
    assert DEFAULT_MODULI[6] == 0b1000011
    assert DEFAULT_MODULI[8] == 0b100011101
    for m, mod in DEFAULT_MODULI.items():
        assert is_irreducible(mod, m)


def test_reducible_modulus_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        Field(4, 0b10101)
    with pytest.raises(ValueError):
        Field(4, 0b1011)  # degree 3, not 4
    with pytest.raises(ValueError):
        Field(0)
    with pytest.raises(ValueError):
        Field(17)


@pytest.mark.parametrize("m", [3, 5, 8, 13])
def test_mul_matches_reference_oracle(m):
    f = Field(m)
    rng = random.Random(870 + m)
    for _ in range(400):
        a, b = rng.randrange(f.size), rng.randrange(f.size)
        want = ref_mul(a, b, m, f.modulus)
        assert f.mul(a, b) == want
        assert f.mul_direct(a, b) == want


@pytest.mark.parametrize("m", [2, 5, 8, 13])
def test_field_axioms_random_triples(m):
    f = Field(m)
    rng = random.Random(99 + m)
    for _ in range(300):
        a, b, c = (rng.randrange(f.size) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, 1) == a and f.add(a, 0) == a
        assert f.add(a, a) == 0  # characteristic 2
        if a:
            assert f.mul(a, f.inv(a)) == 1


# each field's generator, pinned: PM's and AMBR's default points are its powers
GENERATORS = {**{(m, mod): 2 for m, mod in DEFAULT_MODULI.items()}, (1, 0b11): 1, (8, 0x11B): 3}


def test_generator_is_smallest_with_full_order():
    """Every default field and AES's GF(2^8): the generator is the smallest
    element of full order, and the tables are its mul_direct power walk."""
    for (m, modulus), want in GENERATORS.items():
        f = Field(m, modulus)
        g = f.generator
        assert g == want
        assert f.element_order(g) == f.order
        assert all(f.element_order(cand) != f.order for cand in range(1, g))
        walk = [1]
        for _ in range(f.order - 1):
            walk.append(f.mul_direct(walk[-1], g))
        assert f._exp == walk + walk
        assert [f._log[x] for x in walk] == list(range(f.order))


def test_pow_and_div():
    f = Field(8)
    rng = random.Random(17)
    for _ in range(100):
        a = rng.randrange(1, f.size)
        assert f.pow(a, f.order) == 1  # Lagrange
        assert f.pow(a, -1) == f.inv(a)
        assert f.div(f.mul(a, 7), 7) == a
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroInverseError):
        f.inv(0)
    with pytest.raises(ZeroInverseError):
        f.div(3, 0)


# A negative symbol indexed the log table from its end: in GF(2^8),
# inv(-1) returned 253, pow(-3, 2) 230 and div(5, -1) 46, and a symbol of
# 300 died with IndexError. mul stays unchecked; its callers check.
@pytest.mark.parametrize("m", [1, 8, 16])
def test_inv_pow_and_div_refuse_a_symbol_outside_the_field(m):
    f = field_of(m)
    for bad in (-1, -3, f.size, f.size + 44, 1.0, "2", True):
        calls = [
            lambda: f.inv(bad),
            lambda: f.pow(bad, 2),
            lambda: f.pow(bad, -1),
            lambda: f.pow(bad, 0),
            lambda: f.div(5 % f.size or 1, bad),
            lambda: f.div(bad, 1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not a symbol of GF"):
                call()
    for bad in (1.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="exponent"):
            f.pow(1, bad)
    # the ends of the field still work
    assert f.inv(1) == 1 and f.pow(f.order, 0) == 1 and f.div(0, f.order) == 0
    assert f.mul(f.inv(f.order), f.order) == 1


def test_wide_fields_agree_with_mul_direct():
    """GF(2^13..2^16) multiply, invert and raise through their tables like
    every other field; each result is checked by shift-and-reduce."""
    for m in (13, 14, 15, 16):
        f = Field(m)
        rng = random.Random(1300 + m)
        for _ in range(200):
            a, b = rng.randrange(f.size), rng.randrange(1, f.size)
            assert f.mul(a, b) == f.mul_direct(a, b)
            assert f.mul_direct(b, f.inv(b)) == 1
            e = rng.randrange(-30, 30)
            power = 1
            for _ in range(abs(e)):
                power = f.mul_direct(power, b)
            if e < 0:
                assert f.mul_direct(f.pow(b, e), power) == 1
            else:
                assert f.pow(b, e) == power
        assert f.pow(f.generator, f.order) == 1


def test_matrix_inverse_round_trip_random():
    f = Field(8)
    rng = random.Random(4242)
    done = 0
    while done < 60:
        n = rng.randrange(1, 7)
        m = Matrix(f, [[rng.randrange(f.size) for _ in range(n)] for _ in range(n)])
        if mat_det(m) == 0:
            continue
        assert mat_mul(m, mat_inv(m)) == Matrix.identity(f, n)
        assert mat_mul(mat_inv(m), m) == Matrix.identity(f, n)
        done += 1


def test_det_multiplicative_and_singular():
    f = Field(5)
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 6)
        a = Matrix(f, [[rng.randrange(f.size) for _ in range(n)] for _ in range(n)])
        b = Matrix(f, [[rng.randrange(f.size) for _ in range(n)] for _ in range(n)])
        assert mat_det(mat_mul(a, b)) == f.mul(mat_det(a), mat_det(b))
    sing = Matrix(f, [[1, 2], [1, 2]])
    assert mat_det(sing) == 0
    with pytest.raises(SingularMatrixError):
        mat_inv(sing)
    with pytest.raises(SingularMatrixError):
        mat_solve(sing, [1, 0])


def test_solve_matches_multiply():
    f = Field(6)
    rng = random.Random(31)
    done = 0
    while done < 50:
        n = rng.randrange(1, 8)
        a = Matrix(f, [[rng.randrange(f.size) for _ in range(n)] for _ in range(n)])
        if mat_det(a) == 0:
            continue
        x = [rng.randrange(f.size) for _ in range(n)]
        b = mat_vec(a, x)
        assert mat_solve(a, b) == x
        done += 1


def ref_det(field, rows):
    """Leibniz sum over permutations with mul_direct: signs are 1 in
    characteristic 2, so the determinant is the permanent."""
    n = len(rows)
    acc = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for r, c in enumerate(perm):
            term = field.mul_direct(term, rows[r][c])
        acc ^= term
    return acc


DET_FIELDS = {m: Field(m) for m in (1, 2, 3, 4, 5, 6, 7, 8, 13)}


@st.composite
def det_cases(draw):
    """A matrix of 0..6 rows over GF(2^m), square about half the time and
    0..6 columns otherwise; about half of those with >= 2 rows are made
    rank-deficient by replacing a row with a combination of the others.
    GF(2^13) is past the byte multiply tables and reduces on table lists."""
    field = DET_FIELDS[draw(st.sampled_from(sorted(DET_FIELDS)))]
    n = draw(st.integers(0, 6))
    cols = n if draw(st.booleans()) else draw(st.integers(0, 6))
    elem = st.integers(0, field.size - 1)
    rows = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        t, *others = draw(st.permutations(range(n)))
        row = [0] * cols
        for o in others:
            c = draw(elem)
            row = [x ^ field.mul_direct(c, y) for x, y in zip(row, rows[o])]
        rows[t] = row
    return field, rows


@settings(max_examples=400, deadline=None)
@given(det_cases())
def test_mat_det_matches_leibniz_reference(case):
    field, rows = case
    a = Matrix(field, rows)
    if a.rows != a.cols:
        with pytest.raises(ValueError):
            mat_det(a)
        return
    assert mat_det(a) == ref_det(field, rows)


@settings(max_examples=300, deadline=None)
@given(det_cases())
def test_reduce_matches_field_mul_twin(case):
    """The table kernel and its Field.mul twin agree in pivots, determinant
    and every reduced row, below-only and Gauss-Jordan, with and without
    carried columns."""
    field, rows = case
    cols = len(rows[0]) if rows else 0
    for ncols in {cols, cols // 2}:
        for full in (False, True):
            table = [list(r) for r in rows]
            direct = [list(r) for r in rows]
            got = _reduce(field, table, ncols, full)
            assert got == ref.reduce_direct(field, direct, ncols, full)
            assert table == direct


@st.composite
def augmented_cases(draw):
    """[A | B] over GF(2^1..2^8): A is 1..12 rows by 0..12 columns, B 2..40
    carried columns, and about half of the systems with >= 2 rows lose rank
    to a row that combines the others, as a singular coupling system does."""
    field = DET_FIELDS[draw(st.sampled_from(range(1, 9)))]
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(0, 12))
    width = ncols + draw(st.integers(2, 40))
    elem = st.integers(0, field.size - 1)
    rows = draw(st.lists(st.lists(elem, min_size=width, max_size=width), min_size=nrows, max_size=nrows))
    if nrows >= 2 and draw(st.booleans()):
        t, *others = draw(st.permutations(range(nrows)))
        row = [0] * width
        for o in others:
            c = draw(elem)
            row = [x ^ field.mul_direct(c, y) for x, y in zip(row, rows[o])]
        rows[t] = row
    return field, rows, ncols


@settings(max_examples=300, deadline=None)
@given(augmented_cases())
def test_packed_reduce_matches_field_mul_twin(case):
    """With carried columns _reduce runs on packed rows; pivots,
    determinant and every entry, the unwritten pivot columns included,
    equal the Field.mul loop's."""
    field, rows, ncols = case
    width = len(rows[0])
    for full in (False, True):
        direct = [list(r) for r in rows]
        want = ref.reduce_direct(field, direct, ncols, full)
        table = [list(r) for r in rows]
        assert _reduce(field, table, ncols, full) == want
        assert table == direct
        packed = [int.from_bytes(bytes(r), "little") for r in rows]
        assert _reduce_packed(field, packed, width, ncols, full) == want
        assert [list(r.to_bytes(width, "little")) for r in packed] == direct


@settings(max_examples=300, deadline=None)
@given(det_cases(), st.data())
def test_elimination_wrappers_agree(case, data):
    field, rows = case
    a = Matrix(field, rows)
    rank = mat_rank(a)
    assert rank == mat_rank(a.transpose()) <= min(a.rows, a.cols)
    if a.rows != a.cols:
        return
    n = a.rows
    det = mat_det(a)
    assert (rank == n) == (det != 0)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            mat_solve(a, [0] * n)
        with pytest.raises(SingularMatrixError):
            mat_inv(a)
        return
    x = data.draw(st.lists(st.integers(0, field.size - 1), min_size=n, max_size=n))
    assert mat_solve(a, mat_vec(a, x)) == x
    inv = mat_inv(a)
    assert mat_mul(a, inv) == mat_mul(inv, a) == Matrix.identity(field, n)
    assert mat_inv(inv) == a


def test_vandermonde_structure_and_duplicates():
    f = Field(4)
    v = vandermonde(f, [0, 1, 2, 5], 4)
    assert v.data[0] == [1, 0, 0, 0]
    assert v.data[2] == [1, 2, f.mul(2, 2), f.mul(f.mul(2, 2), 2)]
    assert mat_det(v) != 0  # distinct points
    with pytest.raises(DuplicatePointError):
        vandermonde(f, [1, 2, 1], 3)


def test_any_square_vandermonde_subset_invertible():
    f = Field(6)
    pts = [f.pow(f.generator, i) for i in range(9)]
    v = vandermonde(f, pts, 5)
    rng = random.Random(5)
    for _ in range(40):
        rows = sorted(rng.sample(range(9), 5))
        assert mat_det(v.submatrix(rows, range(5))) != 0


def test_cauchy_all_submatrices_invertible():
    f = Field(4)
    c = cauchy(f, [1, 2], [3, 4])
    assert all_square_submatrices_invertible(c)
    c3 = cauchy(f, [1, 2, 3], [4, 5, 6])
    assert all_square_submatrices_invertible(c3)


def test_all_submatrix_check_catches_zero_entry():
    f = Field(4)
    # invertible overall but contains a zero entry => 1x1 submatrix fails
    m = Matrix(f, [[0, 1], [1, 0]])
    assert mat_det(m) != 0
    assert not all_square_submatrices_invertible(m)


@st.composite
def superregular_candidates(draw):
    """A matrix over GF(2^m), m = 1..8 or 13, of up to 6 x 6: random
    entries (small fields fail early, large ones often pass), or a Cauchy
    matrix with scaled rows and columns (every minor nonzero), perhaps
    with one entry changed, which can zero minors of any size."""
    m = draw(st.sampled_from(list(range(1, 9)) + [13]))
    field = Field(m)
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    elem = st.integers(0, field.size - 1)
    if rows + cols > field.size or draw(st.booleans()):
        return Matrix(field, draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    points = draw(st.lists(elem, min_size=rows + cols, max_size=rows + cols, unique=True))
    nonzero = st.integers(1, field.size - 1)
    left = draw(st.lists(nonzero, min_size=rows, max_size=rows))
    right = draw(st.lists(nonzero, min_size=cols, max_size=cols))
    c = cauchy(field, points[:rows], points[rows:]).data
    data = [[field.mul(left[r], field.mul(c[r][j], right[j])) for j in range(cols)] for r in range(rows)]
    if draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(elem)
    return Matrix(field, data)


@settings(max_examples=400, deadline=None)
@given(superregular_candidates())
def test_superregularity_by_minors_matches_one_elimination_per_submatrix(a):
    assert all_square_submatrices_invertible(a) == ref.all_square_submatrices_invertible(a)


# --- compiled linear maps: byte tables and the split-table executor ---


@pytest.mark.parametrize("m", range(1, 9))
def test_byte_tables_match_field_mul_exhaustively(m):
    f = Field(m)
    tables = f.mul_tables()
    assert len(tables) == f.size and all(len(t) == 256 for t in tables)
    for x in range(f.size):
        assert list(tables[x][: f.size]) == [f.mul(x, y) for y in range(f.size)]


def test_byte_tables_are_built_on_first_use_and_refused_past_m8():
    f = Field(8, 0x11D)
    assert f._mul_tables is None  # construction builds no byte tables
    assert f.mul_tables() is f.mul_tables()
    with pytest.raises(ValueError):
        Field(9).mul_tables()


@st.composite
def lagrange_cases(draw):
    """(field, nodes, targets) over GF(2^1..2^8), GF(2^10) and GF(2^13),
    which has no log tables: distinct nodes, a single one drawn on purpose,
    and targets drawn both from the nodes and from the whole field."""
    field = Field(draw(st.sampled_from(list(range(1, 9)) + [10, 13])))
    elem = st.integers(0, field.size - 1)
    count = draw(st.one_of(st.just(1), st.integers(1, min(field.size, 10))))
    nodes = draw(st.lists(elem, min_size=count, max_size=count, unique=True))
    targets = draw(st.lists(st.one_of(st.sampled_from(nodes), elem), max_size=10))
    return field, nodes, targets


@settings(max_examples=300, deadline=None)
@given(lagrange_cases())
def test_lagrange_rows_match_vandermonde_elimination(case):
    """Row x of lagrange_rows is V_x V_nodes^-1: the Vandermonde row of x,
    as many columns as nodes, times the inverse of the nodes' Vandermonde
    matrix. A target that is a node gets its unit row."""
    field, nodes, targets = case
    inverse = mat_inv(vandermonde(field, nodes, len(nodes))).transpose()
    table = lagrange_rows(field, nodes, targets)
    assert table.rows == len(targets) and table.data == [
        mat_vec(inverse, [field.pow(x, c) for c in range(len(nodes))]) for x in targets
    ]
    for x, row in zip(targets, table.data):
        if x in nodes:
            assert row == [int(x == node) for node in nodes]


def test_lagrange_rows_refuse_repeated_nodes():
    with pytest.raises(DuplicatePointError):
        lagrange_rows(Field(4), [3, 5, 3], [1])


@st.composite
def interpolation_nodes(draw):
    """(field, nodes) over GF(2^1..2^16): 1..12 distinct nodes in drawn
    order, 0 among them or not."""
    field = field_of(draw(st.integers(1, 16)))
    count = draw(st.integers(1, min(field.size, 12)))
    return field, draw(st.lists(st.integers(0, field.order), min_size=count, max_size=count, unique=True))


@settings(max_examples=300, deadline=None)
@given(interpolation_nodes())
def test_lagrange_columns_are_the_vandermonde_inverse(case):
    """The reference lagrange_columns(nodes), against which PM's pool
    tables are held, is mat_inv(vandermonde(nodes)) column by
    column, over every m, 0 among the nodes or not, in the drawn order."""
    field, nodes = case
    inverse = mat_inv(vandermonde(field, nodes, len(nodes)))
    assert ref.lagrange_columns(field, nodes) == [list(column) for column in zip(*inverse.data)]


def test_lagrange_columns_refuse_repeated_nodes():
    with pytest.raises(DuplicatePointError):
        ref.lagrange_columns(Field(4), [3, 5, 3])


@st.composite
def map_cases(draw, ms):
    """(field, matrix, vector), with zero vectors, zero rows and columns,
    zero matrices, matrices that only pick symbols, and the 1 x n and
    n x 1 shapes drawn on purpose."""
    field = Field(draw(st.sampled_from(ms)))
    shape = draw(st.sampled_from(["any", "row", "column", "zero", "picks"]))
    rows = 1 if shape == "row" else draw(st.integers(1, 12))
    cols = 1 if shape == "column" else draw(st.integers(1, 12))
    elem = st.integers(0, field.size - 1)
    if shape == "picks":
        picks = draw(st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows))
        data = [[int(c == j) for c in range(cols)] for j in picks]
    else:
        data = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        zero_cols = range(cols) if shape == "zero" else draw(st.sets(st.integers(0, cols - 1), max_size=cols))
        for c in zero_cols:
            for row in data:
                row[c] = 0
        for r in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
            data[r] = [0] * cols
    v = [0] * cols if draw(st.booleans()) else draw(st.lists(elem, min_size=cols, max_size=cols))
    return field, Matrix(field, data), v


def direct_product(a, v):
    """A v with every product through the table-free Field.mul_direct."""
    out = []
    for row in a.data:
        acc = 0
        for c, x in zip(row, v):
            acc ^= a.field.mul_direct(c, x)
        out.append(acc)
    return out


@settings(max_examples=400, deadline=None)
@given(map_cases(list(range(1, 9))))
def test_linear_map_matches_mat_vec(case):
    field, a, v = case
    assert LinearMap(a).apply(v) == mat_vec(a, v) == direct_product(a, v)


@settings(max_examples=300, deadline=None)
@given(map_cases(list(range(1, 9)) + [13]), st.integers(1, 9), st.data())
def test_apply_stripes_matches_apply_on_each_stripe(case, length, data):
    """Column t of apply_stripes is apply on the t-th symbols of the input
    rows, over every m <= 8 and past it, for L = 1 and up, and for maps
    that only pick rows."""
    field, a, _ = case
    elem = st.integers(0, field.size - 1)
    stripes = [
        [0] * a.cols if data.draw(st.booleans()) else data.draw(st.lists(elem, min_size=a.cols, max_size=a.cols))
        for _ in range(length)
    ]
    wrap = bytes if field.m <= 8 else list
    lm = LinearMap(a)
    got = lm.apply_stripes([wrap(row) for row in zip(*stripes)])
    assert len(got) == a.rows
    assert all(type(row) is wrap and len(row) == length for row in got)
    for t, stripe in enumerate(stripes):
        assert [row[t] for row in got] == lm.apply(stripe)
    if field.m <= 8:  # any sequence of symbols is taken as bytes
        assert lm.apply_stripes([tuple(row) for row in zip(*stripes)]) == got


@pytest.mark.parametrize("m", [1, 4, 8, 13])
def test_linear_map_without_rows_or_columns(m):
    """A 0 x 0 map and a 3 x 0 map; the 3 x 0 map sends zeros."""
    field = Field(m)
    empty, flat = Matrix(field, []), Matrix(field, [[], [], []])
    assert LinearMap(empty).apply([]) == LinearMap(empty).apply_stripes([]) == []
    assert LinearMap(flat).apply([]) == mat_vec(flat, []) == [0, 0, 0]
    assert LinearMap(flat).apply_stripes([]) == [bytes() if m <= 8 else []] * 3
    with pytest.raises(ValueError):
        LinearMap(flat).apply_stripes([b"\x01"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(range(1, 9)) + [13]), st.data())
def test_linear_map_that_picks_symbols_matches_mat_vec(m, data):
    """Rows that are all unit vectors take the picking path; one more
    nonzero entry anywhere takes the products again."""
    field = Field(m)
    cols = data.draw(st.integers(1, 12))
    picks = data.draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=12))
    rows = [[int(c == j) for c in range(cols)] for j in picks]
    v = data.draw(st.lists(st.integers(0, field.size - 1), min_size=cols, max_size=cols))
    assert LinearMap(Matrix(field, rows)).apply(v) == [v[j] for j in picks]
    r, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, cols - 1))
    rows[r][c] ^= data.draw(st.integers(1, field.size - 1))
    a = Matrix(field, rows)
    assert LinearMap(a).apply(v) == mat_vec(a, v)


@settings(max_examples=100, deadline=None)
@given(map_cases([13]))
def test_linear_map_falls_back_to_mat_vec_past_m8(case):
    field, a, v = case
    assert LinearMap(a).apply(v) == mat_vec(a, v)


@settings(max_examples=200, deadline=None)
@given(map_cases(list(range(1, 9)) + [13]), st.data())
def test_mat_mul_matches_mul_direct_products(case, data):
    field, a, _ = case
    cols = data.draw(st.integers(0, 12))
    elem = st.integers(0, field.size - 1)
    b = Matrix(field, data.draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=a.cols, max_size=a.cols)))
    want = [[0] * cols for _ in range(a.rows)]
    for i in range(a.rows):
        for t in range(a.cols):
            for j in range(cols):
                want[i][j] ^= field.mul_direct(a.data[i][t], b.data[t][j])
    got = mat_mul(a, b)
    assert (got.rows, got.cols, got.data) == (a.rows, cols, want)


def test_linear_map_checks_length_and_returns_fresh_lists():
    f = Field(8, 0x11D)
    lm = LinearMap(Matrix(f, [[1, 2], [3, 4], [0, 0]]))
    with pytest.raises(ValueError):
        lm.apply([1])
    first = lm.apply([5, 6])
    first[0] ^= 1
    assert lm.apply([5, 6]) == mat_vec(Matrix(f, [[1, 2], [3, 4], [0, 0]]), [5, 6])
