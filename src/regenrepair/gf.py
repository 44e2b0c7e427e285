"""Arithmetic in GF(2^m) and small dense matrices over it.

Field elements are plain ints in [0, 2^m); the modulus is an irreducible
binary polynomial given as a bitmask (bit i = coefficient of x^i).
Every field, m = 1..16, multiplies through log/antilog tables built when
it is made; they hold 0.7 MB at m = 13 and 5.5 MB at m = 16. Carry-less
shift-and-reduce (`mul_direct`) builds them and stays as the reference
the tests check them against.

Every elimination goes through one row-reduction kernel on packed rows,
`_reduce_packed`, which returns the pivot columns and the determinant.
`_reduce` packs list rows for it: mat_solve, mat_inv and the framework's
CouplingSystem.solve run it Gauss-Jordan on an augmented matrix, IA's
condition_check below the pivots only. mat_det and mat_rank, the
framework's derivations of read maps, IA's decoders and AMBR repair
plans, the IA plan compile, PM's coupling solve and condition_check and
AMBR's construction check call `_reduce_packed` on rows they pack
themselves. A map from a polynomial's values at some points
to its values at others, V_targets V_nodes^-1, needs no elimination:
lagrange_rows writes it down as a table of Lagrange basis values, and the
MDS generator and MDS repair decode maps are such tables.

A packed row (`_pack`) is one int holding a row of symbols, one lane per
entry, so that adding rows is one XOR. Over m <= 8 a lane is a byte and
scaling a row is one bytes.translate through the multiply table:
`_reduce_packed` eliminates, `_mul_packed` multiplies and `_scale_packed`
scales each row by its own symbol (PM's pool decoder tables, AMBR's
construction check) on such rows,
`_transpose_packed` turns rows into columns by strided slices of their
bytes, and LinearMap.from_packed cuts a map's columns from rows, as
LinearMap.from_columns takes them ready-made. Past m = 8 a lane is two
bytes, and the same calls unpack the rows for the list loops on the
log/antilog tables (`_reduce_lists`, `_mul_lists`), all of a call's rows
by one struct call (`_unpack_rows`); callers such as the IA plan compile
never look at the lanes, and the framework and PM read a row's right part
by shifting out `_lane_bits` per lane. Only these packed kernels branch on
the field: mat_mul runs `_mul_packed` at every m, and mat_vec is `dot` per
row. The tests hold the kernels to the same loop through Field.mul
(tests/reference_paths.py).

A LinearMap is a matrix compiled for many products. Over m <= 8 it keeps
the matrix as one bytes object per column, runs each column through
bytes.translate with the multiply table of its input symbol and XORs the
columns as ints: the split-table product of Plank, Greenan and Miller
(FAST 2013), in the standard library. apply_stripes runs L stripes at once
through the same tables, one translate of an L-byte input row per nonzero
entry of the matrix.
"""

from __future__ import annotations

import itertools
import struct

# Primitive polynomials, one per degree. m=5,6,8 are load-bearing defaults
# (several code constructions pin them); the rest are the usual LFSR picks.
DEFAULT_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100000000101011,
    15: 0b1000000000000011,
    16: 0b10000000000101101,
}


class ZeroInverseError(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class SingularMatrixError(ValueError):
    """Matrix has no inverse / system has no unique solution."""


class DuplicatePointError(ValueError):
    """Vandermonde evaluation points must be pairwise distinct."""


def polymul_gf2(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    return res


def polymod_gf2(a: int, mod: int) -> int:
    """Remainder of binary polynomial a modulo mod."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(modulus: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2."""
    if modulus.bit_length() - 1 != m:
        return False
    if m == 1:
        return True
    for deg in range(1, m // 2 + 1):
        for p in range(1 << deg, 1 << (deg + 1)):
            if polymod_gf2(modulus, p) == 0:
                return False
    return True


class Field:
    """GF(2^m) with a fixed irreducible modulus.

    The generator is the smallest element of multiplicative order 2^m - 1:
    the powers of g = 1, 2, ... are walked with mul_direct until one walk
    covers every nonzero element, so it does not depend on the modulus
    being primitive. That walk is the antilog table.
    """

    def __init__(self, m: int, modulus: int | None = None):
        if type(m) is not int or not 1 <= m <= 16:
            raise ValueError(f"field degree m={m!r} must be an int in 1..16")
        if modulus is None:
            modulus = DEFAULT_MODULI[m]
        if type(modulus) is not int:
            raise ValueError(f"modulus {modulus!r} is not an int")
        if modulus.bit_length() - 1 != m:
            raise ValueError(f"modulus {modulus:#x} does not have degree exactly {m}")
        if not is_irreducible(modulus, m):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.m = m
        self.modulus = modulus
        self.size = 1 << m
        self.order = self.size - 1  # multiplicative group order
        self._mul_tables: list[bytes] | None = None  # built by mul_tables()
        for g in range(1, self.size):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self.mul_direct(x, g)
            if len(exp) == self.order:
                break
        self.generator = g
        self._log = [0] * self.size
        for i, x in enumerate(exp):
            self._log[x] = i
        self._exp = exp + exp  # a sum of two logs indexes it unreduced

    # -- scalar ops ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add  # characteristic 2

    def neg(self, a: int) -> int:
        return a

    def mul_direct(self, a: int, b: int) -> int:
        """Shift-and-reduce product: it builds the log/antilog tables, and
        the tests check the table products against it."""
        return polymod_gf2(polymul_gf2(a, b), self.modulus)

    def mul(self, a: int, b: int) -> int:
        """The product through the log tables. It is the hot kernel and
        checks nothing: a symbol outside 0..2^m-1 reads the wrong entry or
        raises IndexError, so callers check their symbols first, as
        check_input and check_message do for shards and messages."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _check_symbol(self, a) -> None:
        if type(a) is not int or not 0 <= a < self.size:
            raise ValueError("%r is not a symbol of GF(2^%d), an int in 0..%d" % (a, self.m, self.order))

    def inv(self, a: int) -> int:
        """1/a; a symbol outside the field raises ValueError, and 0
        ZeroInverseError."""
        self._check_symbol(a)
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return self._exp[self.order - self._log[a]]

    def div(self, a: int, b: int) -> int:
        """a/b; both are checked as inv checks."""
        self._check_symbol(a)
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e for any int e, a negative one through inv; a symbol outside
        the field or an exponent that is not an int raises ValueError."""
        self._check_symbol(a)
        if type(e) is not int:
            raise ValueError("exponent %r is not an int" % (e,))
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        x, k = a, 1
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    def elements(self) -> range:
        return range(self.size)

    def mul_tables(self) -> list[bytes]:
        """Multiply tables for bytes.translate, m <= 8 only: entry x is the
        256-byte table y -> x*y for y < 2^m (entries past the field are
        never read).

        Built on first use, one translate per element: the table of
        g^(i+1) is the table of g^i translated through the table of the
        generator g. Code constructions that invert or multiply matrices
        build them, so this runs once per field.
        """
        if self._mul_tables is None:
            if self.m > 8:
                raise ValueError("byte multiply tables need m <= 8")
            pad = bytes(256 - self.size)
            power = bytes(range(self.size)) + pad  # the table of g^0 = 1
            step = bytes(self.mul(self.generator, y) for y in range(self.size)) + pad
            tables = [bytes(256)] * self.size
            for i in range(self.order):
                tables[self._exp[i]] = power
                power = power.translate(step)
            self._mul_tables = tables
        return self._mul_tables

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus={self.modulus:#x})"


class Matrix:
    """Dense matrix over a Field; data is a list of row lists of ints."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list[int]]):
        self.field = field
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise ValueError("ragged rows")
        self.data = [list(r) for r in data]

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.data)])

    def submatrix(self, rows, cols) -> "Matrix":
        return Matrix(self.field, [[self.data[i][j] for j in cols] for i in rows])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


class LinearMap:
    """y = A x for a fixed matrix A, compiled once and applied many times.

    For m <= 8 A is kept as a tuple of columns, one bytes object each, and
    A x is the XOR of the columns, each translated through the multiply
    table of its symbol of x and read as one int. apply_stripes runs many
    stripes through the same tables at once: each input row holds one
    symbol per stripe, and output row i is the XOR of the input rows, each
    translated through the table of A[i][j]. Wider fields keep the Matrix
    and run mat_vec. A whose rows are all unit vectors (a helper that
    sends some of its symbols as they are) only picks symbols, or rows;
    picks says which, and is None for every other A. Both applies take
    symbols already checked to lie in the field.
    """

    __slots__ = ("field", "rows", "cols", "picks", "_columns", "_matrix")

    def __init__(self, matrix: Matrix):
        self.field = matrix.field
        self.rows, self.cols = matrix.rows, matrix.cols
        self.picks = _picks(matrix.data, self.cols)
        wide = self.field.m > 8
        self._matrix = matrix if wide else None
        self._columns = None if wide else tuple(map(bytes, zip(*matrix.data)))

    @classmethod
    def from_packed(cls, field: Field, rows: list[int], width: int, order) -> "LinearMap":
        """The map whose column t is column order[t] of the packed rows
        (see _pack), width entries each. Over m <= 8 its columns are
        strided slices of the rows' bytes, with no Matrix in between."""
        if field.m > 8:
            return cls(Matrix(field, [[row[j] for j in order] for row in _unpack_rows(field, rows, width)]))
        data = b"".join([row.to_bytes(width, "little") for row in rows])
        return cls._of_columns(field, len(rows), [data[j::width] for j in order])  # column j, one byte per row

    @classmethod
    def from_columns(cls, field: Field, columns: list[int], rows: int) -> "LinearMap":
        """The map whose column j is the packed row columns[j] (see _pack),
        rows entries each. Over m <= 8 a column's bytes are the column."""
        if field.m > 8:
            return cls(Matrix(field, [list(row) for row in zip(*_unpack_rows(field, columns, rows))]))
        return cls._of_columns(field, rows, [c.to_bytes(rows, "little") for c in columns])

    @classmethod
    def _of_columns(cls, field: Field, rows: int, columns: list[bytes]) -> "LinearMap":
        new = cls.__new__(cls)
        new.field, new.rows, new.cols, new._matrix = field, rows, len(columns), None
        new._columns = tuple(columns)
        new.picks = _picks(zip(*new._columns), new.cols)
        return new

    def apply(self, v: list[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        if self.picks is not None:
            return [v[j] for j in self.picks]
        if self._matrix is not None:
            return mat_vec(self._matrix, v)
        tables, from_bytes = self.field.mul_tables(), int.from_bytes
        acc = 0
        for column, x in zip(self._columns, v):
            if x:
                acc ^= from_bytes(column.translate(tables[x]), "little")
        return list(acc.to_bytes(self.rows, "little"))

    def apply_stripes(self, rows: list[bytes]) -> list[bytes]:
        """A applied to every stripe at once: rows[j] holds symbol j of each
        of L stripes, and output row i holds symbol i of each stripe's
        product. Rows are sequences of symbols, taken as bytes for m <= 8
        (a bytes row is not copied) and as lists past it; the output rows
        are of the same type."""
        if len(rows) != self.cols:
            raise ValueError("shape mismatch")
        rows = list(map(bytes if self._matrix is None else list, rows))
        if self.picks is not None:
            return [rows[j] for j in self.picks]
        if self._matrix is not None:
            products = [mat_vec(self._matrix, stripe) for stripe in zip(*rows)]
            return [[product[i] for product in products] for i in range(self.rows)]
        tables, from_bytes = self.field.mul_tables(), int.from_bytes
        length = len(rows[0]) if rows else 0
        out = []
        for i in range(self.rows):
            acc = 0
            for column, row in zip(self._columns, rows):
                x = column[i]
                if x:
                    acc ^= from_bytes(row.translate(tables[x]), "little")
            out.append(acc.to_bytes(length, "little"))
        return out


def _picks(rows, cols: int):
    """Where the 1 of each row is when every row is a unit vector of length
    cols, else None; it stops at the first row that is not."""
    picks = []
    for row in rows:
        if row.count(0) != cols - 1 or 1 not in row:
            return None
        picks.append(row.index(1))
    return tuple(picks)


def _lane_bits(field: Field) -> int:
    """The bits of one lane of a packed row (see _pack)."""
    return 8 if field.m <= 8 else 16


def _pack(field: Field, row, offset: int = 0) -> int:
    """A row of symbols as one int, entry j in lane offset + j: a lane is a
    byte over m <= 8 and two bytes past it. The sum of packed rows is the
    XOR of the ints. _reduce_packed, _mul_packed and LinearMap.from_packed
    take rows so."""
    if field.m <= 8:
        return int.from_bytes(bytes(row), "little") << 8 * offset
    return int.from_bytes(struct.pack("<%dH" % len(row), *row), "little") << 16 * offset


def _unpack(field: Field, row: int, width: int) -> list[int]:
    """The width symbols of a packed row, as a list."""
    if field.m <= 8:
        return list(row.to_bytes(width, "little"))
    return list(struct.unpack("<%dH" % width, row.to_bytes(2 * width, "little")))


def _unpack_rows(field: Field, rows: list[int], width: int) -> list[list[int]]:
    """_unpack of every row: past m = 8 one struct call reads them all."""
    if field.m <= 8:
        return [_unpack(field, row, width) for row in rows]
    data = b"".join([row.to_bytes(2 * width, "little") for row in rows])
    flat = struct.unpack("<%dH" % (width * len(rows)), data)
    return [list(flat[r * width : (r + 1) * width]) for r in range(len(rows))]


def _transpose_packed(field: Field, rows: list[int], width: int) -> list[int]:
    """The width columns of packed rows, each packed as a row of len(rows)
    entries: entry r of column j is entry j of rows[r]. A column is a
    strided slice of the rows' bytes, one per byte of its lanes."""
    lane = _lane_bits(field) // 8
    step = lane * width
    data = b"".join([row.to_bytes(step, "little") for row in rows])
    if lane == 1:
        return [int.from_bytes(data[j::step], "little") for j in range(width)]
    columns = []
    column = bytearray(2 * len(rows))
    for j in range(0, step, 2):
        column[0::2], column[1::2] = data[j::step], data[j + 1 :: step]
        columns.append(int.from_bytes(column, "little"))
    return columns


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    f = a.field
    out = _mul_packed(f, a.data, [_pack(f, row) for row in b.data], b.cols)
    return Matrix(f, _unpack_rows(f, out, b.cols))


def _mul_packed(field: Field, coefs: list[list[int]], rows: list[int], width: int) -> list[int]:
    """The product of coefs and the packed rows (width entries each),
    packed: row i is the XOR of the rows, each translated through the
    multiply table of its coefficient in coefs[i]. Past m = 8 the rows are
    unpacked for the list loop."""
    if field.m > 8:
        return [_pack(field, row) for row in _mul_lists(field, coefs, _unpack_rows(field, rows, width), width)]
    tables, from_bytes = field.mul_tables(), int.from_bytes
    data = [row.to_bytes(width, "little") for row in rows]
    out = []
    for ci in coefs:
        acc = 0
        for x, row in zip(ci, data):
            if x:
                acc ^= from_bytes(row.translate(tables[x]), "little")
        out.append(acc)
    return out


def _scale_packed(field: Field, scalars: list[int], rows: list[int], width: int) -> list[int]:
    """scalars[t] times the packed row rows[t] (width entries each), packed:
    one translate through the multiply table of the scalar, or past m = 8
    the rows unpacked by one struct call for a loop on the log tables."""
    if field.m > 8:
        exp, log = field._exp, field._log
        out = []
        for x, row in zip(scalars, _unpack_rows(field, rows, width)):
            lx = log[x]
            out.append(_pack(field, [exp[lx + log[y]] if y else 0 for y in row]) if x else 0)
        return out
    tables, from_bytes = field.mul_tables(), int.from_bytes
    return [from_bytes(row.to_bytes(width, "little").translate(tables[x]), "little") for x, row in zip(scalars, rows)]


def _mul_lists(field: Field, a: list[list[int]], b: list[list[int]], width: int) -> list[list[int]]:
    """a times b on lists, products through the log/antilog tables:
    _mul_packed's kernel past m = 8."""
    exp, log = field._exp, field._log
    out = []
    for ai in a:
        oi = [0] * width
        for ait, bt in zip(ai, b):
            if ait:
                la = log[ait]
                for j, x in enumerate(bt):
                    if x:
                        oi[j] ^= exp[la + log[x]]
        out.append(oi)
    return out


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    if a.cols != len(v):
        raise ValueError("shape mismatch")
    return [dot(a.field, row, v) for row in a.data]


def dot(field: Field, u: list[int], v: list[int]) -> int:
    mul = field.mul
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc ^= mul(a, b)
    return acc


def _reduce(field: Field, rows: list[list[int]], ncols: int, full: bool):
    """Row-reduce rows in place on their first ncols columns.

    The elimination on list rows behind mat_solve, mat_inv,
    CouplingSystem.solve and IA's condition_check; the rest call
    _reduce_packed on rows they pack. Column by column, the pivot is the
    first nonzero entry at or below the current rank; its row moves up to
    that rank and is scaled by the pivot's inverse, and the column is
    cleared below the pivot, and above it too when full is set
    (Gauss-Jordan). A column with no pivot is skipped. The pivot column is
    never read again, so it is not written. Columns past ncols (a
    right-hand side, an identity) are carried along. The rows are packed,
    reduced by _reduce_packed and unpacked.

    Returns (pivot_cols, det): det is the product of the pivots when every
    one of the ncols columns has one, else 0; row swaps leave it alone in
    characteristic 2.
    """
    width = len(rows[0]) if rows else 0
    packed = [_pack(field, row) for row in rows]
    result = _reduce_packed(field, packed, width, ncols, full)
    rows[:] = _unpack_rows(field, packed, width)
    return result


def _reduce_lists(field: Field, rows: list[list[int]], ncols: int, full: bool):
    """_reduce's loop on list rows, products on the log/antilog tables:
    _reduce_packed's kernel past m = 8."""
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    exp, log, order = field._exp, field._log, field.order
    pivots = []
    det_log = 0
    for col in range(ncols):
        rank = len(pivots)
        for r in range(rank, nrows):
            if rows[r][col]:
                break
        else:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        row = rows[rank]
        lp = log[row[col]]
        det_log += lp
        tail = []  # (column, log of the scaled entry) of the pivot row
        for j in range(col + 1, width):
            if row[j]:
                lj = (log[row[j]] - lp) % order
                row[j] = exp[lj]
                tail.append((j, lj))
        pivots.append(col)
        for r in range(0 if full else rank + 1, nrows):
            fct = rows[r][col]
            if fct and r != rank:
                rr = rows[r]
                lf = log[fct]
                for j, lj in tail:
                    rr[j] ^= exp[lf + lj]
    return pivots, exp[det_log % order] if len(pivots) == ncols else 0


def _reduce_packed(field, rows, width, ncols, full):
    """_reduce on packed rows (see _pack): rows[r] holds the width entries
    of row r, and rows is reduced in place.

    The pivot row's tail, the columns right of the pivot, is scaled by one
    translate through the multiply table of the pivot's inverse, and
    clearing a row XORs in that tail translated through the table of the
    row's entry, all tail columns at once. The pivot column and the ones
    left of it are left alone, as the list loop leaves them. Past m = 8 the
    rows are unpacked for the list loop.
    """
    if field.m > 8:
        lists = _unpack_rows(field, rows, width)
        result = _reduce_lists(field, lists, ncols, full)
        rows[:] = [_pack(field, row) for row in lists]
        return result
    tables, exp, log, order = field.mul_tables(), field._exp, field._log, field.order
    from_bytes = int.from_bytes
    nrows = len(rows)
    pivots = []
    det_log = 0
    for col in range(ncols):
        rank = len(pivots)
        shift = 8 * col
        for r in range(rank, nrows):
            if rows[r] >> shift & 255:
                break
        else:
            continue
        row = rows[r].to_bytes(width, "little")
        lp = log[row[col]]
        det_log += lp
        tail = row[col + 1 :].translate(tables[exp[order - lp]])
        pivot = bytes(col + 1) + tail
        rows[r] = rows[rank]
        rows[rank] = from_bytes(row[: col + 1] + tail, "little")
        pivots.append(col)
        for r in range(0 if full else rank + 1, nrows):
            x = rows[r]
            fct = x >> shift & 255
            if fct and r != rank:
                rows[r] = x ^ from_bytes(pivot.translate(tables[fct]), "little")
    return pivots, exp[det_log % order] if len(pivots) == ncols else 0


def _gauss_jordan(field: Field, aug: list[list[int]], n: int) -> None:
    """Turn [A | B] with square A (n x n) into [* | A^-1 B] in place."""
    pivots, _ = _reduce(field, aug, n, True)
    if len(pivots) < n:
        col = next(c for c, p in enumerate(pivots + [n]) if c != p)
        raise SingularMatrixError(f"no pivot in column {col}")


def mat_solve(a: Matrix, b: list[int]) -> list[int]:
    """Solve A x = b for square A; raises SingularMatrixError."""
    if a.rows != a.cols or a.rows != len(b):
        raise ValueError("mat_solve needs a square system")
    aug = [row + [bv] for row, bv in zip(a.data, b)]
    _gauss_jordan(a.field, aug, a.rows)
    return [row[-1] for row in aug]


def mat_inv(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ValueError("only square matrices invert")
    n = a.rows
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a.data)]
    _gauss_jordan(a.field, aug, n)
    return Matrix(a.field, [row[n:] for row in aug])


def mat_det(a: Matrix) -> int:
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    return _reduce_packed(a.field, [_pack(a.field, row) for row in a.data], a.cols, a.cols, False)[1]


def mat_rank(a: Matrix) -> int:
    return len(_reduce_packed(a.field, [_pack(a.field, row) for row in a.data], a.cols, a.cols, False)[0])


def vandermonde(field: Field, points: list[int], cols: int) -> Matrix:
    """Rows [1, x, x^2, ..., x^(cols-1)] for each evaluation point."""
    if len(set(points)) != len(points):
        raise DuplicatePointError("repeated evaluation point")
    mul = field.mul
    data = []
    for x in points:
        row = [1]
        for _ in range(cols - 1):
            row.append(mul(row[-1], x))
        data.append(row)
    return Matrix(field, data)


def lagrange_rows(field: Field, nodes, targets) -> Matrix:
    """Row t is the Lagrange basis on nodes evaluated at targets[t].

    Entry j of the row of x is L_j(x) = prod_{i != j} (x - n_i)/(n_j - n_i),
    which is w_j l(x)/(x - n_j) with l(x) = prod_i (x - n_i) and the
    barycentric weight w_j = 1/prod_{i != j} (n_j - n_i); a target that is
    a node gets its unit row. The matrix is V_targets V_nodes^-1 for
    Vandermonde matrices with len(nodes) columns, the map from a
    polynomial's values on the nodes to its values on the targets, with no
    elimination. The products run as sums of logs.
    """
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise DuplicatePointError("repeated interpolation node")
    exp, log, order = field._exp, field._log, field.order
    weights = [-sum(log[a ^ b] for b in nodes if b != a) % order for a in nodes]  # logs of the w_j

    def row(x):
        logs = [log[x ^ b] for b in nodes]
        lx = sum(logs) % order
        # lx + w - l lies in (-order, 2*order), and exp, 2*order long and
        # periodic in order, reads a negative index as the same power
        return [exp[lx + w - l] for w, l in zip(weights, logs)]

    where = {x: j for j, x in enumerate(nodes)}
    return Matrix(field, [[int(j == where[x]) for j in range(len(nodes))] if x in where else row(x) for x in targets])


def cauchy(field: Field, xs: list[int], ys: list[int]) -> Matrix:
    if set(xs) & set(ys):
        raise DuplicatePointError("Cauchy point sets must be disjoint")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise DuplicatePointError("repeated evaluation point")
    inv = field.inv
    return Matrix(field, [[inv(x ^ y) for y in ys] for x in xs])


def all_square_submatrices_invertible(a: Matrix) -> bool:
    """Every square submatrix (all sizes, all row/col subsets) is invertible.

    Minors are built size by size: the minor on rows rs and columns cs is
    expanded along row rs[0] over the minors of one size less on rs[1:],
    kept from the size before; characteristic 2 needs no signs. The first
    zero minor ends the check.
    """
    mul = a.field.mul
    minors = {((), ()): 1}
    for s in range(1, min(a.rows, a.cols) + 1):
        larger = {}
        for rs in itertools.combinations(range(a.rows), s):
            top, below = a.data[rs[0]], rs[1:]
            for cs in itertools.combinations(range(a.cols), s):
                det = 0
                for t, c in enumerate(cs):
                    if top[c]:
                        det ^= mul(top[c], minors[below, cs[:t] + cs[t + 1 :]])
                if det == 0:
                    return False
                larger[rs, cs] = det
        minors = larger
    return True
