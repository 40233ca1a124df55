"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of `fractions.Fraction` (or `int`),
or for `nullspace` sparse `{column: int}` rows.  `nullspace`, `rank`
and `solve` share one sparse engine.  Each row is scaled to integers,
as a `{column: int}` dict (`intpoly._ints`), zero rows are dropped,
and the rest are sorted once, stably, sparsest first.  Then, for each
prime p of PRIMES in turn, until one is certified:

1. a prefix of the sorted rows is brought to reduced row echelon
   form modulo p, one row at a time; when every column is a pivot the
   nullspace is empty, and the rest of the rows are never read;
2. for each free column f, the null vector v_f with v_f[f] = 1 is
   lifted to Q by Wang's rational reconstruction of its pivot entries,
   with |numerator|, denominator <= isqrt(p // 2);
3. the lift is certified exactly against every row: M v_f = 0 over Z,
   and v_f is supported on {f} and the pivot columns before f.

Steps 2 and 3 run at most once per pivot set: when _STALL rows in a
row have reduced to zero, and after the last row unless the final
pivot set was lifted that way already.  A lift reads only the pivots and the columns, and the
pivots change only when a row adds one, so a pivot set whose lift
failed would fail again, identically.  A failed lift after the last
row moves on to the next, wider prime.  Let S be the rows
eliminated so far.  Rank mod p is at most the rank over Q, so
dim ker_p(S) >= dim ker_Q(S) >= dim ker_Q(M).  The certified vectors
lie in ker_Q(M), are independent, and there are dim ker_p(S) of them,
so they span it, and their free columns are those of M.  Each is 1 at
its free column and 0 at the others, which fixes it: the basis is the
one exact `rref` of M gives, whatever p and S are; the prime is never
trusted alone.  Full column rank mod p is full rank over Q, so the
early `[]` is exact too.

Every entry of the rref over Q is a ratio of two minors of the integer
matrix, each at most its Hadamard bound H.  When H <= isqrt(p // 2),
no nonzero minor vanishes mod p (so p is lucky) and every entry fits
Wang's bound, so p is certified.  Hence the `ArithmeticError` raised
when every prime fails can only come from a matrix with
H > isqrt(PRIMES[-1] // 2), about 2^2211.  `rref`, the dense `Fraction`
elimination, is the reference the engine is tested against, and
`span_basis` brings a spanning set to the normal form of `nullspace`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .intpoly import _ints

# the Mersenne primes 2^k - 1 tried in turn; most matrices need only the first
PRIMES = tuple((1 << k) - 1 for k in (61, 127, 521, 1279, 4423))

# rows in a row that reduce to zero before the pivots are lifted early
_STALL = 32


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def span_basis(vectors):
    """The basis of the span of the independent `vectors` that
    `nullspace` gives for a matrix with that kernel: each 1 at its free
    column, its last nonzero entry, and 0 at the others', in the order
    of those columns.  It is the rref with the columns reversed."""
    rows = rref([v[::-1] for v in vectors])[0]
    return [v[::-1] for v in reversed(rows)]


def _width(matrix, cols=None):
    """Row length of a nonempty matrix; ValueError if rows are ragged or
    disagree with a given `cols`."""
    width = len(matrix[0]) if cols is None else cols
    for i, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError("row %d has %d entries, expected %d"
                             % (i, len(row), width))
    return width


def _subtract(row, f, prow, p):
    """row -= f * prow, mod p, in place."""
    for c, x in prow.items():
        y = (row.get(c, 0) - f * x) % p
        if y:
            row[c] = y
        else:
            del row[c]


def _reconstruct(u, p, bound):
    """The fraction a/b = u mod p with |a|, b <= bound, or None (Wang;
    unique when 2 * bound**2 < p)."""
    r0, r1, s0, s1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified(v, f, pivots, columns):
    """Is v supported on {f} and the pivots before f, with M v = 0?"""
    if any(c != f and (c > f or c not in pivots) for c in v):
        return False
    acc = {}
    for c, a in _ints(v)[0].items():
        for i, x in columns[c].items():
            acc[i] = acc.get(i, 0) + a * x
    return not any(acc.values())


def _lift(pivots, columns, p):
    """Null vectors as {column: Fraction} lifted from the Gauss-Jordan
    `pivots` mod p, or None unless every one is certified against all
    of `columns`, the matrix by column, {row: int}."""
    bound = isqrt(p // 2)
    vectors = {f: {f: Fraction(1)} for f in range(len(columns))
               if f not in pivots}
    for pc, prow in pivots.items():
        for f, x in prow.items():
            if f != pc:
                q = _reconstruct(x, p, bound)
                if q is None:
                    return None
                vectors[f][pc] = -q
    if not all(_certified(v, f, pivots, columns) for f, v in vectors.items()):
        return None
    return [vectors[f] for f in sorted(vectors)]


def _modular_nullspace(rows, columns, p):
    """Null vectors from the rows reduced mod p, in order, into
    Gauss-Jordan pivots {pivot column: row}, each row 1 at its pivot and
    0 at every other pivot column; None when p cannot be shown to give
    the answer over Q.  Steps 1 to 3 of the module docstring."""
    pivots = {}
    zeros = 0
    for row in rows:
        # pivot rows are 0 at each other's pivots, so row[pc] is still the
        # input entry when pivot pc is subtracted; reduce mod p once, after
        row = dict(row)
        for pc in row.keys() & pivots.keys():
            f = row[pc] % p
            for c, x in pivots[pc].items():
                row[c] = row.get(c, 0) - f * x
        row = {c: x % p for c, x in row.items() if x % p}
        if not row:
            zeros += 1
            if zeros == _STALL:
                vectors = _lift(pivots, columns, p)
                if vectors is not None:
                    return vectors
            continue
        zeros = 0
        c = min(row)
        inv = pow(row[c], -1, p)
        row = {j: x * inv % p for j, x in row.items()}
        for prow in pivots.values():
            if c in prow:
                _subtract(prow, prow[c], row, p)
        pivots[c] = row
        if len(pivots) == len(columns):
            return []
    return _lift(pivots, columns, p) if zeros < _STALL else None


def nullspace(matrix, cols=None):
    """Exact basis of the right nullspace of the matrix.

    `cols` must be given for sparse rows and when the matrix has no
    rows; a sparse column outside range(cols) is a `ValueError`.  Basis
    vectors are normalized with leading free-variable entry 1, ordered
    by free column index (deterministic).  Raises `ArithmeticError`
    when no prime of PRIMES is certified (see the module docstring for
    the size of matrix that takes).
    """
    if not matrix or isinstance(matrix[0], dict):
        if cols is None:
            raise ValueError("cols required for an empty or sparse matrix")
        outside = set().union(*matrix).difference(range(cols))
        if outside:
            i, c = next((i, c) for i, row in enumerate(matrix)
                        for c in row if c in outside)
            raise ValueError("row %d has column %r outside range(%d)"
                             % (i, c, cols))
    else:
        cols = _width(matrix, cols)
        # each row as {column: int}, its denominators cleared
        matrix = [_ints(dict(enumerate(row)))[0] for row in matrix]
    rows = sorted((row for row in matrix if any(row.values())), key=len)
    columns = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            columns[c][i] = x
    for p in PRIMES:
        vectors = _modular_nullspace(rows, columns, p)
        if vectors is not None:
            zero = Fraction(0)
            return [[v.get(c, zero) for c in range(cols)] for v in vectors]
    raise ArithmeticError("no prime of linalg.PRIMES certifies the "
                          "nullspace of this %d x %d matrix"
                          % (len(rows), cols))


def rank(matrix):
    if not matrix:
        return 0
    return _width(matrix) - len(nullspace(matrix))


def solve(matrix, rhs):
    """Solve M x = rhs exactly.  Returns one solution or None.

    The solution is minus the null vector of [M | rhs] that is 1 in the
    rhs column; there is none when that column is a pivot."""
    if len(rhs) != len(matrix):
        raise ValueError("%d rows but %d right-hand sides"
                         % (len(matrix), len(rhs)))
    if not matrix:
        return []
    cols = _width(matrix)
    basis = nullspace([list(row) + [b] for row, b in zip(matrix, rhs)])
    if not basis or not basis[-1][cols]:
        return None  # inconsistent: pivot in the rhs column
    return [-x for x in basis[-1][:cols]]
