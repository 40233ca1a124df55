"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of `fractions.Fraction` (or `int`),
or for `nullspace` sparse `{column: int}` rows.  `nullspace`, `rank`
and `solve` share one sparse engine:

1. each row is scaled to integers, as a `{column: int}` dict
   (`intpoly._ints`), and zero rows are dropped;
2. the rows are brought to reduced row echelon form modulo the prime
   P = 2^61 - 1;
3. for each free column f, the null vector v_f with v_f[f] = 1 is
   lifted to Q by Wang's rational reconstruction of its pivot entries;
4. the lift is certified exactly: M v_f = 0 over Z, and v_f is
   supported on {f} and the pivot columns before f.

Rank mod P is at most the rank over Q, and the certified vectors are
independent, so together they prove that the modular pivots are the
lex-first pivots over Q, and that the basis is the one exact `rref`
gives.  When a reconstruction or a check fails, the engine falls back
to the dense `Fraction` elimination `rref`, so the prime is never
trusted alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .intpoly import _ints

P = (1 << 61) - 1
# Wang's bound: a fraction with |numerator|, denominator <= _BOUND is the
# only one of that size with its residue, since 2 * _BOUND**2 < P.
_BOUND = isqrt(P // 2)


def _clone(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = _clone(matrix)
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


def _width(matrix, cols=None):
    """Row length of a nonempty matrix; ValueError if rows are ragged or
    disagree with a given `cols`."""
    width = len(matrix[0]) if cols is None else cols
    for i, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError("row %d has %d entries, expected %d"
                             % (i, len(row), width))
    return width


def _subtract(row, f, prow):
    """row -= f * prow, mod P, in place."""
    for c, x in prow.items():
        y = (row.get(c, 0) - f * x) % P
        if y:
            row[c] = y
        else:
            del row[c]


def _echelon_mod_p(rows):
    """Reduced row echelon form mod P as {pivot column: row}: each row
    is 1 at its pivot and 0 at every other pivot column."""
    pivots = {}
    for row in rows:
        row = {c: x % P for c, x in row.items() if x % P}
        for pc in row.keys() & pivots.keys():
            _subtract(row, row[pc], pivots[pc])
        if not row:
            continue
        c = min(row)
        inv = pow(row[c], -1, P)
        row = {j: x * inv % P for j, x in row.items()}
        for prow in pivots.values():
            if c in prow:
                _subtract(prow, prow[c], row)
        pivots[c] = row
    return pivots


def _reconstruct(u):
    """The fraction a/b = u mod P with |a|, b <= _BOUND, or None (Wang)."""
    r0, r1, s0, s1 = P, u, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _BOUND or gcd(r1, s1) != 1:
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


def _modular_nullspace(rows, cols):
    """Certified null vectors as {column: Fraction}, or None when the
    prime cannot be shown to give the answer over Q."""
    columns = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            columns[c][i] = x
    pivots = _echelon_mod_p(rows)
    vectors = {f: {f: Fraction(1)} for f in range(cols) if f not in pivots}
    for pc, prow in pivots.items():
        for f, x in prow.items():
            if f != pc:
                q = _reconstruct(x)
                if q is None:
                    return None
                vectors[f][pc] = -q
    if not all(_certified(v, f, pivots, columns) for f, v in vectors.items()):
        return None
    return [vectors[f] for f in sorted(vectors)]


def _rational_nullspace(rows, cols):
    """Null vectors from the dense `Fraction` elimination."""
    red, pivots = rref([[row.get(c, 0) for c in range(cols)]
                        for row in rows])
    vectors = []
    for fc in range(cols):
        if fc not in pivots:
            v = {pc: -red[r][fc] for r, pc in enumerate(pivots)}
            v[fc] = Fraction(1)
            vectors.append(v)
    return vectors


def nullspace(matrix, cols=None):
    """Exact basis of the right nullspace of the matrix.

    `cols` must be given for sparse rows and when the matrix has no
    rows.  Basis vectors are normalized with leading free-variable entry
    1, ordered by free column index (deterministic).
    """
    if not matrix or isinstance(matrix[0], dict):
        if cols is None:
            raise ValueError("cols required for an empty or sparse matrix")
    else:
        cols = _width(matrix, cols)
        # each row as {column: int}, its denominators cleared
        matrix = [_ints(dict(enumerate(row)))[0] for row in matrix]
    rows = [row for row in matrix if any(row.values())]
    vectors = _modular_nullspace(rows, cols)
    if vectors is None:
        vectors = _rational_nullspace(rows, cols)
    zero = Fraction(0)
    return [[v.get(c, zero) for c in range(cols)] for v in vectors]


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
