"""Exact linear algebra over the rationals."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import linalg, spaces
from moulde.linalg import PRIMES, nullspace, rank, rref, solve

P = PRIMES[0]


def _m(rows):
    return [[F(x) for x in row] for row in rows]


entries = st.integers(-4, 4).map(F)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                           min_size=1, max_size=max_rows))


def test_rref_identity():
    m = _m([[2, 0], [0, 3]])
    red, pivots = rref(m)
    assert red == _m([[1, 0], [0, 1]])
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    m = _m([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red[0] == _m([[1, 0, 1]])[0]
    assert red[1] == _m([[0, 1, 1]])[0]


def test_rank_known():
    assert rank(_m([[1, 2], [2, 4]])) == 1
    assert rank(_m([[1, 0], [0, 1]])) == 2
    assert rank(_m([[0, 0], [0, 0]])) == 0


def test_nullspace_known():
    # x + y + z = 0 has a 2-dimensional nullspace
    basis = nullspace(_m([[1, 1, 1]]))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_nullspace_empty_matrix():
    basis = nullspace([], cols=3)
    assert len(basis) == 3
    assert basis[0] == [F(1), F(0), F(0)]


def test_nullspace_full_rank():
    assert nullspace(_m([[1, 0], [0, 1]])) == []


def test_solve_unique():
    x = solve(_m([[2, 1], [1, -1]]), [F(5), F(1)])
    assert x == [F(2), F(1)]


def test_solve_inconsistent():
    assert solve(_m([[1, 1], [1, 1]]), [F(1), F(2)]) is None


def test_solve_underdetermined_gives_some_solution():
    m = _m([[1, 1, 0]])
    x = solve(m, [F(3)])
    assert x is not None
    assert sum(a * b for a, b in zip(m[0], x)) == 3


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    cols = len(m[0])
    assert rank(m) + len(nullspace(m)) == cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_annihilated(m):
    for v in nullspace(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(matrices(max_rows=4, max_cols=6), st.data())
@settings(max_examples=80, deadline=None)
def test_span_basis_is_the_nullspace_basis_of_its_span(m, data):
    # the basis of ker M, reordered and mixed by an invertible
    # triangular matrix, comes back as the basis `nullspace` gives
    want = nullspace(m)
    order = data.draw(st.permutations(range(len(want))))
    mixed = []
    for i, p in enumerate(order):
        v = want[p]
        for q in order[:i]:
            c = data.draw(entries)
            v = [x + c * y for x, y in zip(v, want[q])]
        s = data.draw(entries.filter(bool))
        mixed.append([s * x for x in v])
    assert linalg.span_basis(mixed) == want


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_solve_verifies(m):
    # rhs built from a known solution is always solvable
    cols = len(m[0])
    x0 = [F(i - 1) for i in range(cols)]
    rhs = [sum(a * b for a, b in zip(row, x0)) for row in m]
    x = solve(m, rhs)
    assert x is not None
    for row, b in zip(m, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


# -- the modular engine against the dense Fraction elimination ---------------

def _rref_nullspace(m):
    red, pivots = rref(m)
    cols = len(m[0])
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [F(0)] * cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _rref_solve(m, rhs):
    cols = len(m[0])
    red, pivots = rref([row + [b] for row, b in zip(m, rhs)])
    if cols in pivots:
        return None
    x = [F(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def _fractions(value):
    return all(type(x) is F for x in value)


rationals = st.one_of(st.just(F(0)), st.integers(-9, 9).map(F),
                      st.fractions(-9, 9, max_denominator=12))


@given(st.integers(1, 6).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(rationals, min_size=c, max_size=c),
                 min_size=1, max_size=7),
        st.lists(rationals, min_size=7, max_size=7))))
@settings(max_examples=200, deadline=None)
def test_engine_equals_rref(case):
    m, rhs = case
    rhs = rhs[:len(m)]
    basis = nullspace(m)
    assert basis == _rref_nullspace(m)
    assert all(_fractions(v) for v in basis)
    assert rank(m) == len(rref(m)[1])
    x = solve(m, rhs)
    assert x == _rref_solve(m, rhs)
    assert x is None or _fractions(x)


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return rref(matrix)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def test_unlucky_prime_falls_back_to_q(rref_calls):
    # P vanishes mod P: the modular rank is too small, and the lifted
    # vectors fail M v = 0 over Z, so the answer over Q comes from the
    # next prime
    assert nullspace([[P]]) == []
    assert rank([[P]]) == 1
    assert nullspace(_m([[1, 1], [1, 1 + P]])) == []
    assert rank(_m([[1, 1], [1, 1 + P]])) == 2
    # mod P the pivot of [P, 1] moves to column 1; over Q it is column 0
    assert solve([[P, 1]], [1]) == [F(1, P), F(0)]
    assert rref_calls == []


def test_reconstruction_failure_falls_back_to_q(rref_calls):
    # the null vector's entry -b/a has numerator and denominator near
    # 2^40, beyond the reconstruction bound isqrt(P // 2) < 2^30 but
    # within that of the next prime
    a, b = 2 ** 40 + 15, 2 ** 40 + 3
    first, second = (
        linalg._reconstruct((-b * pow(a, -1, p)) % p, p, math.isqrt(p // 2))
        for p in PRIMES[:2])
    assert first != F(-b, a) and second == F(-b, a)
    assert nullspace([[a, b]]) == [[F(-b, a), F(1)]]
    assert solve([[a, b]], [1]) == [F(1, a), F(0)]
    assert rref_calls == []


def test_matrix_unlucky_at_every_prime_is_an_arithmetic_error(rref_calls):
    # the determinant N vanishes mod every prime, so no lift is certified
    N = math.prod(PRIMES)
    with pytest.raises(ArithmeticError):
        nullspace(_m([[1, 1], [1, 1 + N]]))
    assert rref_calls == []


def test_exact_inputs_take_the_modular_path(rref_calls):
    m = _m([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert nullspace(m) == [[F(-1), F(-1), F(1)]]
    assert rank(m) == 2
    assert solve(m, [F(6), F(12), F(2)]) == [F(2), F(2), F(0)]
    assert rref_calls == []


@given(st.integers(1, 6).flatmap(lambda c: st.tuples(
    st.just(c), st.lists(st.lists(st.integers(-9, 9), min_size=c,
                                  max_size=c), max_size=7))))
@settings(max_examples=150, deadline=None)
def test_sparse_integer_rows_give_the_dense_basis(case):
    cols, m = case
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert nullspace(sparse, cols) == nullspace(m, cols)


def test_sparse_rows_fall_back_and_need_cols(rref_calls):
    assert nullspace([{0: P}], 1) == []
    assert nullspace([{}, {1: 2}], 2) == [[F(1), F(0)]]
    assert rref_calls == []
    with pytest.raises(ValueError):
        nullspace([{0: 1}])


def test_bad_shapes_are_typed_errors():
    ragged = [[F(1), F(2)], [F(3)]]
    for call in (lambda: nullspace(ragged), lambda: rank(ragged),
                 lambda: solve(ragged, [F(1), F(1)]),
                 lambda: nullspace(_m([[1, 2]]), cols=3),
                 lambda: solve(_m([[1, 2]]), [F(1), F(2)]),
                 lambda: solve(_m([[1, 2], [3, 4]]), [F(1)]),
                 lambda: solve([], [F(1)])):
        with pytest.raises(ValueError):
            call()
    for c in (-1, 5):
        with pytest.raises(ValueError, match="row 1 has column %d" % c):
            nullspace([{0: 1}, {c: 1}], 2)


# -- the incremental elimination: sparsest rows first, stop when certified ---

@st.composite
def tall_sparse_matrices(draw):
    """(cols, rows): 40 to 120 sparse integer rows, each a combination
    of one or two of at most cols // 2 sparse generators."""
    cols = draw(st.integers(4, 12))
    gens = draw(st.lists(
        st.dictionaries(st.integers(0, cols - 1),
                        st.integers(-5, 5).filter(bool),
                        min_size=1, max_size=3),
        min_size=1, max_size=cols // 2))
    combos = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(gens), st.integers(-3, 3)),
                 min_size=1, max_size=2),
        min_size=40, max_size=120))
    rows = []
    for combo in combos:
        row = {}
        for gen, k in combo:
            for c, x in gen.items():
                row[c] = row.get(c, 0) + k * x
        rows.append({c: x for c, x in row.items() if x})
    return cols, rows


@given(tall_sparse_matrices())
@settings(max_examples=40, deadline=None)
def test_tall_sparse_matrices_give_the_rref_basis(case):
    cols, rows = case
    dense = [[F(row.get(j, 0)) for j in range(cols)] for row in rows]
    basis = _rref_nullspace(dense)
    assert nullspace(rows, cols) == basis
    assert nullspace(dense) == basis


@pytest.fixture
def lifts(monkeypatch):
    results = []
    inner = linalg._lift

    def counted(pivots, columns, p):
        results.append(inner(pivots, columns, p))
        return results[-1]

    monkeypatch.setattr(linalg, "_lift", counted)
    return results


def test_a_failed_early_lift_goes_on_eliminating(lifts):
    # the 40 sparse rows stall after the first: the lift of their one
    # pivot misses the dense row, which is sorted last
    rows = [{0: k, 1: -k} for k in range(1, 41)] + [{0: 1, 1: 1, 2: 1}]
    dense = [[F(row.get(j, 0)) for j in range(3)] for row in rows]
    assert nullspace(rows, 3) == _rref_nullspace(dense) == [
        [F(-1, 2), F(-1, 2), F(1)]]
    assert len(lifts) >= 2 and lifts[0] is None


def test_each_pivot_set_is_lifted_at_most_once(monkeypatch):
    # a lift reads only the pivots, which change only with their number,
    # so a second lift of one pivot count under one prime would repeat
    # a failed one
    system = spaces.vkrv_system(10)
    seen, inner = [], linalg._lift

    def spy(pivots, columns, p):
        seen.append((p, len(pivots)))
        return inner(pivots, columns, p)

    monkeypatch.setattr(linalg, "_lift", spy)
    assert len(system.null_vectors()) == 1
    assert len(set(seen)) == len(seen) <= 4


@pytest.fixture
def read(monkeypatch):
    """For each prime tried, [rows given, rows read] of the elimination."""
    counts = []
    inner = linalg._modular_nullspace

    class Counted(list):
        def __iter__(self):
            for row in super().__iter__():
                counts[-1][1] += 1
                yield row

    def spy(rows, columns, p):
        counts.append([len(rows), 0])
        return inner(Counted(rows), columns, p)

    monkeypatch.setattr(linalg, "_modular_nullspace", spy)
    return counts


def test_full_column_rank_stops_at_the_last_pivot(lifts, read):
    # the dense rows, sorted after the square ones, are never read
    square = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    tall = [{0: k, 1: k + 1, 2: k + 2} for k in range(40)] + square
    assert nullspace(tall, 3) == []
    assert read == [[43, 3]] and lifts == []


def test_ls_16_4_is_certified_from_a_strict_prefix(read, monkeypatch):
    system = spaces.ls_system(16, 4)
    read.clear()  # the alternal kernel's own eliminations
    vectors = system.null_vectors()
    assert len(vectors) == 3
    [[given, used]] = read
    assert given == 910 and 0 < used < given
    # the same basis as from every row: no early lift
    monkeypatch.setattr(linalg, "_STALL", given + 1)
    assert system.null_vectors() == vectors and read[-1] == [910, 910]
