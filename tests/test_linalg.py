"""Exact linear algebra over the rationals."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import linalg
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
