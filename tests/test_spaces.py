"""Bigraded space solvers and dimension tables."""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

import moulde
from moulde import intpoly, linalg, mould, poly, spaces, words
from moulde.mould import (delta_inv, is_alternal, is_push_invariant, ma, swap)
from moulde.spaces import (VerificationError, dimension_table, solve_ds_ell,
                           solve_gr_krv, solve_krv_ell, solve_lkv, solve_ls,
                           solve_vkrv)


def _proportional(f, g):
    """Two nonzero word polynomials equal up to a rational scale."""
    w = next(iter(f.terms))
    c = g.coeff(w) / f.coeff(w)
    return c != 0 and g == f.scale(c)


# -- lkv / ls ----------------------------------------------------------------

def test_lkv_weight3():
    cell = solve_lkv(3, 1)
    assert cell.dim == 1
    b3 = words.lie_bracket(words.X, words.lie_bracket(words.X, words.Y))
    assert _proportional(cell.basis[0], b3)


def test_lkv_zeros():
    assert solve_lkv(4, 1).dim == 0
    assert solve_lkv(5, 2).dim == 0
    assert solve_lkv(6, 1).dim == 0


def test_lkv_basis_elements_satisfy_defining_predicates():
    for (n, r) in [(3, 1), (5, 1), (5, 3), (7, 3)]:
        cell = solve_lkv(n, r)
        for b in cell.basis:
            assert words.is_lie_element(b)
            assert mould.is_push_invariant(ma(b))
            assert mould.is_circ_neutral(swap(ma(b)))


def test_ls_equals_lkv_small():
    for n in range(1, 8):
        for r in range(1, 4):
            assert solve_ls(n, r).dim == solve_lkv(n, r).dim, (n, r)


def test_ls_known_cells():
    assert solve_ls(4, 2).dim == 0
    assert solve_ls(6, 2).dim == 0
    assert solve_ls(5, 1).dim == 1
    assert solve_ls(8, 2).dim == 1  # first depth-2 element


# Broadhurst-Kreimer (hep-th/9609128; Brown, arXiv:1301.3053): the
# series 1/(1 - O y + S y^2 - S y^4), O = x^3/(1-x^2) and
# S = x^12/((1-x^4)(1-x^6)), predicts the Lie dimensions.  The series
# starts at weight 3, so both spaces are 0 below it.
def _mobius(k):
    """The Moebius function of k >= 1."""
    m, p = 1, 2
    while k > 1:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            m = -m
        p += 1
    return m


def _broadhurst_kreimer(top_n, top_r):
    """{(n, r): d} for 1 <= r <= top_r, n <= top_n, nonzero d only: the
    dimensions of the depth-graded Lie algebra that the Broadhurst-Kreimer
    series predicts.  Its enveloping algebra has the Hilbert series
    P = 1/Q, Q = 1 - O y + S y^2 - S y^4, so -log Q = sum l_{n,r} x^n y^r
    with l_{n,r} = sum_{k | (n,r)} d_{n/k,r/k} / k, which Moebius
    inversion undoes.  n l_{n,r} is read off x dQ/dx * P = -x d(log Q)/dx."""
    odd = [int(n >= 3 and n % 2) for n in range(top_n + 1)]
    # S = x^12 / ((1 - x^4)(1 - x^6)): the ways to write n - 12 = 4a + 6b
    cusp = [sum(1 for a in range(top_n) for b in range(top_n)
                if 12 + 4 * a + 6 * b == n) for n in range(top_n + 1)]
    q = {(n, r): c for n in range(top_n + 1)
         for r, c in ((1, -odd[n]), (2, cusp[n]), (4, -cusp[n])) if c}
    p = {}
    for n in range(top_n + 1):
        for r in range(top_r + 1):
            p[n, r] = int((n, r) == (0, 0)) - sum(
                c * p[n - a, r - b] for (a, b), c in q.items()
                if a <= n and b <= r)
    log = {(n, r): F(-sum(a * c * p[n - a, r - b] for (a, b), c in q.items()
                          if a <= n and b <= r), n)
           for n in range(1, top_n + 1) for r in range(1, top_r + 1)}
    dims = {}
    for (n, r) in log:
        d = sum(F(_mobius(k), k) * log[n // k, r // k]
                for k in range(1, math.gcd(n, r) + 1) if n % k == r % k == 0)
        assert d.denominator == 1
        if d:
            dims[n, r] = int(d)
    return dims


BROADHURST_KREIMER = _broadhurst_kreimer(20, 6)


def test_broadhurst_kreimer_series():
    # the expansion written out by depth, weights 3..20
    by_depth = {r: [d for (n, rr), d in sorted(BROADHURST_KREIMER.items())
                    if rr == r] for r in range(1, 7)}
    assert by_depth[1] == [1] * 9  # n = 3, 5, ..., 19
    assert by_depth[2] == [1, 1, 1, 2, 2, 2, 3]  # n = 8, 10, ..., 20
    assert by_depth[3] == [1, 2, 2, 4, 5]  # n = 11, 13, ..., 19
    assert by_depth[4] == [1, 1, 3, 5, 7]  # n = 12, 14, ..., 20
    assert by_depth[5] == [1, 2, 5]  # n = 15, 17, 19
    assert by_depth[6] == [1, 3]  # n = 18, 20
    assert BROADHURST_KREIMER[16, 4] == 3


@pytest.mark.parametrize("solve", [solve_ls, solve_lkv])
def test_dims_match_broadhurst_kreimer(solve):
    cells = [(n, r) for n in range(1, 13) for r in (1, 2, 3, 4)]
    cells += [(13, 4), (14, 4), (16, 4)]
    for n, r in cells:
        assert solve(n, r).dim == BROADHURST_KREIMER.get((n, r), 0), (n, r)


def test_ls_reach_cells_match_broadhurst_kreimer():
    for solve, n, r in [(solve_ls, 15, 5), (solve_ls, 18, 4),
                        (solve_lkv, 15, 5), (solve_ls, 17, 5),
                        (solve_ls, 20, 4)]:
        assert solve(n, r).dim == BROADHURST_KREIMER[n, r] > 0, (
            solve.__name__, n, r)


def _witt(n, r):
    """The number of Lyndon words of length n with r letters y, the
    dimension of the depth-r part of the weight-n free Lie algebra:
    (1/n) sum over d | (n, r) of mu(d) C(n/d, r/d)."""
    return sum(_mobius(d) * math.comb(n // d, r // d)
               for d in range(1, math.gcd(n, r) + 1)
               if n % d == r % d == 0) // n


def test_kernel_size_is_the_witt_number():
    grid = [(n, r) for n in range(1, 15) for r in range(1, 6)]
    for n, r in grid + [(16, 4), (15, 5), (17, 5)]:
        assert len(spaces._kernel(n, r)[0]) == _witt(n, r), (n, r)
    assert [_witt(16, 4), _witt(15, 5), _witt(17, 5)] == [112, 200, 364]
    # no alternal moulds, as at (3,3): the empty system in every space
    empty = [(n, r) for n, r in grid if not _witt(n, r)]
    assert (3, 3) in empty
    for n, r in empty:
        for system in (spaces.lkv_system, spaces.ls_system,
                       spaces.krv_ell_system, spaces.ds_ell_system):
            s = system(n, r)
            assert (s.parameters, s.rows, s.tags) == ([], [], []), (n, r)
            assert s.null_vectors() == []


# The cancelled route to the conditions of `spaces._sum_rows`: each
# renaming sum is cancelled (`poly.renaming_sums`), and the cancelled
# sums are lifted over the lcm of their denominators.  The oracles below
# and the pinned systems were captured from it.
def _cleared(values, r):
    """(D, images) of `spaces._assemble` for the depth-r RatFracs
    `values`: D is the product of the factors of the lcm of their
    denominators, and each value is lifted over it."""
    one = {(0,) * r: 1}
    _, (D, *nums) = intpoly._lifted(
        [((), one)] + [(f.den_keys, f.terms) for f in values])
    return D, [(terms, f.denom) for terms, f in zip(nums, values)]


def _cancelled_rows(moulds, r, sums):
    """The conditions of `spaces._sum_rows` for (tag, perms, weight)
    `sums` on the depth-r values of `moulds`, by the cancelled route."""
    values = [M.get(r) for M in moulds]
    return [(tag, _cleared(poly.renaming_sums(values, list(perms)), r),
             weight) for tag, perms, weight in sums]


def _alternal(moulds, r, tag, constant):
    return _cancelled_rows(moulds, r, spaces._alternality(tag, r, constant))


def _cycle(r, weight):
    return [("circ", mould._cycle_perms(r), weight)]


# The alternal kernel solved block by block, one `nullspace` per sorted
# exponent tuple on the `al` rows of all the monomials: the oracle of
# the solve once per rank word.
def _block_kernel(n, r):
    gens = spaces._exp_tuples(n - r, r)
    blocks = {}
    for j, e in enumerate(gens):
        blocks.setdefault(tuple(sorted(e)), ([], []))[0].append(j)
    monomials = [mould.Mould("U", {r: poly.MultiPoly.monomial(e, 1)})
                 for e in gens]
    for row in spaces._assemble(
            gens, _alternal(monomials, r, "al", False)).integer_rows:
        blocks[tuple(sorted(gens[min(row)]))][1].append(row)
    kernel = {}  # free column -> kernel polynomial
    for cols, rows in blocks.values():
        local = {j: i for i, j in enumerate(cols)}
        for v in linalg.nullspace([{local[j]: c for j, c in row.items()}
                                   for row in rows], len(cols)):
            support = [(cols[i], x) for i, x in enumerate(v) if x]
            kernel[support[-1][0]] = poly.MultiPoly._wrap(
                {gens[j]: x for j, x in support}, r)
    return [kernel[f] for f in sorted(kernel)]


KERNEL_CELLS = [(n, r) for n in range(1, 15) for r in range(1, 6)] + [
    (16, 4), (15, 5), (17, 5)]


def _assert_kernel_is_the_block_oracle(n, r):
    polys, values = spaces._kernel(n, r)
    want = _block_kernel(n, r)
    assert [p.terms for p in polys] == [p.terms for p in want], (n, r)
    assert [list(p.terms) for p in polys] == [list(p.terms) for p in want]
    assert all(isinstance(v, poly.RatFrac) for v in values)
    assert values == polys, (n, r)


def test_kernel_per_rank_word_equals_the_block_oracle():
    spaces._pattern_kernel.cache_clear()
    for cell in KERNEL_CELLS:
        _assert_kernel_is_the_block_oracle(*cell)
    # a warm cache, filled in the reverse order, gives the same answer
    spaces._pattern_kernel.cache_clear()
    for cell in reversed(KERNEL_CELLS):
        spaces._kernel(*cell)
    for cell in KERNEL_CELLS:
        _assert_kernel_is_the_block_oracle(*cell)


def _rank_word(e):
    ranks = {v: i for i, v in enumerate(sorted(set(e)))}
    return tuple(sorted(ranks[v] for v in e))


def test_kernel_calls_nullspace_once_per_rank_word(monkeypatch):
    calls = []

    def spied(matrix, cols=None):
        calls.append(cols)
        return linalg.nullspace(matrix, cols)

    monkeypatch.setattr(spaces, "nullspace", spied)
    spaces._pattern_kernel.cache_clear()
    gens = spaces._exp_tuples(10, 5)
    words_seen = {_rank_word(e) for e in gens}
    assert len({tuple(sorted(e)) for e in gens}) == 30
    assert len(words_seen) == 13
    first = spaces._kernel(15, 5)
    assert len(calls) == len(words_seen)
    calls.clear()
    again = spaces._kernel(15, 5)
    assert calls == []
    assert [p.terms for p in again[0]] == [p.terms for p in first[0]]
    assert spaces._pattern_kernel.cache_info().currsize <= 2 ** (5 - 1)


def test_nullspace_sees_a_block_or_the_kernel_columns(monkeypatch):
    # at the monomials it saw all C(11, 3) = 165 columns
    seen = []

    def spied(matrix, cols=None):
        seen.append(cols)
        return linalg.nullspace(matrix, cols)

    monkeypatch.setattr(spaces, "nullspace", spied)
    spaces._pattern_kernel.cache_clear()
    assert solve_ls(12, 4).dim == solve_lkv(12, 4).dim == 1
    blocks = Counter(tuple(sorted(e)) for e in spaces._exp_tuples(8, 4))
    bound = max(max(blocks.values()), _witt(12, 4) + 1)
    assert bound == 41
    assert seen and max(seen) <= bound


# The Lyndon-word route to lkv, kept as the independent oracle: the
# parameters are the bracketed Lyndon words of depth r, pushed through
# `ma` before the push and circ rows are written.
def _lyndon_lkv_system(n, r):
    gens = spaces.lie_basis(n, r)
    B = [ma(g) for g in gens]
    conditions = [_push_row(B, r)]
    if r > 1:
        conditions += _cancelled_rows([swap(M) for M in B], r, _cycle(r, 0))
    return spaces._assemble(gens, conditions)


def test_lkv_spans_equal_the_lyndon_oracle():
    for n in range(3, 13):
        for r in range(1, min(4, n - 1) + 1):
            system = _lyndon_lkv_system(n, r)
            oracle = [words.linear_combination(system.parameters, v)
                      for v in system.null_vectors()]
            basis = solve_lkv(n, r).basis
            assert len(basis) == len(oracle), (n, r)
            words_seen = sorted({w for f in basis + oracle for w in f.terms})
            stacked = [[f.coeff(w) for w in words_seen]
                       for f in basis + oracle]
            assert linalg.rank(stacked) == len(basis), (n, r)


def test_lkv_solve_path_takes_no_word_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("word route taken")

    for module, name in [(spaces, "lie_basis"), (words, "lyndon_lie_basis"),
                         (mould, "ma"), (words, "to_c_basis")]:
        monkeypatch.setattr(module, name, refuse)
    assert solve_lkv(12, 4).dim == 1
    assert solve_lkv(13, 3).dim == 2


def test_lie_basis_is_the_depth_filtered_lyndon_basis():
    for n in range(1, 10):
        full = words.lyndon_lie_basis(n)
        for r in range(n + 1):
            assert spaces.lie_basis(n, r) == [
                b for b in full if b.depths() == [r]], (n, r)


# -- vkrv --------------------------------------------------------------------

def test_vkrv_weight3(b3):
    cell = solve_vkrv(3)
    assert cell.dim == 1
    assert _proportional(cell.basis[0], b3)


def test_vkrv_weight4_empty():
    assert solve_vkrv(4).dim == 0


def test_vkrv_weight5_is_nu_of_psi_minus(v5):
    cell = solve_vkrv(5)
    assert cell.dim == 1
    assert _proportional(cell.basis[0], v5)


def _odd_generator_lie_dims(N):
    """d_n for n <= N: the dimensions of the free graded Lie algebra with
    one generator in each odd weight >= 3.  By PBW, log 1/(1 - g) with
    g = t^3 + t^5 + ... equals sum_n d_n log 1/(1 - t^n), so
    n [t^n] log 1/(1 - g) = sum over e | n of e d_e."""
    g = [int(n >= 3 and n % 2 == 1) for n in range(N + 1)]
    log, power = [F(0)] * (N + 1), [1] + [0] * N
    for k in range(1, N + 1):
        power = [sum(power[i] * g[n - i] for i in range(n + 1))
                 for n in range(N + 1)]
        log = [a + F(b, k) for a, b in zip(log, power)]
    d = {}
    for n in range(1, N + 1):
        d[n] = (n * log[n] - sum(e * d[e] for e in d if n % e == 0)) / n
    return d


def test_vkrv_reach_matches_the_odd_generator_lie_dims():
    dims = _odd_generator_lie_dims(11)
    assert [dims[n] for n in range(3, 12)] == [1, 0, 1, 0, 1, 1, 1, 1, 2]
    for n in range(3, 12):
        assert solve_vkrv(n).dim == dims[n], n


def test_vkrv_solver_clears_each_bracket_once(monkeypatch):
    # vkrv(11) has two null vectors over the same Lyndon brackets
    built, cleared = [], []
    vkrv_system, ints = spaces.vkrv_system, spaces._ints

    def kept_system(n):
        built.append(vkrv_system(n))
        return built[-1]

    def counted(terms):
        cleared.append(id(terms))
        return ints(terms)

    monkeypatch.setattr(spaces, "vkrv_system", kept_system)
    monkeypatch.setattr(spaces, "_ints", counted)
    monkeypatch.setattr(words, "_ints", counted)
    basis = solve_vkrv(11).basis
    assert len(basis) == 2
    ids = {id(g.terms) for g in built[0].parameters}
    used = [i for i in cleared if i in ids]
    assert len(used) == len(set(used)) == len(ids)


# -- gr_krv ------------------------------------------------------------------

def test_gr_krv_dims():
    assert solve_gr_krv(3, 1) == 1
    assert solve_gr_krv(5, 1) == 1
    assert solve_gr_krv(4, 1) == 0


def test_gr_krv_matches_lkv_in_depth1():
    for n in range(3, 8):
        assert solve_gr_krv(n, 1) == solve_lkv(n, 1).dim, n


def test_solver_path_never_falls_back_to_fraction_elimination(monkeypatch):
    def refuse(matrix):
        raise AssertionError("Fraction fallback taken")

    monkeypatch.setattr(linalg, "rref", refuse)
    nullities = {spaces.ls_system(10, 4): 0, spaces.ls_system(15, 3): 2,
                 spaces.lkv_system(10, 4): 0, spaces.lkv_system(12, 4): 1,
                 spaces.vkrv_system(8): 1}
    for system, nullity in nullities.items():
        assert len(system.null_vectors()) == nullity
    # past the reconstruction bound of 2^61 - 1: the next prime answers
    bk = _broadhurst_kreimer(25, 3)
    for solve, n in [(solve_ls, 21), (solve_ls, 23), (solve_ls, 25),
                     (solve_lkv, 21)]:
        assert solve(n, 3).dim == bk[n, 3] > 0, (solve.__name__, n)
    spaces._vkrv_basis.cache_clear()
    try:
        for n in range(3, 8):
            for r in range(1, 4):
                assert solve_gr_krv(n, r) == int(n % 2 == 1 and r == 1)
    finally:
        spaces._vkrv_basis.cache_clear()


def test_assembly_substitutes_once_per_operator_and_depth(monkeypatch):
    # `spaces` substitutes the whole list of depth-r values once per
    # operator, a renaming never reaches the linear-map setup, and
    # every shuffle and cyclic row is built uncancelled (`_sum_rows`):
    # no value with keys is substituted, nothing is divided by Delta and
    # no renaming sum runs on any solver path, the `al` rows included
    calls, renaming, keyed, divided = [], [], [], []
    substitute, renaming_sums = poly.substitute, poly.renaming_sums
    linear_rows, times_forms = poly._linear_rows, mould._times_forms

    def counted_substitute(values, images):
        calls.append(("substitute", len(values)))
        keyed.extend(v for v in values if getattr(v, "den_keys", ()))
        renaming.append(poly._renaming(images) is not None)
        try:
            return substitute(values, images)
        finally:
            renaming.pop()

    def counted_sums(values, perms):
        calls.append(("renaming_sums", len(values)))
        return renaming_sums(values, perms)

    def watched_rows(polys):
        if renaming and renaming[-1]:
            raise AssertionError("a renaming reached _linear_rows")
        return linear_rows(polys)

    def counted_forms(M, forms, divide=False):
        divided.append(M)
        return times_forms(M, forms, divide)

    # `spaces` calls `substitute` itself, the mould operators through
    # `RatFrac.substitute_linear`
    for module in (spaces, poly):
        monkeypatch.setattr(module, "substitute", counted_substitute)
    for module in (mould, poly):
        monkeypatch.setattr(module, "renaming_sums", counted_sums)
    monkeypatch.setattr(poly, "_linear_rows", watched_rows)
    monkeypatch.setattr(mould, "_times_forms", counted_forms)
    # the blocks of the rank words (0,0,1), (0,1,1) and (0,1,2) cover the
    # 36 monomials of degree 7 in 3 variables and leave 12 alternal
    # polynomials; krv_ell and lkv have push and the swap of the 12 on
    # those, ds_ell and ls the swap alone
    substitutions = {spaces.krv_ell_system: 2, spaces.lkv_system: 2,
                     spaces.ds_ell_system: 1, spaces.ls_system: 1}
    for system, count in substitutions.items():
        calls.clear()
        spaces._pattern_kernel.cache_clear()
        built = system(10, 3)
        assert len(built.parameters) == 12 + (
            system in (spaces.krv_ell_system, spaces.ds_ell_system))
        assert calls == [("substitute", 12)] * count, system.__name__
    assert keyed == divided == []
    # the one-element operators still run through the same kernels, and
    # a renaming of fractions (circ of a Delta-quotient) is a shuffle
    calls.clear()
    quotient = delta_inv(mould.Mould("U", {3: poly.MultiPoly.monomial(
        (1, 2, 4))}))
    mould.circ(swap(quotient))
    assert calls == [("substitute", 1), ("substitute", 1)]


@pytest.mark.parametrize("system, cell", [(spaces.krv_ell_system, (10, 3)),
                                          (spaces.ds_ell_system, (10, 4))])
def test_delta_quotient_rows_never_cancel(monkeypatch, system, cell):
    # no cancelling at all once the kernel is cached: the Delta-quotient
    # rows are numerators over one lifted denominator
    want = system(*cell)
    calls = []

    def counted(divide):
        def spy(terms, key):
            calls.append(key)
            return divide(terms, key)
        return spy

    for module in (intpoly, poly):
        monkeypatch.setattr(module, "_int_divide",
                            counted(module._int_divide))
    got = system(*cell)
    assert calls == []
    assert (got.tags, got.integer_rows) == (want.tags, want.integer_rows)


def _product_of_keys(keys, r):
    """The product of the factors of `keys`, as {exponent tuple: int}."""
    product = poly.MultiPoly.const(r, 1)
    for k in keys:
        product = product * poly.MultiPoly(r, {
            tuple(int(i == j) for j in range(r)): F(c)
            for i, c in enumerate(k) if c})
    return {e: int(c) for e, c in product.terms.items()}


def _renamed_lcm(r, perms):
    """The lcm of the denominators of the renamings by `perms` of
    swap(1/Delta), as factor keys: one key per factor, taken as often
    as the most of any renaming."""
    one = mould.Mould("U", {r: poly.MultiPoly.const(r, 1)})
    inverse = swap(delta_inv(one)).get(r)
    need = Counter()
    for p in perms:
        need |= Counter(inverse.permute_variables(p).den_keys)
    return sorted(need.elements())


def _sums(r, weighted):
    """The cyclic sum and the shuffle sums Sh((1..i)(i+1..r)) of depth
    r, with the weights of their constant terms or none."""
    return [("circ", mould._cycle_perms(r), int(weighted))] + [
        ("sal:%d" % i, list(mould._shuffle_perms(r, i)),
         math.comb(r, i) if weighted else 0) for i in range(1, r // 2 + 1)]


# the Delta-quotient cells keep their ids; the keyless ones are tagged
SUM_ROW_CASES = [("delta", n, r) for n, r in [(9, 2), (10, 3), (10, 4),
                                               (8, 5)]] + [
    (values, n, r) for values in ("al", "swap") for n, r in [(10, 3),
                                                              (11, 4)]]


@pytest.mark.parametrize("values, n, r", SUM_ROW_CASES, ids=[
    "%d-%d" % (n, r) if values == "delta" else "%s-%d-%d" % (values, n, r)
    for values, n, r in SUM_ROW_CASES])
def test_delta_quotient_rows_are_the_images_over_one_denominator(
        values, n, r):
    # D is the product of the lcm of the renamed denominators, and each
    # cleared image terms / den is the cancelled renaming sum times D: of
    # the swapped Delta-quotients, or, with no keys and D = 1, of the
    # monomials (the `al` rows of `_pattern_kernel`) or of the swapped
    # kernel polynomials (`sal` and `circ`)
    gens, V = spaces._kernel(n, r)
    B = [mould.Mould("U", {r: v}) for v in V]
    denominator, sums = (1, ()), _sums(r, False)
    if values == "delta":
        moulds = [swap(delta_inv(M)) for M in B]
        denominator, sums = spaces._swapped_delta(r), _sums(r, True)
        parts = spaces._swapped(V, r)
    elif values == "al":
        gens, moulds = _monomials(n, r)
        parts = [({e: 1}, 1) for e in gens]
        sums = spaces._alternality("al", r, False)
    else:
        moulds, parts = [swap(M) for M in B], spaces._swapped(V, r)
    quotients = [M.get(r) for M in moulds]
    sums = [(tag, list(perms), weight) for tag, perms, weight in sums]
    conditions = spaces._sum_rows(parts, r, sums, *denominator)
    assert gens and len(conditions) == len(sums)
    for (tag, perms, weight), got in zip(sums, conditions):
        keys = []
        if values == "delta":
            keys = _renamed_lcm(r, perms)
            assert len(keys) > r
        assert got[0] == tag and got[2] == weight
        D, cleared = got[1]
        assert D == _product_of_keys(keys, r)
        D = poly.RatFrac.from_poly(poly.MultiPoly(r, D))
        images = poly.renaming_sums(quotients, perms)
        assert len(cleared) == len(images) == len(gens)
        assert any(image.terms for image in images)
        for image, (terms, d) in zip(images, cleared):
            assert image * D == poly.RatFrac.from_poly(poly.MultiPoly(
                r, {e: F(c, d) for e, c in terms.items()}))


def test_sal_rows_lift_over_the_lcm_not_the_symmetric_product():
    # at ds_ell(10,4) the renamed keys of Sh((1)(234)) miss two of the
    # 10 factors v_i and v_i - v_j, which all of S_4 would rename them
    # to: 206 sal:1 rows, against 256 over the product of all ten
    n, r = 10, 4
    system = spaces.ds_ell_system(n, r)
    assert len(system.tags) == 510
    assert Counter(tag for tag, _ in system.tags) == {
        "sal:1": 206, "sal:2": 304}
    degrees = {}
    for tag, (D, _), _ in spaces._sum_rows(
            spaces._swapped(spaces._kernel(n, r)[1], r), r,
            spaces._alternality("sal", r, False), *spaces._swapped_delta(r)):
        degrees[tag] = {sum(e) for e in D}
    assert degrees == {"sal:1": {8}, "sal:2": {r + math.comb(r, 2)}}


def test_lifted_multiplies_the_one_variable_factors_first(monkeypatch):
    # first seen: x+y, x, x+y+z, y; a factor in one variable shifts the
    # terms and adds none, so x and y go first, in the order seen
    seen, times_key = [], intpoly._times_key

    def spy(terms, key):
        seen.append(key)
        return times_key(terms, key)

    monkeypatch.setattr(intpoly, "_times_key", spy)
    x, y, xy, xyz = (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)
    terms = {(1, 2, 0): 3, (0, 1, 1): -1}
    keys, (lifted, _) = intpoly._lifted(
        [((), terms), ((xy, x, xyz, y), {(0, 0, 0): 1})])
    assert seen == [x, y, xy, xyz]
    assert keys == tuple(sorted((x, y, xy, xyz)))
    assert lifted == intpoly._int_mul(terms, _product_of_keys(keys, 3))
    # RatFrac.sum lifts through the same order: 1 / ((x+y) x) by y, then
    # x+y+z, and 1 / ((x+y+z) y) by x, then x+y
    seen.clear()
    X, Y, Z = (poly.MultiPoly.variable(i, 3) for i in (1, 2, 3))
    one = poly.MultiPoly.const(3, 1)
    poly.RatFrac.sum([poly.RatFrac(one, (X + Y, X)),
                      poly.RatFrac(one, (X + Y + Z, Y))], 3)
    assert seen == [y, xyz, x, xy]


def test_lifted_drops_the_zeros_of_a_product_once(monkeypatch):
    # (x+y)(-x+y) = y^2 - x^2 loses its xy term: `_times_key` keeps the
    # zero, `_lifted` drops it once after the last factor, and passes a
    # numerator that needs no factor through as it is
    outputs, times_key = [], intpoly._times_key

    def spy(terms, key):
        out = times_key(terms, key)
        outputs.append(dict(out))
        return out

    monkeypatch.setattr(intpoly, "_times_key", spy)
    xy, yx = (1, 1), (-1, 1)
    whole = {(0, 1): 3}
    keys, (D, lifted, kept) = intpoly._lifted(
        [((), {(0, 0): 1}), ((xy,), {(1, 0): 2}), ((xy, yx), whole)])
    assert keys == (yx, xy)
    assert outputs[1] == {(2, 0): -1, (1, 1): 0, (0, 2): 1}
    assert D == {(2, 0): -1, (0, 2): 1}
    assert lifted == {(2, 0): -2, (1, 1): 2}
    assert kept is whole
    x, y = poly.MultiPoly.variable(1, 2), poly.MultiPoly.variable(2, 2)
    den = poly.RatFrac(poly.MultiPoly.const(2, 1), (x + y, y - x)).den
    assert den.terms == {(2, 0): F(-1), (0, 2): F(1)}


def _block_walk_bound(exps):
    """Products of the block walk over the exponent tuples `exps`: one
    per distinct prefix ending in a nonzero block after a nonzero one,
    and one per power above the first in each image's table."""
    prefixes = {e[:j + 1] for e in exps for j in range(1, len(e))
                if e[j] and any(e[:j])}
    tops = [max(e[j] for e in exps) for j in range(len(exps[0]))]
    return len(prefixes) + sum(top - 1 for top in tops if top)


@pytest.mark.parametrize("cell", [(15, 3), (16, 4)])
def test_swap_and_push_multiply_once_per_block_prefix(monkeypatch, cell):
    calls = []
    int_mul = poly._int_mul

    def counted(a, b):
        calls.append(1)
        return int_mul(a, b)

    monkeypatch.setattr(poly, "_int_mul", counted)
    gens, B = _monomials(*cell)
    values = [M.get(cell[1]) for M in B]
    bound = _block_walk_bound(gens)
    for operator in (spaces._swapped, spaces._push):
        calls.clear()
        operator(values, cell[1])
        assert len(calls) <= bound, (operator.__name__, len(calls), bound)
    # the walk letter by letter made 451 and 1815 products
    assert bound == {(15, 3): 176, (16, 4): 825}[cell]


@pytest.mark.parametrize("n, r", [(5, 1), (6, 1), (9, 2), (10, 3), (11, 4),
                                  (9, 5)])
def test_push_rows_are_the_cleared_push_differences(n, r):
    # push(M) - M on the moulds, cancelled and cleared, against the rows
    # on the depth-r values: the kernel values, and the Lie images under
    # `ma` scaled to carry denominators; at r = 1 both are monomials
    lie = [ma(g).get(r) for g in spaces.lie_basis(n, r)]
    for values in (spaces._kernel(n, r)[1],
                   [v.scale(F(1, j + 2)) for j, v in enumerate(lie)]):
        B = [mould.Mould("U", {r: v}) for v in values]
        tag, (D, images), weight = spaces._push(values, r)
        one, want = _cleared([mould.push(M).get(r) - M.get(r) for M in B],
                             r)
        assert (tag, D, weight) == ("push", one, 0) and D == {(0,) * r: 1}
        assert len(images) == len(want) == len(B) > 0, (n, r)
        assert [{e: F(c, d) for e, c in terms.items()}
                for terms, d in images] == [
            {e: F(c, d) for e, c in terms.items()} for terms, d in want]
        assert any(terms for terms, _ in images) or r == 1


def test_cell_systems_construct_no_mould(monkeypatch):
    # the rows read the kernel's depth-r values: with a cold kernel
    # cache, building each cell system wraps nothing in a `Mould`
    def refuse(*args, **kwargs):
        raise AssertionError("a Mould was built")

    spaces._pattern_kernel.cache_clear()
    monkeypatch.setattr(mould.Mould, "__init__", refuse)
    for build in (spaces.lkv_system, spaces.ls_system,
                  spaces.krv_ell_system, spaces.ds_ell_system):
        for n, r in [(6, 1), (9, 2), (10, 3), (10, 4)]:
            assert build(n, r).integer_rows, (build.__name__, n, r)


def test_one_group_sum_equals_the_lift_path():
    # a second, empty group sends _group_sum through `_lifted` without
    # changing the sum; a group whose terms cancel drops its keys
    x, xy = (1, 0, 0), (1, 1, 0)
    cases = [((), {(2, 0, 0): 3, (0, 1, 1): 0, (0, 0, 2): -6}, 4),
             ((x, xy), {(1, 1, 0): 2, (2, 0, 0): 2, (0, 1, 1): 0}, 1),
             ((x,), {(0, 1, 0): 5, (0, 0, 1): 1}, 3),
             ((x, x), {(0, 1, 0): 0, (0, 0, 1): 0}, 7)]
    for keys, terms, den in cases:
        one = poly._group_sum(3, {keys: dict(terms)}, den)
        lifted = poly._group_sum(3, {keys: dict(terms), (0, 0, 1): {}}, den)
        assert (one.terms, one.denom, one.den_keys) == (
            lifted.terms, lifted.denom, lifted.den_keys)
    assert (one.terms, one.denom, one.den_keys) == ({}, 1, ())


# -- krv_ell / ds_ell --------------------------------------------------------

def test_krv_ell_dims():
    assert solve_krv_ell(5, 1).dim == 1
    assert solve_krv_ell(5, 2).dim == 1
    assert solve_krv_ell(5, 3).dim == 1
    assert solve_krv_ell(4, 2).dim == 0
    assert solve_krv_ell(3, 2).dim == 0


def test_ds_ell_dims():
    assert solve_ds_ell(5, 1).dim == 1
    assert solve_ds_ell(5, 2).dim == 1
    assert solve_ds_ell(5, 3).dim == 1
    assert solve_ds_ell(6, 3).dim == 0
    assert solve_ds_ell(7, 3).dim == 2


def test_ds_ell_depth1_even_only():
    # depth-1 cells carry u1^{n-1} only for odd n (even exponent)
    assert solve_ds_ell(5, 1).dim == 1
    assert solve_ds_ell(4, 1).dim == 0


def test_krv_ell_basis_properties():
    cell = solve_krv_ell(5, 2)
    for P in cell.basis:
        Q = delta_inv(P)
        assert is_alternal(Q)
        assert is_push_invariant(Q)


def test_ds_ell_basis_alternal():
    cell = solve_ds_ell(7, 2)
    for P in cell.basis:
        assert is_alternal(delta_inv(P))


def _mould_vector(M, keys):
    return [M.get(r).as_poly().coeff(e) if r in M.values else 0
            for r, e in keys]


def test_ds_ell_lies_in_the_span_of_krv_ell():
    checked = 0
    for n in range(3, 11):
        for r in (1, 2, 3):
            ds = solve_ds_ell(n, r).basis
            if not ds:
                continue
            krv = solve_krv_ell(n, r).basis
            keys = sorted({(d, e) for M in ds + krv for d in M.depths()
                           for e in M.get(d).as_poly().terms})
            rows = [_mould_vector(M, keys) for M in krv]
            assert linalg.rank(rows + [_mould_vector(M, keys) for M in ds]) \
                == linalg.rank(rows), (n, r)
            checked += len(ds)
    assert checked >= 10


def test_rows_clear_rational_coefficients_and_keys():
    """Row (tag, e) holds the coefficient of x^e in each numerator
    f_j * D, D the lcm of the denominators, whatever the coefficient
    denominators of the f_j; the solvers' own images have none."""
    x, y = poly.MultiPoly.variable(1, 2), poly.MultiPoly.variable(2, 2)
    images = [poly.RatFrac(x.scale(F(1, 2)) + y.scale(F(2, 3)), (x,)),
              poly.RatFrac(x.scale(F(3, 4)), (x + y,)),
              poly.RatFrac.from_poly(x.scale(F(-5, 6)))]
    D = poly.RatFrac.from_poly(x * (x + y))
    cleared = _cleared(images, 2)
    assert cleared[0] == {e: int(c) for e, c in D.as_poly().terms.items()}
    system = spaces._assemble(["a", "b", "c"], [("t", cleared, 0)])
    want = {}
    for j, f in enumerate(images):
        for e, c in (f * D).as_poly().terms.items():
            want.setdefault(("t", e), [F(0)] * 3)[j] = c
    assert system.tags == sorted(want)
    assert system.rows == [want[t] for t in system.tags]


def test_a_weight_zero_condition_adds_no_constant_entries():
    # the constant enters a condition as -weight * D only when its weight
    # is nonzero: no explicit zeros in the "c" column of a weight-0 one
    D = {(1, 0): 1, (0, 1): 1}
    system = spaces._assemble(["a"], [("t", (D, [({(2, 0): 3}, 1)]), 0),
                                      ("u", (D, [({(1, 1): 1}, 2)]), 2)])
    assert system.parameters == ["a", "c"]
    assert list(zip(system.tags, system.integer_rows, system.scales)) == [
        (("t", (2, 0)), {0: 3}, 1), (("u", (0, 1)), {1: -2}, 1),
        (("u", (1, 0)), {1: -2}, 1), (("u", (1, 1)), {0: 1}, 2)]


@pytest.mark.parametrize("system", [spaces.krv_ell_system,
                                    spaces.ds_ell_system])
def test_adjoined_constant_is_never_alone(system):
    # the constant column has rows for the keys of the cleared
    # denominator too, so c cannot move on its own; a cell without
    # alternal moulds, (3,3), is the empty system, with no c
    for n in range(3, 9):
        for r in (2, 3):
            s = system(n, r)
            if not _witt(n, r):
                assert (s.parameters, s.rows, s.tags) == ([], [], [])
                assert s.null_vectors() == []
                continue
            assert s.parameters[-1] == "c"
            for v in s.null_vectors():
                assert any(v[:-1]), (n, r, v)


# -- pinned constraint systems ------------------------------------------------

# The systems on the degree-(n-r) monomials in depth r, with the `al`
# rows written out beside the others: the oracles of the systems on the
# alternal kernel, whose basis they must give.
def _monomials(n, r):
    gens = spaces._exp_tuples(n - r, r)
    return gens, [mould.Mould("U", {r: poly.MultiPoly.monomial(e, 1)})
                  for e in gens]


def _push_row(B, r):
    """The push condition of `spaces._push` on the depth-r values of
    the moulds B."""
    return spaces._push([M.get(r) for M in B], r)


def _monomial_lkv_system(n, r):
    gens, B = _monomials(n, r)
    conditions = _alternal(B, r, "al", False) + [_push_row(B, r)]
    if r > 1:
        conditions += _cancelled_rows([swap(M) for M in B], r, _cycle(r, 0))
    return spaces._assemble(gens, conditions)


def _monomial_ls_system(n, r):
    gens, B = _monomials(n, r)
    conditions = (_alternal(B, r, "al", False)
                  + _alternal([swap(M) for M in B], r, "sal", False))
    if r == 1:
        conditions.append(_push_row(B, r))
    return spaces._assemble(gens, conditions)


def _monomial_krv_ell_system(n, r):
    gens, B = _monomials(n, r)
    conditions = _alternal(B, r, "al", False) + [_push_row(B, r)]
    if r > 1:
        conditions += _cancelled_rows(
            [swap(delta_inv(M)) for M in B], r, _cycle(r, 1))
    return spaces._assemble(gens, conditions)


def _monomial_ds_ell_system(n, r):
    gens, B = _monomials(n, r)
    conditions = _alternal(B, r, "al", False)
    if r == 1:
        conditions.append(_push_row(B, r))
    else:
        conditions += _alternal(
            [swap(delta_inv(M)) for M in B], r, "sal", True)
    return spaces._assemble(gens, conditions)


MONOMIAL_ORACLES = {"lkv": _monomial_lkv_system, "ls": _monomial_ls_system,
                    "krv_ell": _monomial_krv_ell_system,
                    "ds_ell": _monomial_ds_ell_system}


# One digest per system with n <= 10, r <= 4: the parameters, the tags
# and str(Fraction(x)) of every row entry, so a kernel that changes how
# rows are computed must leave them equal as values.  A change that
# alters rows on purpose re-captures these with `_system_digest` and
# says so.  The krv_ell/ds_ell cells with r > n are the empty system,
# checked below.  "lkv" pins the Lyndon oracle `_lyndon_lkv_system`;
# "lkv_monomials", "ls", "krv_ell" and "ds_ell" pin the monomial
# oracles above, captured when they were the solvers' systems; the
# "_kernel" keys pin `spaces.*_system` on the alternal kernel.  Its
# Delta-quotient rows are the conditions times one common denominator,
# uncancelled; that changed the krv_ell cells at r = 2 and the ds_ell
# cells at r >= 2, which were re-captured.
PINNED_SYSTEMS = {
    "lkv": {
        (1, 1): "4523b3db5f3cf5ee", (1, 2): "620a09ff7eec8d4a",
        (1, 3): "620a09ff7eec8d4a", (1, 4): "620a09ff7eec8d4a",
        (2, 1): "c38f8c6703c80a50", (2, 2): "620a09ff7eec8d4a",
        (2, 3): "620a09ff7eec8d4a", (2, 4): "620a09ff7eec8d4a",
        (3, 1): "ca6c1f197c416054", (3, 2): "90e544f621117891",
        (3, 3): "620a09ff7eec8d4a", (3, 4): "620a09ff7eec8d4a",
        (4, 1): "c342a686fe74bc1d", (4, 2): "e6e1810fafb3cfaa",
        (4, 3): "c7829b14fd52f082", (4, 4): "620a09ff7eec8d4a",
        (5, 1): "b70008c5b0988cf8", (5, 2): "62dd010de86f4b58",
        (5, 3): "2b7054167de26107", (5, 4): "926db99916b29fb9",
        (6, 1): "5d3027233d18d141", (6, 2): "d4af2805db0981b8",
        (6, 3): "9f68c299e60d11d8", (6, 4): "7c0ab11fcc49b5cb",
        (7, 1): "daccabe804883dd5", (7, 2): "c75b0a2fa69fc43f",
        (7, 3): "a0fd6e3d424e36cc", (7, 4): "d2f3e30ab7a19832",
        (8, 1): "8392a23db7d9b419", (8, 2): "eb86f3934ef11391",
        (8, 3): "5bf0eeee28ded13e", (8, 4): "4a3d92c3db263448",
        (9, 1): "fb1d6ddeadff16fa", (9, 2): "8426bcbe23ccb8eb",
        (9, 3): "05c7420eee79bb99", (9, 4): "cd3640bda666b9d2",
        (10, 1): "e0db35e232d025cf", (10, 2): "33d9aee4a3c30c1d",
        (10, 3): "35f46bb40490e8e3", (10, 4): "9571897b31e72bca",
    },
    "lkv_monomials": {
        (1, 1): "96cef3cb980bdf86", (1, 2): "620a09ff7eec8d4a",
        (1, 3): "620a09ff7eec8d4a", (1, 4): "620a09ff7eec8d4a",
        (2, 1): "fa78cf84e80cc02d", (2, 2): "f25a8f9522a5fd71",
        (2, 3): "620a09ff7eec8d4a", (2, 4): "620a09ff7eec8d4a",
        (3, 1): "13388fafaed44f50", (3, 2): "cba1ac84913f15af",
        (3, 3): "5fadd524bc2e041f", (3, 4): "620a09ff7eec8d4a",
        (4, 1): "58cea866d89fb219", (4, 2): "9cdac89fe82a66db",
        (4, 3): "0c9f8eb80e8c5d47", (4, 4): "3ea1d85e50eebc30",
        (5, 1): "3ee4e446555abf3a", (5, 2): "fbff9fb525da4fe9",
        (5, 3): "2cc58e7b4ca60dcc", (5, 4): "07b041d330aeffb8",
        (6, 1): "b01a5bc4c6677c99", (6, 2): "77a56b55313117fa",
        (6, 3): "f15600f7090ec4b8", (6, 4): "8d8ddbf72d0b3acb",
        (7, 1): "930be75de8edfffe", (7, 2): "b89552fdd473d540",
        (7, 3): "9ce7736f8bdbac5e", (7, 4): "ef577926828cd099",
        (8, 1): "7a814cf159145f51", (8, 2): "1c2d503a1ab6f6ea",
        (8, 3): "9853ab3b4f9ed70d", (8, 4): "292b761bbb4895dd",
        (9, 1): "a77cee36eb0ae6bc", (9, 2): "237804096de784ba",
        (9, 3): "3ea2c28b3ef733e0", (9, 4): "9d563a99083a5915",
        (10, 1): "966b9835609b617f", (10, 2): "5837293b4af9d100",
        (10, 3): "8b6467ce4e710cf0", (10, 4): "4d38006636752ef7",
    },
    "ls": {
        (1, 1): "96cef3cb980bdf86", (1, 2): "620a09ff7eec8d4a",
        (1, 3): "620a09ff7eec8d4a", (1, 4): "620a09ff7eec8d4a",
        (2, 1): "fa78cf84e80cc02d", (2, 2): "9a0e2d739bd938e4",
        (2, 3): "620a09ff7eec8d4a", (2, 4): "620a09ff7eec8d4a",
        (3, 1): "13388fafaed44f50", (3, 2): "e6bfcc11a538f0cc",
        (3, 3): "976c07698f893370", (3, 4): "620a09ff7eec8d4a",
        (4, 1): "58cea866d89fb219", (4, 2): "ee4956d269d04a45",
        (4, 3): "86c47a441df684ea", (4, 4): "d4ffa8df697f9447",
        (5, 1): "3ee4e446555abf3a", (5, 2): "09a81f7afd637c0d",
        (5, 3): "821fd86bc954d652", (5, 4): "bbed8d640a9152e5",
        (6, 1): "b01a5bc4c6677c99", (6, 2): "abec1eb89f37ce53",
        (6, 3): "ee677b61dbb69ffc", (6, 4): "8fa4aa689236998e",
        (7, 1): "930be75de8edfffe", (7, 2): "45e06c577ae893c9",
        (7, 3): "bac0b87a6182aaad", (7, 4): "75cdce88894e52cb",
        (8, 1): "7a814cf159145f51", (8, 2): "5d0dcd0d42f53111",
        (8, 3): "376c7a210bcd6c96", (8, 4): "f10c43778e342b00",
        (9, 1): "a77cee36eb0ae6bc", (9, 2): "02c25847a8f4d714",
        (9, 3): "b0febc2d49f74222", (9, 4): "a83dbc4ac16594da",
        (10, 1): "966b9835609b617f", (10, 2): "d33a4c72f6d72fca",
        (10, 3): "f44b7f3fb5b326c5", (10, 4): "408f088fabb0fac7",
    },
    "krv_ell": {
        (1, 1): "96cef3cb980bdf86", (2, 1): "fa78cf84e80cc02d",
        (2, 2): "66c22ee490f0fd41", (3, 1): "13388fafaed44f50",
        (3, 2): "3bd04ddec8ccc674", (3, 3): "9fbd8c9576c27492",
        (4, 1): "58cea866d89fb219", (4, 2): "f36e505df711af2e",
        (4, 3): "c1d31778543df5bf", (4, 4): "0b97e9cbb21142c8",
        (5, 1): "3ee4e446555abf3a", (5, 2): "5ea555543113efe7",
        (5, 3): "ca7c709663517c36", (5, 4): "8b99186039164fc2",
        (6, 1): "b01a5bc4c6677c99", (6, 2): "a844af00a0663ab6",
        (6, 3): "77f2b4291b2fe9b0", (6, 4): "fcb9f0065f2f2820",
        (7, 1): "930be75de8edfffe", (7, 2): "d4ba4d0191e4540a",
        (7, 3): "2611a36ad832b33e", (7, 4): "38ead3011422b985",
        (8, 1): "7a814cf159145f51", (8, 2): "bf125e446d4aaf6f",
        (8, 3): "d36a7b2dab753fcb", (8, 4): "9ccc8847fdb208b5",
        (9, 1): "a77cee36eb0ae6bc", (9, 2): "7ec140542491301c",
        (9, 3): "b7b2a2aa96a0e151", (9, 4): "d6600b6cd660decb",
        (10, 1): "966b9835609b617f", (10, 2): "5394e1c6b0eccd8f",
        (10, 3): "261a26952812a28e", (10, 4): "a397c93209502b7e",
    },
    "ds_ell": {
        (1, 1): "96cef3cb980bdf86", (2, 1): "fa78cf84e80cc02d",
        (2, 2): "57e51622dd4d5978", (3, 1): "13388fafaed44f50",
        (3, 2): "ef65a748fc55e4db", (3, 3): "628483b3f2e5a953",
        (4, 1): "58cea866d89fb219", (4, 2): "e6437385d0d46608",
        (4, 3): "1ff423b2a9eb6655", (4, 4): "0423c1ac2289c9f3",
        (5, 1): "3ee4e446555abf3a", (5, 2): "2115916858860899",
        (5, 3): "2157ccd1b8c82e4f", (5, 4): "880324d1af7566aa",
        (6, 1): "b01a5bc4c6677c99", (6, 2): "4a09c1ed52e5c1d0",
        (6, 3): "913b109351f66d7b", (6, 4): "cd3a38db39699507",
        (7, 1): "930be75de8edfffe", (7, 2): "b924e581e2d5b40e",
        (7, 3): "3a71d0f2dc3e7ce3", (7, 4): "d60f46ded12edd38",
        (8, 1): "7a814cf159145f51", (8, 2): "79d33988c57ec5f5",
        (8, 3): "953aebc9f705aa9f", (8, 4): "54cf5ab700e0baca",
        (9, 1): "a77cee36eb0ae6bc", (9, 2): "408c3df3f5df3cf5",
        (9, 3): "c95ea89170531b48", (9, 4): "cc15b4e62f6195a0",
        (10, 1): "966b9835609b617f", (10, 2): "6fcd14ff67939d65",
        (10, 3): "357605ca83d61da8", (10, 4): "93ba22415b59ec33",
    },
    "lkv_kernel": {
        (1, 1): "9504675517f5ed02", (1, 2): "620a09ff7eec8d4a",
        (1, 3): "620a09ff7eec8d4a", (1, 4): "620a09ff7eec8d4a",
        (2, 1): "93a2e27e0c2e86ab", (2, 2): "620a09ff7eec8d4a",
        (2, 3): "620a09ff7eec8d4a", (2, 4): "620a09ff7eec8d4a",
        (3, 1): "a61f27da206bffd0", (3, 2): "6fdaa5eff09e0c7f",
        (3, 3): "620a09ff7eec8d4a", (3, 4): "620a09ff7eec8d4a",
        (4, 1): "057803ad4211e457", (4, 2): "f9a23153535d0a2d",
        (4, 3): "a8dbcafc3e11f101", (4, 4): "620a09ff7eec8d4a",
        (5, 1): "56d3d5822ccae1e0", (5, 2): "49fac6532e3a8d90",
        (5, 3): "424beb72713c7bf6", (5, 4): "409b268bf16bd672",
        (6, 1): "9e9eb0807a7121c0", (6, 2): "75dfb3ebeb2b0693",
        (6, 3): "9cf90aba6cdb206e", (6, 4): "81d1b7f80a2a17a9",
        (7, 1): "90d1283ca64007b7", (7, 2): "981e69247af3d647",
        (7, 3): "acfe219f65d6552a", (7, 4): "c324e621da2fe428",
        (8, 1): "1bbf156f11233b55", (8, 2): "c8303b88a9c7290d",
        (8, 3): "d84ce6895192d89a", (8, 4): "845263aed2628065",
        (9, 1): "958816e4fc549af5", (9, 2): "8ece3682791bfee4",
        (9, 3): "901fb08aabad9786", (9, 4): "97478692b14c0be8",
        (10, 1): "7fefb5f398a2b434", (10, 2): "e698bc412646df6c",
        (10, 3): "0ef20a5ca972f084", (10, 4): "94b37f687265a3d4",
    },
    "ls_kernel": {
        (1, 1): "9504675517f5ed02", (1, 2): "620a09ff7eec8d4a",
        (1, 3): "620a09ff7eec8d4a", (1, 4): "620a09ff7eec8d4a",
        (2, 1): "93a2e27e0c2e86ab", (2, 2): "620a09ff7eec8d4a",
        (2, 3): "620a09ff7eec8d4a", (2, 4): "620a09ff7eec8d4a",
        (3, 1): "a61f27da206bffd0", (3, 2): "3d55a2e132ab7321",
        (3, 3): "620a09ff7eec8d4a", (3, 4): "620a09ff7eec8d4a",
        (4, 1): "057803ad4211e457", (4, 2): "112e67b4004fae39",
        (4, 3): "503008b08654cf36", (4, 4): "620a09ff7eec8d4a",
        (5, 1): "56d3d5822ccae1e0", (5, 2): "fe9b672a24222d31",
        (5, 3): "110ede7f72d9452a", (5, 4): "d176187f1ba071a8",
        (6, 1): "9e9eb0807a7121c0", (6, 2): "6e087f9a3629129f",
        (6, 3): "8f7be81249170595", (6, 4): "aad88f408ac6494f",
        (7, 1): "90d1283ca64007b7", (7, 2): "78be17041b8a24b9",
        (7, 3): "0e15bb5e83878b57", (7, 4): "8deef6fd0cd151a2",
        (8, 1): "1bbf156f11233b55", (8, 2): "e01d24bdc2db6ef0",
        (8, 3): "057e4c8e1523d814", (8, 4): "ad6214575446fa19",
        (9, 1): "958816e4fc549af5", (9, 2): "0ca133ef20bfbd14",
        (9, 3): "5ef12ac3eee99499", (9, 4): "ad602902bc3dc026",
        (10, 1): "7fefb5f398a2b434", (10, 2): "be24bbb47da9c155",
        (10, 3): "aa4491d823d2f228", (10, 4): "817e03bf8ded3694",
    },
    "krv_ell_kernel": {
        (1, 1): "9504675517f5ed02", (2, 1): "93a2e27e0c2e86ab",
        (2, 2): "620a09ff7eec8d4a", (3, 1): "a61f27da206bffd0",
        (3, 2): "798cdba172124d8f", (3, 3): "620a09ff7eec8d4a",
        (4, 1): "057803ad4211e457", (4, 2): "095ae86f3a7031c7",
        (4, 3): "9e3203a37e353da4", (4, 4): "620a09ff7eec8d4a",
        (5, 1): "56d3d5822ccae1e0", (5, 2): "a090fea967219aa2",
        (5, 3): "e11ab6cc557db082", (5, 4): "9a4a30c001bddac5",
        (6, 1): "9e9eb0807a7121c0", (6, 2): "dceeaf221b2aabd9",
        (6, 3): "94f4457b7fc98cae", (6, 4): "84a13210f816eedb",
        (7, 1): "90d1283ca64007b7", (7, 2): "44a7c0545340d2ee",
        (7, 3): "cae2c5c6e8528b17", (7, 4): "44f44fcec9972904",
        (8, 1): "1bbf156f11233b55", (8, 2): "bfa67150d46e4fcd",
        (8, 3): "a63a350f4a93c007", (8, 4): "709b6d946139b2ef",
        (9, 1): "958816e4fc549af5", (9, 2): "cfec75e7db182626",
        (9, 3): "1ea359684c86f876", (9, 4): "b911a75362ec42da",
        (10, 1): "7fefb5f398a2b434", (10, 2): "92e76ab3c6d71cf4",
        (10, 3): "4ee833a3eff9bd60", (10, 4): "b2846938a2bc06ed",
    },
    "ds_ell_kernel": {
        (1, 1): "9504675517f5ed02", (2, 1): "93a2e27e0c2e86ab",
        (2, 2): "620a09ff7eec8d4a", (3, 1): "a61f27da206bffd0",
        (3, 2): "a59372cb52a48d8f", (3, 3): "620a09ff7eec8d4a",
        (4, 1): "057803ad4211e457", (4, 2): "aefbf8c6d2c8e37a",
        (4, 3): "d6b94117fca7e827", (4, 4): "620a09ff7eec8d4a",
        (5, 1): "56d3d5822ccae1e0", (5, 2): "6e081f008b12b9ea",
        (5, 3): "4a82b6b8286b01ec", (5, 4): "3da86448c59c52b6",
        (6, 1): "9e9eb0807a7121c0", (6, 2): "00198b4cbe0e0e9e",
        (6, 3): "53fc50b54e332129", (6, 4): "fb732e15ce94ede8",
        (7, 1): "90d1283ca64007b7", (7, 2): "908cf95751d3e758",
        (7, 3): "71b7b78c0348f61a", (7, 4): "684af94195b3fdfb",
        (8, 1): "1bbf156f11233b55", (8, 2): "a866d4e6f67e1621",
        (8, 3): "8b90c8ef88254225", (8, 4): "e0350b05d4098c57",
        (9, 1): "958816e4fc549af5", (9, 2): "304256fc847095a8",
        (9, 3): "9f4a7b39651ad151", (9, 4): "f1b11d373f45433d",
        (10, 1): "7fefb5f398a2b434", (10, 2): "9af497ba17d33a94",
        (10, 3): "8f1fe7d2d1e26488", (10, 4): "185f8a4114b5171a",
    },
    "vkrv": {
        1: "e66c3ae41cd0dcfc", 2: "6b4cd3ccd1ee522f", 3: "4ad350bf49f671a5",
        4: "74bb543417c5c630", 5: "67374738820d7c53", 6: "61df3a93af486db4",
        7: "a71e5d3e0290ab96", 8: "d399ddac515b36b1", 9: "08145795db4f84a7",
        10: "8622be3977291435",
    },
}


def _system_digest(system):
    text = repr(([str(p) for p in system.parameters],
                 [repr(t) for t in system.tags],
                 [[str(F(x)) for x in row] for row in system.rows]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED_BUILDERS = {"lkv": _lyndon_lkv_system,
                   "lkv_monomials": _monomial_lkv_system,
                   "ls": _monomial_ls_system,
                   "krv_ell": _monomial_krv_ell_system,
                   "ds_ell": _monomial_ds_ell_system,
                   "lkv_kernel": spaces.lkv_system,
                   "ls_kernel": spaces.ls_system,
                   "krv_ell_kernel": spaces.krv_ell_system,
                   "ds_ell_kernel": spaces.ds_ell_system}


@pytest.mark.parametrize("space", sorted(PINNED_BUILDERS))
def test_constraint_systems_are_pinned(space):
    build = PINNED_BUILDERS[space]
    pinned = PINNED_SYSTEMS[space]
    got = {cell: _system_digest(build(*cell)) for cell in pinned}
    assert got == pinned


def _basis_texts(basis):
    return [words.ncpoly_to_text(b) if isinstance(b, words.NCPoly)
            else mould.mould_to_json_text(b) for b in basis]


@pytest.mark.parametrize("space", sorted(MONOMIAL_ORACLES))
def test_kernel_bases_equal_the_monomial_oracle(space):
    # the null vectors of the oracle, on the monomials, combined as the
    # solvers combined them then, against the solver's own path
    combine = spaces._combine_lie if space == "lkv" else spaces._combine_mould
    cells = sorted(PINNED_SYSTEMS[space + "_kernel"])
    if space in ("ls", "lkv"):
        cells += [(12, 4), (15, 5)]
    else:
        # dims 4, 4 and 5, past the pinned cells
        cells += [(13, 3), (11, 4), (11, 5)]
    for n, r in cells:
        oracle = MONOMIAL_ORACLES[space](n, r)
        gens = [g for g in oracle.parameters if g != "c"]
        want = [mould.Mould("U", {r: poly.MultiPoly(r, dict(zip(gens, v)))})
                for v in oracle.null_vectors()]
        if space == "lkv":
            want = [mould.ma_inverse(M) for M in want]
        got = spaces._solve(space, n, r, getattr(spaces, space + "_system")(
            n, r), combine).basis
        assert _basis_texts(got) == _basis_texts(want), (n, r)


def test_vkrv_systems_are_pinned():
    pinned = PINNED_SYSTEMS["vkrv"]
    assert {n: _system_digest(spaces.vkrv_system(n)) for n in pinned} \
        == pinned


@pytest.mark.parametrize("system", [spaces.krv_ell_system,
                                    spaces.ds_ell_system])
@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 4)
                                  for r in range(n + 1, 5)])
def test_depth_above_weight_is_the_empty_system(system, n, r):
    s = system(n, r)
    assert (s.parameters, s.rows, s.tags) == ([], [], [])
    assert s.null_vectors() == []


# -- verification -----------------------------------------------------------

# (space, a cell with a nonempty basis, the predicate patched to fail,
# the value it then returns, the name of the check that fails)
FAILING_CHECKS = pytest.mark.parametrize(
    "space, cell, predicate, fake, check",
    [("ls", (8, 2), "mould.is_alternal", False, "alternal"),
     ("lkv", (8, 2), "words.is_push_invariant", False, "push-invariant"),
     ("vkrv", (5,), "words.is_push_constant", (False, None),
      "push-constant"),
     ("krv_ell", (5, 2), "mould.star_correction", None, "*circ-neutral"),
     ("ds_ell", (7, 1), "mould.is_push_invariant", False,
      "even in depth 1")],
    ids=["solve_ls", "solve_lkv", "solve_vkrv", "solve_krv_ell",
         "solve_ds_ell"])


@FAILING_CHECKS
def test_failed_check_raises_verification_error(monkeypatch, space, cell,
                                                predicate, fake, check):
    monkeypatch.setattr("moulde." + predicate, lambda *args: fake)
    with pytest.raises(VerificationError) as info:
        getattr(spaces, "solve_" + space)(*cell)
    n, r = cell if len(cell) == 2 else (cell[0], None)
    assert (info.value.space, info.value.n, info.value.r,
            info.value.check) == (space, n, r, check)
    assert check in [name for name, _ in spaces.checks(space)]


@FAILING_CHECKS
def test_verification_survives_optimize_flag(space, cell, predicate, fake,
                                             check):
    script = (
        "from moulde import mould, spaces, words\n"
        "%s = lambda *args: %r\n"
        "try:\n"
        "    spaces.solve_%s%r\n"
        "except spaces.VerificationError as e:\n"
        "    print(__debug__, e.check)\n" % (predicate, fake, space, cell))
    src = os.path.dirname(os.path.dirname(os.path.abspath(moulde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False %s\n" % check


# -- dimension tables --------------------------------------------------------

def test_dimension_table_text():
    t = dimension_table("lkv", range(3, 6), range(1, 3))
    text = t.to_text()
    assert text == dimension_table("lkv", range(3, 6), range(1, 3)).to_text()
    assert "lkv" in text


def test_dimension_table_json():
    t = dimension_table("lkv", range(3, 5), range(1, 2))
    doc = json.loads(t.to_json())
    assert doc["space"] == "lkv"
    cells = {(c["n"], c["r"]): c["dim"] for c in doc["cells"]}
    assert cells[(3, 1)] == 1
    assert cells[(4, 1)] == 0


def test_dimension_table_dim_reads_one_cell():
    t = dimension_table("ls", range(3, 6), range(1, 3))
    assert t.cells == [(3, 1, 1), (3, 2, 0), (4, 1, 0), (4, 2, 0),
                       (5, 1, 1), (5, 2, 0)]
    assert [t.dim(n, r) for n, r, _ in t.cells] == [1, 0, 0, 0, 1, 0]
    with pytest.raises(KeyError, match=r"\(6, 1\)"):
        t.dim(6, 1)


def test_dimension_table_unknown_space():
    with pytest.raises(ValueError):
        dimension_table("nope", range(3, 4), range(1, 2))


@pytest.mark.parametrize("n_range, r_range", [
    ([], range(1, 3)), (range(3, 5), []), (range(5, 3), range(1, 2))])
def test_dimension_table_refuses_an_empty_range(n_range, r_range):
    with pytest.raises(ValueError, match="empty n_range or r_range"):
        dimension_table("lkv", n_range, r_range)


def test_gr_krv_table_solves_each_weight_once(monkeypatch):
    solved = []
    solve = spaces.solve_vkrv
    monkeypatch.setattr(spaces, "solve_vkrv",
                        lambda n: solved.append(n) or solve(n))
    spaces._vkrv_basis.cache_clear()
    try:
        table = dimension_table("gr_krv", range(3, 8), range(1, 4))
    finally:
        spaces._vkrv_basis.cache_clear()
    assert solved == [3, 4, 5, 6, 7]
    assert table.cells == [(n, r, int(n % 2 == 1 and r == 1))
                           for n in range(3, 8) for r in range(1, 4)]
