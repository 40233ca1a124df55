"""Mould core: ma, unary operators, predicates, serialization."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import mould, words
from moulde.mould import (Mould, circ, dar, dar_inv, delta_inv,
                          delta_op, in_ari_delta, is_alternal,
                          is_circ_constant, is_circ_neutral, is_push_invariant,
                          is_senary, ma, ma_inverse, mantar,
                          mould_from_json_text, mould_to_json_text, neg_op,
                          pari, push, star_correction, swap, teru)
from moulde.poly import MultiPoly, RatFrac
from moulde.words import NCPoly, X, Y, lie_bracket


def _u(depth_terms):
    return Mould("U", {r: MultiPoly(r, {e: F(c) for e, c in d.items()})
                       for r, d in depth_terms.items()})


coeffs = st.integers(-3, 3).map(F)


def _depth_polys(r, max_deg=2):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(r)])
    return st.dictionaries(exps, coeffs, max_size=3).map(
        lambda d: MultiPoly(r, d))


def moulds(max_depth=3):
    return st.fixed_dictionaries(
        {r: _depth_polys(r) for r in range(1, max_depth + 1)}).map(
        lambda d: Mould("U", d))


def test_get_builds_its_zero_only_on_a_miss(monkeypatch):
    M = _u({1: {(2,): 1}})
    stored = M.values[1]

    def refuse(cls, arity):
        raise AssertionError("RatFrac.zero(%d) built for a present depth"
                             % arity)

    monkeypatch.setattr(RatFrac, "zero", classmethod(refuse))
    assert M.get(1) is stored
    monkeypatch.undo()
    assert M.get(2) == RatFrac.zero(2) and M.get(2).arity == 2


# -- ma ----------------------------------------------------------------------

def test_ma_of_c_monomials():
    # C_3 -> u1^2 in depth 1; C_2 C_1 -> u1 in depth 2
    M = ma(words.c_poly(3))
    assert M.get(1) .num == MultiPoly(1, {(2,): F(1)})
    M2 = ma(words.c_monomial((2, 1)))
    assert M2.get(2).num == MultiPoly(2, {(1, 0): F(1)})


def test_ma_inverse_roundtrip():
    f = words.c_monomial((2, 1)).scale(3) - words.c_monomial((1, 1, 2))
    assert ma_inverse(ma(f)) == f


def test_ma_of_lie_is_alternal():
    for n in (3, 4, 5):
        for e in words.lyndon_lie_basis(n):
            assert is_alternal(ma(e))


# -- involutions and operator orders ----------------------------------------

@given(moulds())
@settings(max_examples=40, deadline=None)
def test_swap_involution(M):
    assert swap(swap(M)).eq(M)


@given(moulds())
@settings(max_examples=40, deadline=None)
def test_push_order(M):
    # push^{r+1} = id on each depth-r part
    for r in M.depths():
        part = Mould("U", {r: M.get(r)})
        P = part
        for _ in range(r + 1):
            P = push(P)
        assert P.eq(part)


@given(moulds())
@settings(max_examples=40, deadline=None)
def test_circ_order(M):
    V = swap(M)
    for r in V.depths():
        part = Mould("V", {r: V.get(r)})
        P = part
        for _ in range(r):
            P = circ(P)
        assert P.eq(part)


@given(moulds())
@settings(max_examples=40, deadline=None)
def test_neg_push_vs_mantar_swap(M):
    lhs = neg_op(push(M))
    rhs = mantar(swap(mantar(swap(M))))
    assert lhs.eq(rhs)


@given(moulds())
@settings(max_examples=40, deadline=None)
def test_pari_mantar_commute(M):
    assert pari(mantar(M)).eq(mantar(pari(M)))


def test_dar_and_inverse():
    M = _u({2: {(1, 1): 1, (2, 0): -2}})
    assert dar_inv(dar(M)).eq(M)
    assert dar(dar_inv(M)).eq(M)


def test_delta_and_inverse():
    M = _u({2: {(1, 1): 1}})
    D = delta_op(M)
    # u1 u2 (u1+u2) * u1 u2 = u1^3 u2^2 + u1^2 u2^3
    assert D.get(2).num == MultiPoly(2, {(3, 2): F(1), (2, 3): F(1)})
    assert delta_inv(delta_op(M)).eq(M)


def test_teru_depth1_feeds_depth2():
    # teru keeps depth 1 and adds (B(u1) - B(u1+u2))/u2 in depth 2
    M = _u({1: {(2,): 1}})
    T = teru(M)
    assert T.get(1).num == MultiPoly(1, {(2,): F(1)})
    # (u1^2 - (u1+u2)^2)/u2 = -2 u1 - u2
    assert T.get(2).num == MultiPoly(2, {(1, 0): F(-2), (0, 1): F(-1)})


def test_teru_depth2_correction():
    # teru adds (B(u1) - B(u1+u2))/u2 in depth 2
    M = _u({1: {(1,): 1}})
    T = teru(M)
    assert T.get(1).num == MultiPoly(1, {(1,): F(1)})
    # (u1 - (u1+u2))/u2 = -1
    assert T.get(2).num == MultiPoly(2, {(0, 0): F(-1)})


# -- predicates --------------------------------------------------------------

def test_push_invariance_of_ma_b3():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    assert is_push_invariant(ma(b3))


def test_circ_neutral_of_swap_ma_b3():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    assert is_circ_neutral(swap(ma(b3)))


def test_circ_constant_bpsi(Bpsi):
    ok, c = is_circ_constant(Bpsi, weight=5)
    assert ok and c == 1


def test_circ_constant_rejects_wrong_depth2():
    good = Mould("V", {1: MultiPoly(1, {(2,): F(1)}),
                       2: MultiPoly(2, {(1, 0): F(1)})})
    ok, c = is_circ_constant(good, weight=3)
    assert ok and c == 1  # cyclic sum v1+v2 matches c=1
    bad = Mould("V", {1: MultiPoly(1, {(2,): F(1)}),
                      2: MultiPoly(2, {(1, 0): F(2)})})
    ok, _ = is_circ_constant(bad, weight=3)
    assert not ok


def test_in_ari_delta():
    M = delta_inv(_u({2: {(1, 1): 1}}))
    assert in_ari_delta(M)
    bad = dar_inv(_u({2: {(0, 0): 1}}))
    assert not in_ari_delta(dar_inv(bad))


def test_senary():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    # the nu-twist of b3 is senary; b3 itself is not
    assert is_senary(ma(words.nu_twist(b3)))
    assert not is_senary(ma(b3))


# -- star corrections --------------------------------------------------------

def test_star_correction_alternal_a3(A3):
    Q = delta_inv(A3)
    assert is_alternal(Q)
    corr = star_correction(swap(Q), "alternal")
    assert corr == {3: F(1, 3)}


def test_star_correction_none_when_not_constant():
    M = Mould("V", {2: MultiPoly(2, {(1, 0): F(1)})})
    assert star_correction(M, "alternal") is None


# -- serialization -----------------------------------------------------------

def test_json_roundtrip_polynomial():
    M = _u({1: {(2,): 1}, 2: {(1, 1): F(-1, 2)}})
    assert mould_from_json_text(mould_to_json_text(M)).eq(M)


def test_json_roundtrip_rational():
    M = delta_inv(_u({2: {(2, 2): 3}}))
    N = mould_from_json_text(mould_to_json_text(M))
    assert N.eq(M)


@given(moulds())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_random(M):
    assert mould_from_json_text(mould_to_json_text(M)).eq(M)


def test_json_den_splits_into_linear_factors():
    from moulde import ari
    P = ari.named_mould("poc", 3)
    L = mould_from_json_text(mould_to_json_text(P))
    assert [len(L.get(r).den_keys) for r in (1, 2, 3)] == [1, 2, 3]
    # a loaded mould reduces like the computed one: depth 2 of dar(poc)
    # is v2/(v1-v2) up to sign, not v1v2/(v1^2-v1v2)
    assert mould_to_json_text(dar(L)) == mould_to_json_text(dar(P))


# -- the cap -----------------------------------------------------------------

def test_values_above_the_cap_are_dropped():
    M = Mould("U", {1: MultiPoly(1, {(1,): F(1)}),
                    3: MultiPoly(3, {(0, 0, 1): F(2)})}, cap=1)
    assert M.depths() == [1] and M.cap == 1


def test_a_cap_never_rises():
    from moulde.ari import named_mould
    lopil = named_mould("lopil", 3)
    raised = lopil.with_cap(5)
    assert (raised.cap, raised.depths()) == (3, [1, 2, 3])
    assert lopil.with_cap(None).cap == 3 and lopil.with_cap(None).eq(lopil)
    lowered = lopil.with_cap(2)
    assert (lowered.cap, lowered.depths()) == (2, [1, 2])


def test_sum_of_no_moulds_is_refused():
    with pytest.raises(ValueError, match="at least one mould"):
        Mould.sum([])
