"""The ari/dari algebra layer: brackets, exponentials, named moulds."""

from fractions import Fraction as F
from functools import reduce
from itertools import combinations
import json
import math
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import ari, cli, intpoly, mould, poly, words
from moulde.ari import (adjoint_exp, amit, anit, ari as ari_bracket, ari_bar,
                        dari, darit, exp_ari, fundamental_identity_check,
                        ganit_bar, goodfund_check, infinitesimal_generator,
                        log_ari, lu, mu, named_mould, preari, preari_bar,
                        tnc_mould)
from moulde.mould import (Mould, _vars, dar_inv, delta_op, is_alternal,
                          is_circ_constant, is_circ_neutral, ma, swap)
from moulde.poly import MultiPoly, RatFrac, monomial_sum, substitute
from moulde.words import X, Y, c_poly, lie_bracket, nu_twist


def _u(depth_terms):
    return Mould("U", {r: MultiPoly(r, {e: F(c) for e, c in d.items()})
                       for r, d in depth_terms.items()})


coeffs = st.integers(-2, 2).map(F)


def _depth_polys(r, max_deg=2):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(r)])
    return st.dictionaries(exps, coeffs, max_size=2).map(
        lambda d: MultiPoly(r, d))


def moulds(max_depth=3, alphabet="U"):
    return st.fixed_dictionaries(
        {r: _depth_polys(r) for r in range(1, max_depth + 1)}).map(
        lambda d: Mould(alphabet, d))


def uncapped_operands(alphabet):
    """Polynomial moulds and moulds with poles (dar_inv)."""
    return st.builds(lambda M, poles: dar_inv(M) if poles else M,
                     moulds(2, alphabet), st.booleans())


def operands(alphabet):
    """`uncapped_operands`, capped or not."""
    return st.builds(lambda M, cap: M.with_cap(cap),
                     uncapped_operands(alphabet),
                     st.one_of(st.none(), st.integers(1, 4)))


# -- products and brackets ---------------------------------------------------

@given(moulds(2), moulds(2), moulds(2))
@settings(max_examples=25, deadline=None)
def test_mu_associative(A, B, C):
    assert mu(mu(A, B), C).eq(mu(A, mu(B, C)))


@given(moulds(2), moulds(2))
@settings(max_examples=25, deadline=None)
def test_lu_antisymmetric(A, B):
    assert lu(A, B).eq(-lu(B, A))
    assert lu(A, B).eq(mu(A, B) - mu(B, A))


@given(moulds(2), moulds(2))
@settings(max_examples=20, deadline=None)
def test_ari_antisymmetric(A, B):
    assert ari_bracket(A, B).eq(-ari_bracket(B, A))


def test_ari_jacobi_small():
    A = _u({1: {(1,): 1}})
    B = _u({1: {(2,): 1}})
    C = _u({2: {(1, 0): 1}})
    s = (ari_bracket(A, ari_bracket(B, C))
         + ari_bracket(B, ari_bracket(C, A))
         + ari_bracket(C, ari_bracket(A, B)))
    assert s.eq(Mould("U", {}))


def test_ma_intertwines_lu_with_lie_bracket():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    b5 = c_poly(5)
    assert ma(lie_bracket(b3, b5)).eq(lu(ma(b3), ma(b5)))


def test_ma_intertwines_ari_with_poisson():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    b5 = c_poly(5)
    assert ma(words.poisson_bracket(b3, b5)).eq(
        ari_bracket(ma(b3), ma(b5)))


def test_ma_intertwines_dari_with_angle_bracket():
    c5, c7 = c_poly(5), c_poly(7)
    ab = words.angle_bracket(c5, c7)
    assert not ab.is_zero()
    assert ma(ab).eq(dari(ma(c5), ma(c7)))


def test_dari_routes_agree():
    c5, c7 = c_poly(5), c_poly(7)
    A, B = ma(c5), ma(c7)
    assert dari(A, B).eq(darit(A, B) - darit(B, A))


def test_darit_antisymmetrization_is_dari():
    A = delta_op(_u({1: {(2,): 1}}))
    B = delta_op(_u({1: {(3,): 1}}))
    assert (darit(A, B) - darit(B, A)).eq(dari(A, B))


# Each compound product against the chain of `+`/`-` of its elementary
# parts, every part cancelled on its own.
COMPOUNDS = [
    ("U", "ari", lambda A, B: amit(B, A) - anit(B, A) - amit(A, B)
     + anit(A, B) + mu(A, B) - mu(B, A)),
    ("V", "ari_bar", lambda A, B: amit(B, A) - anit(B, A)
     - amit(A, B) + anit(A, B) + mu(A, B) - mu(B, A)),
    ("U", "preari", lambda A, B: amit(B, A) - anit(B, A) + mu(A, B)),
    ("V", "preari_bar", lambda A, B: amit(B, A) - anit(B, A) + mu(A, B)),
    ("U", "arit", lambda B, A: amit(B, A) - anit(B, A)),
    ("V", "arit_bar", lambda B, A: amit(B, A) - anit(B, A)),
    ("U", "lu", lambda A, B: mu(A, B) - mu(B, A)),
    ("V", "lu", lambda A, B: mu(A, B) - mu(B, A)),
]


@pytest.mark.parametrize("alphabet, name, parts", COMPOUNDS,
                         ids=["%s-%s" % (n, a) for a, n, _ in COMPOUNDS])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_compound_product_is_the_sum_of_its_parts(alphabet, name, parts,
                                                  data):
    A, B = data.draw(operands(alphabet)), data.draw(operands(alphabet))
    got, want = getattr(ari, name)(A, B), parts(A, B)
    assert got.cap == want.cap
    assert got.eq(want)


SPLITTINGS = [ari._mu, ari._amit, ari._anit, ari._amit_bar, ari._anit_bar,
              ari._ganit]


@pytest.mark.parametrize("splitting", SPLITTINGS,
                         ids=[s.__name__ for s in SPLITTINGS])
def test_splittings_ask_live_for_the_depths_they_build(splitting):
    """A splitting drops exactly the factor lists with a factor that is
    not live at the number of arguments it builds for that factor."""
    P, Q = object(), object()

    def shape(factor_lists):
        return [[(id(M), args) for M, args in fs] for fs in factor_lists]

    for r in range(6):
        xs = _vars(r)
        every = list(splitting(P, Q)(r, xs, lambda M, k: True))
        assert every or r < 2
        for dead in [(M, d) for M in (P, Q) for d in range(r + 1)]:
            kept = splitting(P, Q)(r, xs, lambda M, k: (M, k) != dead)
            assert shape(kept) == shape(
                fs for fs in every
                if all((M, len(args)) != dead for M, args in fs))


# -- the flexion engine against the per-term route ---------------------------

def _eval(value, args, arity):
    """A depth-len(args) mould value evaluated on polynomial arguments."""
    if value.arity == 0:
        return RatFrac.const(arity, value.num.constant_value())
    return value.substitute_linear(args)


def per_term_flexion(alphabet, cap, top, products):
    """`ari._flexion` term by term: every factor evaluated on its own,
    the factors multiplied as RatFracs, each term scaled by its sign and
    the terms of a depth summed with `RatFrac.sum`."""
    def live(M, depth):
        return not M.get(depth).is_zero()

    vals = {}
    for r in range(top + 1):
        xs = _vars(r)
        terms = []
        for sign, split in products:
            for factors in split(r, xs, live):
                term = reduce(mul, [_eval(M.get(len(args)), args, r)
                                    for M, args in factors])
                terms.append(term.scale(sign))
        acc = RatFrac.sum(terms, r)
        if not acc.is_zero():
            vals[r] = acc
    return Mould(alphabet, vals, cap)


def engine_operands(alphabet):
    """A depth-0 constant, often nonzero, and depths 1..2 that may
    vanish; polynomial or with poles (dar_inv), capped or not."""
    return st.builds(
        lambda c, M, poles, cap: (
            Mould(alphabet, {0: RatFrac.const(0, c)})
            + (dar_inv(M) if poles else M)).with_cap(cap),
        coeffs, moulds(2, alphabet), st.booleans(),
        st.one_of(st.none(), st.integers(1, 4)))


FLEXION_PRODUCTS = [
    ("U", "mu"), ("V", "mu"), ("U", "lu"), ("V", "lu"), ("U", "amit"),
    ("U", "anit"), ("V", "amit_bar"), ("V", "anit_bar"), ("U", "arit"),
    ("V", "arit_bar"), ("U", "ari"), ("V", "ari_bar"), ("U", "preari"),
    ("V", "preari_bar"), ("U", "darit"), ("V", "ganit_bar")]


@pytest.mark.parametrize("alphabet, name", FLEXION_PRODUCTS,
                         ids=["%s-%s" % (n, a) for a, n in FLEXION_PRODUCTS])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_flexion_engine_matches_the_per_term_route(alphabet, name, data):
    A = data.draw(engine_operands(alphabet))
    B = data.draw(engine_operands(alphabet))
    product = getattr(ari, name)
    got = product(A, B)
    engine, ari._flexion = ari._flexion, per_term_flexion
    try:
        want = product(A, B)
    finally:
        ari._flexion = engine
    assert got.cap == want.cap
    assert _mould_json(got) == _mould_json(want)


def capped_operands(alphabet):
    """`engine_operands` capped at 1..3: values above the cap are dropped
    as the mould is built."""
    return st.builds(lambda M, cap: Mould(alphabet, M.values, cap),
                     engine_operands(alphabet), st.integers(1, 3))


def _within_cap(M):
    return M.cap is not None and all(r <= M.cap for r in M.values)


@pytest.mark.parametrize("alphabet, name", FLEXION_PRODUCTS,
                         ids=["%s-%s" % (n, a) for a, n in FLEXION_PRODUCTS])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_products_of_capped_operands_stay_within_the_cap(alphabet, name,
                                                         data):
    A = data.draw(capped_operands(alphabet))
    B = data.draw(capped_operands(alphabet))
    got = getattr(ari, name)(A, B)
    assert _within_cap(got) and got.cap == min(A.cap, B.cap)


@pytest.mark.parametrize("name", sorted(cli.UNARY_OPS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_operators_on_capped_operands_stay_within_the_cap(name, data):
    applied = 0
    for alphabet in "UV":
        M = data.draw(capped_operands(alphabet))
        try:
            got = cli.UNARY_OPS[name](M)
        except mould.AlphabetMismatch:  # the other alphabet
            continue
        assert _within_cap(got) and got.cap == M.cap
        applied += 1
    assert applied


@pytest.mark.parametrize("name", ["amit", "anit", "arit", "ari", "preari"])
def test_each_v_side_name_is_its_product(name):
    assert getattr(ari, name + "_bar") is getattr(ari, name)


@pytest.mark.parametrize("name", sorted({n for _, n in FLEXION_PRODUCTS}))
def test_every_product_refuses_mixed_alphabets(name):
    A = _u({1: {(1,): 1}, 2: {(1, 0): 2}})
    B = swap(_u({1: {(0,): 3}, 2: {(0, 1): 1}}))
    for left, right in [(A, B), (B, A)]:
        with pytest.raises(mould.AlphabetMismatch):
            getattr(ari, name)(left, right)


def test_v_moulds_take_the_v_side_units():
    """On V-moulds amit and anit lower b by a neighbour, A(a, c)
    B(b - first(c)) and A(a, c) B(b - last(a)); in depth 2 with A and
    B of depth 1, b is one letter and a or c the other."""
    v1, v2 = MultiPoly.variable(1, 2), MultiPoly.variable(2, 2)
    x = MultiPoly.variable(1, 1)
    A, B = Mould("V", {1: x}), Mould("V", {1: x * x})
    assert amit(B, A).get(2) == RatFrac.from_poly(v2 * (v1 - v2) * (v1 - v2))
    assert anit(B, A).get(2) == RatFrac.from_poly(v1 * (v2 - v1) * (v2 - v1))


def test_each_factor_is_substituted_once_per_depth(monkeypatch):
    """One depth of ari(A, B) makes one substitution call per distinct
    argument tuple, and evaluates no value twice on the same arguments;
    the per-term route substitutes each factor slot on its own."""
    forms = {r: monomial_sum(r, 1) for r in range(1, 5)}
    A = dar_inv(Mould("U", forms)).with_cap(4)
    B = Mould("U", {r: forms[r] * forms[r] for r in forms}).with_cap(4)
    calls = []

    def spy(values, images):
        calls.append((images[0].arity, tuple(images),
                       [id(v) for v in values]))
        return substitute(values, images)

    monkeypatch.setattr(poly, "substitute", spy)
    monkeypatch.setattr(ari, "substitute", spy)
    ari_bracket(A, B)
    assert {r for r, _, _ in calls} == {2, 3, 4}
    tuples = [(r, args) for r, args, _ in calls]
    assert len(set(tuples)) == len(tuples)
    pairs = [(r, args, v) for r, args, ids in calls for v in ids]
    assert len(set(pairs)) == len(pairs)


# -- structure preservation --------------------------------------------------

def test_ari_preserves_alternality():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    b5 = c_poly(5)
    A, B = ma(b3), ma(b5)
    assert is_alternal(ari_bracket(A, B))


def test_ari_bar_preserves_circ_neutrality():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    b5 = c_poly(5)
    A, B = swap(ma(b3)), swap(ma(b5))
    assert is_circ_neutral(A) and is_circ_neutral(B)
    assert is_circ_neutral(ari_bar(A, B))


def test_ari_with_constant_vanishes():
    C = Mould("U", {1: F(2), 2: F(-1)})
    M = _u({1: {(2,): 1}, 2: {(1, 1): 3}})
    assert ari_bracket(C, M).eq(Mould("U", {}))


# -- exponential / logarithm -------------------------------------------------

def _in_alphabet(M, alphabet):
    """The U-mould M, or its swap for the V alphabet."""
    return M if alphabet == "U" else swap(M)


@pytest.mark.parametrize("alphabet", ["U", "V"])
def test_exp_log_roundtrip(alphabet):
    A = _in_alphabet(_u({1: {(1,): 1}, 2: {(1, 1): F(1, 2)}}).with_cap(3),
                     alphabet)
    assert log_ari(exp_ari(A)).eq(A)


@pytest.mark.parametrize("alphabet, pre, bracket", [
    ("U", preari, ari_bracket), ("V", preari_bar, ari_bar)],
    ids=["U-preari-ari", "V-preari_bar-ari_bar"])
def test_series_take_the_product_of_the_alphabet(alphabet, pre, bracket):
    A = _in_alphabet(_u({1: {(1,): 1}, 2: {(2, 0): 3, (0, 1): -1}}),
                     alphabet).with_cap(3)
    M = _in_alphabet(_u({1: {(0,): 2}, 2: {(1, 0): 1}}), alphabet)
    one = Mould(alphabet, {0: RatFrac.const(0, 1)}, 3)
    B2 = pre(A, A)
    E = one + A + B2.scale(F(1, 2)) + pre(B2, A).scale(F(1, 6))
    assert exp_ari(A).eq(E)
    assert log_ari(E).eq(A)
    ad1 = bracket(A, M).with_cap(3)
    ad2 = bracket(A, ad1)
    assert adjoint_exp(A, M).eq(
        M.with_cap(3) + ad1 + ad2.scale(F(1, 2))
        + bracket(A, ad2).scale(F(1, 6)))


def oracle_log_ari(M, cap):
    """The full-cap algorithm: exp_ari(L) at the whole cap for every r."""
    M = M.with_cap(cap)
    L = Mould(M.alphabet, {}, cap)
    for r in range(1, cap + 1):
        diff = M.get(r) - exp_ari(L).get(r)
        if not diff.is_zero():
            L = L + Mould(M.alphabet, {r: diff}, cap)
    return L


def group_likes(alphabet):
    """1 plus a random polynomial mould or one with poles (dar_inv), at
    a cap of 2..5, with values in depths up to 3."""
    return st.builds(
        lambda M, poles, cap: (
            Mould(alphabet, {0: RatFrac.const(0, 1)})
            + (dar_inv(M) if poles else M)).with_cap(cap),
        moulds(3, alphabet), st.booleans(), st.integers(2, 5))


def _mould_json(M):
    return json.dumps(mould.mould_to_json(M), sort_keys=True)


@pytest.mark.parametrize("alphabet", ["U", "V"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_log_ari_agrees_with_full_cap_oracle(alphabet, data):
    M = data.draw(group_likes(alphabet))
    L = log_ari(M)
    assert _mould_json(L) == _mould_json(oracle_log_ari(M, M.cap))
    assert exp_ari(L).eq(M)


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_lopal_json_agrees_with_full_cap_oracle(cap):
    want = oracle_log_ari(named_mould("pal", cap), cap)
    assert _mould_json(named_mould("lopal", cap)) == _mould_json(want)


def _term_by_term(out, term, k, step):
    """The series of `ari._exp_series` summed one `+` per term."""
    while term.values and k <= out.cap:
        out = out + term.scale(F(1, math.factorial(k)))
        term = step(term)
        k += 1
    return out


def _exponent(G):
    """The group-like G without its depth-0 value."""
    return Mould(G.alphabet, {r: v for r, v in G.values.items() if r},
                 G.cap)


@pytest.mark.parametrize("alphabet", ["U", "V"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_series_equal_the_term_by_term_sums(alphabet, data):
    A = _exponent(data.draw(group_likes(alphabet)))
    M = data.draw(group_likes(alphabet))
    one = Mould(alphabet, {0: RatFrac.const(0, 1)}, A.cap)
    want = _term_by_term(one, A, 1, lambda B: preari(B, A))
    assert _mould_json(exp_ari(A)) == _mould_json(want)
    cap = min(A.cap, M.cap)
    want = _term_by_term(Mould(alphabet, {}, cap), M, 0,
                         lambda T: ari_bracket(A, T))
    assert _mould_json(adjoint_exp(A, M)) == _mould_json(want)


def test_adjoint_exp_sums_once_and_never_tries_a_kept_key(monkeypatch, w3):
    L, M = named_mould("invpal_log", 4), ma(w3)
    want = _mould_json(adjoint_exp(L, M))
    keeps, current, kept_tried, sums = [], [], [], []

    def cancelled(terms, keys, kept=frozenset()):
        keeps.append(kept)
        current.append(kept)
        try:
            return cancel(terms, keys, kept)
        finally:
            current.pop()

    def divide(terms, key):
        if current and key in current[-1]:
            kept_tried.append(key)
        return int_divide(terms, key)

    def summed(cls, moulds):
        sums.append(len(moulds))
        return mould_sum(moulds)

    cancel, int_divide = poly._cancelled, intpoly._int_divide
    mould_sum = Mould.sum
    monkeypatch.setattr(poly, "_cancelled", cancelled)
    monkeypatch.setattr(intpoly, "_int_divide", divide)
    monkeypatch.setattr(Mould, "sum", classmethod(summed))
    assert _mould_json(adjoint_exp(L, M)) == want
    assert any(keeps) and kept_tried == []
    # one sum of the empty start, M, ad_L M and ad_L^2 M / 2: ad_L^3 M
    # vanishes
    assert sums == [4]


def test_adjoint_exp_of_zero_is_identity():
    M = _u({2: {(1, 1): 1}}).with_cap(3)
    Z = Mould("U", {}, 3)
    assert adjoint_exp(Z, M).eq(M)


def test_series_and_checks_refuse_uncapped_operands():
    A = _u({1: {(1,): 1}, 2: {(1, 1): F(1, 2)}})
    one = Mould("U", {0: RatFrac.const(0, 1)})
    calls = [lambda: exp_ari(A), lambda: log_ari(one + A),
             lambda: adjoint_exp(A, A), lambda: fundamental_identity_check(A),
             lambda: goodfund_check(A)]
    for call in calls:
        with pytest.raises(ValueError, match="capped"):
            call()


# -- the infinitesimal generator and named moulds ----------------------------

def test_infinitesimal_generator_values():
    cs = infinitesimal_generator(6)
    assert cs == [F(-1, 2), F(-1, 12), F(-1, 48), F(-1, 180),
                  F(-11, 8640), F(-1, 6720)]


def test_pic_poc_values():
    pic = named_mould("pic", 2)
    assert str(pic.get(2)) == str(pic.get(2))  # stable
    v = pic.get(2)
    assert v.num.is_constant() and len(v.den_keys) == 2
    poc = named_mould("poc", 2)
    from moulde.poly import RatFrac
    x1 = MultiPoly.variable(1, 2)
    x2 = MultiPoly.variable(2, 2)
    assert poc.get(2) == RatFrac(MultiPoly.const(2, 1), (x1, x1 - x2))


def test_lopil_alternal_circ_neutral():
    lopil = named_mould("lopil", 4)
    assert is_alternal(lopil)
    assert is_circ_neutral(lopil)


def test_lopal_alternal():
    lopal = named_mould("lopal", 4)
    assert is_alternal(lopal)


def test_pal_pil_swap_relation():
    assert named_mould("pal", 3).eq(swap(named_mould("pil", 3)))


def test_tnc_circ_constant():
    for n in (3, 4, 5):
        T = tnc_mould(n, 1)
        ok, c = is_circ_constant(T, weight=n)
        assert ok and c == 1


# -- ganit -------------------------------------------------------------------

def test_ganit_bar_pic_poc_inverse():
    M = _u({1: {(2,): 1}, 2: {(1, 1): 1}, 3: {(1, 1, 1): 1}})
    T = swap(M).with_cap(3)
    pic = named_mould("pic", 3)
    poc = named_mould("poc", 3)
    assert ganit_bar(pic, ganit_bar(-poc, T)).eq(T)
    assert ganit_bar(-poc, ganit_bar(pic, T)).eq(T)


def test_ganit_bar_identity_on_depth1():
    T = Mould("V", {1: MultiPoly(1, {(3,): F(2)})}, 1)
    pic = named_mould("pic", 1)
    assert ganit_bar(pic, T).eq(T)


def _ganit_by_compositions(Q, T):
    """ganit(Q).T from its definition: each composition of r cuts
    x1..xr into chunks a1 b1 a2 b2 ..., T takes the a-chunks and Q each
    b-chunk lowered by the letter before it; depths up to the smaller
    cap, or, when both are uncapped, up to T's depth, which is then the
    cap of the result."""
    cap = mould._min_cap(Q.cap, T.cap)
    if cap is None:
        cap = T.max_depth()
    vals = {}
    for r in range(1, cap + 1):
        xs = _vars(r)
        total = RatFrac.zero(r)
        for k in range(r):
            for cuts in combinations(range(1, r), k):
                bounds = (0,) + cuts + (r,)
                chunks = list(zip(bounds, bounds[1:]))
                a = [x for s, e in chunks[0::2] for x in xs[s:e]]
                term = T.get(len(a)).substitute_linear(a)
                for s, e in chunks[1::2]:
                    term = term * Q.get(e - s).substitute_linear(
                        [x - xs[s - 1] for x in xs[s:e]])
                total = total + term
        vals[r] = total
    return Mould("V", vals, cap)


@pytest.mark.parametrize("cap", [None, 2, 4])
@given(uncapped_operands("V"), uncapped_operands("V"))
@settings(max_examples=15, deadline=None)
def test_ganit_bar_matches_its_definition(cap, Q, T):
    T = T.with_cap(cap)
    got, want = ganit_bar(Q, T), _ganit_by_compositions(Q, T)
    assert got.cap == want.cap
    assert got.eq(want)


def test_uncapped_ganit_bar_carries_its_truncation_depth():
    # both uncapped, the series stops at T's depth; deeper terms exist
    Q = Mould("V", {1: RatFrac.const(1, 1)})
    T = Mould("V", {1: MultiPoly.variable(1, 1)})
    got = ganit_bar(Q, T)
    assert got.cap == 1
    deeper = ganit_bar(Q.with_cap(3), T.with_cap(3))
    assert deeper.get(2) == RatFrac.from_poly(MultiPoly.variable(1, 2))
    assert got.eq(deeper)


# -- structural identities ---------------------------------------------------

def test_fundamental_identity_on_push_invariant_input():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    assert fundamental_identity_check(ma(b3).with_cap(4))


def test_goodfund_on_w_krv_element(w3):
    assert goodfund_check(ma(w3).with_cap(4))
