"""Exact polynomial and rational-fraction arithmetic."""

from fractions import Fraction as F
from functools import reduce
from itertools import product
import math
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moulde import intpoly
from moulde.intpoly import _grouped, _int_mul, _lifted
from moulde.mould import Mould, mould_from_json, mould_to_json, swap
from moulde.poly import (MultiPoly, RatFrac, _linear_factor_split,
                         _reduced, _renaming, exact_poly_divide, grlex_key,
                         monomial_sum, poly_to_text)


def _poly(arity, terms):
    return MultiPoly(arity, {e: F(c) for e, c in terms.items()})


coeffs = st.integers(-5, 5).map(F)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def polys(arity=2, max_deg=3, max_terms=4, coeffs=coeffs):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(arity)])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: MultiPoly(arity, d))


def linear_forms(arity):
    """Nonzero homogeneous linear forms, as (coefficients, polynomial)."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return st.lists(small, min_size=arity, max_size=arity).filter(
        any).map(lambda cs: (cs, MultiPoly(arity, {
            tuple(int(i == j) for j in range(arity)): c
            for i, c in enumerate(cs)})))


# -- MultiPoly ---------------------------------------------------------------

def test_basic_arithmetic():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y


def test_scalars_coerce_and_foreign_operands_raise_type_error():
    x = MultiPoly.variable(1, 2)
    assert MultiPoly.const(2, 3) == 3 and 3 == MultiPoly.const(2, 3)
    assert x + 1 == 1 + x == x + MultiPoly.const(2, 1)
    assert 1 - x == -(x - 1) and x * F(1, 2) == x.scale(F(1, 2))
    for other in ["x", 1.5j, object()]:
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other):
            with pytest.raises(TypeError):
                op()
        assert x != other
    with pytest.raises(ValueError, match="arity mismatch"):
        x + MultiPoly.variable(1, 3)
    assert x != MultiPoly.variable(1, 3)
    # a RatFrac operand is left to the RatFrac product
    f = RatFrac(x, (x + MultiPoly.variable(2, 2),))
    assert x * f == f * x == RatFrac(x * x, (x + MultiPoly.variable(2, 2),))


def test_substitute_linear_swap_of_variables():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    p = x * x + y.scale(3)
    q = p.substitute_linear([y, x])
    assert q == y * y + x.scale(3)


def test_substitute_linear_changes_arity():
    x = MultiPoly.variable(1, 1)
    u1 = MultiPoly.variable(1, 2)
    u2 = MultiPoly.variable(2, 2)
    assert (x * x).substitute_linear([u1 + u2]) == (u1 + u2) * (u1 + u2)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


def test_exact_divide():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    num = x * x - y * y
    assert exact_poly_divide(num, x - y) == x + y
    assert exact_poly_divide(x, y) is None
    # no coefficient of 2x + 3y is a unit: a pivot coefficient that does
    # not divide a step of the walk rules divisibility out
    L = x.scale(2) + y.scale(3)
    assert exact_poly_divide(L * (x - y.scale(F(1, 2))), L) == \
        x - y.scale(F(1, 2))
    assert exact_poly_divide(y.scale(4) + x.scale(2), L) is None


@given(polys(), linear_forms(2))
@settings(max_examples=60, deadline=None)
def test_divide_recovers_factor(a, form):
    _, L = form
    assert exact_poly_divide(a * L, L) == a


def test_divisor_must_be_linear():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    with pytest.raises(ValueError, match="not a homogeneous linear form"):
        exact_poly_divide(x * x * y + y * y * y, x * x + y * y)
    with pytest.raises(ValueError):
        exact_poly_divide(x * x - x, x - 1)


def test_monomial_sum():
    s = monomial_sum(2, 1)
    assert s == _poly(2, {(1, 0): 1, (0, 1): 1})
    assert monomial_sum(3, 0) == MultiPoly.const(3, 1)
    # number of terms is the composition count
    assert len(monomial_sum(3, 2).terms) == 6


def test_grlex_order():
    assert grlex_key((0, 2)) < grlex_key((3, 0))  # degree first
    assert grlex_key((2, 0)) < grlex_key((1, 1))


def test_poly_text_roundtrip_stability():
    p = _poly(2, {(2, 0): 1, (0, 1): F(-3, 2)})
    assert poly_to_text(p) == poly_to_text(p)


# -- RatFrac -----------------------------------------------------------------

def test_ratfrac_cancellation():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    f = RatFrac(x * x - y * y, (x - y,))
    assert f.is_polynomial()
    assert f.as_poly() == x + y
    # a repeated factor cancels as often as it divides
    assert RatFrac(x * x * y, (x, x)).as_poly() == y
    g = RatFrac(x * y, (x, x, y - x))
    assert g.num == y and len(g.den_keys) == 2


def test_ratfrac_add_with_denominators():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    f = RatFrac(MultiPoly.const(2, 1), (x,))
    g = RatFrac(MultiPoly.const(2, 1), (y,))
    s = f + g
    assert s == RatFrac(x + y, (x, y))


def test_ratfrac_cross_multiplication_equality():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    # (x^2 - y^2)/(x - y) == (x + y)/1
    assert RatFrac(x * x - y * y, (x - y,)) == RatFrac.from_poly(x + y)


@given(polys(max_terms=3), polys(max_terms=3))
@settings(max_examples=40, deadline=None)
def test_ratfrac_field_ops(a, b):
    x = MultiPoly.variable(1, 2)
    f = RatFrac(a, (x,))
    g = RatFrac(b, (x,))
    assert f + g == RatFrac(a + b, (x,))
    assert f - f == RatFrac.zero(2)


def test_ratfrac_substitute_linear():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    f = RatFrac(x, (y,))
    g = f.substitute_linear([y, x])
    assert g == RatFrac(y, (x,))


def test_ratfrac_rejects_nonlinear_factors():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    with pytest.raises(ValueError, match=r"linear form: 1 \* x1\^2 \+ 1"):
        RatFrac(x, (x * x + y * y,))
    with pytest.raises(ValueError):
        RatFrac(x, (x + 1,))
    # a JSON denominator is split exactly into its linear factors
    with pytest.raises(ValueError, match=r"linear form: 1 \* x1\^2 \+ 1"):
        _linear_factor_split(x * x + y * y)
    c, keys = _linear_factor_split((x * x - y * y).scale(F(2, 3)))
    assert (c, keys) == (F(-2, 3), ((-1, 1), (1, 1)))


# -- linear factors ------------------------------------------------------------

@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    linear_forms(n), min_size=1, max_size=6)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
@settings(max_examples=150, deadline=None)
def test_product_of_linear_forms_splits_and_round_trips(forms, c):
    """Any product of linear forms is split into its factors, and a
    fraction over it reads back from its JSON form unchanged."""
    arity = forms[0][1].arity
    den = MultiPoly.const(arity, c)
    for _, L in forms:
        den = den * L
    scale, keys = _linear_factor_split(den)
    assert len(keys) == len(forms)
    back = MultiPoly.const(arity, scale)
    for key in keys:
        back = back * MultiPoly(arity, {
            tuple(int(i == j) for j in range(arity)): F(k)
            for i, k in enumerate(key)})
    assert back == den
    f = RatFrac(MultiPoly.const(arity, 1), tuple(L for _, L in forms))
    assert mould_from_json(mould_to_json(Mould("U", {arity: f}))).get(
        arity) == f


def test_json_reads_the_denominator_that_swap_writes():
    # swap of 1/((u1 - u2)(u2 - u3)) has den -x1x2 + 2x1x3 + 2x2^2
    # - 5x2x3 + 2x3^2, a product of two linear forms outside the shapes
    # u_i, u_i - u_j and u_i + ... + u_j
    x1, x2, x3 = (MultiPoly.variable(i, 3) for i in (1, 2, 3))
    M = swap(Mould("U", {3: RatFrac(MultiPoly.const(3, 1),
                                    (x1 - x2, x2 - x3))}))
    doc = mould_to_json(M)
    assert doc["depths"]["3"]["den"] == [
        ["-1", [1, 1, 0]], ["2", [1, 0, 1]], ["2", [0, 2, 0]],
        ["-5", [0, 1, 1]], ["2", [0, 0, 2]]]
    assert mould_from_json(doc).eq(M)

def _long_divide(num, den):
    """Grlex long division: q with num = q*den, or None.  The oracle for
    the synthetic division of `exact_poly_divide`."""
    def leading(p):
        e = max(p.terms, key=grlex_key)
        return e, p.terms[e]

    lead_e, lead_c = leading(den)
    q_terms = {}
    rem = num
    while not rem.is_zero():
        re, rc = leading(rem)
        qe = tuple(a - b for a, b in zip(re, lead_e))
        if any(e < 0 for e in qe):
            return None
        qc = rc / lead_c
        q_terms[qe] = q_terms.get(qe, F(0)) + qc
        rem = rem - den * MultiPoly.monomial(qe, qc)
    return MultiPoly(num.arity, q_terms)


def divisions():
    """(q, L, noise) in a common arity of at most 4."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        polys(n, max_deg=3, max_terms=5), linear_forms(n),
        polys(n, max_deg=4, max_terms=3)))


@given(divisions())
@settings(max_examples=150, deadline=None)
def test_linear_division_agrees_with_long_division(case):
    q, (_, L), noise = case
    assert exact_poly_divide(q * L, L) == q
    num = q * L + noise
    if num.is_zero():
        return
    assert exact_poly_divide(num, L) == _long_divide(num, L)


FACTORS = [MultiPoly(3, {e: F(c) for e, c in terms.items()}) for terms in (
    {(1, 0, 0): 1}, {(0, 1, 0): -2}, {(1, 0, 0): 1, (0, 1, 0): -1},
    {(0, 1, 0): 1, (0, 0, 1): 1}, {(1, 0, 0): -1, (0, 0, 1): 1},
    {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})]


def fraction_parts(coeffs=coeffs, min_factors=0):
    """(numerator, factors) in 3 variables; a factor may repeat."""
    return st.tuples(polys(3, max_deg=2, max_terms=3, coeffs=coeffs),
                     st.lists(st.sampled_from(FACTORS), min_size=min_factors,
                              max_size=3))


def ratfracs(coeffs=coeffs):
    return fraction_parts(coeffs).map(lambda t: RatFrac(*t))


@given(st.lists(ratfracs(), min_size=1, max_size=5).flatmap(
    lambda fs: st.tuples(st.just(fs), st.permutations(fs))))
@settings(max_examples=60, deadline=None)
def test_sum_is_independent_of_order(case):
    fracs, shuffled = case
    total = RatFrac.sum(fracs, 3)
    again = RatFrac.sum(shuffled, 3)
    assert str(total) == str(again)
    pairwise = RatFrac.zero(3)
    for f in shuffled:
        pairwise = pairwise + f
    assert str(pairwise) == str(total)


# -- the keys a sum tries --------------------------------------------------

def _every_key_sum(fracs, arity):
    """The sum of `fracs` the long way: each fraction lifted over the
    lcm of all the denominators, the numerators added, and every factor
    of the lcm tried against the total (`_reduced`)."""
    den = math.lcm(*(f.denom for f in fracs))
    keys, nums = _lifted([(f.den_keys, {e: v * (den // f.denom)
                                        for e, v in f.terms.items()})
                          for f in fracs])
    total = {}
    for terms in nums:
        for e, v in terms.items():
            total[e] = total.get(e, 0) + v
    return RatFrac._make(*_reduced(arity, {e: v for e, v in total.items()
                                           if v}, den, keys))


def _forms(arity):
    """The linear forms with coefficients in -1..1 and a positive last
    nonzero one, one per key."""
    return [MultiPoly(arity, {tuple(int(i == j) for i in range(arity)): c
                              for j, c in enumerate(cs) if c})
            for cs in product((-1, 0, 1), repeat=arity)
            if any(cs) and next(c for c in reversed(cs) if c) > 0]


def keyed_sums():
    """(arity, fractions): up to six reduced fractions in 1..4 variables
    whose factors come from a pool of two to four linear forms, so keys
    are shared, repeated and distinct.  The last is often t minus the
    sum of the first j, for a fraction t on the same pool: the keys of
    those j that t lacks must then cancel from the sum."""
    def fractions(arity):
        forms = _forms(arity)
        pool = st.lists(st.sampled_from(forms), min_size=min(2, len(forms)),
                        max_size=4, unique_by=str)
        part = pool.map(lambda forms: st.tuples(
            polys(arity, max_deg=2, max_terms=3, coeffs=rationals),
            st.lists(st.sampled_from(forms), max_size=3)))
        return part.flatmap(lambda part: st.tuples(
            st.lists(part, min_size=1, max_size=5), part,
            st.integers(0, 5))).map(
            lambda t: _with_cancelling_part(arity, *t))
    return st.integers(1, 4).flatmap(
        lambda arity: st.tuples(st.just(arity), fractions(arity)))


def _with_cancelling_part(arity, parts, total, j):
    fracs = [RatFrac(*t) for t in parts]
    if not j:
        return fracs
    return fracs + [_every_key_sum([RatFrac(*total)]
                                   + [-f for f in fracs[:j]], arity)]


@given(keyed_sums())
@settings(max_examples=150, deadline=None)
def test_sum_tries_only_the_keys_that_can_cancel(case):
    arity, fracs = case
    got, want = RatFrac.sum(fracs, arity), _every_key_sum(fracs, arity)
    assert (got.den_keys, got.denom, got.terms) == (
        want.den_keys, want.denom, want.terms)
    _assert_reduced(got)


_u, _v = MultiPoly.variable(1, 2), MultiPoly.variable(2, 2)
_one = MultiPoly.const(2, 1)
_U, _V, _UV = (1, 0), (0, 1), (1, 1)


@pytest.mark.parametrize("parts, kept, want", [
    # a shared key cancels: 1/(u(u+v)) + 1/(v(u+v)) = 1/(uv); u and v
    # are each held by one single-part group
    ([(_one, [_u, _u + _v]), (_one, [_v, _u + _v])], {_U, _V},
     (_one, [_u, _v])),
    # a group of two parts cancels: u/(u+v) + v/(u+v) = 1
    ([(_u, [_u + _v]), (_v, [_u + _v])], set(), (_one, [])),
    # a group whose terms sum to zero leaves the lcm: u+v goes with it,
    # and u, held by one single part, stays untried
    ([(_one, [_u + _v]), (-_one, [_u + _v]), (_v, [_u, _u])],
     {_U}, (_v, [_u, _u])),
    # a single part is kept whole
    ([(_u + _v, [_u, _v, _v])], {_U, _V}, (_u + _v, [_u, _v, _v])),
    # a key at its top multiplicity in two groups may cancel:
    # 1/(u^2 v) - 1/(u^2 (u+v)) = 1/(u v (u+v))
    ([(_one, [_u, _u, _v]), (-_one, [_u, _u, _u + _v])], {_V, _UV},
     (_one, [_u, _v, _u + _v])),
])
def test_sum_keeps_the_keys_one_single_part_holds(monkeypatch, parts, kept,
                                                   want):
    fracs = [RatFrac(num, factors) for num, factors in parts]
    _, _, got = _grouped([(f.terms, f.denom, f.den_keys) for f in fracs])
    assert got == kept
    want = RatFrac(*want)
    assert _every_key_sum(fracs, 2) == want
    tried = []

    def spy(terms, key):
        tried.append(key)
        return divide(terms, key)

    divide = intpoly._int_divide
    monkeypatch.setattr(intpoly, "_int_divide", spy)
    total = RatFrac.sum(fracs, 2)
    assert (total.den_keys, total.denom, total.terms) == (
        want.den_keys, want.denom, want.terms)
    assert not set(tried) & kept


def _cross_equal(f, g):
    """Equality of two fractions by cross-multiplication: the oracle for
    the structural `RatFrac.__eq__`."""
    return f.num * g.den == g.num * f.den


def substitutions(arity=3):
    """Images of x1..x3: linear forms with coefficients in -1..1, so a
    substitution may be singular."""
    form = st.lists(st.integers(-1, 1), min_size=arity,
                    max_size=arity).map(lambda cs: MultiPoly(arity, {
                        tuple(int(i == j) for j in range(arity)): c
                        for i, c in enumerate(cs)}))
    return st.lists(form, min_size=arity, max_size=arity)


@given(st.lists(ratfracs(), min_size=3, max_size=3), substitutions())
@settings(max_examples=80, deadline=None)
def test_structural_equality_agrees_with_cross_multiplication(fgh, images):
    f, g, h = fgh
    over_x1 = RatFrac(MultiPoly.const(3, 1), (MultiPoly.variable(1, 3),))
    pairs = [(f, g), (f + g, g + f), (f + h, g + h), (f, f * over_x1),
             ((f + g) * h, f * h + g * h), (f * g, g * h)]
    try:
        fs, gs = f.substitute_linear(images), g.substitute_linear(images)
        pairs += [(fs, gs), ((f * g).substitute_linear(images), fs * gs),
                  ((f + g).substitute_linear(images), fs + gs)]
    except ZeroDivisionError:
        pass  # the image of a denominator factor vanished
    for a, b in pairs:
        assert (a == b) == _cross_equal(a, b), (a, b)
        assert (b == a) == (a == b)


# -- renaming variables ------------------------------------------------------

def _at(terms, point):
    """Value of {exponent tuple: coefficient} at a point."""
    total = F(0)
    for e, c in terms.items():
        for x, k in zip(point, e):
            c *= x ** k
        total += c
    return total


def _value(f, point):
    """Value of a fraction at a point, read off its raw integer terms,
    denom and factor keys (None where the denominator vanishes)."""
    den = F(f.denom)
    for key in f.den_keys:
        den *= sum(c * x for c, x in zip(key, point))
    return None if den == 0 else _at(f.terms, point) / den


def renamings(arity=3):
    """(target arity, 1-based images of x1..x{arity}): a permutation, or
    an injection into up to two more variables."""
    return st.integers(arity, arity + 2).flatmap(
        lambda r: st.permutations(range(1, r + 1)).map(
            lambda p: (r, tuple(p[:arity]))))


points = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                  min_size=5, max_size=5)


def _parts_value(parts, point):
    """Value of numerator / product of factors at a point, from the
    parts alone (None where a factor vanishes)."""
    num, factors = parts
    den = math.prod(_at(f.terms, point) for f in factors)
    return None if den == 0 else _at(num.terms, point) / den


def _assert_reduced(f):
    """The canonical form: int terms holding no zero over a positive int
    denom coprime to them, sorted keys, and no factor left in the
    denominator that divides the numerator."""
    assert all(type(c) is int and c for c in f.terms.values()), f
    assert type(f.denom) is int and f.denom > 0, f
    assert math.gcd(f.denom, *f.terms.values()) == 1, f
    assert list(f.den_keys) == sorted(f.den_keys), f
    if not f.terms:
        assert f.den_keys == ()
    for key in set(f.den_keys):
        factor = MultiPoly(f.arity, {
            tuple(int(i == j) for j in range(f.arity)): c
            for i, c in enumerate(key) if c})
        assert _long_divide(f.num, factor) is None, (f, key)


@given(st.lists(fraction_parts(rationals), min_size=1, max_size=4),
       fraction_parts(rationals, min_factors=1),
       polys(3, max_deg=2, max_terms=3, coeffs=rationals), points)
@settings(max_examples=200, deadline=None)
def test_sum_and_product_agree_with_evaluation(parts, pair, q, point):
    p, factors = pair
    first = factors[0]
    # f = p / factors, g = (q first - p) / factors, h = q first / factors:
    # f + g and f * h both have `first` to cancel
    parts = parts + [pair, (q * first - p, factors), (q * first, factors)]
    x = point[:3]
    values = [_parts_value(t, x) for t in parts]
    assume(all(v is not None for v in values))
    fracs = [RatFrac(*t) for t in parts]
    total = RatFrac.sum(fracs, 3)
    product = reduce(mul, fracs)
    assert _value(total, x) == sum(values)
    assert _value(product, x) == math.prod(values)
    assert _value(fracs[-3] * fracs[-1], x) == values[-3] * values[-1]
    for f in (total, product, fracs[-3] + fracs[-2], fracs[-3] * fracs[-1]):
        _assert_reduced(f)
        assert list(f.den_keys) == sorted(f.den_keys)


# a rational point of large height: no nonzero fraction drawn here
# vanishes at it, and no key of FACTORS
GENERIC = (F(7919, 1009), F(-6007, 2003), F(4999, 3001))


def _json_round_trip(f):
    return mould_from_json(mould_to_json(Mould("U", {3: f}))).get(3)


@given(st.lists(ratfracs(rationals), min_size=3, max_size=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
           bool))
@settings(max_examples=150, deadline=None)
def test_equality_holds_exactly_when_values_agree(fgh, c):
    """Fractions reached by different routes are equal exactly when
    their values at a generic rational point agree, and each is in the
    canonical form."""
    f, g, h = fgh
    pairs = [((f + g) + h, f + (g + h)), (f.scale(c).scale(1 / c), f),
             (_json_round_trip(f), f), (f, g), (f + h, g + h),
             (f * g, g * f), ((f + g) * h, f * h + g * h), (f * h, g * h),
             (f - g + g, f), (f.scale(c), f)]
    for a, b in pairs:
        _assert_reduced(a)
        _assert_reduced(b)
        assert (a == b) == (_value(a, GENERIC) == _value(b, GENERIC)), (a, b)


def _product_oracle(f, g):
    """The product before cross-cancellation: multiply the integer
    numerators, then `_reduced` over every key of both denominators."""
    return RatFrac._make(*_reduced(
        f.arity, _int_mul(f.terms, g.terms), f.denom * g.denom,
        sorted(f.den_keys + g.den_keys)))


def _assert_product(f, g):
    got, want = f * g, _product_oracle(f, g)
    assert got.den_keys == want.den_keys and got.num == want.num
    assert (got.terms, got.denom) == (want.terms, want.denom)
    assert str(got) == str(want)
    assert list(got.den_keys) == sorted(got.den_keys)
    _assert_reduced(got)
    return got


def crossed_fractions():
    """p * (numerator factors) / (denominator factors), reduced, with
    both factor lists drawn from four of FACTORS: a key of one
    denominator often divides another fraction's numerator, two
    denominators often share a key, and keys repeat."""
    factors = st.lists(st.sampled_from(FACTORS[:4]), max_size=3)
    return st.tuples(polys(3, max_deg=2, max_terms=3, coeffs=rationals),
                     factors, factors).map(
        lambda t: RatFrac(reduce(mul, t[1], t[0]), t[2]))


@given(crossed_fractions(), crossed_fractions())
@settings(max_examples=300, deadline=None)
def test_product_cancels_like_the_full_reduction(f, g):
    _assert_product(f, g)
    _assert_product(g, f)


_x, _y, _z = (MultiPoly.variable(i, 3) for i in (1, 2, 3))


@pytest.mark.parametrize("f, g, want", [
    # a key of one denominator divides the other numerator
    ((1, [_x]), (_x * _y, [_y + _z]), (_y, [_y + _z])),
    # a shared key never cancels
    ((1, [_x]), (_y, [_x]), (_y, [_x, _x])),
    ((_y, [_x, _y + _z]), ((_y + _z) * _z, [_x]), (_y * _z, [_x, _x])),
    # repeated keys cancel as far as the other numerator allows
    ((1, [_x, _x, _x]), (_x * _x * _y, []), (_y, [_x])),
    ((_y, [_x, _x, _x - _y]), (_x * (_x - _y) * (_x - _y), [_y + _z] * 2),
     (_y * (_x - _y), [_x, _y + _z, _y + _z])),
    # scalars in the numerators and a zero factor
    ((_y.scale(F(2, 3)), [_x]), (_x.scale(F(-3, 4)), []),
     (_y.scale(F(-1, 2)), [])),
    ((MultiPoly.zero(3), []), (_y, [_x]), (MultiPoly.zero(3), [])),
])
def test_product_cancellation_cases(f, g, want):
    f, g = (RatFrac(MultiPoly.const(3, p) if isinstance(p, int) else p, fs)
            for p, fs in (f, g))
    assert _assert_product(f, g) == RatFrac(*want)
    assert _assert_product(g, f) == RatFrac(*want)


@given(ratfracs(), renamings(), points)
@settings(max_examples=150, deadline=None)
def test_renaming_agrees_with_evaluation(f, renaming, point):
    r, perm = renaming
    images = [MultiPoly.variable(p, r) for p in perm]
    assert _renaming(images) == list(perm)
    g = f.substitute_linear(images)
    num = f.num.substitute_linear(images)
    assert g.arity == num.arity == r
    assert num == f.num.permute_variables(perm, r)
    # the image of x_i takes the value of x_{perm[i-1]}
    target = point[:r]
    source = [target[p - 1] for p in perm]
    assert _at(num.terms, target) == _at(f.num.terms, source)
    want = _value(f, source)
    assume(want is not None)
    assert _value(g, target) == want
    # the renamed keys are normalised: primitive, last nonzero entry
    # positive, sorted; and a renaming cancels nothing
    assert list(g.den_keys) == sorted(g.den_keys)
    assert len(g.den_keys) == len(f.den_keys)
    for key in g.den_keys:
        assert len(key) == r and math.gcd(*key) == 1
        assert next(c for c in reversed(key) if c) > 0


def substitutions_of(arity=3):
    """(target arity, images of x1..x{arity}) in 1..4 variables: each
    image zero, a linear form, or a polynomial of degree up to 2, with
    rational coefficients."""
    def image(r):
        linear = st.lists(rationals, min_size=r, max_size=r).map(
            lambda cs: MultiPoly(r, {
                tuple(int(i == j) for j in range(r)): c
                for i, c in enumerate(cs)}))
        return st.one_of(st.just(MultiPoly.zero(r)), linear,
                         polys(r, max_deg=2, coeffs=rationals))
    return st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.just(r), st.lists(image(r), min_size=arity, max_size=arity)))


@given(polys(3, max_deg=3, max_terms=5, coeffs=rationals),
       substitutions_of(), points)
@settings(max_examples=150, deadline=None)
def test_substitution_agrees_with_evaluation(p, substitution, point):
    r, images = substitution
    q = p.substitute_linear(images)
    assert q.arity == r
    assert all(c != 0 and isinstance(c, F) for c in q.terms.values())
    target = point[:r]
    assert _at(q.terms, target) == _at(
        p.terms, [_at(x.terms, target) for x in images])


def test_renaming_needs_distinct_variables():
    x, y = MultiPoly.variable(1, 2), MultiPoly.variable(2, 2)
    assert _renaming([y, x]) == [2, 1]
    assert _renaming([x, x]) is None
    assert _renaming([x.scale(2), y]) is None
    assert _renaming([x + y, y]) is None
    with pytest.raises(ValueError):
        (x * y).permute_variables((1, 1))
    with pytest.raises(ValueError):
        (x * y).permute_variables((1, 3))
    assert (x * y * y).permute_variables((3, 1), 3) == MultiPoly(
        3, {(2, 0, 1): F(1)})


# -- linear substitution ----------------------------------------------------

def linear_substitutions(arity=3):
    """(target arity, coefficient rows of the images of x1..x{arity}) in
    1..4 variables; entries are often 0 or +-1, so the rows may be
    independent, dependent or zero."""
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-2)])
    return st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.just(r), st.lists(st.lists(entry, min_size=r, max_size=r),
                             min_size=arity, max_size=arity)))


def _linear(row):
    r = len(row)
    return MultiPoly(r, {tuple(int(i == j) for j in range(r)): c
                         for i, c in enumerate(row)})


@given(ratfracs(rationals), linear_substitutions(), points)
@settings(max_examples=200, deadline=None)
def test_linear_substitution_agrees_with_evaluation(f, substitution, point):
    r, rows = substitution
    images = [_linear(row) for row in rows]
    # the image of key k is sum k_i row_i, computed here on Fractions
    vanishes = any(
        not any(sum(k * row[j] for k, row in zip(key, rows)) for j in range(r))
        for key in f.den_keys)
    if vanishes:
        with pytest.raises(ZeroDivisionError):
            f.substitute_linear(images)
        return
    g = f.substitute_linear(images)
    assert g.arity == r
    _assert_reduced(g)
    assert list(g.den_keys) == sorted(g.den_keys)
    for key in g.den_keys:
        assert len(key) == r and math.gcd(*key) == 1
        assert next(c for c in reversed(key) if c) > 0
    target = point[:r]
    source = [_at(x.terms, target) for x in images]
    want = _value(f, source)
    assume(want is not None)
    assert _value(g, target) == want


def test_linear_substitution_cases():
    x, y = MultiPoly.variable(1, 2), MultiPoly.variable(2, 2)
    t = MultiPoly.variable(1, 1)
    f = RatFrac(x * y + x, (x, x - y))
    assert str(f.substitute_linear([x, x + y])) == \
        "(-1 - 1 * x1 - 1 * x2) / (1 * x2)"
    # dependent images: (x1 + x2) / (x1 x2) at [t, t] is 2t / t^2 = 2 / t
    assert str(RatFrac(x + y, (x, y)).substitute_linear([t, t])) == \
        "(2) / (1 * x1)"
    # a zero image is refused only where a key's image vanishes
    g = RatFrac(y, (x,))
    assert g.substitute_linear([x, MultiPoly.zero(2)]) == RatFrac.zero(2)
    with pytest.raises(ZeroDivisionError):
        g.substitute_linear([MultiPoly.zero(2), y])
    with pytest.raises(ZeroDivisionError):
        RatFrac(y, (x - y,)).substitute_linear([x, x])
    # a key may touch only homogeneous linear images: constant, affine
    # and quadratic ones are refused
    for bad in (MultiPoly.const(2, 2), x + 1, x * x):
        with pytest.raises(ValueError, match="homogeneous linear form"):
            g.substitute_linear([bad, y])
    # an image that no key touches may be anything
    assert g.substitute_linear([x, x * x + 1]) == RatFrac(x * x + 1, (x,))
