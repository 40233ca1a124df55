"""Push-class, circ-class and sum predicates against their earlier bodies.

`words.is_push_neutral`, `words.is_push_constant` and
`mould.is_circ_constant` decide membership through `words.push_classes`
and `mould.circ_defects`; `mould.is_alternal`, `mould.is_circ_neutral`
and `mould.star_correction` read their sums from `mould._shuffle_sums`
and `mould._cycle_sums`.  The oracles below are the earlier,
hand-written orbit walks and depth loops, kept verbatim in substance;
the new versions must give the same flag and the same constant.
"""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import mould
from moulde.mould import AlphabetMismatch, Mould, \
    circ_cycle_sum, circ_defects, is_alternal, is_circ_constant, \
    is_circ_neutral, star_correction
from moulde.poly import MultiPoly, RatFrac, compositions, monomial_sum
from moulde.words import NCPoly, is_push_constant, is_push_neutral, \
    lyndon_lie_basis, push_classes, push_orbit


# -- oracles -----------------------------------------------------------------

def _words_of(n, r):
    for positions in combinations(range(n), r):
        yield "".join("y" if i in positions else "x" for i in range(n))


def oracle_is_push_neutral(f):
    for n in f.weights():
        fn = f.weight_component(n)
        for r in fn.depths():
            if r == 0:
                if not fn.depth_component(0).is_zero():
                    return False
                continue
            part = fn.depth_component(r)
            seen = set()
            for w in part.terms:
                if w in seen:
                    continue
                orbit = push_orbit(w)
                seen.update(orbit)
                if sum(part.coeff(v) for v in orbit) != 0:
                    return False
    return True


def oracle_is_push_constant(f, c=None):
    if f.is_zero():
        return True, (c if c is not None else F(0))
    if not f.is_weight_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    m = f.weight()
    if f.coeff("y" * m) != 0:
        return False, None
    value = F(c) if c is not None else None
    for r in f.depths():
        if r == 0 or r == m:
            continue
        part = f.depth_component(r)
        seen = set()
        for w in part.terms:
            if w in seen:
                continue
            orbit = push_orbit(w)
            seen.update(orbit)
            s = sum(part.coeff(v) for v in orbit)
            if value is None:
                value = s
            elif s != value:
                return False, None
        if value != 0:
            covered = set()
            for w in part.terms:
                covered.update(push_orbit(w))
            if set(_words_of(m, r)) - covered:
                return False, None
    if value is None:
        value = F(0)
    if c is not None and value != F(c):
        return False, None
    return True, value


def oracle_is_circ_constant(M, weight=None):
    if M.alphabet != "V":
        raise AlphabetMismatch("circ-constance is a V-side predicate")
    n = weight if weight is not None else M.weight()
    if n is None:
        return False, None
    v1 = M.get(1)
    if not v1.is_polynomial():
        return False, None
    if n < 1:
        return False, None
    c = v1.num.coeff((n - 1,))
    if not (v1 == RatFrac.from_poly(MultiPoly.monomial((n - 1,), c))):
        return False, None
    for r in range(2, n):
        target = RatFrac.from_poly(monomial_sum(r, n - r).scale(c))
        if not (circ_cycle_sum(M, r) == target):
            return False, None
    return True, c


# The sum oracles call the sums through the module, so a test can patch
# them.

def oracle_is_alternal(M):
    for r in M.depths():
        if r < 2:
            continue
        v = M.get(r)
        for i in range(1, r // 2 + 1):
            s = mould.shuffle_sum(v, r, i)
            if not s.is_zero():
                return False
    return True


def oracle_is_circ_neutral(M):
    if M.alphabet != "V":
        raise AlphabetMismatch("circ-neutrality is a V-side predicate")
    for r in M.depths():
        if r < 2:
            continue
        if not mould.circ_cycle_sum(M, r).is_zero():
            return False
    return True


def oracle_star_correction(M, prop):
    if prop not in ("circ_neutral", "alternal"):
        raise ValueError("unknown property %r" % prop)
    out = {}
    for r in M.depths():
        if r < 2:
            continue
        if prop == "circ_neutral":
            s = mould.circ_cycle_sum(M, r)
            if s.is_zero():
                continue
            if not s.is_polynomial() or not s.num.is_constant():
                return None
            out[r] = -s.num.constant_value() / r
        else:
            kappa = None
            v = M.get(r)
            for i in range(1, r // 2 + 1):
                s = mould.shuffle_sum(v, r, i)
                if s.is_zero():
                    k = F(0)
                elif s.is_polynomial() and s.num.is_constant():
                    k = -s.num.constant_value() / math.comb(r, i)
                else:
                    return None
                if kappa is None:
                    kappa = k
                elif kappa != k:
                    return None
            if kappa:
                out[r] = kappa
    return out


# -- strategies --------------------------------------------------------------

values = st.sampled_from([F(0), F(1), F(-1), F(2, 3)])
small = st.integers(-3, 3).map(F)


@st.composite
def push_polys(draw, max_weight=6):
    """A weight-m word polynomial, m <= max_weight, built class by class.

    Each drawn depth in 1..m-1 is filled so that every class it touches
    sums to one drawn value (a class may be left out, and a depth may be
    drawn at random instead); x^m and y^m terms are optional."""
    m = draw(st.integers(1, max_weight))
    value = draw(values)
    terms = {}
    for r in draw(st.sets(st.integers(1, m - 1))) if m > 1 else ():
        exact = draw(st.booleans())
        for orbit in push_classes(m, r):
            if draw(st.integers(0, 3)) == 0:
                continue
            distinct = sorted(set(orbit))
            cs = [draw(small) for _ in distinct]
            if exact:
                k = len(orbit) // len(distinct)
                cs[0] = value / k - sum(cs[1:])
            terms.update(zip(distinct, cs))
    for w in ("x" * m, "y" * m):
        if draw(st.integers(0, 3)) == 0:
            terms[w] = draw(small)
    return NCPoly(terms)


@st.composite
def circ_moulds(draw, max_weight=6):
    """A V-mould of weight n <= max_weight.  Depth 1 is c*v1^{n-1},
    random, or absent; each depth 2..n is absent, random, or has cyclic
    sum c times the all-monomials sum (c/r times it plus g - rot(g))."""
    n = draw(st.integers(1, max_weight))
    c = draw(values)
    vals = {}
    mode = draw(st.sampled_from(["exact", "random", "absent"]))
    if mode != "absent":
        vals[1] = MultiPoly(1, {(n - 1,): c if mode == "exact"
                                else draw(small)})
    for r in range(2, n + 1):
        mode = draw(st.sampled_from(["exact", "random", "absent"]))
        if mode == "absent":
            continue
        exps = list(compositions(n - r, r))
        g = {e: draw(small) for e in draw(st.sets(st.sampled_from(exps),
                                                  max_size=3))}
        if mode == "exact":
            terms = {e: c / r for e in exps}
            for e, k in g.items():
                rot = e[1:] + e[:1]
                terms[e] = terms.get(e, F(0)) + k
                terms[rot] = terms.get(rot, F(0)) - k
        else:
            terms = g
        vals[r] = MultiPoly(r, terms)
    return Mould("V", vals)


LIE = {n: lyndon_lie_basis(n) for n in range(2, 6)}


@st.composite
def values_in(draw, r, degree):
    """A depth-r value of the given degree with small coefficients, over
    a pole x1 + ... + x_k when one is drawn."""
    exps = sorted(compositions(degree, r))
    p = MultiPoly(r, {e: draw(small) for e in draw(
        st.sets(st.sampled_from(exps), min_size=1, max_size=3))})
    k = draw(st.integers(0, r))
    if not k:
        return RatFrac.from_poly(p)
    return RatFrac(p, (sum(mould._vars(r)[:k], MultiPoly.zero(r)),))


@st.composite
def sum_moulds(draw):
    """A U- or V-mould in depths 1..4 with or without poles, drawn so
    that its shuffle and cyclic sums often vanish or are constants.

    The parts, each drawn or not: ma of a Lie combination, alternal with
    polynomial values, divided by Delta for poles (Delta is symmetric,
    so alternality stays); g - rot(g) in a depth, whose cyclic sum is
    zero; a constant per depth; a random value in one depth."""
    parts = [Mould("U", {})]
    if draw(st.booleans()):
        f = NCPoly.zero()
        for n, basis in LIE.items():
            for b in basis:
                if draw(st.integers(0, 2)) == 0:
                    f = f + b.scale(draw(small))
        A = mould.ma(f)
        parts.append(mould.delta_inv(A) if draw(st.booleans()) else A)
    for r in draw(st.sets(st.integers(2, 4), max_size=2)):
        g = draw(values_in(r, draw(st.integers(0, 2))))
        xs = mould._vars(r)
        parts.append(Mould("U", {r: g - g.substitute_linear(xs[1:] + xs[:1])}))
    parts.append(Mould("U", draw(st.dictionaries(
        st.integers(1, 4), values, max_size=4))))
    if draw(st.integers(0, 3)) == 0:
        r = draw(st.integers(1, 4))
        parts.append(Mould("U", {r: draw(values_in(r, draw(
            st.integers(0, 2))))}))
    return Mould(draw(st.sampled_from("UV")), Mould.sum(parts).values)


# -- agreement ---------------------------------------------------------------

@given(push_polys(), st.one_of(st.none(), values))
@settings(max_examples=300, deadline=None)
def test_push_constant_agrees_with_oracle(f, c):
    assert is_push_constant(f, c) == oracle_is_push_constant(f, c)
    assert is_push_constant(f) == oracle_is_push_constant(f)


@given(push_polys(), st.one_of(st.none(), values))
@settings(max_examples=300, deadline=None)
def test_push_constant_true_flag_carries_a_constant(f, c):
    # the callers compare the constant without a None case
    for ok, got in (is_push_constant(f, c), is_push_constant(f)):
        assert (got is not None) if ok else (got is None)


@given(st.lists(push_polys(), max_size=3))
@settings(max_examples=300, deadline=None)
def test_push_neutral_agrees_with_oracle(parts):
    f = sum(parts, NCPoly.zero())
    assert is_push_neutral(f) == oracle_is_push_neutral(f)


@given(circ_moulds(), st.one_of(st.none(), st.integers(0, 7)))
@settings(max_examples=300, deadline=None)
def test_circ_constant_agrees_with_oracle(M, weight):
    assert is_circ_constant(M, weight) == oracle_is_circ_constant(M, weight)
    assert is_circ_constant(M) == oracle_is_circ_constant(M)


@pytest.mark.parametrize("terms, c, expected", [
    ({"yyy": 1, "xxy": 1, "yxx": 1}, None, (False, None)),  # a y^m term
    ({"yyy": 1, "xxy": 1, "yxx": 1}, 1, (False, None)),
    ({"xxx": 1}, 1, (True, 1)),          # no support in depths 1..m-1
    ({"xxx": 1}, None, (True, 0)),
    ({"xxxy": 1, "xxyx": 1, "xyyy": 1}, None, (True, 1)),  # depth 2 absent
    ({"xxxy": 1, "xxyx": 1, "xyyy": 1}, 2, (False, None)),
    ({"xxxy": 1, "yxxx": 1}, None, (False, None)),  # {xxyx, xyxx} sums to 0
])
def test_push_constant_edge_cases(terms, c, expected):
    f = NCPoly({w: F(k) for w, k in terms.items()})
    assert is_push_constant(f, c) == oracle_is_push_constant(f, c) \
        == expected


@pytest.mark.parametrize("vals, weight, expected", [
    ({1: MultiPoly(1, {(2,): F(1)}),             # c = 1, every depth
      2: monomial_sum(2, 1).scale(F(1, 2)),
      3: MultiPoly(3, {(0, 0, 0): F(5)})}, 3, (True, 1)),
    ({1: MultiPoly(1, {(2,): F(1)})}, 3,         # depth 2 absent, c = 1
     (False, None)),
    ({3: MultiPoly(3, {(0, 0, 0): F(1)})}, 3,    # depth 2 absent, c = 0
     (True, 0)),
    ({1: MultiPoly(1, {(3,): F(1)}),             # depth 2 absent, 3 present
      3: monomial_sum(3, 1).scale(F(1, 3))}, 4, (False, None)),
    ({1: RatFrac(MultiPoly(1, {(0,): F(1)}),     # a pole in depth 1
                 (MultiPoly(1, {(1,): F(1)}),))}, 2, (False, None)),
    ({2: monomial_sum(2, 1)}, None, (False, None)),  # depth 1 absent
])
def test_circ_constant_edge_cases(vals, weight, expected):
    M = Mould("V", vals)
    assert is_circ_constant(M, weight) \
        == oracle_is_circ_constant(M, weight) == expected


def test_circ_defects_count_absent_depths():
    M = Mould("V", {1: MultiPoly(1, {(2,): F(1)})})
    c, defects = circ_defects(M, 3)
    assert c == 1
    assert [d == -monomial_sum(2, 1) for d in defects] == [True]
    assert circ_defects(Mould("V", {1: MultiPoly(1, {(1,): F(1)})}), 3) \
        is None


def test_push_classes_partition_the_words():
    for m in range(1, 7):
        for r in range(m + 1):
            orbits = push_classes(m, r)
            found = [w for o in orbits for w in sorted(set(o))]
            assert sorted(found) == sorted(_words_of(m, r))
            assert all(o == push_orbit(o[0]) for o in orbits)


@given(sum_moulds())
@settings(max_examples=150, deadline=None)
def test_alternal_and_its_star_agree_with_oracles(M):
    assert is_alternal(M) == oracle_is_alternal(M)
    assert star_correction(M, "alternal") \
        == oracle_star_correction(M, "alternal")


@given(sum_moulds())
@settings(max_examples=150, deadline=None)
def test_circ_neutral_and_its_star_agree_with_oracles(M):
    if M.alphabet == "V":
        assert is_circ_neutral(M) == oracle_is_circ_neutral(M)
    else:
        for predicate in (is_circ_neutral, oracle_is_circ_neutral):
            with pytest.raises(AlphabetMismatch):
                predicate(M)
    assert star_correction(M, "circ_neutral") \
        == oracle_star_correction(M, "circ_neutral")


@pytest.mark.parametrize("pinned, expected", [
    (math.comb, {4: F(-1)}),     # every sum of depth 4 pins kappa_4 = -1
])
def test_star_alternal_wants_one_constant_per_depth(monkeypatch, pinned,
                                                    expected):
    # No mould has constant shuffle sums that pin different constants:
    # summing Sh_i(f) = c_i over all permutations of the variables gives
    # r! c_i = C(r, i) Sym(f).  So the sums themselves are patched.
    monkeypatch.setattr(mould, "shuffle_sum",
                        lambda v, r, i: RatFrac.const(r, pinned(r, i)))
    M = Mould("U", {4: MultiPoly(4, {(1, 0, 0, 0): F(1)})})
    got = star_correction(M, "alternal")
    assert got == oracle_star_correction(M, "alternal")
    assert got == expected


def test_star_correction_refuses_an_unknown_property():
    with pytest.raises(ValueError):
        star_correction(Mould("U", {}), "senary")
