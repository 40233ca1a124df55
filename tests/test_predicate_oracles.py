"""Push-class and circ-class predicates against their earlier bodies.

`words.is_push_neutral`, `words.is_push_constant` and
`mould.is_circ_constant` decide membership through `words.push_classes`
and `mould.circ_defects`.  The oracles below are the earlier,
hand-written orbit walks and depth loops, kept verbatim in substance;
the new versions must give the same flag and the same constant.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moulde.mould import AlphabetMismatch, Mould, circ_cycle_sum, \
    circ_defects, is_circ_constant
from moulde.poly import MultiPoly, RatFrac, compositions, monomial_sum
from moulde.words import NCPoly, is_push_constant, is_push_neutral, \
    push_classes, push_orbit


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
