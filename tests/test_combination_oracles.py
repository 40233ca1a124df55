"""Sums of scaled word polynomials against the growing sums they replace.

`words.linear_combination` (the vkrv solver's sum) and
`words.apply_derivation` add their scaled word products on integers,
in one `words._combination`.  The oracles below are the earlier
routes, which add one scaled `NCPoly` at a time to a growing sum; the
partner oracle is the earlier linear solve over the Lyndon brackets,
against the inverse of ad x in `words.partner`."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import linalg
from moulde.spaces import solve_vkrv
from moulde.words import (DerivationPair, NCPoly, PartnerNotFound, X, Y,
                          apply_derivation, lie_bracket, linear_combination,
                          lyndon_lie_basis, partner)


# -- oracles ------------------------------------------------------------------

def growing_sum(gens, vec):
    out = NCPoly.zero()
    for g, c in zip(gens, vec):
        if c:
            out = out + g.scale(c)
    return out


def apply_derivation_by_products(D, f):
    gx, gy = D.images()
    images = {"x": gx, "y": gy}
    out = NCPoly.zero()
    for w, c in f.terms.items():
        for i, ch in enumerate(w):
            term = NCPoly.word(w[:i]) * images[ch] * NCPoly.word(w[i + 1:])
            out = out + term.scale(c)
    return out


def partner_by_growing_sum(b):
    n = b.weight()
    rhs_poly = -lie_bracket(Y, b)
    basis = lyndon_lie_basis(n)
    columns = [lie_bracket(X, e) for e in basis]
    words = sorted({w for col in columns for w in col.terms}
                   | set(rhs_poly.terms))
    sol = linalg.solve([[col.coeff(w) for col in columns] for w in words],
                       [rhs_poly.coeff(w) for w in words])
    return None if sol is None else growing_sum(basis, sol)


# -- strategies ---------------------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coefficients = st.one_of(st.just(F(0)), rationals)


@st.composite
def lyndon_coefficients(draw, max_n=7):
    """The weight-n Lyndon brackets and as many coefficients, zero often."""
    basis = lyndon_lie_basis(draw(st.integers(1, max_n)))
    return basis, draw(st.lists(coefficients, min_size=len(basis),
                                max_size=len(basis)))


def word_polys(max_len=4, max_terms=4):
    """Rational word polynomials of mixed weights, the empty word and
    zero included."""
    ws = st.text(alphabet="xy", min_size=0, max_size=max_len)
    return st.dictionaries(ws, coefficients, max_size=max_terms).map(NCPoly)


# -- the three sites ----------------------------------------------------------

@given(lyndon_coefficients())
@settings(max_examples=100, deadline=None)
def test_linear_combination_matches_the_growing_sum(case):
    basis, coeffs = case
    assert linear_combination(basis, coeffs) == growing_sum(basis, coeffs)


def test_linear_combination_edge_inputs():
    basis = lyndon_lie_basis(4)
    assert linear_combination(basis, [0] * len(basis)) == NCPoly.zero()
    assert linear_combination([], []) == NCPoly.zero()
    # integer coefficients, and brackets that cancel word by word
    xy = lie_bracket(X, Y)
    assert linear_combination([xy, xy, X], [2, -2, 3]) == X.scale(3)


@given(st.sampled_from("DE"), word_polys(), word_polys(), word_polys())
@settings(max_examples=150, deadline=None)
def test_apply_derivation_matches_the_products(mode, f, first, second):
    D = DerivationPair(mode, first, second)
    assert apply_derivation(D, f) == apply_derivation_by_products(D, f)


def test_partner_matches_the_growing_sum_on_vkrv():
    seen = 0
    for n in range(3, 11):
        for b in solve_vkrv(n).basis:
            # push keeps the depth, so each depth part is push-invariant
            for part in [b] + [b.depth_component(r) for r in b.depths()]:
                a = partner(part)
                assert a == partner_by_growing_sum(part), n
                assert (lie_bracket(X, a) + lie_bracket(Y, part)).is_zero()
                seen += 1
    assert seen == 32  # vkrv dims 1, 0, 1, 0, 1, 1, 1, 1 for n = 3..10


@given(lyndon_coefficients(max_n=6))
@settings(max_examples=100, deadline=None)
def test_partner_exists_where_the_growing_sum_has_one(case):
    basis, coeffs = case
    b = linear_combination(basis, coeffs)
    want = partner_by_growing_sum(b) if not b.is_zero() else NCPoly.zero()
    try:
        got = partner(b)
    except PartnerNotFound:
        got = None
    assert got == want
