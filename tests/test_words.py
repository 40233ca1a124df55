"""Word algebra: brackets, derivations, push/circ properties, bases."""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moulde import words
from moulde.words import (NCPoly, X, Y, angle_bracket, apply_derivation, beta,
                          c_monomial, c_poly, decompose, divergence,
                          from_c_basis, ihara_derivation, is_circ_constant_poly,
                          is_circ_neutral_poly, is_lie_element,
                          is_push_constant, is_push_invariant, is_push_neutral,
                          lie_bracket, lyndon_lie_basis, lyndon_words,
                          ncpoly_from_text, ncpoly_to_text, nu_twist,
                          oder_pair, partner, poisson_bracket, push_orbit,
                          push_word, to_c_basis, trace_project,
                          TraceVector)


def word_polys(max_len=4, max_terms=4):
    ws = st.text(alphabet="xy", min_size=0, max_size=max_len)
    cs = st.integers(-4, 4).map(F)
    return st.dictionaries(ws, cs, max_size=max_terms).map(NCPoly)


# -- basics ------------------------------------------------------------------

def test_concatenation_product():
    f = NCPoly.word("xy") * NCPoly.word("yx")
    assert f == NCPoly.word("xyyx")
    assert (X + Y) * (X - Y) == (NCPoly.word("xx") - NCPoly.word("xy")
                                 + NCPoly.word("yx") - NCPoly.word("yy"))


def test_weight_of_zero_is_refused():
    # zero is weight-homogeneous (it has no weight to disagree), but has
    # no weight to report
    assert NCPoly.zero().is_weight_homogeneous()
    with pytest.raises(ValueError, match="^the zero polynomial has no "
                       "weight$"):
        NCPoly.zero().weight()
    with pytest.raises(ValueError, match="not weight-homogeneous"):
        (X + X * Y).weight()
    assert (X * Y).weight() == 2


def test_lie_bracket_and_dynkin():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    assert b3 == (NCPoly.word("xxy") - NCPoly.word("xyx").scale(2)
                  + NCPoly.word("yxx"))
    assert is_lie_element(b3)
    assert not is_lie_element(NCPoly.word("xy"))


def test_decompose_reassembles():
    f = NCPoly({"xy": F(2), "yx": F(-1), "x": F(3), "": F(5)})
    c, f_x, f_y, fux, fuy = decompose(f)
    assert c == 5
    assert NCPoly.one(c) + f_x * X + f_y * Y == f
    assert NCPoly.one(c) + X * fux + Y * fuy == f


def test_beta_is_involutive_antiautomorphism():
    f = NCPoly.word("xxy")
    g = NCPoly.word("yx")
    assert beta(beta(f)) == f
    assert beta(f * g) == beta(g) * beta(f)


# -- push and circ -----------------------------------------------------------

def test_push_orbit():
    assert push_orbit("xxy") == ["xxy", "yxx"]
    assert push_orbit("xyx") == ["xyx", "xyx"]  # fixed point of push
    assert push_orbit("xx") == ["xx"]


def test_push_invariance_of_b3_pattern():
    f = NCPoly({"xxy": F(1), "yxx": F(1), "xyx": F(1)})
    assert is_push_invariant(f)
    assert not is_push_invariant(NCPoly.word("xxy"))


def test_push_neutral():
    f = NCPoly({"xxy": F(1), "yxx": F(-1)})  # orbit sum 0
    assert is_push_neutral(f)
    assert not is_push_neutral(NCPoly.word("xxy"))


def test_push_constant_rejects_yn():
    f = NCPoly({"yy": F(1)})
    ok, _ = is_push_constant(f)
    assert not ok


def test_circ_constant_simple():
    # weight 3, c = 1: depth-1 term xxy plus a depth-2 class with sum 1
    f = NCPoly({"xxy": F(1), "xyy": F(1)})
    ok, c = is_circ_constant_poly(f)
    assert ok and c == 1
    bad = NCPoly({"xxy": F(1), "xyy": F(1), "yxy": F(1)})
    ok, _ = is_circ_constant_poly(bad)
    assert not ok


@given(word_polys())
@settings(max_examples=50, deadline=None)
def test_push_word_preserves_weight_and_depth(f):
    g = push_word(f)
    assert sorted(len(w) for w in g.terms) == sorted(len(w) for w in f.terms)
    assert (sorted(w.count("y") for w in g.terms)
            == sorted(w.count("y") for w in f.terms))


# -- derivations and brackets ------------------------------------------------

def test_ihara_derivation_leibniz():
    b = lie_bracket(X, Y)
    d = ihara_derivation(b)
    f = NCPoly.word("xy")
    g = NCPoly.word("yx")
    assert (apply_derivation(d, f * g)
            == apply_derivation(d, f) * g + f * apply_derivation(d, g))


def test_poisson_antisymmetry():
    b = lie_bracket(X, lie_bracket(X, Y))
    b2 = lie_bracket(lie_bracket(X, Y), Y)
    assert poisson_bracket(b, b2) == -poisson_bracket(b2, b)
    assert poisson_bracket(b, b).is_zero()


def test_partner_of_b3():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    a3 = partner(b3)
    assert a3 == lie_bracket(lie_bracket(X, Y), Y)
    assert (lie_bracket(X, a3) + lie_bracket(Y, b3)).is_zero()


def test_partner_refuses_a_solution_that_is_not_lie():
    # [x, a] = -[y, b] has the word solution xy + yx for b = xx, which
    # is not a Lie element, so b has no partner
    with pytest.raises(words.PartnerNotFound):
        partner(NCPoly.word("xx"))


def test_oder_pair_kills_xy_commutator():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    D = oder_pair(b3)
    assert apply_derivation(D, lie_bracket(X, Y)).is_zero()


def test_angle_bracket_antisymmetric():
    b3 = lie_bracket(X, lie_bracket(X, Y))
    b5 = words.c_poly(5)
    assert angle_bracket(b3, b5) == -angle_bracket(b5, b3)


def test_divergence_of_zero_pair():
    E = words.DerivationPair("E", NCPoly.zero(), NCPoly.zero())
    assert divergence(E).is_zero()


def test_trace_project_cyclic():
    assert trace_project(NCPoly.word("xy") - NCPoly.word("yx")).is_zero()


def test_trace_vector_keys_are_least_rotations():
    assert TraceVector({"yx": 1}) == trace_project(NCPoly.word("xy"))
    assert TraceVector({"xy": 1, "yx": -1}).is_zero()
    t = TraceVector({"yxx": 1, "xyx": F(1, 2), "": 3})
    assert t.terms == {"xxy": F(3, 2), "": F(3)}
    assert t.coeff("yxx") == t.coeff("xxy") == F(3, 2)
    assert t - TraceVector({"xxy": F(3, 2)}) == TraceVector({"": 3})
    assert hash(t) == hash(TraceVector({"xxy": F(3, 2), "": 3}))
    with pytest.raises(ValueError, match="bad letter"):
        TraceVector({"xz": 1})
    # the text form is unchanged by the clean-up
    assert repr(TraceVector({"yxx": 2, "xy": -1})) == "-1*[xy] + 2*[xxy]"
    assert repr(TraceVector()) == "tr(0)"


@given(word_polys(), word_polys(), st.lists(st.integers(0, 4), max_size=4))
@settings(max_examples=100, deadline=None)
def test_trace_is_cyclic(f, g, shifts):
    assert trace_project(f * g) == trace_project(g * f)
    rotated = NCPoly({w[k % len(w):] + w[:k % len(w)] if w else w: c
                      for (w, c), k in zip(f.terms.items(), shifts + [0] * 4)})
    assume(len(rotated.terms) == len(f.terms))  # no two words collide
    assert TraceVector(rotated.terms) == trace_project(f)


def test_foreign_operands_raise_type_error():
    t = TraceVector({"xy": 1})
    for a, b in [(X, 1), (X, F(1, 2)), (X, "x"), (X, t), (t, X), (t, 1)]:
        for op in (lambda: a + b, lambda: b + a, lambda: a - b,
                   lambda: b - a):
            with pytest.raises(TypeError):
                op()
        assert a != b and not (a == b)
    with pytest.raises(TypeError):
        X * "x"
    # scalars enter only the product of NCPoly
    assert X * 2 == 2 * X == X + X
    assert NCPoly.one(3) != 3


# -- nu twist ----------------------------------------------------------------

def test_nu_twist_involution():
    f = NCPoly({"xxy": F(2), "yx": F(-3), "y": F(1)})
    assert nu_twist(nu_twist(f)) == f


def test_nu_twist_images():
    assert nu_twist(X) == NCPoly({"x": F(-1), "y": F(-1)})
    assert nu_twist(Y) == Y


# -- C-basis -----------------------------------------------------------------

def test_c_poly():
    assert c_poly(1) == Y
    assert c_poly(2) == lie_bracket(X, Y)
    assert c_poly(3) == lie_bracket(X, lie_bracket(X, Y))


def test_c_poly_closed_form_is_the_ad_x_recursion():
    ad = Y
    for i in range(1, 13):
        assert c_poly(i) == ad, i
        assert words._c_ints(i) == (words._ints(ad.terms)[0], 1), i
        ad = lie_bracket(X, ad)
    with pytest.raises(ValueError):
        c_poly(0)


def test_c_basis_roundtrip():
    coeffs = [((2, 1), F(3)), ((1, 1, 1), F(-1, 2)), ((3,), F(1))]
    f = from_c_basis(coeffs)
    assert sorted(to_c_basis(f)) == sorted(coeffs)


# index tuples of C-monomials of weight <= 8 and depth <= 4, with () for 1
c_indices = st.lists(st.integers(1, 8), max_size=4).map(tuple).filter(
    lambda a: sum(a) <= 8)
c_coeffs = st.dictionaries(
    c_indices, st.fractions(min_value=-5, max_value=5, max_denominator=6)
    .filter(bool), min_size=1, max_size=6).map(lambda d: list(d.items()))


@given(c_coeffs)
@settings(max_examples=100, deadline=None)
def test_c_basis_roundtrip_rational(coeffs):
    assume(any(c.denominator != 1 for _, c in coeffs))
    f = from_c_basis(coeffs)
    assert to_c_basis(f) == sorted(coeffs, key=lambda t: (len(t[0]), t[0]))
    # a word ending in x above every word of f: the C-span part is
    # eliminated first, and then that word is the leading one
    tail = "y" * 9 + "x"
    with pytest.raises(words.NotInCSpan, match=tail):
        to_c_basis(f + NCPoly.word(tail, F(1, 3)))


def _from_c_basis_by_definition(coeffs):
    """sum c_a C_{a1}...C_{ar} as products of `c_poly` in NCPoly."""
    out = NCPoly.zero()
    for a, c in coeffs:
        term = NCPoly.one()
        for i in a:
            term = term * c_poly(i)
        out = out + term.scale(c)
    return out


@given(c_coeffs)
@settings(max_examples=100, deadline=None)
def test_from_c_basis_matches_its_definition(coeffs):
    assert from_c_basis(coeffs) == _from_c_basis_by_definition(coeffs)
    for a, _ in coeffs:
        assert c_monomial(a) == _from_c_basis_by_definition([(a, 1)])


def test_from_c_basis_integer_zero_and_empty_coefficients():
    coeffs = [([2, 1], 3), ((1, 2), 0), ((), -1), ((2, 1), F(1, 2))]
    assert from_c_basis(coeffs) == _from_c_basis_by_definition(coeffs)
    assert from_c_basis([]) == NCPoly.zero()
    assert from_c_basis([((1, 2), 1), ((1, 2), -1)]) == NCPoly.zero()


def test_to_c_basis_rejects_x():
    try:
        to_c_basis(X)
    except words.NotInCSpan:
        pass
    else:
        raise AssertionError("x is not in the C-span")


# -- Lyndon basis ------------------------------------------------------------

def test_lyndon_words_count():
    # necklace counts for a binary alphabet
    assert len(lyndon_words(1)) == 2
    assert len(lyndon_words(2)) == 1
    assert len(lyndon_words(3)) == 2
    assert len(lyndon_words(4)) == 3
    assert len(lyndon_words(6)) == 9


def test_lyndon_words_are_the_sorted_brute_force_enumeration():
    # Duval's algorithm emits exactly the length-n Lyndon words, already
    # in lexicographic order: the list is taken as it comes
    for n in range(1, 13):
        every = ("".join("xy"[(k >> (n - 1 - i)) & 1] for i in range(n))
                 for k in range(2 ** n))
        assert lyndon_words(n) == sorted(
            w for w in every if words._is_lyndon(w)), n


def test_lyndon_lie_basis_elements_are_lie():
    for n in (2, 3, 4, 5):
        for e in lyndon_lie_basis(n):
            assert is_lie_element(e)
            assert e.weight() == n


def test_lyndon_lie_basis_independent():
    basis = lyndon_lie_basis(4)
    ws = sorted({w for e in basis for w in e.terms})
    from moulde.linalg import rank
    matrix = [[e.coeff(w) for e in basis] for w in ws]
    assert rank(matrix) == len(basis)


# -- integer word kernels against the NCPoly routes they replaced -------------

def _bracketing_by_recursion(w):
    """The standard bracketing of a Lyndon word through NCPoly products,
    every sub-word bracketed afresh."""
    if len(w) == 1:
        return NCPoly.word(w)
    for i in range(1, len(w)):
        v = w[i:]
        if all(v < v[k:] + v[:k] for k in range(1, len(v))):
            return lie_bracket(_bracketing_by_recursion(w[:i]),
                               _bracketing_by_recursion(v))
    raise ValueError("not a Lyndon word: %r" % w)


def _is_lie_by_dynkin_loop(f):
    """The Dynkin criterion word by word on NCPoly brackets."""
    if f.is_zero():
        return True
    if not f.is_weight_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    n = f.weight()
    if n == 0:
        return False
    out = NCPoly.zero()
    for w, c in f.terms.items():
        bracketed = NCPoly.word(w[-1])
        for ch in reversed(w[:-1]):
            bracketed = lie_bracket(NCPoly.word(ch), bracketed)
        out = out + bracketed.scale(c)
    return out == f.scale(n)


def _substitute_by_products(f, images):
    """The letter substitution word by word on NCPoly products."""
    out = NCPoly.zero()
    for w, c in f.terms.items():
        term = NCPoly.one(c)
        for ch in w:
            term = term * images[ch]
        out = out + term
    return out


def _push_by_blocks(w):
    if "y" not in w:
        return w
    blocks = [len(b) for b in w.split("y")]
    return "y".join("x" * a for a in blocks[-1:] + blocks[:-1])


def test_lyndon_lie_basis_matches_the_recursion():
    for n in range(1, 11):
        assert lyndon_lie_basis(n) == [_bracketing_by_recursion(w)
                                       for w in lyndon_words(n)], n


def test_one_call_brackets_each_lyndon_subword_once(monkeypatch):
    split, seen = words._standard_split, []
    monkeypatch.setattr(words, "_standard_split",
                        lambda w: seen.append(w) or split(w))
    basis = lyndon_lie_basis(9)
    first = list(seen)
    assert len(first) == len(set(first))
    assert all(words._is_lyndon(w) for w in first)
    assert set(lyndon_words(9)) <= set(first)
    # the memo is local to the call: a second call brackets afresh
    seen.clear()
    assert lyndon_lie_basis(9) == basis and seen == first


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def lie_combinations(draw, max_n=6):
    """A rational combination of the weight-n Lyndon brackets, with or
    without one stray weight-n word added."""
    n = draw(st.integers(1, max_n))
    basis = lyndon_lie_basis(n)
    f = NCPoly.zero()
    for e, c in zip(basis, draw(st.lists(rationals, min_size=len(basis),
                                         max_size=len(basis)))):
        f = f + e.scale(c)
    if draw(st.booleans()):
        f = f + NCPoly.word(draw(st.text("xy", min_size=n, max_size=n)),
                            draw(rationals))
    return f


def rational_word_polys(max_len=3, max_terms=3):
    ws = st.text(alphabet="xy", min_size=0, max_size=max_len)
    return st.dictionaries(ws, rationals, max_size=max_terms).map(NCPoly)


@given(lie_combinations())
@settings(max_examples=150, deadline=None)
def test_is_lie_element_matches_the_dynkin_loop(f):
    assert is_lie_element(f) == _is_lie_by_dynkin_loop(f)


def test_is_lie_element_edge_inputs():
    for f, verdict in [(NCPoly.zero(), True), (NCPoly.one(3), False),
                       (NCPoly.one(F(-1, 2)), False), (X.scale(F(2, 3)), True),
                       (NCPoly.word("xx"), False)]:
        assert is_lie_element(f) is _is_lie_by_dynkin_loop(f) is verdict
    for f in [X + NCPoly.word("xy"), NCPoly.one() + lie_bracket(X, Y)]:
        for check in (is_lie_element, _is_lie_by_dynkin_loop):
            with pytest.raises(ValueError, match="weight-homogeneous"):
                check(f)


@given(st.one_of(lie_combinations(max_n=5), rational_word_polys()),
       rational_word_polys(), rational_word_polys())
@settings(max_examples=150, deadline=None)
def test_substitute_letters_matches_the_products(f, gx, gy):
    images = {"x": gx, "y": gy}
    assert words.substitute_letters(f, images) \
        == _substitute_by_products(f, images)


def test_substitute_letters_edge_inputs():
    xy = lie_bracket(X, Y)
    images = {"x": X.scale(F(1, 2)) - NCPoly.one(3), "y": xy}
    for f in [NCPoly.zero(), NCPoly.one(F(5, 7)),
              NCPoly({"": 2, "x": F(1, 3), "yxy": -1}), lie_bracket(X, xy)]:
        assert words.substitute_letters(f, images) \
            == _substitute_by_products(f, images)
    assert words.substitute_letters(xy, {"x": NCPoly.zero(), "y": Y}) \
        == NCPoly.zero()


@given(st.text(alphabet="xy", max_size=9))
@settings(max_examples=100, deadline=None)
def test_push_word_is_the_block_rotation(w):
    assert words.push_word_single(w) == _push_by_blocks(w)


# -- text form ---------------------------------------------------------------

def test_text_roundtrip():
    f = NCPoly({"xxy": F(1), "xyx": F(-2), "": F(5, 3)})
    assert ncpoly_from_text(ncpoly_to_text(f)) == f


@given(word_polys())
@settings(max_examples=50, deadline=None)
def test_text_roundtrip_random(f):
    assert ncpoly_from_text(ncpoly_to_text(f)) == f


def test_text_parse_error():
    # every term after the first needs a sign; a term is COEF * WORD,
    # COEF or WORD, and nothing else is read
    for text in ["1*xz", "x--y", "2x", "x y", "2*", "2 * ", "x+", "1/0"]:
        with pytest.raises(ValueError, match="offset"):
            ncpoly_from_text(text)


def test_text_parse_forms():
    assert ncpoly_from_text("") == ncpoly_from_text("  ") == NCPoly.zero()
    assert ncpoly_from_text("0") == NCPoly.zero()
    assert ncpoly_from_text(" -x + 2 * xy - 1/2*1 + 3") \
        == NCPoly({"x": F(-1), "xy": F(2), "": F(5, 2)})
