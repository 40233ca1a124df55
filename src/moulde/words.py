"""Noncommutative polynomials in x, y and the word-level apparatus.

Words are strings over the alphabet {x, y}; an NCPoly is a finitely
supported rational combination of words, and a TraceVector one of
words up to rotation.  Both are `poly.Combination`s, which own their
clean-up, linear structure, equality and text; NCPoly adds only its
key rule and the concatenation product, and TraceVector only its key
rule (the least rotation).  Weight = total degree (word
length), depth = y-degree.  The module provides the Lie structure,
derivations, the push / trace / divergence machinery, the C-basis of
Lazard elimination (C_i = ad(x)^{i-1}(y)) and a Lyndon-word Lie basis
used to parameterize linear solvers.

The push predicates and `spaces.vkrv_system` walk one enumeration,
`push_classes(m, r)`: the push orbits of the weight-m, depth-r words,
with repetition, one per class.

The word kernels compute on {word: int} dicts over one integer
denominator (`intpoly._ints` in, `intpoly._from_ints` out) and make
one Fraction per output term: the Lyndon brackets (each sub-word
bracketed once per call through the standard factorisation), the
Dynkin right-normed brackets of `is_lie_element` (each suffix once),
and the prefix products that both directions of the C-basis share
(`_prefix_product`).  Every sum of scaled word products is one
`_combination` on integers, with no partial sum built: the letter
substitutions, `from_c_basis`, `apply_derivation`, `linear_combination`
and the vkrv solver (`spaces.solve_vkrv` calls `_combination` on its
brackets, cleared once per solve).  `partner` inverts ad x word by word.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import comb

from .intpoly import _from_ints, _ints
from .poly import Combination, _add_into, compositions


class PartnerNotFound(Exception):
    pass


class NotInCSpan(ValueError):
    pass


def _word_order(w):
    return (len(w), w)


class NCPoly(Combination):
    """Rational combination of words over {x, y}, in (length, word)
    order; scalars enter only its product."""

    __slots__ = ()

    @staticmethod
    def _key(w):
        if not isinstance(w, str) or w.strip("xy"):
            raise ValueError("bad letter in word %r" % (w,))
        return w

    _order = staticmethod(_word_order)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def word(cls, w, c=1):
        return cls({w: c})

    @classmethod
    def one(cls, c=1):
        return cls({"": c})

    # -- basics -------------------------------------------------------
    def weights(self):
        return sorted({len(w) for w in self.terms})

    def depths(self):
        return sorted({w.count("y") for w in self.terms})

    def is_weight_homogeneous(self):
        return len(self.weights()) <= 1

    def weight(self):
        ws = self.weights()
        if not ws:
            raise ValueError("the zero polynomial has no weight")
        if len(ws) != 1:
            raise ValueError("not weight-homogeneous")
        return ws[0]

    def weight_component(self, n):
        return NCPoly({w: c for w, c in self.terms.items() if len(w) == n})

    def depth_component(self, r):
        return NCPoly({w: c for w, c in self.terms.items()
                       if w.count("y") == r})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly._wrap(_add_into({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __str__(self):
        return ncpoly_to_text(self)

    __repr__ = __str__


X = NCPoly.word("x")
Y = NCPoly.word("y")


def lie_bracket(f, g):
    return f * g - g * f


def is_lie_element(f):
    """Dynkin criterion: right-normed bracketing returns n*f for Lie f.

    Runs on the integer numerators of f over the lcm of its
    denominators; the right-normed bracket of each suffix of the words
    of f is built once."""
    if f.is_zero():
        return True
    if not f.is_weight_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    n = f.weight()
    if n == 0:
        return False
    terms, _ = _ints(f.terms)
    suffixes, out = {}, {}
    for w, c in terms.items():
        for u, d in _right_normed_ints(w, suffixes).items():
            out[u] = out.get(u, 0) + c * d
    out = {u: c for u, c in out.items() if c}
    return out == {w: n * c for w, c in terms.items()}


def _bracket_ints(p, q):
    """[p, q] = pq - qp on {word: int} dicts, without zero terms."""
    out = {}
    for u, c in p.items():
        for v, d in q.items():
            out[u + v] = out.get(u + v, 0) + c * d
            out[v + u] = out.get(v + u, 0) - c * d
    return {w: c for w, c in out.items() if c}


def _right_normed_ints(w, memo):
    """[w1, [w2, [..., wn]]] as {word: int}, memoising every suffix of
    the nonempty word w in `memo`."""
    p = memo.get(w)
    if p is None:
        p = memo[w] = ({w: 1} if len(w) == 1 else _bracket_ints(
            {w[0]: 1}, _right_normed_ints(w[1:], memo)))
    return p


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class DerivationPair:
    """D-mode: D_{b,a} with x -> b, y -> a.
    E-mode: E_{a,b} with x -> [x,a], y -> [y,b]."""

    __slots__ = ("mode", "first", "second")

    def __init__(self, mode, first, second):
        if mode not in ("D", "E"):
            raise ValueError("mode must be 'D' or 'E'")
        self.mode = mode
        self.first = first
        self.second = second

    def images(self):
        """(image of x, image of y)."""
        if self.mode == "D":
            return self.first, self.second
        a, b = self.first, self.second
        return lie_bracket(X, a), lie_bracket(Y, b)


def apply_derivation(D, f):
    """Extend the generator images of D as a derivation of the word
    algebra: the sum over the words w of f and each letter w_i of
    (f | w) w_1...w_{i-1} D(w_i) w_{i+1}..., on integers
    (`_combination`; the factor "X" or "Y" is the image of x or y)."""
    images = dict(zip("XY", (_ints(g.terms) for g in D.images())))
    return _combination(
        (((w[:i], ch.upper(), w[i + 1:]), c)
         for w, c in f.terms.items() for i, ch in enumerate(w)),
        lambda a: images.get(a) or ({a: 1}, 1))


def ihara_derivation(b):
    """d_b: x -> 0, y -> [y, b] (D-mode pair)."""
    return DerivationPair("D", NCPoly.zero(), lie_bracket(Y, b))


def poisson_bracket(b, b2):
    """{b, b'} = [b, b'] + d_b(b') - d_{b'}(b)."""
    return (lie_bracket(b, b2)
            + apply_derivation(ihara_derivation(b), b2)
            - apply_derivation(ihara_derivation(b2), b))


# ---------------------------------------------------------------------------
# Decomposition, reversal, push
# ---------------------------------------------------------------------------

def decompose(f):
    """f = c + f_x x + f_y y = c + x f^x + y f^y.

    Returns (c, f_x, f_y, f_up_x, f_up_y) where c is a Fraction."""
    c = f.coeff("")
    f_x, f_y, fux, fuy = {}, {}, {}, {}
    for w, co in f.terms.items():
        if not w:
            continue
        if w[-1] == "x":
            f_x[w[:-1]] = f_x.get(w[:-1], Fraction(0)) + co
        else:
            f_y[w[:-1]] = f_y.get(w[:-1], Fraction(0)) + co
        if w[0] == "x":
            fux[w[1:]] = fux.get(w[1:], Fraction(0)) + co
        else:
            fuy[w[1:]] = fuy.get(w[1:], Fraction(0)) + co
    return c, NCPoly(f_x), NCPoly(f_y), NCPoly(fux), NCPoly(fuy)


def beta(f):
    """Backwards-writing operator: reverse every word."""
    return NCPoly({w[::-1]: c for w, c in f.terms.items()})


def _word_blocks(w):
    """Split x^{a0} y x^{a1} y ... y x^{ar} into the exponent list."""
    blocks = []
    count = 0
    for ch in w:
        if ch == "x":
            count += 1
        else:
            blocks.append(count)
            count = 0
    blocks.append(count)
    return blocks


def push_word_single(w):
    """Move the last x-block to the front: x^{a0} y ... y x^{ar} ->
    x^{ar} y x^{a0} y ... y x^{a(r-1)}."""
    k = w.rfind("y")
    return w if k < 0 else w[k + 1:] + "y" + w[:k]


def push_word(f):
    return NCPoly({push_word_single(w): c for w, c in f.terms.items()})


def push_orbit(w):
    """The list [w, push(w), ..., push^r(w)] with r = depth of w."""
    out = [w]
    for _ in range(w.count("y")):
        out.append(push_word_single(out[-1]))
    return out


def is_push_invariant(f):
    return push_word(f) == f


def push_classes(m, r):
    """The push orbits (with repetition, as `push_orbit` lists them) of
    the words of weight m and depth r, one per class."""
    seen, orbits = set(), []
    for ys in combinations(range(m), r):
        w = "".join("y" if i in ys else "x" for i in range(m))
        if w not in seen:
            orbit = push_orbit(w)
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def is_push_neutral(f):
    """Every push-class sum of every (weight, depth)-homogeneous part
    vanishes; in depth 0 the class is {x^n}, so f has no x^n term."""
    return all(sum(f.coeff(v) for v in orbit) == 0
               for m, r in {(len(w), w.count("y")) for w in f.terms}
               for orbit in push_classes(m, r))


def is_push_constant(f, c=None):
    """Decide push-constance; returns (flag, c), and c is never None
    when the flag is true.

    Per weight-homogeneous f of weight m: no y^m monomial, and every
    class of `push_classes` at each depth 1..m-1 where f has support
    sums to c; a class outside the support sums to 0.  Depths with no
    support are skipped: the fixtures of the source definitions are
    depth-homogeneous and silent on the missing depths.
    """
    if f.is_zero():
        return True, (c if c is not None else Fraction(0))
    if not f.is_weight_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    m = f.weight()
    if f.coeff("y" * m) != 0:
        return False, None
    sums = {sum(f.coeff(v) for v in orbit) for r in f.depths() if 0 < r < m
            for orbit in push_classes(m, r)}
    if c is not None:
        sums.add(Fraction(c))
    if len(sums) > 1:
        return False, None
    return True, (sums.pop() if sums else Fraction(0))


# ---------------------------------------------------------------------------
# Word-level circ properties (via the associated v-coefficient family)
# ---------------------------------------------------------------------------

def _v_family_direct(f):
    """Map each word x^{a1}y...x^{ar}y to the tuple (a1,...,ar).

    Requires every word of f to end in y."""
    fam = {}
    for w, c in f.terms.items():
        if not w or w[-1] != "y":
            raise ValueError("word %r does not end in y" % w)
        blocks = _word_blocks(w)
        a = tuple(blocks[:-1])  # trailing block is empty
        r = len(a)
        fam.setdefault(r, {})[a] = fam.get(r, {}).get(a, Fraction(0)) + c
    return {r: {a: c for a, c in d.items() if c != 0} for r, d in fam.items()}


def _v_family(f):
    """The v-coefficient family of swap(ma(f)), computed on words.

    If all words of f end in y, f is used directly; otherwise the
    reversed y-section g = beta(y * f^y) is used (the two agree on the
    inputs arising in this calculus)."""
    if all(w and w[-1] == "y" for w in f.terms):
        return _v_family_direct(f)
    _, _, _, _, fuy = decompose(f)
    g = beta(Y * fuy)
    return _v_family_direct(g) if not g.is_zero() else {}


def _cyclic_sum_family(d):
    """Accumulate each tuple's coefficient over its cyclic rotations."""
    out = {}
    for a, c in d.items():
        r = len(a)
        for k in range(r):
            rot = a[k:] + a[:k]
            out[rot] = out.get(rot, Fraction(0)) + c
    return {a: c for a, c in out.items() if c != 0}


def is_circ_neutral_poly(f):
    """All cyclic sums of the associated v-family vanish in sizes >= 2."""
    for n in f.weights():
        fam = _v_family(f.weight_component(n))
        for r, d in fam.items():
            if r < 2:
                continue
            if _cyclic_sum_family(d):
                return False
    return True


def is_circ_constant_poly(f):
    """Decide circ-constance of a weight-homogeneous polynomial.

    With c = (f | x^{n-1} y): the v-family must be c*v1^{n-1} in size 1
    and have cyclic sums equal to c times the all-monomials sum in sizes
    2..n-1 (size n is the y^n coefficient, which the definition adjusts
    freely).  Returns (flag, c)."""
    if f.is_zero():
        return True, Fraction(0)
    if not f.is_weight_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    n = f.weight()
    c = f.coeff("x" * (n - 1) + "y")
    fam = _v_family(f)
    # size 1: exactly c * v1^{n-1}
    d1 = fam.get(1, {})
    if d1 != ({(n - 1,): c} if c != 0 else {}):
        return False, None
    for r in range(2, n):
        d = fam.get(r, {})
        sums = _cyclic_sum_family(d)
        # target: every tuple of size r and total n - r has cyclic sum c
        target = {}
        for a in compositions(n - r, r):
            if c != 0:
                target[a] = c
        if sums != target:
            return False, None
    return True, c


# ---------------------------------------------------------------------------
# Trace space and divergence
# ---------------------------------------------------------------------------

class TraceVector(Combination):
    """Words modulo cyclic rotation: each key is stored as the
    lexicographically least rotation of its class, so rotations of one
    word merge."""

    __slots__ = ()

    @staticmethod
    def _key(w):
        w = NCPoly._key(w)
        return min((w[k:] + w[:k] for k in range(len(w))), default=w)

    _order = staticmethod(_word_order)

    def __repr__(self):
        if not self.terms:
            return "tr(0)"
        return " + ".join("%s*[%s]" % (c, w) for w, c in self.sorted_terms())


def trace_project(f):
    return TraceVector(f.terms)


def divergence(E):
    """div(E_{a,b}) = tr(a_x x + b_y y) for an E-mode pair."""
    if E.mode != "E":
        raise ValueError("divergence is defined on E-mode pairs")
    a, b = E.first, E.second
    _, a_x, _, _, _ = decompose(a)
    _, _, b_y, _, _ = decompose(b)
    return trace_project(a_x * X + b_y * Y)


# ---------------------------------------------------------------------------
# Partner solving and the angle bracket
# ---------------------------------------------------------------------------

def partner(b):
    """The unique Lie a with [x, a] + [y, b] = 0 (exists iff b is
    push-invariant).  Each word x^i u of c = -[y, b], u not starting
    with x, adds c(x^i u) to a at x^(i-j-1) u x^j for j < i: the one
    solution with no x^n term, which a Lie element of weight n >= 2
    lacks.  No linear system is solved; [x, a] = c and a Lie are checked."""
    if not b.is_weight_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    c = -lie_bracket(Y, b)
    a = NCPoly._wrap(_add_into({}, (
        (v[j + 1:] + "x" * j, k) for v, k in c.terms.items()
        for j in range(len(v) - len(v.lstrip("x"))))))
    if lie_bracket(X, a) != c or not is_lie_element(a):
        raise PartnerNotFound("no partner: input is not push-invariant")
    return a


def oder_pair(b):
    """The D-mode pair (b, a) annihilating [x, y]: a = -partner(b)."""
    return DerivationPair("D", b, -partner(b))


def angle_bracket(b, b2):
    """<b, b'> = D_{b',a'}(b) - D_{b,a}(b') with the partners that make
    both derivations annihilate [x, y].

    This is the x-image of the derivation commutator [D_{b'}, D_b];
    the order is normalized so that ma intertwines the bracket with the
    Dari bracket on moulds."""
    D1 = oder_pair(b)
    D2 = oder_pair(b2)
    return apply_derivation(D2, b) - apply_derivation(D1, b2)


# ---------------------------------------------------------------------------
# Letter substitution and the nu twist
# ---------------------------------------------------------------------------

def substitute_letters(f, images):
    """The algebra endomorphism sending each letter ch to images[ch],
    applied to f.  Each image is cleared to integers once, and each
    distinct prefix image is built once (`_combination`)."""
    return _combination(f.terms.items(),
                        {ch: _ints(g.terms)
                         for ch, g in images.items()}.__getitem__)


def _combination(pairs, factor):
    """sum k_a factor(a_1) factor(a_2) ... over the pairs (a, k_a), each
    factor a pair ({word: int}, den) and each k_a a Fraction.  The
    products come from `_prefix_product` and are summed on integers over
    one common denominator, with one Fraction per word of the result."""
    memo, products, scales = {}, [], {}
    for i, (a, k) in enumerate(pairs):
        p, d = _prefix_product(a, memo, factor)
        products.append(p)
        scales[i] = k / d
    scales, den = _ints(scales)
    out = {}
    for i, k in scales.items():
        for u, c in products[i].items():
            out[u] = out.get(u, 0) + k * c
    return NCPoly._wrap(_from_ints(out, den))


def linear_combination(polys, coeffs):
    """sum c_i polys[i] for word polynomials and rational coefficients,
    on integers (`_combination`): no partial sum is built."""
    return _combination(
        (((i,), Fraction(c)) for i, c in enumerate(coeffs) if c),
        lambda i: _ints(polys[i].terms))


def _prefix_product(a, memo, factor):
    """factor(a_1) factor(a_2) ... as ({word: int}, den), extending the
    longest nonempty prefix of a in `memo` and memoising every longer
    prefix there; a first factor is its own product, as it is."""
    j = len(a)
    while j > 1 and a[:j] not in memo:
        j -= 1
    p, d = memo.get(a[:j]) or memo.setdefault(
        a[:j], factor(a[0]) if a else ({"": 1}, 1))
    for j in range(j, len(a)):
        q, e = factor(a[j])
        acc = {u + v: c * b for u, c in p.items() for v, b in q.items()}
        if len(acc) < len(p) * len(q):
            # two products share a word (factors of mixed word lengths)
            acc = {}
            for u, c in p.items():
                for v, b in q.items():
                    acc[u + v] = acc.get(u + v, 0) + c * b
        p, d = memo[a[:j + 1]] = acc, d * e
    return p, d


def nu_twist(f):
    """Substitute x -> -x-y, y -> y."""
    return substitute_letters(f, {"x": -(X + Y), "y": Y})


# ---------------------------------------------------------------------------
# C-basis (Lazard elimination)
# ---------------------------------------------------------------------------

def c_poly(i):
    """C_i = ad(x)^{i-1}(y)."""
    return NCPoly._wrap(_from_ints(*_c_ints(i)))


def c_monomial(a):
    """C_{a1} C_{a2} ... C_{ar} (empty tuple -> 1)."""
    return from_c_basis([(a, 1)])


def from_c_basis(coeffs):
    """sum k_a C_{a1}...C_{ar} over the pairs (a, k_a) of coeffs, with
    the integer C-monomials of `_combination`."""
    return _combination([(tuple(a), Fraction(k)) for a, k in coeffs],
                        _c_ints)


def _c_ints(i):
    """C_i = sum_k (-1)^k C(i-1, k) x^(i-1-k) y x^k on integers, as the
    pair ({word: int}, 1)."""
    if i < 1:
        raise ValueError("C_i requires i >= 1")
    n = i - 1
    return {"x" * (n - k) + "y" + "x" * k: (-1) ** k * comb(n, k)
            for k in range(n + 1)}, 1


def to_c_basis(f):
    """Coefficients k_a with f = sum k_a C_{a1}...C_{ar}.

    Triangular elimination on the lexicographically least word (x < y),
    which for a C-span element always ends in y (or is the empty word).
    Raises NotInCSpan otherwise.  The C-monomials are integral, with
    coefficient 1 on their least word, so the elimination runs on the
    integer numerators of f over the lcm of its denominators and makes
    one Fraction per returned coefficient."""
    rem, den = _ints(f.terms)
    # integer C-monomials of this call, each from its longest prefix
    monomials = {}
    coeffs = []
    while rem:
        w = min(rem)
        k = rem[w]
        if w and w[-1] != "y":
            raise NotInCSpan("leading word %r not of C-monomial form" % w)
        a = tuple(e + 1 for e in _word_blocks(w)[:-1])
        coeffs.append((a, Fraction(k, den)))
        for u, c in _prefix_product(a, monomials, _c_ints)[0].items():
            left = rem.get(u, 0) - k * c
            if left:
                rem[u] = left
            else:
                del rem[u]
    coeffs.sort(key=lambda t: (len(t[0]), t[0]))
    return coeffs


# ---------------------------------------------------------------------------
# Lyndon basis
# ---------------------------------------------------------------------------

def lyndon_words(n):
    """All Lyndon words of length n over x < y, sorted (Duval's order)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append("".join("xy"[i] for i in w))
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()
    return out


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def _standard_split(w):
    """len(u) for the standard factorisation w = uv of a Lyndon word of
    length >= 2: v is its longest proper Lyndon suffix."""
    return next(i for i in range(1, len(w)) if _is_lyndon(w[i:]))


def _bracketed_ints(w, memo):
    """The standard bracketing P(w) of the Lyndon word w as {word: int}:
    P(w) = [P(u), P(v)] for w = uv standard, each bracket of a sub-word
    memoised in `memo` (which holds the letters)."""
    p = memo.get(w)
    if p is None:
        i = _standard_split(w)
        p = memo[w] = _bracket_ints(_bracketed_ints(w[:i], memo),
                                    _bracketed_ints(w[i:], memo))
    return p


def _lyndon_brackets(ws):
    """The standard bracketings of the Lyndon words ws, each sub-word
    bracketed once on integers and each result wrapped once."""
    memo = {"x": {"x": 1}, "y": {"y": 1}}
    return [NCPoly._wrap(_from_ints(_bracketed_ints(w, memo))) for w in ws]


def lyndon_lie_basis(n):
    """Basis of the weight-n part of the free Lie algebra on x, y."""
    return _lyndon_brackets(lyndon_words(n))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def ncpoly_to_text(f):
    """Render as e.g. "1*xxy - 2*xyx + 1*yxx"."""
    return f._signed_text(lambda w, c: "%s*%s" % (c, w or "1"))


_COEF, _WORD = r"(\d+(?:/\d+)?)", r"([xy]+|1)"
_TERM = re.compile(r"\s*([+-]?)\s*(?:%s\s*\*\s*%s|%s|%s)\s*"
                   % (_COEF, _WORD, _COEF, _WORD))


def ncpoly_from_text(s):
    """Parse the text form: terms COEF*WORD, COEF or WORD, with COEF an
    integer or a fraction n/m and WORD a word in x, y or 1 (the empty
    word), and a sign before every term after the first.  Empty text is
    0; anything else raises ValueError with an offset."""
    terms, i, end = {}, 0, len(s.rstrip())
    while i < end:
        m = _TERM.match(s, i)
        if m is None or (i and not m.group(1)):
            raise ValueError("bad term at offset %d" % i)
        sign, coeff, word, const, bare = m.groups()
        try:
            c = Fraction(coeff or const or 1)
        except ZeroDivisionError:
            raise ValueError("zero denominator at offset %d" % i) from None
        w = (word or bare or "").replace("1", "")
        terms[w] = terms.get(w, Fraction(0)) + (-c if sign == "-" else c)
        i = m.end()
    return NCPoly(terms)
