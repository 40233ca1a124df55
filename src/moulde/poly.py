"""Exact sparse multivariate polynomials and rational fractions.

All coefficients are `fractions.Fraction`; there is no floating point
anywhere in this package.  Polynomials are stored as a dict mapping
exponent tuples (one entry per variable) to nonzero Fraction
coefficients.

That is a contract on values, not on the arithmetic inside a kernel.
The linear substitution (`MultiPoly.substitute_linear`) and the
`RatFrac` sum, product and cancellation clear the coefficient
denominators once, run on Python ints over one common denominator, and
make one Fraction per output term:

* the common denominator (`common_denominator`, `RatFrac.sum`) brings
  each integer numerator over it by multiplying it by the factors its
  own denominator lacks (`_times_key`), and a sum adds the results in
  one {exponent: int} dict;
* the product (`RatFrac.__mul__`) first divides each integer
  numerator by the keys that only the other denominator has, then
  multiplies the two (`_int_mul`); it never cancels over the product;
* the cancellation divides the integer numerator by the factor keys
  themselves (`_int_divide`; `exact_poly_divide` wraps the same walk
  for MultiPoly arguments).

Going through Fraction at every product instead costs a gcd per
operation.

In this calculus every denominator that ever arises is a product of
homogeneous linear forms such as u_i, u_i+...+u_j or v_i-v_j, and
`RatFrac` is built on that fact.  Its denominator is a sorted multiset
of factor keys, `den_keys`:

* Each factor is normalised to content 1 (coprime integer
  coefficients) with a positive grlex-leading coefficient; the scalar
  goes into the numerator.  A linear form's grlex-leading coefficient
  is that of its last variable.
* A homogeneous linear factor c_1 x1 + ... + c_n xn is keyed by its
  primitive integer tuple (c_1, ..., c_n).  Multiplying by it works term
  by term, and dividing by it is a synthetic division in one pivot
  variable, on integers (`_int_divide`).
* A fraction is always reduced: every factor is tried once against the
  numerator (a numerator that does not vanish at one point of the
  factor's hyperplane is refused without a division), and sums go over
  one common denominator that is cancelled once.  Linear forms are
  prime, so a reduced fraction is canonical: equal fractions
  have equal keys and numerators, and byte-identical text, and
  `RatFrac.__eq__` compares just those, with no expansion and no
  cross-multiplication.
* A linear form becomes its key once, where it enters
  (`RatFrac(num, factors)`, `exact_poly_divide`, a JSON `den`), and is
  only a key from there on.  A substitution maps each key k on integers
  to sum k_i row_i over the images' integer coefficient rows, and
  cancels only when it is not injective (dependent, zero or non-linear
  images).  A renaming (distinct variables as images) is injective, and
  its numerator is an exponent shuffle (`MultiPoly.permute_variables`).

Contract: every non-constant factor is a homogeneous linear form.
`RatFrac(num, factors)`, `exact_poly_divide` and a JSON `den` (split by
`_linear_factor_split`) raise `ValueError` naming any other factor;
`RatFrac.substitute_linear` raises it for a key that touches an image
that is not a homogeneous linear form, and `ZeroDivisionError` for a
key whose image vanishes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
from operator import add, itemgetter, sub


def _frac(c):
    """Coerce ints / strings / Fractions to Fraction."""
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


def grlex_key(expv):
    """Graded lexicographic sort key for an exponent vector."""
    return (sum(expv), tuple(-e for e in expv))


class MultiPoly:
    """Sparse multivariate polynomial over Q in variables x1..x{arity}."""

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        if terms:
            for expv, c in terms.items():
                c = _frac(c)
                if c != 0:
                    t = tuple(expv)
                    if len(t) != arity:
                        raise ValueError("exponent vector length != arity")
                    clean[t] = clean.get(t, Fraction(0)) + c
                    if clean[t] == 0:
                        del clean[t]
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def const(cls, arity, c):
        c = _frac(c)
        if c == 0:
            return cls.zero(arity)
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, i, arity):
        """The variable x_i (1-based index)."""
        if not (1 <= i <= arity):
            raise ValueError("variable index out of range")
        expv = tuple(1 if j == i - 1 else 0 for j in range(arity))
        return cls(arity, {expv: Fraction(1)})

    @classmethod
    def monomial(cls, expv, c=1):
        return cls(len(expv), {tuple(expv): _frac(c)})

    # -- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.arity, Fraction(0))

    def total_degree(self):
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, expv):
        return self.terms.get(tuple(expv), Fraction(0))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return _poly(self.arity, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return _poly(self.arity, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = _frac(c)
        if c == 0:
            return MultiPoly.zero(self.arity)
        if c == 1:
            return self
        return _poly(self.arity, {e: cc * c for e, cc in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.arity, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    # -- structural helpers -------------------------------------------
    def sorted_terms(self):
        """Terms in graded-lex order (deterministic iteration)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def substitute_linear(self, images):
        """Replace variable i by images[i] (polynomials of a common arity).
        When the images are distinct variables, this is a renaming and
        goes to `permute_variables`."""
        if len(images) != self.arity:
            raise ValueError("need one image per variable")
        tgt = images[0].arity if images else 0
        perm = _renaming(images)
        if perm is not None:
            return self.permute_variables(perm, tgt)
        # image i is g_i / d_i with g_i integral; a term c x^e goes to
        # c / prod d_i^e_i times prod g_i^e_i, on integers throughout
        forms, dens = zip(*map(_ints, images))
        weights = []
        for expv, c in self.terms.items():
            den = c.denominator
            for d, e in zip(dens, expv):
                if e and d != 1:
                    den *= d ** e
            weights.append((expv, c.numerator, den))
        common = math.lcm(*(den for _, _, den in weights))
        powers = [{1: g} for g in forms]
        one = {(0,) * tgt: 1}
        acc = {}
        for expv, num, den in weights:
            mono = None
            for i, e in enumerate(expv):
                if e:
                    p = _int_power(powers[i], forms[i], e)
                    mono = p if mono is None else _int_mul(mono, p)
            k = num * (common // den)
            for te, tc in (one if mono is None else mono).items():
                acc[te] = acc.get(te, 0) + k * tc
        return _poly(tgt, {e: Fraction(v, common)
                           for e, v in acc.items() if v})

    def permute_variables(self, perm, arity=None):
        """Rename x_i -> x_{perm[i-1]} among x1..x{arity} (default: the
        same variables), for distinct 1-based indices perm: a
        permutation, or an injection into more variables.  Only the
        exponent tuples are shuffled."""
        if arity is None:
            arity = self.arity
        if (len(perm) != self.arity or len(set(perm)) < len(perm)
                or not all(0 < p <= arity for p in perm)):
            raise ValueError("need distinct target variables, one per "
                             "variable")
        # target variable j reads position src[j] of e + (0,)
        src = [self.arity] * arity
        for i, p in enumerate(perm):
            src[p - 1] = i
        get = (itemgetter(*src) if arity > 1
               else lambda e: tuple(e[j] for j in src))
        return _poly(arity, {get(e + (0,)): c for e, c in self.terms.items()})

    def __str__(self):
        return poly_to_text(self)

    __repr__ = __str__


def _poly(arity, terms):
    """MultiPoly over a clean {exponent tuple: nonzero Fraction} dict."""
    out = MultiPoly.__new__(MultiPoly)
    out.arity = arity
    out.terms = terms
    out._hash = None
    return out


def _int_mul(a, b):
    """Product of two {exponent tuple: int} polynomials."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _int_power(powers, g, e):
    """g^e from `powers`, a {k: g^k} cache holding k = 1..max(powers)
    that is filled upwards: multiplying by a linear form is cheaper than
    squaring its power."""
    p = powers.get(e)
    if p is None:
        k = max(powers)
        p = powers[k]
        while k < e:
            k += 1
            p = powers[k] = _int_mul(p, g)
    return p


def _ints(p):
    """(terms, den): p = terms / den, with integer terms over the lcm of
    p's coefficient denominators."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in p.terms.items()}, den


def _from_ints(arity, terms, den):
    """The MultiPoly terms / den, one Fraction per term, for integer
    terms that hold no zero and an integer den."""
    return _poly(arity, {e: Fraction(v, den) for e, v in terms.items()})


def exact_poly_divide(num, den):
    """Return q with num = q*den exactly, or None if not divisible.

    `den` must be a homogeneous linear form; the division is the integer
    synthetic division of `_int_divide` against its key."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.arity != den.arity:
        raise ValueError("arity mismatch")
    (row,), d = _linear_rows((den,))
    if row is None:
        raise ValueError("not a homogeneous linear form: %s" % den)
    if not num.terms:
        return num
    g, key = _normalize_linear(row)
    terms, n = _ints(num)
    q = _int_divide(terms, key)
    if q is None:
        return None
    # num = q * key / n and den = g * key / d
    return _poly(num.arity, {e: Fraction(c * d, n * g) for e, c in q.items()})


def _linear_rows(polys):
    """(rows, d): polys[i] = sum rows[i][j] x_{j+1} / d, with integer rows
    over one common denominator d; rows[i] is None when polys[i] is
    neither zero nor a homogeneous linear form."""
    d = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    rows = []
    for p in polys:
        row = [0] * p.arity
        for e, c in p.terms.items():
            if sum(e) != 1:
                row = None
                break
            row[e.index(1)] = c.numerator * (d // c.denominator)
        rows.append(row)
    return rows, d


@lru_cache(maxsize=None)
def _unit(i, arity):
    """Exponent tuple of x_{i+1} in `arity` variables."""
    return tuple(1 if j == i else 0 for j in range(arity))


def _int_divide(terms, key):
    """q with terms = q * g for the factor g of `key`, on integers, or
    None when g does not divide `terms`, an {exponent tuple: int}
    polynomial with no zero coefficient.

    A multiple of g vanishes on the hyperplane g = 0, so terms that do
    not vanish at one integer point of it are refused at once; most
    tries of a cancellation end there.  Otherwise this is a synthetic
    division in one pivot variable x = x_p: write g = a x + rest and
    terms = sum_k x^k N_k with N_k free of x; the quotient's parts are
    Q_{k-1} = (N_k - rest Q_k) / a, walked down once from the top pivot
    degree.  The key is primitive, so by Gauss's lemma an exact quotient
    of an integral polynomial is integral: the walk stops at the first
    coefficient that a does not divide, and g divides exactly when
    nothing is left in pivot degree 0."""
    if not terms:
        return terms
    arity = len(key)
    p = max((i for i, c in enumerate(key) if c),
            key=lambda i: (abs(key[i]) == 1, i))
    a = key[p]
    # x_j = a (j + 2) off the pivot, and x_p solves g = 0
    point = [a * (j + 2) for j in range(arity)]
    point[p] = -sum(c * (j + 2) for j, c in enumerate(key) if j != p)
    if sum(v * math.prod(map(pow, point, e)) for e, v in terms.items()):
        return None
    down = _unit(p, arity)
    # the term rest * (c/a) x^(e - down) lands on e - down + unit_j
    rest = [(tuple(u - d for u, d in zip(_unit(j, arity), down)), -c)
            for j, c in enumerate(key) if c and j != p]
    buckets = {}
    for e, c in terms.items():
        buckets.setdefault(e[p], {})[e] = c
    q = {}
    for k in range(max(buckets), 0, -1):
        upper = buckets.get(k)
        if not upper:
            continue
        lower = buckets.setdefault(k - 1, {})
        for e, c in upper.items():
            if a == 1:
                qc = c
            else:
                qc, r = divmod(c, a)
                if r:
                    return None
            q[tuple(map(sub, e, down))] = qc
            for shift, c_neg in rest:
                te = tuple(map(add, e, shift))
                s = lower.get(te)
                if s is None:
                    lower[te] = qc * c_neg
                else:
                    s += qc * c_neg
                    if s:
                        lower[te] = s
                    else:
                        del lower[te]
    if buckets.get(0):
        return None
    return q


def compositions(total, parts):
    """Tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_sum(r, d):
    """Sum of all monomials of total degree d in r variables, coeff 1."""
    if r < 1:
        raise ValueError("need at least one variable")
    return MultiPoly(r, {e: Fraction(1) for e in compositions(d, r)})


# ---------------------------------------------------------------------------
# Rational fractions
# ---------------------------------------------------------------------------

class RatFrac:
    """Quotient of polynomials; denominator stored as a factor multiset.

    `den_keys` is the sorted multiset of factor keys (see the module
    docstring), and the fraction is always reduced: no factor of the
    denominator divides the numerator.
    """

    __slots__ = ("num", "den_keys")

    def __init__(self, num, den_factors=()):
        if isinstance(num, (int, Fraction)):
            raise TypeError("wrap scalars via RatFrac.const")
        self.num, self.den_keys = _divided(num, *_factor_keys(den_factors))

    @classmethod
    def _make(cls, num, den_keys):
        """Wrap a numerator and sorted normalised keys as they are."""
        out = cls.__new__(cls)
        out.num = num
        out.den_keys = den_keys if not num.is_zero() else ()
        return out

    # -- constructors -------------------------------------------------
    @classmethod
    def from_poly(cls, p):
        return cls._make(p, ())

    @classmethod
    def const(cls, arity, c):
        return cls._make(MultiPoly.const(arity, c), ())

    @classmethod
    def zero(cls, arity):
        return cls._make(MultiPoly.zero(arity), ())

    @classmethod
    def sum(cls, fracs, arity):
        """Sum of `fracs` over one common denominator, cancelled once."""
        if any(f.arity != arity for f in fracs):
            raise ValueError("arity mismatch")
        # numerators over the same denominator add up before lifting
        den = _coefficient_lcm(fracs)
        groups = {}
        for f in fracs:
            acc = groups.setdefault(f.den_keys, {})
            for e, c in f.num.terms.items():
                acc[e] = acc.get(e, 0) + c.numerator * (den // c.denominator)
        keys, nums = _lifted(
            (k, {e: v for e, v in terms.items() if v})
            for k, terms in groups.items())
        total = {}
        for terms in nums:
            for e, v in terms.items():
                total[e] = total.get(e, 0) + v
        return cls._make(*_reduced(
            arity, {e: v for e, v in total.items() if v}, den, keys))

    # -- views --------------------------------------------------------
    @property
    def arity(self):
        return self.num.arity

    @property
    def den(self):
        arity = self.num.arity
        terms = {(0,) * arity: 1}
        for k in self.den_keys:
            terms = _times_key(terms, k)
        return _from_ints(arity, terms, 1)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not self.den_keys

    def as_poly(self):
        if self.den_keys:
            raise ValueError("not a polynomial: " + str(self))
        return self.num

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFrac.const(self.arity, other)
        if isinstance(other, MultiPoly):
            return RatFrac.from_poly(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return RatFrac.sum((self, other), self.arity)

    __radd__ = __add__

    def __neg__(self):
        return RatFrac._make(-self.num, self.den_keys)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        # both factors are reduced and every key is prime: a key of one
        # denominator can cancel only against the other numerator, and a
        # key in both denominators divides neither numerator
        a, da = _ints(self.num)
        b, db = _ints(other.num)
        own_a, own_b = set(self.den_keys), set(other.den_keys)
        b, left_a = _cancelled(b, [k for k in self.den_keys
                                   if k not in own_b])
        a, left_b = _cancelled(a, [k for k in other.den_keys
                                   if k not in own_a])
        shared = [k for k in self.den_keys + other.den_keys
                  if k in own_a and k in own_b]
        return RatFrac._make(
            _from_ints(self.arity, _int_mul(a, b), da * db),
            tuple(sorted(left_a + left_b + shared)))

    __rmul__ = __mul__

    def scale(self, c):
        return RatFrac._make(self.num.scale(c), self.den_keys)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFrac):
            return NotImplemented
        return self.den_keys == other.den_keys and self.num == other.num

    def __hash__(self):
        raise TypeError("RatFrac is unhashable (equality is semantic)")

    def substitute_linear(self, images):
        """Substitute each variable by a polynomial image: one key
        mapping for every substitution (see the module docstring).  An
        injective substitution, with independent rows, maps coprime
        polynomials to coprime ones and distinct linear factors to
        distinct ones, so its image needs normalising but no cancelling."""
        num = self.num.substitute_linear(images)
        if not self.den_keys:
            return RatFrac._make(num, ())
        rows, d = _linear_rows(images)
        scale, keys = 1, []
        for k in self.den_keys:
            form = [0] * num.arity
            for c, row in zip(k, rows):
                if c:
                    if row is None:
                        raise ValueError("denominator factor %s does not map "
                                         "to a homogeneous linear form"
                                         % (k,))
                    for j, x in enumerate(row):
                        form[j] += c * x
            if not any(form):
                raise ZeroDivisionError("zero denominator factor")
            g, key = _normalize_linear(form)
            scale *= g
            keys.append(key)
        scale = Fraction(scale, d ** len(keys))
        keys = tuple(sorted(keys))
        if _independent_rows(rows):
            return RatFrac._make(num.scale(1 / scale), keys)
        return RatFrac._make(*_divided(num, scale, keys))

    def __str__(self):
        if not self.den_keys:
            return "(" + poly_to_text(self.num) + ")"
        return "(" + poly_to_text(self.num) + ") / (" + poly_to_text(self.den) + ")"

    __repr__ = __str__


def common_denominator(fracs):
    """(keys, numerators): the least common multiple of the denominators
    of `fracs`, as sorted factor keys, and each numerator brought over
    it.  Nothing is cancelled."""
    den = _coefficient_lcm(fracs)
    keys, nums = _lifted(
        (f.den_keys, {e: c.numerator * (den // c.denominator)
                      for e, c in f.num.terms.items()})
        for f in fracs)
    return keys, [_from_ints(f.arity, terms, den)
                  for f, terms in zip(fracs, nums)]


def _coefficient_lcm(fracs):
    """The lcm of the coefficient denominators of the fracs' numerators."""
    return math.lcm(*(c.denominator for f in fracs
                      for c in f.num.terms.values()))


def _lifted(parts):
    """(keys, numerators) for (den_keys, integer terms) pairs: the lcm of
    the denominators of the nonzero numerators, as sorted factor keys,
    and each numerator multiplied on integers by the factors its own
    denominator lacks."""
    parts = list(parts)
    need, counts = {}, []
    for den_keys, terms in parts:
        own = {}
        for k in (den_keys if terms else ()):
            own[k] = own.get(k, 0) + 1
        counts.append(own)
        for k, m in own.items():
            if m > need.get(k, 0):
                need[k] = m
    keys = tuple(sorted(k for k, m in need.items() for _ in range(m)))
    nums = []
    for (_, terms), own in zip(parts, counts):
        if terms:
            for k, m in need.items():
                for _ in range(m - own.get(k, 0)):
                    terms = _times_key(terms, k)
        nums.append(terms)
    return keys, nums


# -- factor keys ------------------------------------------------------------

def _factor_keys(factors):
    """(c, keys): the product of `factors` is c times the product of the
    factors of the sorted `keys`; constant factors go into c."""
    scale, keys = Fraction(1), []
    for f in factors:
        if f.is_zero():
            raise ZeroDivisionError("zero denominator factor")
        if f.is_constant():
            scale *= f.constant_value()
            continue
        (row,), d = _linear_rows((f,))
        if row is None:
            raise ValueError("denominator factor is not a homogeneous "
                             "linear form: %s" % f)
        g, key = _normalize_linear(row)
        scale *= Fraction(g, d)
        keys.append(key)
    return scale, tuple(sorted(keys))


def _normalize_linear(form):
    """(g, key) for the nonzero integer linear form sum form[i] x_{i+1}
    = g * (factor of key), where key holds coprime integers whose last
    nonzero one (the grlex-leading coefficient of a linear form) is
    positive."""
    g = math.gcd(*form)
    if next(x for x in reversed(form) if x) < 0:
        g = -g
    return g, tuple(x // g for x in form)


def _times_key(terms, key):
    """The {exponent tuple: int} polynomial `terms` times the factor of
    `key`: each term shifts up by one in every variable of the key."""
    units = [(i, c) for i, c in enumerate(key) if c]
    out = {}
    for e, v in terms.items():
        for i, c in units:
            te = list(e)
            te[i] += 1
            te = tuple(te)
            out[te] = out.get(te, 0) + v * c
    return {e: v for e, v in out.items() if v}


def _divided(num, scale, keys):
    """(num', keys'): num / (scale times the factors of the sorted keys),
    reduced."""
    terms, den = _ints(num)
    scale *= den  # num / scale = terms / (scale * den)
    return _reduced(
        num.arity, {e: v * scale.denominator for e, v in terms.items()},
        scale.numerator, keys)


def _reduced(arity, terms, den, keys):
    """(num, left): the numerator terms / den, integer terms without a
    zero, divided on integers by each factor of `keys` that divides it;
    `left` lists the factors that did not divide."""
    if not terms:
        return _poly(arity, {}), ()
    terms, left = _cancelled(terms, keys)
    return _from_ints(arity, terms, den), tuple(left)


def _cancelled(terms, keys):
    """(terms', left): the {exponent tuple: int} polynomial `terms`
    divided by each factor of the sorted `keys` that divides it, and the
    list of the factors that did not divide."""
    left = []
    failed = None
    for k in keys:
        if k == failed:
            left.append(k)
            continue
        q = _int_divide(terms, k)
        if q is None:
            left.append(k)
            failed = k
        else:
            terms = q
    return terms, left


def _renaming(images):
    """The 1-based indices of the images when they are distinct
    variables with coefficient 1, else None."""
    perm = []
    for x in images:
        if len(x.terms) != 1:
            return None
        (e, c), = x.terms.items()
        if c != 1 or sum(e) != 1:
            return None
        perm.append(e.index(1) + 1)
    return perm if len(set(perm)) == len(perm) else None


def _independent_rows(rows):
    """Whether the integer rows (None for no row) are linearly
    independent: a fraction-free elimination, in which each later row
    becomes a * row - b * pivot row and stays integral."""
    if None in rows:
        return False
    rows = [list(row) for row in rows]
    for i, row in enumerate(rows):
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return False
        a = row[col]
        for other in rows[i + 1:]:
            b = other[col]
            if b:
                other[:] = [a * y - b * x for x, y in zip(row, other)]
    return True


def _linear_factor_split(p):
    """(c, keys) with the nonzero polynomial p equal to c times the
    factors of the sorted keys.  Linear factors are split off by trial
    division over `_linear_candidates`; what is left must be a constant
    or one more homogeneous linear form (`ValueError` naming it
    otherwise)."""
    arity = p.arity
    terms, den = _ints(p)
    found = []
    while any(map(any, terms)):  # not constant
        for cand in _linear_candidates(terms, arity):
            q = _int_divide(terms, cand)
            if q is not None:
                found.append(cand)
                terms = q
                break
        else:
            break
    scale, keys = _factor_keys((_from_ints(arity, terms, den),))
    for cand in found:
        g, key = _normalize_linear(cand)
        scale *= g
        keys += (key,)
    return scale, tuple(sorted(keys))


def _linear_candidates(terms, arity):
    """Candidate linear divisors of the {exponent tuple: int} polynomial
    `terms`, as coefficient tuples over the variables present in it: each
    x_i, each x_i - x_j with i < j, and the contiguous sums (covering
    u_i + ... + u_j)."""
    used = [i for i in range(arity) if any(e[i] for e in terms)]
    for i in used:
        yield _unit(i, arity)
    for i in used:
        for j in used:
            if i < j:
                yield tuple(map(sub, _unit(i, arity), _unit(j, arity)))
    for a in range(len(used)):
        for b in range(a + 1, len(used)):
            yield tuple(int(i in used[a:b + 1]) for i in range(arity))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def poly_to_text(p):
    """Render as e.g. "1 * x1^2 x2 - 1/3 * x2^3"; "0" for zero."""
    if p.is_zero():
        return "0"
    parts = []
    for expv, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(expv, 1):
            if e == 1:
                factors.append("x%d" % i)
            elif e > 1:
                factors.append("x%d^%d" % (i, e))
        body = " ".join(factors)
        mag = abs(c)
        cs = str(mag)
        term = cs + (" * " + body if body else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)
