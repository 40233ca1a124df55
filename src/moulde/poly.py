"""Exact sparse multivariate polynomials and rational fractions.

Every coefficient a caller sees is a `fractions.Fraction`; there is no
floating point anywhere in this package.  A `MultiPoly` is a
`Combination`: a dict from keys, here exponent tuples (one entry per
variable), to nonzero Fraction coefficients.  `Combination` owns that
format for `MultiPoly`, `words.NCPoly` and `words.TraceVector` alike:
the constructor's clean-up, `+`, `-`, `scale`, `==`, the hash and the
signed text; each class adds its key rule and its own product.  Such
a dict goes to integers over the lcm of its denominators, and back,
only through `intpoly._ints` and `intpoly._from_ints`.

A `RatFrac` stores what its kernels compute: integer terms, one
positive integer `denom` coprime to them, and the factor keys below.
Its `num` and `den` are views that build Fraction polynomials on
demand.  A Fraction is built only at the edges: MultiPoly inputs
(`RatFrac.from_poly`, `RatFrac(num, factors)`, a JSON mould), those
views, `exact_poly_divide` and `_linear_factor_split`.  The linear
substitution (`substitute`), the renaming sums (`renaming_sums`) and
the `RatFrac` sum, product and cancellation run on Python ints:

* `substitute` takes a list of values and builds each monomial's
  image once for all of them, on a trie over variable blocks: the
  image of x1^e_1 ... xj^e_j is that of the first j - 1 blocks times
  the power e_j of the j-th image, from one power table per image;
  `substitute_linear` is its one-element call, and a MultiPoly goes
  through as a fraction without keys.  In the walk a monomial is one
  int, e -> sum e_i 2^(b i) (`intpoly._packing`), b the bit length,
  rounded up to 8, 16, 32 or 64, of the top numerator degree times
  the top image degree: no digit carries;
* a renaming shuffles the numerator's exponents and the keys'
  coordinates (`permute_variables`); `renaming_sums` adds the
  renamings of a value in one pass;
* a sum brings each integer numerator over the lcm of the
  denominators by multiplying it by the factors its own denominator
  lacks (`intpoly._lifted`), and adds the results in one dict, both
  on packed monomials, b from the top numerator degree plus the
  number of factors; parts that share their keys (every renaming
  sum of a polynomial, most depth sums of the flexion engine) are
  one group, cancelled with no lift and no copy (`_group_sum`);
  outside these two kernels monomials stay tuples;
* the product (`RatFrac.__mul__`) first divides each integer
  numerator by the keys that only the other denominator has, then
  multiplies the two (`_int_mul`); it never cancels over the product;
* `RatFrac.sum` and `RatFrac.__mul__` are thin calls to the integer
  sum (`_signed_sum`) and product (`intpoly._product`) that the flexion
  engine of `moulde.ari` runs on directly;
* the cancellation divides the integer numerator by the factor keys
  themselves (`_int_divide`; `exact_poly_divide` wraps the same walk
  for MultiPoly arguments).

Going through Fraction at every product instead costs a gcd per
term.  The integer kernels live in `moulde.intpoly`.

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
* A fraction is always reduced: each factor that can cancel is tried
  once against the numerator (one that does not vanish at a point of
  the factor's hyperplane is refused without a division).  A sum goes
  over one common denominator, cancelled once, and does not try a key
  that one part alone carries at its top multiplicity: that part's
  lifted numerator is prime to the key and every other one is a
  multiple of it (`intpoly._grouped`).  Linear forms are prime, so a
  reduced fraction is canonical: equal fractions have equal keys,
  terms and denom, and byte-identical text, and `RatFrac.__eq__`
  compares just those, with no expansion and no cross-multiplication.
* A linear form becomes its key once, where it enters
  (`RatFrac(num, factors)`, `exact_poly_divide`, a JSON `den`), and is
  only a key from there on.  A substitution maps each key k on integers
  to sum k_i row_i over the images' integer coefficient rows, and
  cancels only when it is not injective (dependent, zero or non-linear
  images).  A renaming is injective and never reaches those rows.

Contract: every non-constant factor is a homogeneous linear form.
`RatFrac(num, factors)`, `exact_poly_divide` and a JSON `den` (split by
`_linear_factor_split`) raise `ValueError` naming any other factor;
`substitute` raises it for a key that touches an image that is not a
homogeneous linear form, and `ZeroDivisionError` for a key whose image
vanishes.
"""

from __future__ import annotations

from fractions import Fraction
import math
from operator import add

from .intpoly import (_cancelled, _dx, _from_ints, _grouped,
                      _independent_rows, _int_divide, _integer_roots, _ints,
                      _key_image, _lifted, _normalize_linear, _packed_mul,
                      _packing, _product, _renamed_groups, _renamed_keys,
                      _renamings, _shuffler, _summed, _unit)


_ZERO = Fraction(0)


def grlex_key(expv):
    """Graded lexicographic sort key for an exponent vector."""
    return (sum(expv), tuple(-e for e in expv))


def _add_into(acc, pairs):
    """Add the (key, nonzero Fraction) pairs into the dict `acc`,
    dropping each sum that vanishes; return `acc`."""
    for k, c in pairs:
        s = acc.get(k)
        if s is None:
            acc[k] = c
        else:
            s += c
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


class Combination:
    """A finitely supported rational combination of keys: the dict
    `terms` from keys to nonzero `Fraction`s, the format `MultiPoly`,
    `words.NCPoly` and `words.TraceVector` share.

    The base owns the constructor's clean-up, `+`, `-`, `scale`, `==`,
    the hash and the signed text of the terms.  A subclass gives its
    key rule `_key` (check one key and bring it to its stored form,
    `ValueError` on a bad one; `coeff` reads through it too), the order
    `_order` of its keys, and its own product.  Two elements share a
    space when their `arity` agrees (None for words and traces);
    `_coerce` admits the operands of `+`, `-` and `==`, and any other
    operand gets `NotImplemented`, so Python raises `TypeError`."""

    __slots__ = ("terms", "_hash")
    arity = None

    def __init__(self, terms=None):
        pairs = ((k, c if type(c) is Fraction else Fraction(c))
                 for k, c in (terms or {}).items())
        self.terms = _add_into({}, ((self._key(k), c) for k, c in pairs
                                    if c))
        self._hash = None

    @classmethod
    def _wrap(cls, terms, arity=None):
        """The element over a clean {key: nonzero Fraction} dict, with
        no check."""
        out = cls.__new__(cls)
        out.terms, out._hash = terms, None
        if arity is not None:
            out.arity = arity
        return out

    def _coerce(self, other):
        """`other` as an element of this class, or None."""
        return other if isinstance(other, type(self)) else None

    def is_zero(self):
        return not self.terms

    def coeff(self, key):
        return self.terms.get(self._key(key), _ZERO)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return self._wrap(_add_into(dict(self.terms), other.terms.items()),
                          self.arity)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()}, self.arity)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        if c == 1:
            return self
        return self._wrap({k: v * c for k, v in self.terms.items()} if c
                          else {}, self.arity)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """Terms in the order of the keys (deterministic iteration)."""
        order = self._order
        return sorted(self.terms.items(), key=lambda t: order(t[0]))

    def _signed_text(self, term):
        """The sorted terms as "a - b + c", where term(key, |coefficient|)
        is the text of one term; "0" for zero."""
        parts = []
        for k, c in self.sorted_terms():
            sign = "-" if c < 0 else "+" if parts else ""
            parts.append(sign + (" " if parts else "") + term(k, abs(c)))
        return " ".join(parts) or "0"


class MultiPoly(Combination):
    """Sparse multivariate polynomial over Q in variables x1..x{arity}:
    its keys are exponent tuples of length arity, in graded-lex order,
    and scalars coerce to constants."""

    __slots__ = ("arity",)

    def __init__(self, arity, terms=None):
        self.arity = arity
        super().__init__(terms)

    def _key(self, expv):
        t = tuple(expv)
        if len(t) != self.arity:
            raise ValueError("exponent vector length != arity")
        return t

    _order = staticmethod(grlex_key)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.arity, other)
        return super()._coerce(other)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def const(cls, arity, c):
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, i, arity):
        """The variable x_i (1-based index)."""
        if not (1 <= i <= arity):
            raise ValueError("variable index out of range")
        return cls(arity, {_unit(i - 1, arity): 1})

    @classmethod
    def monomial(cls, expv, c=1):
        return cls(len(expv), {tuple(expv): c})

    # -- predicates ---------------------------------------------------
    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.arity, _ZERO)

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return MultiPoly._wrap(_add_into({}, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items())), self.arity)

    __rmul__ = __mul__

    # -- structural helpers -------------------------------------------
    def substitute_linear(self, images):
        """Replace variable i by images[i] (polynomials of a common
        arity): the one-element call of `substitute`."""
        return substitute([self], images)[0]

    def permute_variables(self, perm, arity=None):
        """Rename x_i -> x_{perm[i-1]} among x1..x{arity} (default: the
        same variables), for distinct 1-based indices perm: a
        permutation, or an injection into more variables.  Only the
        exponent tuples are shuffled."""
        arity = self.arity if arity is None else arity
        get = _shuffler(perm, self.arity, arity)
        return MultiPoly._wrap({get(e): c for e, c in self.terms.items()},
                               arity)

    def __str__(self):
        return poly_to_text(self)

    __repr__ = __str__


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
    terms, n = _ints(num.terms)
    q = _int_divide(terms, key)
    if q is None:
        return None
    # num = q * key / n and den = g * key / d
    return MultiPoly._wrap({e: Fraction(c * d, n * g) for e, c in q.items()},
                           num.arity)


def _linear_rows(polys):
    """(rows, d): polys[i] = sum rows[i][j] x_{j+1} / d, with integer rows
    over one common denominator d; rows[i] is None when polys[i] is
    neither zero nor a homogeneous linear form."""
    ints, d = _ints({(i, e): c for i, p in enumerate(polys)
                     for e, c in p.terms.items()})
    rows = [[0] * p.arity for p in polys]
    for (i, e), c in ints.items():
        if rows[i] is not None:
            if sum(e) == 1:
                rows[i][e.index(1)] = c
            else:
                rows[i] = None
    return rows, d


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
    """Quotient of polynomials, terms / (denom times the factors of
    den_keys).

    `terms` is an {exponent tuple: int} dict holding no zero, `denom` a
    positive int coprime to the terms, and `den_keys` the sorted
    multiset of factor keys (see the module docstring).  The fraction is
    always reduced: no factor of the denominator divides the numerator.
    `num` and `den` are views that build the Fraction polynomials.
    """

    __slots__ = ("arity", "terms", "denom", "den_keys")

    def __init__(self, num, den_factors=()):
        if isinstance(num, (int, Fraction)):
            raise TypeError("wrap scalars via RatFrac.const")
        self._set(*_divided(num, *_factor_keys(den_factors)))

    def _set(self, arity, terms, den, keys):
        """Store terms / (den times the factors of the sorted keys), for
        integer terms holding no zero and a nonzero int den: only the
        sign and the gcd of den and the terms are taken out."""
        if not terms:
            den, keys = 1, ()
        else:
            g = math.gcd(den, *terms.values())
            if den < 0:
                g = -g
            if g != 1:
                terms = {e: v // g for e, v in terms.items()}
                den //= g
        self.arity, self.terms, self.denom, self.den_keys = (
            arity, terms, den, keys)

    @classmethod
    def _make(cls, arity, terms, den, keys):
        """Wrap integer terms, a den and sorted normalised keys, with no
        cancelling (see `_set`)."""
        out = cls.__new__(cls)
        out._set(arity, terms, den, keys)
        return out

    # -- constructors -------------------------------------------------
    @classmethod
    def from_poly(cls, p):
        return cls._make(p.arity, *_ints(p.terms), ())

    @classmethod
    def const(cls, arity, c):
        return cls._make(arity, *_ints({(0,) * arity: Fraction(c)}), ())

    @classmethod
    def zero(cls, arity):
        return cls._make(arity, {}, 1, ())

    @classmethod
    def sum(cls, fracs, arity):
        """Sum of `fracs` over one common denominator, cancelled once."""
        if any(f.arity != arity for f in fracs):
            raise ValueError("arity mismatch")
        return _signed_sum(arity, [(f.terms, f.denom, f.den_keys)
                                   for f in fracs])

    # -- views --------------------------------------------------------
    @property
    def num(self):
        return MultiPoly._wrap(_from_ints(self.terms, self.denom),
                               self.arity)

    @property
    def den(self):
        _, (terms,) = _lifted([((), {(0,) * self.arity: 1})], self.den_keys)
        return MultiPoly._wrap(_from_ints(terms), self.arity)

    def is_zero(self):
        return not self.terms

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
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return RatFrac._make(self.arity, *_product(
            [(f.terms, f.denom, f.den_keys) for f in (self, other)]))

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return RatFrac.zero(self.arity)
        return RatFrac._make(
            self.arity, {e: v * c.numerator for e, v in self.terms.items()},
            self.denom * c.denominator, self.den_keys)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFrac):
            return NotImplemented
        return (self.arity == other.arity and self.den_keys == other.den_keys
                and self.denom == other.denom and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("RatFrac is unhashable (equality is semantic)")

    def substitute_linear(self, images):
        """Substitute each variable by a polynomial image: the
        one-element call of `substitute`."""
        return substitute([self], images)[0]

    def permute_variables(self, perm, arity=None):
        """Rename variables as `MultiPoly.permute_variables` does, and
        each key's coordinates; a key re-signed negates the numerator."""
        arity = self.arity if arity is None else arity
        get = _shuffler(perm, self.arity, arity)
        keys, sign = _renamed_keys(self.den_keys, get)
        return RatFrac._make(
            arity, {get(e): sign * v for e, v in self.terms.items()},
            self.denom, keys)

    def __str__(self):
        if not self.den_keys:
            return "(" + poly_to_text(self.num) + ")"
        return "(" + poly_to_text(self.num) + ") / (" + poly_to_text(self.den) + ")"

    __repr__ = __str__


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


def _divided(num, scale, keys):
    """The `RatFrac._make` parts of num / (scale times the factors of the
    sorted keys), reduced."""
    terms, den = _ints(num.terms)
    # num / scale = terms * scale.denominator / (den * scale.numerator)
    return _reduced(
        num.arity, {e: v * scale.denominator for e, v in terms.items()},
        den * scale.numerator, keys)


def _reduced(arity, terms, den, keys):
    """The `RatFrac._make` parts (arity, terms', den, left) of the
    integer terms / den, without a zero, divided on integers by each
    factor of `keys` that divides them; `left` lists the factors that
    did not divide."""
    terms, left = _cancelled(terms, keys)
    return arity, terms, den, tuple(left)


def _signed_sum(arity, parts):
    """The RatFrac sum of (integer terms, den, keys) parts, cancelled
    once.  Every part must be the reduced fraction terms / (den times the
    factors of keys); a den may be negative, the sign of the part.  Parts
    with the same keys add up over the lcm of the dens before lifting,
    and the keys that cannot cancel are not tried (`intpoly._grouped`)."""
    return _group_sum(arity, *_grouped(parts))


def _group_sum(arity, groups, den, kept=frozenset()):
    """The RatFrac sum of {den_keys: integer numerator} groups over den,
    lifted and added (`intpoly._summed`) and cancelled once: each key of
    the lcm is tried but those of `kept`, which cannot cancel."""
    keys, total = _summed(groups)
    terms, left = _cancelled(total, keys, kept)
    return RatFrac._make(arity, terms, den, tuple(left))


# -- linear substitution ----------------------------------------------------

def substitute(values, images):
    """Each MultiPoly or RatFrac value with variable i replaced by the
    polynomial images[i]; the images are read, and each key mapped,
    once per call, and the numerators go through one block walk
    (`_substituted_terms`).  A MultiPoly goes through as a fraction
    without keys and comes back as its numerator."""
    if any(v.arity != len(images) for v in values):
        raise ValueError("need one image per variable")
    tgt = images[0].arity if images else 0
    fracs = [RatFrac.from_poly(v) if isinstance(v, MultiPoly) else v
             for v in values]
    perm = _renaming(images)
    if perm is not None:
        out = [f.permute_variables(perm, tgt) for f in fracs]
    else:
        out = list(fracs)
        # injective images keep coprime parts coprime: no cancelling
        rows, d, injective = None, 1, True
        if any(f.den_keys for f in fracs):
            rows, d = _linear_rows(images)
            injective = _independent_rows(rows)
        # each key mapped once, in value order: a bad key raises what the
        # values substituted one by one would raise first
        seen = {k: _key_image(k, rows, tgt) for k in dict.fromkeys(
            k for f in fracs for k in f.den_keys)}
        for i, terms, den in _substituted_terms(fracs, images, tgt):
            scale, keys = 1, []
            for k in fracs[i].den_keys:
                g, key = seen[k]
                scale *= g
                keys.append(key)
            lift = d ** len(keys)  # the image of each key is g * key' / d
            if lift != 1:
                terms = {e: c * lift for e, c in terms.items()}
            parts = tgt, terms, den * scale, tuple(sorted(keys))
            out[i] = RatFrac._make(*(parts if injective
                                     else _reduced(*parts)))
    return [f.num if isinstance(v, MultiPoly) else f
            for v, f in zip(values, out)]


def _substituted_terms(fracs, images, tgt):
    """Yield (i, integer terms, den) once the image of the numerator of
    fracs[i] is complete.

    The walk runs over the distinct exponent tuples in lexicographic
    order, a trie over variable blocks: the image of x1^e_1 ... xj^e_j
    is the image of the first j - 1 blocks times images[j]^e_j, built
    once, and the walk keeps only the images of the current tuple's
    prefixes.  A zero block reuses the previous image, and the first
    nonzero block is its power as it is.  The powers of each image come
    from one table per call, filled on demand, whose first entry is
    the image itself."""
    forms, dens = (zip(*(_ints(x.terms) for x in images)) if images
                   else ((), ()))
    at, left, commons = {}, [], []
    for i, f in enumerate(fracs):
        # c x^e adds c / (denom prod dens[j]^e_j) times the image of x^e
        weights = {e: math.prod(map(pow, dens, e)) for e in f.terms}
        common = math.lcm(*weights.values())
        commons.append(common * f.denom)
        left.append(len(weights))
        if not weights:
            yield i, {}, 1
        for e, w in weights.items():
            at.setdefault(e, []).append((i, f.terms[e] * (common // w)))
    # monomials are packed: no target exponent exceeds deg(e) times the
    # top image degree
    pack, unpack, _ = _packing(tgt, max(map(sum, at), default=0) * max(
        (sum(e) for g in forms for e in g), default=0))
    powers = [[None, pack(g)] for g in forms]
    # path[j]: the image of the first j blocks of the last tuple, None
    # while they are all zero
    last, path, accs, seen = None, [None], {}, {}
    one = pack({(0,) * tgt: 1})
    for e in sorted(at):
        n = 0
        if last is not None:
            while e[n] == last[n]:
                n += 1
        del path[n + 1:]
        for j in range(n, len(e)):
            image, x = path[-1], e[j]
            if x:
                table = powers[j]
                while len(table) <= x:
                    table.append(_packed_mul(table[-1], table[1]))
                power = table[x]
                image = power if image is None else _packed_mul(image, power)
            path.append(image)
        last, image = e, path[-1]
        if image is None:
            image = one
        for i, k in at[e]:
            acc = accs.setdefault(i, {})
            for te, tc in image.items():
                acc[te] = acc.get(te, 0) + k * tc
            left[i] -= 1
            if not left[i]:
                acc = accs.pop(i)
                yield i, unpack(acc, seen), commons[i]


# -- renaming ---------------------------------------------------------------

def renaming_sums(values, perms):
    """[RatFrac.sum([v.permute_variables(p) for p in perms], r) for v in
    values], permutations of the values' r variables, on integers: the
    terms gather by renamed keys (`intpoly._renamed_groups`) and each
    sum is cancelled once."""
    if not values:
        return []
    r = values[0].arity
    if any(v.arity != r for v in values):
        raise ValueError("arity mismatch")
    gets = [_shuffler(p, r, r) for p in perms]
    return [_group_sum(r, _renamed_groups(
        v.terms, _renamings(v.den_keys, gets)), v.denom) for v in values]


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


def _linear_factor_split(p):
    """(c, keys) with the nonzero polynomial p equal to c times the
    factors of the sorted keys; what is left after the split must be a
    constant (`ValueError` naming it otherwise).

    A homogeneous p of degree d is split exactly.  On the line x_i = k^i
    (i != j), x_j = t, for a variable x_j of p, each factor in x_j has
    a rational root t.  Unless another factor vanishes there too, the
    gradient there of the (m-1)-th x_j-derivative of p, m the root's
    multiplicity, is that factor's normal, which `_int_divide` checks.
    Such coincidences leave arity * d^2 lines enough for a product; a
    line with fewer rational roots than its degree shows p is none."""
    arity = p.arity
    terms, den = _ints(p.terms)
    d = sum(next(iter(terms))) if len({sum(e) for e in terms}) == 1 else 0
    found, k, tries = [], 1, arity * d * d
    while d and k <= tries:
        j = next(i for i in range(arity) if any(e[i] for e in terms))
        s = [1 if i == j else k ** i for i in range(arity)]
        f = [0] * (d + 1)  # p on the line, by powers of t
        for e, c in terms.items():
            f[e[j]] += c * math.prod(map(pow, s, e))
        n = max((i for i, c in enumerate(f) if c), default=0)
        a = f[n] or 1  # the roots u = a t of the monic a^(n-1) f(u / a)
        roots = _integer_roots([c * a ** (n - 1 - i)
                                for i, c in enumerate(f[:n])] + [1])
        if len(roots) < n:
            break
        base = terms
        for u in set(roots):
            z = [u if i == j else a * x for i, x in enumerate(s)]
            g = base
            for _ in range(roots.count(u) - 1):
                g = _dx(g, j)
            normal = [sum(c * math.prod(map(pow, z, e))
                          for e, c in _dx(g, i).items()) for i in range(arity)]
            key = _normalize_linear(normal)[1] if any(normal) else None
            while key and (q := _int_divide(terms, key)) is not None:
                found.append(key)
                terms, d = q, d - 1
        k += 1
    scale, keys = _factor_keys((MultiPoly._wrap(_from_ints(terms, den),
                                                arity),))
    return scale, tuple(sorted(keys + tuple(found)))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def poly_to_text(p):
    """Render as e.g. "1 * x1^2 x2 - 1/3 * x2^3"; "0" for zero."""
    return p._signed_text(_monomial_text)


def _monomial_text(expv, c):
    body = " ".join("x%d" % i if e == 1 else "x%d^%d" % (i, e)
                    for i, e in enumerate(expv, 1) if e)
    return str(c) + (" * " + body if body else "")
