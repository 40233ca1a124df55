"""Moulds, the ma correspondence, unary operators and predicates.

A mould is a depth-indexed family r -> rational function in r variables
(depth 0 -> scalar), tagged with its alphabet: U-side (variables
u1..ur) or V-side (v1..vr, the swap coordinates).  An optional cap
records the truncation depth of series computations: values above the
cap are unknown, so a mould never stores one and never compares one; a
cap never rises (`with_cap` keeps the smaller cap), and every sum and
product takes the smallest cap of its operands.

Each of the unary operators `swap`, `push`, `circ`, `neg_op` and
`mantar` is a per-depth change of variables: it evaluates the depth-r
value at r linear forms in x1..xr (`_substituted`); `dar`, `delta_op`
and their inverses multiply or divide each depth by a product of linear
forms (`_times_forms`).  Both act on a list of moulds, one kernel call
per depth; the public operators are their one-element calls, and
`spaces` passes its parameter list to `_swap` and `_push`.  The shuffle
and cyclic sums are `poly.renaming_sums` over `_shuffle_perms` and
`_cycle_perms`.

`is_alternal`, `is_circ_neutral` and `star_correction` read the shuffle
and cyclic sums from one walk each, `_shuffle_sums` and `_cycle_sums`.

Circ-constance is decided from one helper, `circ_defects(M, n)`, which
reads c off depth 1 and yields each depth's cyclic sum minus c times
the all-monomials sum: `is_circ_constant` wants every defect zero and
`maps.swap_circ_constant_star` wants each one a constant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
import json
import math
from operator import mul

from .poly import (MultiPoly, RatFrac, _divided, _linear_factor_split,
                   _unit, monomial_sum, renaming_sums, substitute)
from . import words as W


class AlphabetMismatch(ValueError):
    pass


class NonPolynomialValue(ValueError):
    pass


class Mould:
    __slots__ = ("alphabet", "values", "cap")

    def __init__(self, alphabet, values=None, cap=None):
        if alphabet not in ("U", "V"):
            raise ValueError("alphabet must be 'U' or 'V'")
        self.alphabet = alphabet
        vals = {}
        for r, v in (values or {}).items():
            if cap is not None and r > cap:
                continue
            if isinstance(v, MultiPoly):
                v = RatFrac.from_poly(v)
            if isinstance(v, (int, Fraction)):
                v = RatFrac.const(r, v)
            if v.arity != r:
                raise ValueError("value arity %d != depth %d" % (v.arity, r))
            if not v.is_zero():
                vals[r] = v
        self.values = vals
        self.cap = cap

    # -- access -------------------------------------------------------
    def get(self, r):
        v = self.values.get(r)
        return RatFrac.zero(r) if v is None else v

    def depths(self):
        return sorted(self.values)

    def max_depth(self):
        return max(self.values, default=0)

    def with_cap(self, cap):
        return Mould(self.alphabet, self.values, _min_cap(self.cap, cap))

    def weight(self):
        """Homogeneous weight n (degree of depth-r part is n - r), or None."""
        ns = set()
        for r, v in self.values.items():
            degrees = {sum(e) for e in v.terms}
            if len(degrees) != 1:
                return None
            ns.add(degrees.pop() - len(v.den_keys) + r)
        if len(ns) == 1:
            return ns.pop()
        return None

    # -- linear structure ---------------------------------------------
    @classmethod
    def sum(cls, moulds):
        """Sum of moulds on one alphabet, each depth over one common
        denominator and cancelled once; the smallest cap wins."""
        alphabet, cap = moulds[0].alphabet, None
        for M in moulds:
            if M.alphabet != alphabet:
                raise AlphabetMismatch("cannot add U-mould to V-mould")
            cap = _min_cap(cap, M.cap)
        vals = {}
        for r in set().union(*(M.values for M in moulds)):
            v = RatFrac.sum([M.values[r] for M in moulds if r in M.values],
                            r)
            if not v.is_zero():
                vals[r] = v
        return cls(alphabet, vals, cap)

    def __add__(self, other):
        return Mould.sum([self, other])

    def __neg__(self):
        return Mould(self.alphabet,
                     {r: -v for r, v in self.values.items()}, self.cap)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Mould(self.alphabet,
                     {r: v.scale(c) for r, v in self.values.items()}, self.cap)

    def eq(self, other):
        if self.alphabet != other.alphabet:
            return False
        cap = _min_cap(self.cap, other.cap)
        depths = set(self.values) | set(other.values)
        for r in depths:
            if cap is not None and r > cap:
                continue
            if not (self.get(r) == other.get(r)):
                return False
        return True

    def __repr__(self):
        parts = []
        for r in self.depths():
            parts.append("%d: %s" % (r, self.get(r)))
        body = "; ".join(parts) if parts else "0"
        caps = "" if self.cap is None else " (cap %d)" % self.cap
        return "Mould[%s]{%s}%s" % (self.alphabet, body, caps)


def _min_cap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _vars(r):
    """The variables x1..xr, built without `MultiPoly`'s validation."""
    return [MultiPoly._wrap({_unit(i, r): Fraction(1)}, r) for i in range(r)]


# ---------------------------------------------------------------------------
# ma and its inverse
# ---------------------------------------------------------------------------

def ma(f):
    """C_{a1}...C_{ar} -> u1^{a1-1} ... ur^{ar-1} on the C-expansion of f."""
    coeffs = W.to_c_basis(f)
    per_depth = {}
    for a, c in coeffs:
        r = len(a)
        expv = tuple(e - 1 for e in a)
        per_depth.setdefault(r, {})[expv] = (
            per_depth.get(r, {}).get(expv, Fraction(0)) + c)
    vals = {}
    for r, terms in per_depth.items():
        vals[r] = RatFrac.from_poly(MultiPoly(r, terms))
    return Mould("U", vals)


def ma_inverse(M):
    """from_c_basis of the monomial coefficients; requires polynomial values."""
    coeffs = []
    for r, v in M.values.items():
        if not v.is_polynomial():
            raise NonPolynomialValue(str(v))
        if r == 0:
            coeffs.append(((), v.num.constant_value()))
            continue
        for expv, c in v.num.sorted_terms():
            coeffs.append((tuple(e + 1 for e in expv), c))
    return W.from_c_basis(coeffs)


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

def _substituted(moulds, images, alphabet=None):
    """The moulds with each depth-r value, r >= 1, evaluated at the
    linear forms images(x1..xr), on `alphabet` (default: each mould's);
    depth 0 is kept."""
    by_depth = {}
    for M in moulds:
        for r, v in M.values.items():
            if r:
                by_depth.setdefault(r, []).append(v)
    done = {r: iter(substitute(vs, images(_vars(r))))
            for r, vs in by_depth.items()}
    return [Mould(alphabet or M.alphabet,
                  {r: next(done[r]) if r else v for r, v in M.values.items()},
                  M.cap) for M in moulds]


def _times_forms(moulds, forms, divide=False):
    """The moulds with each depth-r value multiplied, or divided, by the
    product of the linear forms forms(x1..xr).  A depth where a form
    vanishes (u1+...+ur in depth 0) is dropped."""
    factors = {}
    for r in {r for M in moulds for r in M.values}:
        fs = forms(_vars(r))
        if not any(f.is_zero() for f in fs):
            one = MultiPoly.const(r, 1)
            factors[r] = (RatFrac(one, fs) if divide
                          else RatFrac.from_poly(reduce(mul, fs, one)))
    return [Mould(M.alphabet, {r: v * factors[r] for r, v in M.values.items()
                               if r in factors}, M.cap) for M in moulds]


def _delta_forms(xs):
    """u1, ..., ur and u1+...+ur."""
    return xs + [sum(xs, MultiPoly.zero(len(xs)))]


def _require(moulds, alphabet, what):
    if any(M.alphabet != alphabet for M in moulds):
        raise AlphabetMismatch("%s acts on %s-moulds" % (what, alphabet))


def swap(M):
    """Exchange the u and v coordinate systems (an involution):
    swap(A)(v1..vr) = A(v_r, v_{r-1}-v_r, ..., v_1-v_2) and
    swap(B)(u1..ur) = B(u1+...+ur, u1+...+u_{r-1}, ..., u1)."""
    return _swap([M])[0]


def _swap(moulds):
    """swap of each mould of a list on one alphabet."""
    alphabet = moulds[0].alphabet if moulds else "U"
    _require(moulds, alphabet, "swap of a list")
    if alphabet == "U":
        return _substituted(moulds, _swap_images, "V")
    return _substituted(moulds, lambda xs: list(accumulate(xs))[::-1], "U")


def _swap_images(xs):
    """The images v_r, v_{r-1} - v_r, ..., v_1 - v_2 of u1..ur under
    swap, in the variables xs = v1..vr."""
    return xs[-1:] + [a - b for a, b in zip(xs[-2::-1], xs[::-1])]


def push(M):
    """(push B)(u1..ur) = B(u0, u1, ..., u_{r-1}), u0 = -u1-...-ur."""
    return _push([M])[0]


def _push(moulds):
    """push of each U-mould of a list."""
    _require(moulds, "U", "push")
    return _substituted(
        moulds, lambda xs: [-sum(xs, MultiPoly.zero(len(xs)))] + xs[:-1])


def circ(M):
    """circ(B)(v1..vr) = B(v2, ..., vr, v1)."""
    _require([M], "V", "circ")
    return _substituted([M], lambda xs: xs[1:] + xs[:1])[0]


def neg_op(M):
    """neg(A)(u1..ur) = A(-u1, ..., -ur)."""
    return _substituted([M], lambda xs: [-x for x in xs])[0]


def mantar(M):
    """mantar(A)(u1..ur) = (-1)^{r-1} A(ur, ..., u1)."""
    return -pari(_substituted([M], lambda xs: xs[::-1])[0])


def pari(M):
    """pari(A) multiplies the depth-r part by (-1)^r."""
    return Mould(M.alphabet,
                 {r: v.scale((-1) ** r) for r, v in M.values.items()},
                 M.cap)


def dar(M):
    """dar(A)(u1..ur) = u1...ur A(u1..ur)."""
    return _times_forms([M], list)[0]


def dar_inv(M):
    return _times_forms([M], list, divide=True)[0]


def delta_op(M):
    """Multiply the depth-r part by u1...ur (u1+...+ur)."""
    _require([M], "U", "delta")
    return _times_forms([M], _delta_forms)[0]


def delta_inv(M):
    """Divide the depth-r part by u1...ur (u1+...+ur)."""
    _require([M], "U", "delta")
    return _times_forms([M], _delta_forms, divide=True)[0]


def teru(M):
    """teru(B) = B in depths 0, 1; in depth r > 1 adds
    (1/u_r)(B(u1..u_{r-2}, u_{r-1}) - B(u1..u_{r-2}, u_{r-1}+u_r))."""
    _require([M], "U", "teru")
    out = {}
    depths = set(M.values)
    depths |= {r + 1 for r in M.values}  # corrections feed depth r from r-1
    for r in sorted(depths):
        if M.cap is not None and r > M.cap:
            continue
        base = M.get(r)
        if r < 2:
            if not base.is_zero():
                out[r] = base
            continue
        prev = M.get(r - 1)
        acc = base
        if not prev.is_zero():
            xs = _vars(r)
            args1 = xs[:r - 2] + [xs[r - 2] + xs[r - 1]]
            args2 = xs[:r - 2] + [xs[r - 2]]
            corr = (prev.substitute_linear(args2)
                    - prev.substitute_linear(args1))
            ur = RatFrac(MultiPoly.const(r, 1), (xs[r - 1],))
            acc = acc + corr * ur
        if not acc.is_zero():
            out[r] = acc
    return Mould("U", out, M.cap)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def _shuffles(left, right):
    if not left:
        yield tuple(right)
        return
    if not right:
        yield tuple(left)
        return
    for rest in _shuffles(left[1:], right):
        yield (left[0],) + rest
    for rest in _shuffles(left, right[1:]):
        yield (right[0],) + rest


def shuffle_sum(value, r, i):
    """Sum of value(u_{w_1},...,u_{w_r}) over w in Sh((1..i)(i+1..r))."""
    return _shuffle_sum([value], r, i)[0]


def _shuffle_sum(values, r, i):
    """`shuffle_sum` of each depth-r value of a list: one renaming sum."""
    return renaming_sums(values, _shuffle_perms(r, i))


def _shuffle_perms(r, i):
    """The shuffles Sh((1..i)(i+1..r)), as tuples of 1-based indices."""
    return _shuffles(list(range(1, i + 1)), list(range(i + 1, r + 1)))


def _shuffle_sums(M):
    """(r, C(r, i), shuffle sum Sh((1..i)(i+1..r)) of the depth-r value),
    lazily for every depth r >= 2 of M and 1 <= i <= r/2."""
    for r, v in sorted(M.values.items()):
        for i in range(1, r // 2 + 1):
            yield r, math.comb(r, i), shuffle_sum(v, r, i)


def is_alternal(M):
    """Shuffle sums vanish in every depth >= 2 (void in depth 1)."""
    return all(s.is_zero() for _, _, s in _shuffle_sums(M))


def is_push_invariant(M):
    return push(M).eq(M)


def is_mantar_invariant(M):
    return mantar(M).eq(M)


def circ_cycle_sum(M, r):
    """Sum of the r cyclic rotations of the depth-r part."""
    return _cycle_sum([M.get(r)], r)[0]


def _cycle_sum(values, r):
    """The cyclic sum of each depth-r value of a list: one renaming sum."""
    return renaming_sums(values, _cycle_perms(r))


def _cycle_perms(r):
    """The r cyclic rotations of 1..r."""
    xs = list(range(1, r + 1))
    return [xs[k:] + xs[:k] for k in range(r)]


def _cycle_sums(M):
    """(r, r, cyclic sum of the depth-r value), lazily for every depth
    r >= 2 of M."""
    for r in M.depths():
        if r >= 2:
            yield r, r, circ_cycle_sum(M, r)


def is_circ_neutral(M):
    """Cyclic sums of every depth >= 2 vanish."""
    if M.alphabet != "V":
        raise AlphabetMismatch("circ-neutrality is a V-side predicate")
    return all(s.is_zero() for _, _, s in _cycle_sums(M))


def circ_defects(M, n):
    """(c, defects) of the V-mould M at weight n, or None.

    c is read off the depth-1 value, which must be c*v1^{n-1} (else
    None).  The defects are, lazily for r = 2..n-1, the depth-r cyclic
    sum minus c times the all-monomials sum; an absent depth counts as
    zero.  Depth n is not among them: its constant value is the freely
    adjustable one."""
    v1 = M.get(1)
    if not v1.is_polynomial():
        return None
    c = v1.num.coeff((n - 1,))
    if v1.num != MultiPoly.monomial((n - 1,), c):
        return None
    return c, (circ_cycle_sum(M, r) - monomial_sum(r, n - r).scale(c)
               for r in range(2, n))


def is_circ_constant(M, weight=None):
    """Cyclic sums equal c times the all-monomials sum; returns (flag, c):
    every defect of `circ_defects` at weight n must vanish."""
    if M.alphabet != "V":
        raise AlphabetMismatch("circ-constance is a V-side predicate")
    n = weight if weight is not None else M.weight()
    found = circ_defects(M, n) if n is not None and n >= 1 else None
    if found is None or not all(d.is_zero() for d in found[1]):
        return False, None
    return True, found[0]


def in_ari_delta(M):
    """Every depth-r value becomes polynomial after multiplying by
    u1...ur(u1+...+ur)."""
    if M.alphabet != "U":
        raise AlphabetMismatch("ARI^Delta is a U-side predicate")
    return all(v.is_polynomial() for v in delta_op(M).values.values())


def is_senary(M):
    """teru(pari(B)) = push(mantar(teru(pari(B))))."""
    if M.alphabet != "U":
        raise AlphabetMismatch("senary is a U-side predicate")
    T = teru(pari(M))
    return T.eq(push(mantar(T)))


def predicates(M):
    """Run the full predicate battery appropriate to M's alphabet."""
    report = {}
    if M.alphabet == "U":
        report["alternal"] = is_alternal(M)
        report["push_invariant"] = is_push_invariant(M)
        report["mantar_invariant"] = is_mantar_invariant(M)
        report["in_ARI_delta"] = in_ari_delta(M)
        report["senary"] = is_senary(M)
    else:
        report["alternal"] = is_alternal(M)
        report["circ_neutral"] = is_circ_neutral(M)
        flag, c = is_circ_constant(M)
        report["circ_constant"] = flag
        report["circ_constant_value"] = c
        report["mantar_invariant"] = is_mantar_invariant(M)
    return report


# ---------------------------------------------------------------------------
# Constant corrections ("*" properties)
# ---------------------------------------------------------------------------

def star_correction(M, prop):
    """Per-depth constants {r: kappa_r}, zeros dropped, with M + kappa
    satisfying the property, or None when constants cannot repair it:
    each sum s of the property (k copies of kappa_r each) must be a
    constant, and kappa_r = -s/k.
    The sums of one depth agree: a constant shuffle sum Sh_i(f) = c_i,
    summed over the r! permutations of the variables, gives
    r! c_i = C(r, i) Sym(f), so kappa_r = -Sym(f)/r! for every i."""
    sums = {"circ_neutral": _cycle_sums, "alternal": _shuffle_sums}.get(prop)
    if sums is None:
        raise ValueError("unknown property %r" % prop)
    kappa = {}
    for r, k, s in sums(M):
        if not (s.is_polynomial() and s.num.is_constant()):
            return None
        if s.num.constant_value():
            kappa[r] = -s.num.constant_value() / k
    return kappa


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def _poly_to_json(p):
    return [[str(c), list(e)] for e, c in p.sorted_terms()]


def _poly_from_json(data, arity, where):
    """The polynomial of the JSON terms [[coefficient, exponents], ...]
    of field `where`, in `arity` variables.  A coefficient is a string
    or an integer: a JSON float or bool is refused."""
    terms = {}
    for term in data if isinstance(data, list) else [data]:
        try:
            c, e = term
            if type(c) is not int and not isinstance(c, str):
                raise TypeError
            c = Fraction(c)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError("%s: bad term %r" % (where, term)) from None
        if not (isinstance(e, list) and len(e) == arity
                and all(type(k) is int and k >= 0 for k in e)):
            raise ValueError("%s: exponents must be %d non-negative "
                             "integers, got %r" % (where, arity, e))
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return MultiPoly(arity, terms)


def mould_to_json(M):
    depths = {}
    for r in M.depths():
        v = M.get(r)
        entry = {"num": _poly_to_json(v.num)}
        if v.den_keys:
            entry["den"] = _poly_to_json(v.den)
        depths[str(r)] = entry
    doc = {"alphabet": M.alphabet, "depths": depths}
    w = M.weight()
    if w is not None:
        doc["weight"] = w
    if M.cap is not None:
        doc["cap"] = M.cap
    return doc


def mould_to_json_text(M):
    return json.dumps(mould_to_json(M), sort_keys=True, indent=None,
                      separators=(",", ":"))


def mould_from_json(doc):
    """The mould of a `mould_to_json` document; `ValueError` naming the
    field of a malformed one, such as a depth above the cap."""
    if not (isinstance(doc, dict) and "alphabet" in doc
            and isinstance(doc.get("depths", {}), dict)):
        raise ValueError("a JSON mould is an object with an 'alphabet' "
                         "and a 'depths' object, got %.60r" % (doc,))
    cap = doc.get("cap")
    if cap is not None and not (type(cap) is int and cap > 0):
        raise ValueError("field 'cap' must be a positive integer, got %r"
                         % (cap,))
    vals = {}
    for rs, entry in doc.get("depths", {}).items():
        where = "depths[%r]" % rs
        if not (rs.isdecimal() and str(int(rs)) == rs
                and isinstance(entry, dict) and "num" in entry):
            raise ValueError("%s: expected a depth 0, 1, 2, ... with a "
                             "'num' field" % where)
        r = int(rs)
        if cap is not None and r > cap:
            raise ValueError("%s: depth above the cap %d" % (where, cap))
        num = _poly_from_json(entry["num"], r, where + ".num")
        if "den" in entry:
            den = _poly_from_json(entry["den"], r, where + ".den")
            if den.is_zero():
                raise ValueError("zero denominator in depth %d" % r)
            vals[r] = RatFrac._make(*_divided(num, *_linear_factor_split(den)))
        else:
            vals[r] = RatFrac.from_poly(num)
    return Mould(doc["alphabet"], vals, cap)


def mould_from_json_text(text):
    return mould_from_json(json.loads(text))
