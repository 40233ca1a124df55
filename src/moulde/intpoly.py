"""The integer kernels under `moulde.poly`: {exponent tuple: int}
polynomials with no zero coefficient, and linear-form keys (see the
`moulde.poly` docstring).

`_ints` and `_from_ints` are the one passage between a {key: Fraction}
dict (the terms of a `MultiPoly`, `NCPoly` or `TraceVector`, a row of
a matrix, a null vector) and its integer numerators over the lcm of
its denominators; every integer kernel of the package enters and
leaves through them.  `_packing` is the one passage between exponent
tuples and packed monomials, one int per tuple, inside the two hottest
kernels: the substitution walk `poly._substituted_terms` and the lift.
`_lift_plan` alone decides which factors their denominators lack
multiply each numerator, and in which order; `_lifted` and `_summed`
multiply by them packed (`_packed_times`, one factor each) and drop
the zeros of each product once.  `_grouped` gathers the parts of
a sum by their keys and names the keys that cannot cancel from it, so
that `_cancelled` tries only the others.  `_renamings`,
`_renamed_groups` and `_summed` are the one renaming pipeline of
`poly.renaming_sums` and of `spaces._sum_rows`, which builds every
shuffle and cyclic row."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat, starmap
import math
from operator import add, itemgetter, sub
import struct


def _ints(terms):
    """(ints, den) with the {key: rational} dict `terms` equal to
    ints / den: its integer numerators over the lcm of its
    denominators, zeros dropped."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items() if c}, den


def _from_ints(ints, den=1):
    """The {key: Fraction} dict ints / den, one Fraction per nonzero
    integer of `ints`."""
    return {k: Fraction(v, den) for k, v in ints.items() if v}


def _int_mul(a, b):
    """Product of two {exponent tuple: int} polynomials."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _packing(arity, degree):
    """(pack, unpack, units): the packed form of {exponent tuple: int}
    polynomials in `arity` variables of total degree at most `degree`.

    The tuple e is keyed by the int sum e_i 2^(b i), one digit of b bits
    per variable, where b is the bit length of `degree` rounded up to 8,
    16, 32 or 64, so that the digits are the fields of one `struct`
    record.  No exponent exceeds the total degree, so as long as a
    product stays within the bound no digit carries, and the key of a
    product of monomials is the sum of their keys.  pack and unpack
    convert a whole dict, unpack dropping zeros and building each tuple
    once per `seen`, a {key: tuple} dict that one kernel call shares
    among the dicts it unpacks; units[i] is the key of x_{i+1}."""
    for size, code in (1, "B"), (2, "H"), (4, "I"), (8, "Q"):
        if not degree >> 8 * size:
            break
    else:
        raise OverflowError("exponents of 2^64 and more are not packed")
    record = struct.Struct("<%d%s" % (arity, code))
    width = record.size

    def pack(terms):
        return dict(zip(map(int.from_bytes, starmap(record.pack, terms),
                            repeat("little")), terms.values()))

    def unpack(terms, seen):
        out = {}
        for k, c in terms.items():
            if c:
                e = seen.get(k)
                if e is None:
                    e = seen[k] = record.unpack(k.to_bytes(width, "little"))
                out[e] = c
        return out

    return pack, unpack, [1 << 8 * size * i for i in range(arity)]


def _packed_mul(a, b):
    """Product of two packed polynomials (`_packing`) whose product
    stays within the packing's degree bound."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _packed_times(terms, key, table):
    """The packed polynomial `terms` times the factor of `key`, for the
    `_packing` table of the product: the key becomes (unit, coefficient)
    pairs, and each term moves up by the unit of each of its variables.
    Terms that cancel are kept as zeros, for the lift to drop once."""
    units = table[2]
    pairs = [(units[i], c) for i, c in enumerate(key) if c]
    out = {}
    for e, v in terms.items():
        for u, c in pairs:
            te = e + u
            out[te] = out.get(te, 0) + v * c
    return out


@lru_cache(maxsize=None)
def _unit(i, arity):
    """Exponent tuple of x_{i+1} in `arity` variables."""
    return tuple(1 if j == i else 0 for j in range(arity))


@lru_cache(maxsize=None)
def _division(key):
    """(p, a, point, down, rest) of `_int_divide` for `key`: the pivot
    position p and its coefficient a, an integer point of the key's
    hyperplane, the exponent tuple of x_p, and the (shift, -c) pairs of
    the other variables."""
    arity = len(key)
    p = max((i for i, c in enumerate(key) if c),
            key=lambda i: (abs(key[i]) == 1, i))
    a = key[p]
    # x_j = a (j + 2) off the pivot, and x_p solves g = 0
    point = [a * (j + 2) for j in range(arity)]
    point[p] = -sum(c * (j + 2) for j, c in enumerate(key) if j != p)
    down = _unit(p, arity)
    # the term rest * (c/a) x^(e - down) lands on e - down + unit_j
    rest = tuple((tuple(u - d for u, d in zip(_unit(j, arity), down)), -c)
                 for j, c in enumerate(key) if c and j != p)
    return p, a, tuple(point), down, rest


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
    nothing is left in pivot degree 0.  The pivot, the point and the
    shifts are read once per key (`_division`)."""
    if not terms:
        return terms
    p, a, point, down, rest = _division(key)
    if sum(v * math.prod(map(pow, point, e)) for e, v in terms.items()):
        return None
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


def _cancelled(terms, keys, kept=frozenset()):
    """(terms', left): the {exponent tuple: int} polynomial `terms`
    divided by each factor of the sorted `keys` that divides it, and the
    list of the factors that did not divide.  The factors of `kept` are
    known not to divide, and are left with no try."""
    left = []
    failed = None
    for k in keys:
        if k == failed or k in kept:
            left.append(k)
            continue
        q = _int_divide(terms, k)
        if q is None:
            left.append(k)
            failed = k
        else:
            terms = q
    return terms, left


def _grouped(parts):
    """(groups, den, kept) for (integer terms, den, keys) parts, each the
    reduced fraction terms / (den times the factors of keys): `groups`
    adds the parts of equal keys, {keys: integer terms} over the lcm
    `den` of the dens, and `kept` holds the keys that cannot cancel from
    the sum of the groups.

    Such a key has multiplicity m in the lcm, and exactly one group
    carries it m times, a group of a single part: that part is
    reduced, so its lifted numerator is prime to the key, while every
    other lifted numerator is a multiple of it.  A key that two groups
    carry at its top multiplicity, or that a group of several parts
    does, may cancel, and is left to `_cancelled` to try."""
    den = math.lcm(*(d for _, d, _ in parts))
    groups, lone = {}, set()
    for terms, d, keys in parts:
        if keys in groups:
            lone.discard(keys)
        else:
            groups[keys] = {}
            lone.add(keys)
        acc, lift = groups[keys], den // d
        for e, c in terms.items():
            acc[e] = acc.get(e, 0) + c * lift
    if not lone:
        return groups, den, frozenset()
    top = {}  # key: (its top multiplicity, held by one lone group alone)
    for keys in groups:
        for k in set(keys):
            m, (t, _) = keys.count(k), top.get(k, (0, False))
            if m >= t:
                top[k] = m, m > t and keys in lone
    return groups, den, frozenset(k for k, (_, sole) in top.items() if sole)


def _product(factors):
    """(terms, den, keys): the product of the reduced fractions
    terms / (den times the factors of keys) in the list `factors`.

    Every key is prime, so a key of one denominator can cancel only
    against the other numerator, and a key in both denominators divides
    neither: each numerator is divided by the keys only the other
    denominator has, then the two are multiplied (`_int_mul`), and the
    product is reduced again."""
    terms, den, keys = factors[0]
    for other, other_den, other_keys in factors[1:]:
        own, own_other = set(keys), set(other_keys)
        other, left = _cancelled(other, [k for k in keys
                                         if k not in own_other])
        terms, left_other = _cancelled(terms, [k for k in other_keys
                                               if k not in own])
        shared = [k for k in keys + other_keys
                  if k in own and k in own_other]
        terms, den = _int_mul(terms, other), den * other_den
        keys = tuple(sorted(left + left_other + shared))
    return terms, den, keys


def _lift_plan(parts, keys):
    """(keys', lifts) for (den_keys, integer terms) pairs: the lcm of
    `keys` and the denominators of the nonzero numerators, as sorted
    factor keys, and for each part the factors its own denominator
    lacks, in the order they multiply it.  The factors in fewest
    variables go first: one in a single variable shifts the terms and
    adds none."""
    need, counts = {}, []
    for k in keys:
        need[k] = need.get(k, 0) + 1
    for den_keys, terms in parts:
        own = {}
        for k in (den_keys if terms else ()):
            own[k] = own.get(k, 0) + 1
        counts.append(own)
        for k, m in own.items():
            if m > need.get(k, 0):
                need[k] = m
    order = sorted(need.items(), key=lambda km: -km[0].count(0))
    return (tuple(sorted(k for k, m in need.items() for _ in range(m))),
            [[k for k, m in order for _ in range(m - own.get(k, 0))]
             for own in counts])


def _packed_lift(terms, lift, table):
    """The {exponent tuple: int} polynomial `terms` packed by `table`
    (`_packing`) and multiplied by the factors of `lift`, one at a time
    (`_packed_times`); zeros are kept."""
    terms = table[0](terms)
    for k in lift:
        terms = _packed_times(terms, k, table)
    return terms


def _lifted(parts, keys=()):
    """(keys', numerators) for (den_keys, integer terms) pairs: the lcm
    of `keys` and the denominators of the nonzero numerators, as sorted
    factor keys, and each numerator multiplied on integers by the
    factors its own denominator lacks (`_lift_plan`), packed with a
    bound of its degree plus the number of those factors.  A lifted
    numerator drops the zeros of its product once, at the end; one that
    needs no factor is passed through as it is."""
    parts = list(parts)
    keys, lifts = _lift_plan(parts, keys)
    nums = []
    for (_, terms), lift in zip(parts, lifts):
        if terms and lift:
            table = _packing(len(keys[0]), max(map(sum, terms)) + len(lift))
            terms = table[1](_packed_lift(terms, lift, table), {})
        nums.append(terms)
    return keys, nums


def _summed(groups, keys=()):
    """(keys', total): the {den_keys: integer terms} groups lifted over
    the lcm of `keys` and their denominators (`_lift_plan`) and added,
    zeros dropped.  The lift and the addition run packed, over one
    table for the largest degree of a lifted group, and only the total
    is unpacked.  A single group with no `keys` is already over its
    denominator, and is added with no lift."""
    if len(groups) == 1 and not keys:
        (keys, total), = groups.items()
        return keys, {e: v for e, v in total.items() if v}
    parts = [(k, {e: v for e, v in terms.items() if v})
             for k, terms in groups.items()]
    keys, lifts = _lift_plan(parts, keys)
    lifted = [(terms, lift) for (_, terms), lift in zip(parts, lifts)
              if terms]
    if not lifted:
        return keys, {}
    table = _packing(len(next(iter(lifted[0][0]))),
                     max(max(map(sum, terms)) + len(lift)
                         for terms, lift in lifted))
    total = {}
    for terms, lift in lifted:
        for e, v in _packed_lift(terms, lift, table).items():
            if v:
                total[e] = total.get(e, 0) + v
    return keys, table[1](total, {})


def _normalize_linear(form):
    """(g, key) for the nonzero integer linear form sum form[i] x_{i+1}
    = g * (factor of key), where key holds coprime integers whose last
    nonzero one (the grlex-leading coefficient of a linear form) is
    positive."""
    g = math.gcd(*form)
    if next(x for x in reversed(form) if x) < 0:
        g = -g
    return g, tuple(x // g for x in form)


def _key_image(key, rows, tgt):
    """(g, key') with the image sum key_i rows[i] of a key equal to g
    times the factor of key' (rows[i] None: not a linear form)."""
    form = [0] * tgt
    for c, row in zip(key, rows):
        if c:
            if row is None:
                raise ValueError("denominator factor %s does not map to a "
                                 "homogeneous linear form" % (key,))
            for j, x in enumerate(row):
                form[j] += c * x
    if not any(form):
        raise ZeroDivisionError("zero denominator factor")
    return _normalize_linear(form)


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


def _shuffler(perm, arity, target):
    """The exponent map of x_i -> x_{perm[i-1]}, from x1..x{arity} into
    x1..x{target}, for distinct 1-based indices perm."""
    if (len(perm) != arity or len(set(perm)) < arity
            or not all(0 < p <= target for p in perm)):
        raise ValueError("need distinct target variables, one per "
                         "variable")
    # target variable j reads position src[j] of e, or 0 past its end
    src = [arity] * target
    for i, p in enumerate(perm):
        src[p - 1] = i
    get = (itemgetter(*src) if target > 1
           else lambda e: tuple(e[j] for j in src))
    return get if arity not in src else lambda e: get(e + (0,))


def _renamed_keys(keys, get):
    """(sorted keys', sign): the keys shuffled by `get` and re-signed to
    a positive last entry; sign is -1 for an odd number of flips."""
    sign, out = 1, []
    for k in keys:
        k = get(k)
        if next(x for x in reversed(k) if x) < 0:
            k = tuple(-x for x in k)
            sign = -sign
        out.append(k)
    return tuple(sorted(out)), sign


def _renamings(keys, gets):
    """{renamed keys: [(exponent map, sign)]}: the exponent maps `gets`
    gathered by the keys they rename `keys` to (`_renamed_keys`)."""
    out = {}
    for get in gets:
        renamed, sign = _renamed_keys(keys, get)
        out.setdefault(renamed, []).append((get, sign))
    return out


def _renamed_groups(terms, renamings):
    """{renamed keys: integer terms}: for each group of `renamings`, the
    sum of its signs times the {exponent tuple: int} polynomial `terms`
    renamed by its exponent maps; `_summed` lifts and adds them."""
    groups = {}
    for renamed, maps in renamings.items():
        acc = groups[renamed] = {}
        for get, sign in maps:
            for e, c in terms.items():
                e = get(e)
                acc[e] = acc.get(e, 0) + sign * c
    return groups


def _integer_roots(h):
    """The integer roots, largest first and with multiplicity, of the
    monic integer polynomial h (a list of coefficients from degree 0 up,
    consumed); all of them when h is real-rooted.  From above every root, a Newton step
    rounded down stays at or above the largest integer root of a
    real-rooted h, and h(x) < 0 or h'(x) <= 0 shows that none is left."""
    roots, x = [], 1 + max(map(abs, h[:-1]), default=0)
    while len(h) > 1:
        v = dv = 0
        for c in reversed(h):
            v, dv = v * x + c, dv * x + v
        if not v:
            roots.append(x)
            for i in range(len(h) - 2, -1, -1):  # h / (u - x)
                h[i] += x * h[i + 1]
            h = h[1:]
        elif v < 0 or dv <= 0:
            break
        else:
            x += -v // dv
    return roots


def _dx(terms, j):
    """The x_j-derivative of an {exponent tuple: int} polynomial."""
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
            for e, c in terms.items() if e[j]}
