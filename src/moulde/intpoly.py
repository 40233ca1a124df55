"""The integer kernels under `moulde.poly`: {exponent tuple: int}
polynomials with no zero coefficient, and linear-form keys (see the
`moulde.poly` docstring).

`_ints` and `_from_ints` are the one passage between a {key: Fraction}
dict (the terms of a `MultiPoly`, `NCPoly` or `TraceVector`, a row of
a matrix, a null vector) and its integer numerators over the lcm of
its denominators; every integer kernel of the package enters and
leaves through them.  `_lifted` alone multiplies numerators by the
factors their denominators lack (`_times_key`, one factor each), and
drops the zeros of each product once.  `_grouped` gathers the parts of
a sum by their keys and names the keys that cannot cancel from it, so
that `_cancelled` tries only the others.  `_renamings`,
`_renamed_groups` and `_summed` are the one renaming pipeline of
`poly.renaming_sums` and of `spaces._sum_rows`, which builds every
shuffle and cyclic row."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
from operator import add, itemgetter, sub


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


def _times_key(terms, key):
    """The {exponent tuple: int} polynomial `terms` times the factor of
    `key`: each term shifts up by one in every variable of the key.
    Terms that cancel are kept as zeros, for `_lifted` to drop once."""
    units = [(i, c) for i, c in enumerate(key) if c]
    out = {}
    for e, v in terms.items():
        for i, c in units:
            te = list(e)
            te[i] += 1
            te = tuple(te)
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


def _lifted(parts, keys=()):
    """(keys', numerators) for (den_keys, integer terms) pairs: the lcm
    of `keys` and the denominators of the nonzero numerators, as sorted
    factor keys, and each numerator multiplied on integers by the
    factors its own denominator lacks.  The factors in fewest variables
    go first: one in a single variable shifts the terms and adds none.
    A lifted numerator drops the zeros of its product once, at the end."""
    parts = list(parts)
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
    nums = []
    for (_, terms), own in zip(parts, counts):
        lift = [k for k, m in order for _ in range(m - own.get(k, 0))]
        if terms and lift:
            for k in lift:
                terms = _times_key(terms, k)
            terms = {e: v for e, v in terms.items() if v}
        nums.append(terms)
    return tuple(sorted(k for k, m in need.items() for _ in range(m))), nums


def _summed(groups, keys=()):
    """(keys', total): the {den_keys: integer terms} groups lifted over
    the lcm of `keys` and their denominators (`_lifted`) and added,
    zeros dropped.  A single group with no `keys` is already over its
    denominator, and is added with no lift."""
    if len(groups) == 1 and not keys:
        (keys, total), = groups.items()
        return keys, {e: v for e, v in total.items() if v}
    keys, nums = _lifted(
        ((k, {e: v for e, v in terms.items() if v})
         for k, terms in groups.items()), keys)
    total = {}
    for terms in nums:
        for e, v in terms.items():
            total[e] = total.get(e, 0) + v
    return keys, {e: v for e, v in total.items() if v}


def _normalize_linear(form):
    """(g, key) for the nonzero integer linear form sum form[i] x_{i+1}
    = g * (factor of key), where key holds coprime integers whose last
    nonzero one (the grlex-leading coefficient of a linear form) is
    positive."""
    g = math.gcd(*form)
    if next(x for x in reversed(form) if x) < 0:
        g = -g
    return g, tuple(x // g for x in form)


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
