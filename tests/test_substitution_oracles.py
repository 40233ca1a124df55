"""The batched substitution and renaming-sum kernels against the
per-value kernels they replaced.

`poly.substitute` substitutes one set of images into a list of values,
and `poly.renaming_sums` adds the renamings of each value of a list.
The oracles below are the earlier bodies of
`MultiPoly.substitute_linear` (with its `_int_power` cache),
`MultiPoly.permute_variables`, `RatFrac.substitute_linear`,
`mould.shuffle_sum` and `mould.circ_cycle_sum`, which handled one value
at a time.  Values and exception types must match.
"""

import math
from fractions import Fraction as F
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from moulde import mould
from moulde.intpoly import _from_ints, _ints
from moulde.poly import (MultiPoly, RatFrac, _divided, _independent_rows,
                         _int_mul, _linear_rows, _normalize_linear,
                         _renaming, compositions, renaming_sums, substitute)


# -- oracles ------------------------------------------------------------------

def _int_power(powers, g, e):
    p = powers.get(e)
    if p is None:
        k = max(powers)
        p = powers[k]
        while k < e:
            k += 1
            p = powers[k] = _int_mul(p, g)
    return p


def oracle_permute(p, perm, arity):
    src = [p.arity] * arity
    for i, q in enumerate(perm):
        src[q - 1] = i
    get = (itemgetter(*src) if arity > 1
           else lambda e: tuple(e[j] for j in src))
    return MultiPoly._wrap({get(e + (0,)): c for e, c in p.terms.items()},
                           arity)


def oracle_poly_substitute(p, images):
    if len(images) != p.arity:
        raise ValueError("need one image per variable")
    tgt = images[0].arity if images else 0
    perm = _renaming(images)
    if perm is not None:
        return oracle_permute(p, perm, tgt)
    forms, dens = zip(*(_ints(x.terms) for x in images))
    weights = []
    for expv, c in p.terms.items():
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
                q = _int_power(powers[i], forms[i], e)
                mono = q if mono is None else _int_mul(mono, q)
        k = num * (common // den)
        for te, tc in (one if mono is None else mono).items():
            acc[te] = acc.get(te, 0) + k * tc
    return MultiPoly._wrap(_from_ints(acc, common), tgt)


def _wrapped(num, keys):
    """The fraction of the MultiPoly num over the factors of the sorted
    keys, as they are: nothing is cancelled."""
    return RatFrac._make(num.arity, *_ints(num.terms), keys)


def oracle_ratfrac_substitute(f, images):
    num = oracle_poly_substitute(f.num, images)
    if not f.den_keys:
        return _wrapped(num, ())
    rows, d = _linear_rows(images)
    scale, keys = 1, []
    for k in f.den_keys:
        form = [0] * num.arity
        for c, row in zip(k, rows):
            if c:
                if row is None:
                    raise ValueError("not a homogeneous linear form")
                for j, x in enumerate(row):
                    form[j] += c * x
        if not any(form):
            raise ZeroDivisionError("zero denominator factor")
        g, key = _normalize_linear(form)
        scale *= g
        keys.append(key)
    scale = F(scale, d ** len(keys))
    keys = tuple(sorted(keys))
    if _independent_rows(rows):
        return _wrapped(num.scale(1 / scale), keys)
    return RatFrac._make(*_divided(num, scale, keys))


def oracle_substitute(value, images):
    if isinstance(value, RatFrac):
        return oracle_ratfrac_substitute(value, images)
    return oracle_poly_substitute(value, images)


def _variables(r):
    return [MultiPoly.variable(i, r) for i in range(1, r + 1)]


def oracle_shuffle_sum(value, r, i):
    xs = _variables(r)
    return RatFrac.sum(
        [oracle_ratfrac_substitute(value, [xs[k - 1] for k in w])
         for w in mould._shuffles(list(range(1, i + 1)),
                                  list(range(i + 1, r + 1)))], r)


def oracle_cycle_sum(value, r):
    xs = _variables(r)
    return RatFrac.sum([oracle_ratfrac_substitute(value, xs[k:] + xs[:k])
                        for k in range(r)], r)


# -- inputs -------------------------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _linear(row):
    r = len(row)
    return MultiPoly(r, {tuple(int(i == j) for j in range(r)): c
                         for i, c in enumerate(row)})


def polys(arity, max_deg=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(arity)])
    return st.dictionaries(exps, rationals, max_size=max_terms).map(
        lambda d: MultiPoly(arity, d))


def factors(arity):
    """Linear forms in `arity` variables: each x_i, x_i - x_j, x_i + x_j
    and the sum of all variables, with a scalar."""
    rows = [tuple(int(k == i) for k in range(arity)) for i in range(arity)]
    rows += [tuple(int(k == i) - int(k == j) for k in range(arity))
             for i in range(arity) for j in range(arity) if i != j]
    rows += [tuple(int(k in (i, j)) for k in range(arity))
             for i in range(arity) for j in range(i + 1, arity)]
    rows.append((1,) * arity)
    return st.tuples(st.sampled_from(rows),
                     st.sampled_from([1, -1, 2, F(1, 3)])).map(
        lambda t: _linear([c * t[1] for c in t[0]]))


def fractions_in(arity):
    return st.tuples(polys(arity, max_deg=2, max_terms=3),
                     st.lists(factors(arity), max_size=3)).map(
        lambda t: RatFrac(*t))


def values(arity=3):
    """A polynomial or a fraction in `arity` variables."""
    return st.one_of(polys(arity), fractions_in(arity))


def renamings(arity=3):
    """Distinct variables: a permutation, or an injection into up to two
    more variables (key coordinates move, and may flip a key's sign)."""
    return st.integers(arity, arity + 2).flatmap(
        lambda r: st.permutations(range(1, r + 1)).map(
            lambda p: [MultiPoly.variable(i, r) for i in p[:arity]]))


entries = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


def _rank(rows):
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def linear_images(arity=3, independent=True):
    """Images of x1..x{arity} as linear forms in 3 or 4 variables, with
    independent rows, or in 1..3 variables with dependent rows."""
    def rows(r):
        return st.lists(st.lists(entries, min_size=r, max_size=r),
                        min_size=arity, max_size=arity)
    if independent:
        drawn = st.integers(arity, arity + 1).flatmap(rows).filter(
            lambda rs: _rank(rs) == arity)
    else:
        drawn = st.integers(1, arity).flatmap(rows).filter(
            lambda rs: _rank(rs) < arity)
    return drawn.map(lambda rs: [_linear(row) for row in rs])


def nonlinear_images(arity=3):
    """Images in 3 variables: linear forms but one, which is a constant,
    affine or quadratic polynomial."""
    bad = st.sampled_from([
        MultiPoly.const(3, 2), _linear([1, 0, 0]) + 1,
        _linear([1, 1, 0]) * _linear([0, 0, 1])])
    rows = st.lists(st.lists(entries, min_size=3, max_size=3),
                    min_size=arity, max_size=arity)
    return st.tuples(rows, st.integers(0, arity - 1), bad).map(
        lambda t: [_linear(row) for row in t[0][:t[1]]] + [t[2]]
        + [_linear(row) for row in t[0][t[1] + 1:]])


images = st.one_of(renamings(), linear_images(),
                   linear_images(independent=False), nonlinear_images())


def _outcome(compute):
    """The values computed, each as its numerator terms, keys and text,
    or the type of the exception raised."""
    try:
        got = compute()
    except (ValueError, ZeroDivisionError) as e:
        return type(e)
    return [(type(v), v.terms if isinstance(v, MultiPoly)
             else (v.num.terms, v.den_keys), str(v)) for v in got]


# -- substitution -------------------------------------------------------------

@given(st.lists(values(), min_size=1, max_size=4), images)
@settings(max_examples=300, deadline=None)
def test_substitute_matches_the_per_value_kernel(vals, images):
    want = _outcome(lambda: [oracle_substitute(v, images) for v in vals])
    assert _outcome(lambda: substitute(vals, images)) == want
    assert _outcome(lambda: [v.substitute_linear(images)
                             for v in vals]) == want


@given(values(), renamings())
@settings(max_examples=150, deadline=None)
def test_renaming_matches_the_per_value_kernel(value, images):
    perm = [next(iter(x.terms)).index(1) + 1 for x in images]
    want = _outcome(lambda: [oracle_substitute(value, images)])
    assert _outcome(lambda: [value.permute_variables(perm,
                                                     images[0].arity)]) \
        == want


def test_substitution_refusals():
    x, y, z = _variables(3)
    f = RatFrac(x, (x - y, z))
    # a key whose image vanishes, also among other values
    for imgs in ([x, x, z], [y, y, z]):
        assert _outcome(lambda: [oracle_substitute(f, imgs)]) \
            is ZeroDivisionError
        assert _outcome(lambda: substitute([x, f, f], imgs)) \
            is ZeroDivisionError
    # a key touching a non-linear image
    for bad in (x * y, x + 1, MultiPoly.const(3, 1)):
        imgs = [bad, y, z]
        assert _outcome(lambda: [oracle_substitute(f, imgs)]) is ValueError
        assert _outcome(lambda: substitute([f], imgs)) is ValueError
    # an untouched non-linear image is substituted into the numerator
    g = RatFrac(y * y, (x,))
    assert substitute([g], [x, x * y + 1, z]) == [
        oracle_substitute(g, [x, x * y + 1, z])]


# -- renaming sums ------------------------------------------------------------

@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(fractions_in(r), min_size=1, max_size=3))))
@settings(max_examples=150, deadline=None)
def test_renaming_sums_match_the_per_value_sums(case):
    r, vals = case
    for i in range(1, r // 2 + 1):
        want = _outcome(lambda: [oracle_shuffle_sum(v, r, i) for v in vals])
        assert _outcome(lambda: renaming_sums(
            vals, list(mould._shuffle_perms(r, i)))) == want
        assert _outcome(lambda: [mould.shuffle_sum(v, r, i)
                                 for v in vals]) == want
    want = _outcome(lambda: [oracle_cycle_sum(v, r) for v in vals])
    assert _outcome(lambda: renaming_sums(vals, mould._cycle_perms(r))) \
        == want
    assert _outcome(lambda: [mould.circ_cycle_sum(mould.Mould("U", {r: v}),
                                                  r) for v in vals]) == want


def test_renaming_sums_need_one_arity():
    assert renaming_sums([], [(1,)]) == []
    x = RatFrac.from_poly(MultiPoly.variable(1, 1))
    y = RatFrac.from_poly(MultiPoly.variable(1, 2))
    try:
        renaming_sums([x, y], [(1,)])
    except ValueError:
        return
    raise AssertionError("values of two arities were summed")


# -- the block walk at the hard cells' sizes ---------------------------------

def _images(name, r, tgt=None):
    """The images of x1..xr under swap (u to v, and v to u), push, the
    flexion arguments (consecutive sums of x1..x{tgt} in r blocks), or a
    list holding a zero form."""
    xs = _variables(tgt or r)
    if name == "swap_u":
        return xs[-1:] + [a - b for a, b in zip(xs[-2::-1], xs[::-1])]
    if name == "swap_v":
        return [sum(xs[:k], MultiPoly.zero(r)) for k in range(r, 0, -1)]
    if name == "push":
        return [-sum(xs, MultiPoly.zero(r))] + xs[:-1]
    if name == "flexion":
        # blocks of sizes 1, 2, 1, 2, ... over tgt variables
        cuts = [0]
        for k in range(r):
            cuts.append(cuts[-1] + 1 + k % 2)
        return [sum(xs[a:b], MultiPoly.zero(tgt)) for a, b in
                zip(cuts, cuts[1:])]
    return xs[:1] + [MultiPoly.zero(r)] + [xs[k] + xs[k - 1]
                                           for k in range(2, r)]


_CELLS = [(12, 3), (6, 4)]  # 91 and 84 monomials
_IMAGES = ["swap_u", "swap_v", "push", "flexion", "zero"]


def _cell_images(name, r):
    return _images(name, r, r + r // 2 if name == "flexion" else None)


def test_block_walk_matches_the_oracle_on_each_monomial():
    for d, r in _CELLS:
        monomials = [MultiPoly.monomial(e) for e in compositions(d, r)]
        assert len(monomials) == math.comb(d + r - 1, r - 1)
        # zero leading and middle blocks are among the tuples
        assert (0,) * (r - 1) + (d,) in [next(iter(m.terms))
                                         for m in monomials]
        assert (1,) + (0,) * (r - 2) + (d - 1,) in [next(iter(m.terms))
                                                    for m in monomials]
        for name in _IMAGES:
            images = _cell_images(name, r)
            want = _outcome(lambda: [oracle_poly_substitute(m, images)
                                     for m in monomials])
            assert _outcome(lambda: substitute(monomials, images)) == want
            for m in monomials[::9]:
                assert _outcome(lambda: [m.substitute_linear(images)]) \
                    == _outcome(lambda: [oracle_poly_substitute(m, images)])


def test_block_walk_matches_the_oracle_on_a_dense_sum():
    for d, r in _CELLS:
        dense = MultiPoly(r, {e: F(k % 7 - 3, 1 + k % 4) for k, e in
                              enumerate(compositions(d, r))})
        assert len(dense.terms) > 70
        for name in _IMAGES:
            images = _cell_images(name, r)
            want = _outcome(lambda: [oracle_poly_substitute(dense, images)])
            assert _outcome(lambda: substitute([dense], images)) == want
            # and as the numerator of a fraction whose keys stay linear
            frac = RatFrac(dense, [MultiPoly.variable(r, r)])
            assert _outcome(lambda: substitute([frac], images)) == \
                _outcome(lambda: [oracle_ratfrac_substitute(frac, images)])


@given(st.dictionaries(st.sampled_from([e for d in range(7)
                                        for e in compositions(d, 4)]),
                      rationals, max_size=10).map(
           lambda d: MultiPoly(4, d)),
       st.one_of(renamings(4), linear_images(4),
                 linear_images(4, independent=False)))
@settings(max_examples=150, deadline=None)
def test_block_walk_matches_the_oracle_in_four_variables(p, images):
    want = _outcome(lambda: [oracle_poly_substitute(p, images)])
    assert _outcome(lambda: substitute([p], images)) == want
