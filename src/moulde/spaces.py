"""Linear-constraint solvers for the bigraded spaces.

Every space runs through one constraint engine.  The bigraded spaces
`lkv`, `ls`, `krv_ell` and `ds_ell` are all alternal, and share one
parameter basis: the alternal polynomial moulds of degree n-r in depth
r, onto which `ma` maps the depth-r Lie elements, so there are as many
as the Witt number (1/n) sum_{d | (n,r)} mu(d) C(n/d, r/d) (Schneps,
"ARI, GARI, Zig and Zag", arXiv:1507.01534).  `_kernel` solves the
alternality rows on the monomials once per rank word, the pattern of
equal exponents of a block: equal exponents decide the shuffles'
collisions and the grlex order.  Only `vkrv` is solved on Lyndon Lie
elements, and its rows are read off the brackets' integer coefficients
word by word.  The space is a list of linear conditions on that basis, built
from shared pieces: push-invariance, circ-neutrality, alternality of
the swap and the Delta-quotient.  The `lkv` basis returns to Lie
elements through `ma_inverse`.  Each operator acts once on the whole
parameter list.  `_assemble` keeps the rows sparse and on
integers, as `linalg.nullspace` takes them, and `_solve` re-verifies
every basis element against the defining predicates of the space,
raising `VerificationError` on a failure.

The Delta-quotient conditions of `krv_ell` and `ds_ell`, on
swap(P/Delta) with Delta = u1...ur(u1+...+ur), are built with no
cancelling (`_quotient_rows`): each condition sum_j v_j f_j = w c is
multiplied by one common denominator D of its terms.  Multiplying by
D != 0 is injective on rational functions, so the rows change but
their kernel, and the reduced basis of `nullspace`, do not.

The defining predicates of each space are written once, in `checks`;
the solvers and the maps that land in a space read them through
`failed_check`.  `CELL_SOLVERS` holds the (n, r) cell solvers.

Spaces:
  lkv      push-invariant, circ-neutral Lie elements (depth-graded)
  ls       alternal moulds with alternal swap, even in depth 1
  vkrv     push-invariant Lie b with b^y - b^x push-constant
  gr_krv   depth-graded pieces of vkrv
  krv_ell  polynomial moulds P with P/(u1..ur(u1+..+ur)) push-invariant
           and *circ-neutral swap, alternal
  ds_ell   polynomial moulds P with P/(u1..ur(u1+..+ur)) alternal with
           *alternal swap
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from . import mould as mould_mod
from . import words as words_mod
from .linalg import nullspace, rank
from .mould import Mould
from .intpoly import _ints, _lifted, _renamed_keys, _shuffler
from .poly import (MultiPoly, RatFrac, _add_into, _factor_keys, compositions,
                   grlex_key)
from .words import NCPoly


class VerificationError(Exception):
    """A solved basis element fails a defining predicate of its space.

    Raised in place of an `assert`, so the check also runs under
    `python -O`."""

    def __init__(self, space, n, r, check):
        where = "n=%s" % (n,) if r is None else "n=%s, r=%s" % (n, r)
        super().__init__("%s (%s): basis element is not %s"
                         % (space, where, check))
        self.space = space
        self.n = n
        self.r = r
        self.check = check


class ConstraintSystem:
    """Parameter basis plus one row per instantiated linear identity:
    row i, tagged tags[i], is {column: entry * scales[i]} in
    `integer_rows`, which may carry a common factor; `rows` builds the
    dense rational rows on demand, reduced.  The parameters are the
    alternal polynomials of `_kernel` (with a constant "c" adjoined for
    `krv_ell` and `ds_ell`), or the Lyndon brackets for `vkrv`."""

    __slots__ = ("parameters", "tags", "integer_rows", "scales")

    def __init__(self, parameters, tags, integer_rows, scales):
        self.parameters = parameters
        self.tags = tags
        self.integer_rows = integer_rows
        self.scales = scales

    @property
    def rows(self):
        cols = range(len(self.parameters))
        return [[Fraction(row.get(j, 0), scale) for j in cols]
                for row, scale in zip(self.integer_rows, self.scales)]

    def null_vectors(self):
        return nullspace(self.integer_rows, len(self.parameters))


class BigradedBasis:
    """Solved (weight, depth) piece of a space."""

    __slots__ = ("space", "n", "r", "basis")

    def __init__(self, space, n, r, basis):
        self.space = space
        self.n = n
        self.r = r
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        where = "n=%s" % (self.n,)
        if self.r is not None:
            where += ", r=%s" % (self.r,)
        return "BigradedBasis(%s, %s, dim=%d)" % (self.space, where, self.dim)


# ---------------------------------------------------------------------------
# The constraint engine
# ---------------------------------------------------------------------------

def _assemble(parameters, conditions):
    """Constraint system of `conditions` on `parameters`.

    A condition (tag, images, weight) says that sum_j v_j images[j]
    equals weight * c, where images[j], the image of parameter j, is a
    RatFrac or a {key: rational} dict, and c is a constant adjoined as
    a last parameter "c" when some condition has a nonzero weight.  The
    constant enters as one more image, -weight.  Each image is cleared
    to integer terms over a den: the RatFrac numerators of a condition,
    the constant's included, are lifted over the lcm of their keys
    (`intpoly._lifted`), and a dict is cleared by `intpoly._ints`.
    Images may come cleared, as a pair (D, numerators): the condition
    times the integer polynomial D, each image an (integer terms, den)
    pair (`_quotient_rows`); then the constant alone is lifted, to
    -weight * D.  There is one row per key (tag, monomial or word) in
    the union of all numerators, kept sparse and scaled to integers by
    the lcm of the dens of its columns.  Without parameters the system
    is empty, the constant's column included."""
    if not parameters:
        return ConstraintSystem([], [], [], [])
    constant = any(weight for _, _, weight in conditions)
    if constant:
        parameters = list(parameters) + ["c"]
    entries, dens = {}, {}
    for tag, images, weight in conditions:
        if isinstance(images, tuple):
            den, cleared = images
            if constant:
                cleared = cleared + [(
                    {e: -weight * x for e, x in den.items()}, 1)]
        else:
            if constant:
                images = list(images) + [
                    RatFrac.const(images[0].arity, -weight)]
            if isinstance(images[0], RatFrac):
                _, nums = _lifted((f.den_keys, f.terms) for f in images)
                cleared = zip(nums, (f.denom for f in images))
            else:
                cleared = map(_ints, images)
        cols = dens[tag] = {}
        for j, (terms, den) in enumerate(cleared):
            cols[j] = den
            for k, c in terms.items():
                entries.setdefault((tag, k), {})[j] = c
    tags = sorted(entries)
    rows, scales = [], []
    for tag in tags:
        row, cols = entries.pop(tag), dens[tag[0]]
        scale = math.lcm(*(cols[j] for j in row))
        rows.append({j: c * (scale // cols[j]) for j, c in row.items()})
        scales.append(scale)
    return ConstraintSystem(parameters, tags, rows, scales)


def _solve(space, n, r, system, combine):
    """Basis of `space` from the nullspace of `system`.

    Each null vector is combined into an element, which must pass every
    check of `checks(space)`; an adjoined constant "c" is dropped."""
    params = system.parameters
    if params[-1:] == ["c"]:
        params = params[:-1]
    basis = []
    for v in system.null_vectors():
        element = combine(params, v)
        failed = failed_check(space, element)
        if failed is not None:
            raise VerificationError(space, n, r, failed)
        basis.append(element)
    return BigradedBasis(space, n, r, basis)


def _combine_mould(polys, vec):
    """The sum of the parameter polynomials weighted by `vec`."""
    terms = {}
    for p, c in zip(polys, vec):
        if c:
            _add_into(terms, ((e, c * x) for e, x in p.terms.items()))
    r = polys[0].arity
    return Mould("U", {r: MultiPoly._wrap(terms, r)})


# ---------------------------------------------------------------------------
# Conditions on a list of moulds, one per parameter
# ---------------------------------------------------------------------------

def _alternal(moulds, r, tag, constant=False):
    """Shuffle sums Sh((1..i)(i+1..r)) for i <= r/2 vanish, or equal
    C(r, i) c: the shuffle sums of the constant mould c."""
    values = [M.get(r) for M in moulds]
    return [("%s:%d" % (tag, i), mould_mod._shuffle_sum(values, r, i),
             math.comb(r, i) if constant else 0)
            for i in range(1, r // 2 + 1)]


def _push(moulds, r):
    """push(B) = B in depth r; in depth 1 this is evenness."""
    return ("push", [P.get(r) - B.get(r) for P, B
                     in zip(mould_mod._push(moulds), moulds)], 0)


def _circ(moulds, r, weight=0):
    """The cyclic sum of the depth-r value vanishes, or equals c."""
    return ("circ", mould_mod._cycle_sum([M.get(r) for M in moulds], r),
            weight)


def _quotient_rows(moulds, r, sums):
    """The conditions (tag, images, weight), for each (tag, perms,
    weight) of `sums`, that the renamings by perms of swap(P/Delta),
    Delta = u1...ur(u1+...+ur), sum to weight * c, for each polynomial
    mould P of `moulds`.

    swap(Delta) is s times the factors of the same r + 1 keys for every
    P, so a renaming moves only those keys and the exponents of
    swap(P) / s: the renamed numerators gather by renamed keys, and
    `intpoly._lifted` brings each parameter over the product D of the
    lcm of the renamed keys, with no cancelling.  The images are the
    pair (D, numerators) of `_assemble`."""
    values = [M.get(r) for M in mould_mod._swap(moulds)]
    s, keys = _factor_keys(mould_mod._delta_forms(
        mould_mod._swap_images(mould_mod._vars(r))))
    # 1 / s = t / d with d > 0: the signs take t, each den d
    t, d = s.denominator * (1 if s > 0 else -1), abs(s.numerator)
    one, out = {(0,) * r: 1}, []
    for tag, perms, weight in sums:
        groups = {}  # renamed keys -> [(exponent map, sign)]
        for p in perms:
            get = _shuffler(p, r, r)
            renamed, sign = _renamed_keys(keys, get)
            groups.setdefault(renamed, []).append((get, sign * t))
        # the lcm of the renamed keys and D, the product of its factors;
        # the lcm anchors the lift of every parameter at D, its factors
        # in one variable, which add no term, first
        lcm, (den, *_) = _lifted([((), one)] + [(k, one) for k in groups])
        anchor = (sorted(lcm, key=lambda k: r - k.count(0)), one)
        cleared = []
        for v in values:
            parts = [anchor]
            for renamed, gets in groups.items():
                acc = {}
                for get, sign in gets:
                    for e, c in v.terms.items():
                        e = get(e)
                        acc[e] = acc.get(e, 0) + sign * c
                parts.append((renamed, {e: c for e, c in acc.items() if c}))
            total = {}
            for terms in _lifted(parts)[1][1:]:
                _add_into(total, terms.items())
            cleared.append((total, v.denom * d))
        out.append((tag, (den, cleared), weight))
    return out


def _even_in_depth1(M):
    """Push-invariance in depth 1, which is evenness; void above."""
    return 1 not in M.values or mould_mod.is_push_invariant(M)


def _star(prop):
    """The swapped Delta-quotient has `prop` up to a constant mould."""
    return lambda M: mould_mod.star_correction(
        mould_mod.swap(mould_mod.delta_inv(M)), prop) is not None


def _push_constant(b):
    """b^y - b^x is push-constant for the value (b | x^{n-1} y)."""
    _, _, _, bux, buy = words_mod.decompose(b)
    ok, got = words_mod.is_push_constant(buy - bux)
    return ok and got == b.coeff("x" * (b.weight() - 1) + "y")


def checks(space):
    """The (name, predicate) pairs that define `space`, built on each
    call so that every predicate is looked up in its module when it runs."""
    alternal = ("alternal", mould_mod.is_alternal)
    even = ("even in depth 1", _even_in_depth1)
    lie_push = ("push-invariant", words_mod.is_push_invariant)
    return {
        "lkv": [lie_push, ("circ-neutral", words_mod.is_circ_neutral_poly)],
        "ls": [alternal, ("swap-alternal", lambda M: mould_mod.is_alternal(
            mould_mod.swap(M))), even],
        "vkrv": [lie_push, ("push-constant", _push_constant)],
        "krv_ell": [alternal,
                    ("push-invariant", mould_mod.is_push_invariant),
                    ("*circ-neutral", _star("circ_neutral"))],
        "ds_ell": [alternal, even, ("*alternal", _star("alternal"))],
    }[space]


def failed_check(space, element):
    """The name of the first check of `space` that `element` fails, or None."""
    return next((name for name, holds in checks(space)
                 if not holds(element)), None)


def _exp_tuples(d, r):
    """Exponent tuples of length r with total degree d, grlex order."""
    if d < 0:
        return []
    return sorted(compositions(d, r), key=grlex_key)


@lru_cache(maxsize=None)
def _pattern_kernel(perms):
    """Null vectors of the `al` rows on the monomials `perms`, the
    permutations of one rank word in grlex order, each as (position,
    Fraction) pairs.  The rank word is a sorted exponent tuple with
    every value replaced by its rank among the distinct values, so
    there are at most 2^(r-1) keys per depth."""
    r = len(perms[0])
    monomials = [Mould("U", {r: MultiPoly.monomial(p, 1)}) for p in perms]
    rows = _assemble(perms, _alternal(monomials, r, "al")).integer_rows
    return tuple(tuple((i, x) for i, x in enumerate(v) if x)
                 for v in nullspace(rows, len(perms)))


def _kernel(n, r):
    """The alternal polynomials of degree n-r in depth r, sorted by free
    column, and their moulds: the kernel of the `al` rows on the
    monomials.

    A shuffle keeps the multiset of exponents, so the rows split into
    blocks keyed by the sorted exponent tuple, solved once per rank word
    (`_pattern_kernel`): equal exponents decide the shuffles' collisions
    and the grlex order of a block.  A kernel vector is 1 at its free
    column, 0 at the other free columns and supported on the columns
    before it, so the reduced basis of a system on these polynomials
    is, in monomial coordinates, the one of the system on the
    monomials.  In depth 1 there are no rows, and the kernel is the
    monomials."""
    gens = _exp_tuples(n - r, r)
    blocks = {}
    for j, e in enumerate(gens):
        blocks.setdefault(tuple(sorted(e)), []).append(j)
    kernel = {}  # free column -> kernel polynomial
    for vals, cols in blocks.items():
        rank = {v: i for i, v in enumerate(sorted(set(vals)))}
        perms = tuple(tuple(rank[v] for v in gens[j]) for j in cols)
        for vec in _pattern_kernel(perms):
            kernel[cols[vec[-1][0]]] = MultiPoly._wrap(
                {gens[cols[i]]: x for i, x in vec}, r)
    polys = [kernel[f] for f in sorted(kernel)]
    return polys, [Mould("U", {r: p}) for p in polys]


def lie_basis(n, r):
    """Lyndon basis of the weight-n, depth-r part of the free Lie algebra.

    Bracketing keeps the number of letters y, so only the Lyndon words
    with r letters y are bracketed.  No solver uses it: it is the basis
    of the Lyndon-word route to `lkv`, kept as an independent check."""
    return words_mod._lyndon_brackets(
        [w for w in words_mod.lyndon_words(n) if w.count("y") == r])


# ---------------------------------------------------------------------------
# lkv: push-invariant circ-neutral Lie elements
# ---------------------------------------------------------------------------

def lkv_system(n, r):
    """The alternal moulds, images under `ma` of the depth-r Lie
    elements, that are push-invariant with circ-neutral swap."""
    K, B = _kernel(n, r)
    conditions = [_push(B, r)]
    if r > 1:
        conditions.append(_circ(mould_mod._swap(B), r))
    return _assemble(K, conditions)


def _combine_lie(polys, vec):
    return mould_mod.ma_inverse(_combine_mould(polys, vec))


def solve_lkv(n, r):
    """Lie elements of weight n, depth r that are push-invariant with
    circ-neutral swap mould.  The system is solved on the alternal
    moulds, and each basis element is the `ma_inverse` of one."""
    if not (n >= 3 and 1 <= r <= n - 1):
        return BigradedBasis("lkv", n, r, [])
    return _solve("lkv", n, r, lkv_system(n, r), _combine_lie)


# ---------------------------------------------------------------------------
# ls: alternal moulds with alternal swap, even in depth 1
# ---------------------------------------------------------------------------

def ls_system(n, r):
    K, B = _kernel(n, r)
    conditions = _alternal(mould_mod._swap(B), r, "sal")
    if r == 1:
        conditions.append(_push(B, r))
    return _assemble(K, conditions)


def solve_ls(n, r):
    """Degree n-r polynomial moulds in depth r, alternal with alternal
    swap; even in depth 1.  The domain is that of `solve_lkv`, weight
    n >= 3 and depth 1 <= r <= n - 1."""
    if not (n >= 3 and 1 <= r <= n - 1):
        return BigradedBasis("ls", n, r, [])
    return _solve("ls", n, r, ls_system(n, r), _combine_mould)


# ---------------------------------------------------------------------------
# vkrv: push-invariant Lie b with b^y - b^x push-constant
# ---------------------------------------------------------------------------

def vkrv_system(n):
    """Rows on the integer numerators of the Lyndon brackets g, one pass
    over the words w of each g: push(g) - g by a block rotation of w,
    and the coefficient of w in y(g^y - g^x) at its push class
    (`push_classes`, with repetition)."""
    gens = sorted(words_mod.lyndon_lie_basis(n), key=NCPoly.depths)
    m = n - 1
    # word -> (its class key, how often the class lists it)
    classes_of = {}
    for r in range(1, m):
        for o in words_mod.push_classes(m, r):
            key = min(o)
            classes_of.update((v, (key, o.count(v))) for v in o)
    keys = {key for key, _ in classes_of.values()}
    push, ym, classes = [], [], []
    for g in gens:
        row_push = {}
        # push-class sums (with repetition) all equal (g | x^{n-1}y)
        row_class = dict.fromkeys(keys, -g.coeff("x" * m + "y").numerator)
        for w, c in g.terms.items():
            c = c.numerator
            p = words_mod.push_word_single(w)
            row_push[p] = row_push.get(p, 0) + c
            row_push[w] = row_push.get(w, 0) - c
            if w[0] == "x":
                c = -c
            if w[1:] in classes_of:
                key, k = classes_of[w[1:]]
                row_class[key] += k * c
        push.append(row_push)
        # the y^{n-1} coefficient must vanish outright
        ym.append({"": g.coeff("y" * n) - g.coeff("x" + "y" * m)})
        classes.append(row_class)
    return _assemble(gens, [("push", push, 0), ("ym", ym, 0),
                            ("class", classes, 0)])


def solve_vkrv(n):
    """Weight-n part of the space of push-invariant Lie elements whose
    b^y - b^x is push-constant for the value (b | x^{n-1} y)."""
    if n < 3:
        return BigradedBasis("vkrv", n, None, [])
    system = vkrv_system(n)
    # `words.linear_combination`, with each bracket cleared once
    cleared = [_ints(g.terms) for g in system.parameters]
    return _solve("vkrv", n, None, system, lambda _, v: words_mod._combination(
        (((i,), Fraction(c)) for i, c in enumerate(v) if c),
        cleared.__getitem__))


@lru_cache(maxsize=1)
def _vkrv_basis(n):
    """The vkrv(n) basis, solved once for the r loop of one weight."""
    return tuple(solve_vkrv(n).basis)


def solve_gr_krv(n, r):
    """Dimension of the depth-r graded piece of the weight-n part of
    vkrv (depth filtration: F_r = elements with no component of depth
    below r)."""
    basis = _vkrv_basis(n)

    def low_rank(s):
        # dim F_s = dim vkrv - rank of the components of depth < s
        low_words = sorted({w for b in basis for w in b.terms
                            if w.count("y") < s})
        return rank([[b.coeff(w) for b in basis] for w in low_words])

    return low_rank(r + 1) - low_rank(r)


# ---------------------------------------------------------------------------
# krv_ell: P with P/Delta push-invariant and *circ-neutral swap, alternal
# ---------------------------------------------------------------------------

def krv_ell_system(n, r):
    K, B = _kernel(n, r)
    conditions = [_push(B, r)]
    if r > 1:
        conditions += _quotient_rows(
            B, r, [("circ", mould_mod._cycle_perms(r), 1)])
    return _assemble(K, conditions)


def solve_krv_ell(n, r):
    """Degree n-r polynomial moulds P in depth r that are alternal and
    push-invariant with *circ-neutral swap after division by
    u1...ur(u1+...+ur)."""
    if not 1 <= r <= n:
        return BigradedBasis("krv_ell", n, r, [])
    return _solve("krv_ell", n, r, krv_ell_system(n, r), _combine_mould)


# ---------------------------------------------------------------------------
# ds_ell: P with P/Delta alternal and *alternal swap
# ---------------------------------------------------------------------------

def ds_ell_system(n, r):
    K, B = _kernel(n, r)
    if r == 1:
        # evenness: push-invariance of the Delta-quotient, which the
        # krv_ell inclusion needs
        conditions = [_push(B, r)]
    else:
        conditions = _quotient_rows(B, r, [
            ("sal:%d" % i, mould_mod._shuffle_perms(r, i), math.comb(r, i))
            for i in range(1, r // 2 + 1)])
    return _assemble(K, conditions)


def solve_ds_ell(n, r):
    """Degree n-r polynomial moulds P in depth r with P/Delta alternal
    and swap alternal up to a constant mould."""
    if not 1 <= r <= n:
        return BigradedBasis("ds_ell", n, r, [])
    return _solve("ds_ell", n, r, ds_ell_system(n, r), _combine_mould)


# ---------------------------------------------------------------------------
# Dimension tables
# ---------------------------------------------------------------------------

CELL_SOLVERS = {"lkv": solve_lkv, "ls": solve_ls, "krv_ell": solve_krv_ell,
                "ds_ell": solve_ds_ell}


class DimensionTable:
    __slots__ = ("space", "cells")

    def __init__(self, space, cells):
        self.space = space
        self.cells = cells  # list of (n, r, dim), sorted

    def dim(self, n, r):
        for nn, rr, d in self.cells:
            if (nn, rr) == (n, r):
                return d
        raise KeyError((n, r))

    def to_text(self):
        ns = sorted({n for n, _, _ in self.cells})
        rs = sorted({r for _, r, _ in self.cells})
        width = max(4, max(len(str(n)) for n in ns) + 1)
        lines = ["%s dimensions" % self.space,
                 "r\\n " + "".join(str(n).rjust(width) for n in ns)]
        grid = {(n, r): d for n, r, d in self.cells}
        for r in rs:
            lines.append(str(r).ljust(4) + "".join(
                str(grid[(n, r)]).rjust(width) for n in ns))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {"space": self.space,
             "cells": [{"n": n, "r": r, "dim": d}
                       for n, r, d in self.cells]},
            indent=2, sort_keys=True) + "\n"


def dimension_table(space, n_range, r_range):
    """Exact dimension grid over n_range x r_range of gr_krv or of a
    space of `CELL_SOLVERS`; both ranges must be nonempty."""
    if space == "gr_krv":
        dim = solve_gr_krv
    elif space in CELL_SOLVERS:
        def dim(n, r):
            return CELL_SOLVERS[space](n, r).dim
    else:
        raise ValueError("unknown space %r" % space)
    cells = sorted((n, r) for n in n_range for r in r_range)
    if not cells:
        raise ValueError("empty n_range or r_range")
    return DimensionTable(space, [(n, r, dim(n, r)) for n, r in cells])
