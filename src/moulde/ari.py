"""Flexion binary operations, mould exponentials and the special moulds.

The operands decide: `amit`, `anit`, `arit`, `ari` and `preari` take
the units of their operands' alphabet (`_amit`/`_anit` on U, the `_bar`
ones on V; the `_bar` products are aliases), and the series and identity
checks truncate at the smallest cap of their operands, which they need.
A mould holds no value above its cap and every product takes the
smaller cap of its operands, so no operand is trimmed before a product.
Mixed alphabets raise `AlphabetMismatch`; `darit`/`dari` are U-only and
`ganit_bar` V-only.  `exp_ari` and `adjoint_exp` share `_exp_series`.

Every flexion product (mu, amit, anit, arit, ari, preari, ganit) is a
signed sum of splittings of the variable sequence, and one engine,
`_flexion`, evaluates them all.  A splitting is a
function `split(r, xs, live)` of the depth r and the variables
xs = x1..xr that yields factor lists [(M, args), ...]: each term is the
product of the values M(args), where M.get(len(args)) is evaluated on
the linear forms `args`.  A splitting yields only the lists whose every
factor is `live(M, depth)`, a nonzero value, and tests that before it
builds the argument forms.

Each depth is one integer pass.  The factor lists of every splitting
are collected first; each distinct (value, arguments) pair is then
evaluated once, by one `substitute` call per distinct argument tuple,
and kept as integer terms over a denominator with its factor keys.
Each term is multiplied on integers, cancelling before it multiplies
as `RatFrac.__mul__` does, with its sign folded into the denominator,
and the terms of the depth are summed on integers over one common
denominator and cancelled once (`poly._signed_sum`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
import math

from .intpoly import _product
from .poly import MultiPoly, RatFrac, _signed_sum, monomial_sum, substitute
from .mould import (Mould, AlphabetMismatch, _min_cap, _vars,
                    swap, dar, dar_inv, delta_op, delta_inv)


def _operands(A, B, alphabet=None):
    """(alphabet, cap, top) of a product of A and B: the smaller cap, and
    without one, depths up to the sum of the operands' depths."""
    if A.alphabet != B.alphabet:
        raise AlphabetMismatch("operands live on different alphabets")
    if alphabet is not None and A.alphabet != alphabet:
        raise AlphabetMismatch("operation requires %s-moulds" % alphabet)
    cap = _min_cap(A.cap, B.cap)
    if cap is not None:
        return A.alphabet, cap, cap
    return A.alphabet, None, A.max_depth() + B.max_depth()


def _flexion(alphabet, cap, top, products):
    """The mould sum over (sign, split) in `products` of sign times the
    terms of the splitting, in depths 0..top, one integer pass per
    depth."""
    def live(M, depth):
        return depth in M.values  # a mould stores no zero value

    vals = {}
    for r in range(top + 1):
        xs = _vars(r)
        # each term as its sign and factor slots (args, id of the value),
        # and per argument tuple the distinct values evaluated on it
        terms, on = [], {}
        for sign, split in products:
            for factors in split(r, xs, live):
                slots = []
                for M, args in factors:
                    value, args = M.values[len(args)], tuple(args)
                    on.setdefault(args, {})[id(value)] = value
                    slots.append((args, id(value)))
                terms.append((sign, slots))
        evaluated = {}
        for args, values in on.items():
            if args:
                images = substitute(list(values.values()), list(args))
            else:  # depth-0 constants, lifted to depth r
                one = (0,) * r
                images = [RatFrac._make(r, {one: v.terms[()]}, v.denom, ())
                          for v in values.values()]
            for i, image in zip(values, images):
                evaluated[args, i] = image.terms, image.denom, image.den_keys
        parts = []
        for sign, slots in terms:
            num, den, keys = _product([evaluated[s] for s in slots])
            parts.append((num, sign * den, keys))
        acc = _signed_sum(r, parts)
        if not acc.is_zero():
            vals[r] = acc
    return Mould(alphabet, vals, cap)


# ---------------------------------------------------------------------------
# Splittings; in w = a b c, a = w[:s], b = w[s:e] is nonempty, c = w[e:]
# ---------------------------------------------------------------------------

def _mu(A, B):
    """w = a b: A(a) B(b)."""
    return lambda r, xs, live: ([(A, xs[:i]), (B, xs[i:])]
                                for i in range(r + 1)
                                if live(A, i) and live(B, r - i))


# In the four splittings below, A takes r - |b| arguments and B takes |b|.

def _amit(B, A):
    """w = a b c, c nonempty: A(a, |b| + first(c), rest(c)) B(b)."""
    return lambda r, xs, live: (
        [(A, xs[:s] + [sum(xs[s:e + 1], MultiPoly.zero(r))] + xs[e + 1:]),
         (B, xs[s:e])]
        for s in range(r) for e in range(s + 1, r)
        if live(A, r - e + s) and live(B, e - s))


def _anit(B, A):
    """w = a b c, a nonempty: A(front(a), last(a) + |b|, c) B(b)."""
    return lambda r, xs, live: (
        [(A, xs[:s - 1] + [sum(xs[s - 1:e], MultiPoly.zero(r))] + xs[e:]),
         (B, xs[s:e])]
        for s in range(1, r) for e in range(s + 1, r + 1)
        if live(A, r - e + s) and live(B, e - s))


def _amit_bar(B, A):
    """w = a b c, c nonempty: A(a, c) B(b - first(c))."""
    return lambda r, xs, live: ([(A, xs[:s] + xs[e:]),
                                 (B, [x - xs[e] for x in xs[s:e]])]
                                for s in range(r) for e in range(s + 1, r)
                                if live(A, r - e + s) and live(B, e - s))


def _anit_bar(B, A):
    """w = a b c, a nonempty: A(a, c) B(b - last(a))."""
    return lambda r, xs, live: ([(A, xs[:s] + xs[e:]),
                                 (B, [x - xs[s - 1] for x in xs[s:e]])]
                                for s in range(1, r)
                                for e in range(s + 1, r + 1)
                                if live(A, r - e + s) and live(B, e - s))


# the (amit, anit) splittings of each alphabet: the u-side units add
# the letters of b to a neighbour, the v-side ones lower b by a neighbour
_UNITS = {"U": (_amit, _anit), "V": (_amit_bar, _anit_bar)}


def _units(A, B):
    """(alphabet, cap, top) of a product of A and B, and the (amit, anit)
    splittings of their alphabet."""
    operands = _operands(A, B)
    return operands, _UNITS[operands[0]]


# ---------------------------------------------------------------------------
# mu, lu and the flexion derivations
# ---------------------------------------------------------------------------

def mu(A, B):
    """Mould multiplication: (mu(A,B))(w) = sum over w = w1 w2 of A(w1) B(w2)."""
    return _flexion(*_operands(A, B), [(1, _mu(A, B))])


def lu(A, B):
    """mu-commutator."""
    return _flexion(*_operands(A, B), [(1, _mu(A, B)), (-1, _mu(B, A))])


def amit(B, A):
    """amit(B).A, with the sum over splittings a b c, c nonempty:
    A(a, |b| + first(c), rest(c)) B(b) for U-moulds and
    A(a, c) B(b - first(c)) for V-moulds."""
    operands, (am, _) = _units(A, B)
    return _flexion(*operands, [(1, am(B, A))])


def anit(B, A):
    """anit(B).A, with the sum over splittings a b c, a nonempty:
    A(front(a), last(a) + |b|, c) B(b) for U-moulds and
    A(a, c) B(b - last(a)) for V-moulds."""
    operands, (_, an) = _units(A, B)
    return _flexion(*operands, [(1, an(B, A))])


def arit(B, A):
    """arit(B).A = amit(B).A - anit(B).A (a derivation of mu)."""
    operands, (am, an) = _units(A, B)
    return _flexion(*operands, [(1, am(B, A)), (-1, an(B, A))])


def ari(A, B):
    """arit(B).A - arit(A).B + lu(A, B)."""
    operands, (am, an) = _units(A, B)
    return _flexion(*operands, [
        (1, am(B, A)), (-1, an(B, A)), (-1, am(A, B)), (1, an(A, B)),
        (1, _mu(A, B)), (-1, _mu(B, A))])


def preari(A, B):
    """arit(B).A + mu(A, B)."""
    operands, (am, an) = _units(A, B)
    return _flexion(*operands,
                    [(1, am(B, A)), (-1, an(B, A)), (1, _mu(A, B))])


# the v-side names of the products above, still listed by the tracer
amit_bar, anit_bar, arit_bar, ari_bar, preari_bar = \
    amit, anit, arit, ari, preari


# ---------------------------------------------------------------------------
# Dari
# ---------------------------------------------------------------------------

def darit(A, B):
    """Darit(A).B = dar((-arit + ad)(delta^{-1} A) . dar^{-1} B)."""
    L = delta_inv(A)
    C = dar_inv(B)
    return dar(_flexion(*_operands(C, L, "U"), [
        (1, _mu(L, C)), (-1, _mu(C, L)), (-1, _amit(L, C)), (1, _anit(L, C))]))


def dari(A, B):
    """Dari bracket: ari conjugated by Delta.  It equals the
    antisymmetrized Darit, darit(A, B) - darit(B, A)."""
    return delta_op(ari(delta_inv(A), delta_inv(B)))


# ---------------------------------------------------------------------------
# Exponential / logarithm
# ---------------------------------------------------------------------------

def _cap(what, *moulds):
    """The smallest cap of the operands of a series, which needs one."""
    cap = reduce(_min_cap, [M.cap for M in moulds])
    if cap is None:
        raise ValueError("%s requires a capped operand" % what)
    return cap


def _exp_series(out, term, k, step):
    """out + sum_{j >= k} term_j / j!, with term_{j+1} = step(term_j),
    until a term vanishes or j passes the cap of out: the scaled terms
    are collected and summed once (`Mould.sum`), one lift and one
    cancellation per depth."""
    terms = [out]
    while term.values and k <= out.cap:
        terms.append(term.scale(Fraction(1, math.factorial(k))))
        term = step(term)
        k += 1
    return Mould.sum(terms)


def exp_ari(A):
    """Group-like exponential: 1 + sum_k B_k / k!, B_1 = A and
    B_{k+1} = preari(B_k, A), to the cap of A.  A must vanish in depth
    0, so B_k vanishes below depth k and the series ends at the cap."""
    cap = _cap("exp", A)
    if not A.get(0).is_zero():
        raise ValueError("exponent must vanish in depth 0")
    one = Mould(A.alphabet, {0: RatFrac.const(0, 1)}, cap)
    return _exp_series(one, A, 1, lambda B: preari(B, A))


def log_ari(M):
    """Inverse of exp_ari, to the cap of M, solved depth by depth: depth
    r of exp(L) reads only the depths up to r of L, so each step runs
    exp_ari at cap r."""
    cap = _cap("log", M)
    if not (M.get(0) == RatFrac.const(0, 1)):
        raise ValueError("logarithm requires depth-0 value 1")
    L = Mould(M.alphabet, {}, cap)
    for r in range(1, cap + 1):
        diff = M.get(r) - exp_ari(L.with_cap(r)).get(r)
        if not diff.is_zero():
            L = L + Mould(M.alphabet, {r: diff}, cap)
    return L


def adjoint_exp(L, M):
    """exp(ad_L) M = sum_k ad_L^k(M) / k!, with ad_L = ari(L, .), to the
    smaller cap of L and M.  A bracket with L raises the lowest depth,
    so the terms past the cap vanish."""
    cap = _cap("adjoint exponential", L, M)
    return _exp_series(Mould(M.alphabet, {}, cap), M, 0, lambda T: ari(L, T))


# ---------------------------------------------------------------------------
# Special moulds
# ---------------------------------------------------------------------------

def infinitesimal_generator(rmax):
    """Coefficients c_1..c_rmax of the generator g(x) = sum c_r x^{r+1}
    whose flow exp(g d/dx) maps x to f(x) = 1 - exp(-x).

    g solves Julia's equation g(f(x)) = f'(x) g(x), and the flow's first
    order gives c_1 = f_2 = -1/2.  For k >= 2, c_k enters the x^{k+2}
    coefficient of g(f) - f' g as (k - 1) f_2 c_k, beside c_1..c_{k-1}
    alone, so one division finds it from the powers of f cut at degree
    rmax + 2."""
    top = rmax + 3
    f = [Fraction(0)] + [Fraction((-1) ** (d + 1), math.factorial(d))
                         for d in range(1, top)]
    powers = [[Fraction(1)] + [Fraction(0)] * (top - 1)]  # f^0, f^1, ...
    for _ in range(rmax):
        p = powers[-1]
        powers.append([sum(p[i] * f[d - i] for i in range(d + 1))
                       for d in range(top)])
    cs = [f[2]]
    for k in range(2, rmax + 1):
        # c_{j+1} x^{j+2} adds f^{j+2} to g(f) and x^{j+2} f' to f' g
        known = sum(c * (powers[j + 2][k + 2] - (k - j + 1) * f[k - j + 1])
                    for j, c in enumerate(cs))
        cs.append(-known / ((k - 1) * f[2]))
    return cs[:rmax]


def _chain_den(r):
    """Factors v1, v1-v2, ..., v_{r-1}-v_r (arity r)."""
    xs = _vars(r)
    fs = [xs[0]]
    for i in range(r - 1):
        fs.append(xs[i] - xs[i + 1])
    return fs


@lru_cache(maxsize=None)
def named_mould(name, cap):
    """The special moulds, memoized per (name, cap).

    pic, poc     elementary v-side moulds with poles along the axes /
                 the difference chain
    lopil        the infinitesimal dilator; pil = exp_ari(lopil)
    pal          swap(pil); lopal = log_ari(pal); invpal_log = -lopal
    """
    if name == "pic":
        vals = {}
        for r in range(1, cap + 1):
            vals[r] = RatFrac(MultiPoly.const(r, 1), tuple(_vars(r)))
        return Mould("V", vals, cap)
    if name == "poc":
        vals = {}
        for r in range(1, cap + 1):
            vals[r] = RatFrac(MultiPoly.const(r, 1), tuple(_chain_den(r)))
        return Mould("V", vals, cap)
    if name == "lopil":
        cs = infinitesimal_generator(cap)
        vals = {}
        for r in range(1, cap + 1):
            xs = _vars(r)
            den = tuple(_chain_den(r)) + (xs[-1],)
            vals[r] = RatFrac(sum(xs, MultiPoly.zero(r)).scale(cs[r - 1]),
                              den)
        return Mould("V", vals, cap)
    if name == "pil":
        return exp_ari(named_mould("lopil", cap))
    if name == "pal":
        return swap(named_mould("pil", cap))
    if name == "lopal":
        return log_ari(named_mould("pal", cap))
    if name == "invpal_log":
        return -named_mould("lopal", cap)
    if name == "invpil_log":
        return -named_mould("lopil", cap)
    raise ValueError("unknown mould name %r" % name)


def tnc_mould(n, c=1):
    """The v-side mould with depth-r value (c/r) * (sum of all monomials
    of degree n-r), for r = 1..n."""
    vals = {}
    for r in range(1, n + 1):
        vals[r] = RatFrac.from_poly(
            monomial_sum(r, n - r).scale(Fraction(c, r)))
    return Mould("V", vals)


# ---------------------------------------------------------------------------
# ganit
# ---------------------------------------------------------------------------

def _ganit_splittings(r):
    """Decompositions of x1..xr into a1 b1 ... as bs, every chunk nonempty
    except possibly the final b.  Yields (a, bs): the 0-based positions
    of the concatenated a-chunks and the (start, end) slices of the
    b-chunks."""
    def rec(pos, a_acc, b_acc):
        # the next a-chunk, then the end or the next b-chunk
        for a_end in range(pos + 1, r + 1):
            a_new = a_acc + list(range(pos, a_end))
            if a_end == r:
                yield a_new, b_acc
                continue
            for b_end in range(a_end + 1, r + 1):
                b_new = b_acc + [(a_end, b_end)]
                if b_end == r:
                    yield a_new, b_new
                else:
                    yield from rec(b_end, a_new, b_new)
    yield from rec(0, [], [])


def _ganit(Q, T):
    """T on the concatenated a-chunks, Q on each b-chunk lowered by the
    letter before it."""
    return lambda r, xs, live: ([(T, [xs[p] for p in a])]
                                + [(Q, [x - xs[s - 1] for x in xs[s:e]])
                                   for s, e in bs]
                                for a, bs in _ganit_splittings(r)
                                if live(T, len(a))
                                and all(live(Q, e - s) for s, e in bs))


def ganit_bar(Q, T):
    """ganit(Q).T on the v side: sum over chunkings a1 b1 ... of
    T(a-chunks) times a product of Q over the lowered b-chunks.  With
    both operands uncapped, the series is cut at T's depth, which
    becomes the cap of the result."""
    alphabet, cap, top = _operands(T, Q, "V")
    if cap is None:
        cap = top = T.max_depth()
    return _flexion(alphabet, cap, top, [(1, _ganit(Q, T))])


# ---------------------------------------------------------------------------
# Structural identity checks
# ---------------------------------------------------------------------------

def fundamental_identity_check(M):
    """swap(Ad_ari(pal) M) = ganit(pic) Ad_ari_bar(pil) swap(M), for
    push-invariant M, compared up to the cap of M."""
    cap = _cap("the fundamental identity", M)
    lhs = swap(adjoint_exp(named_mould("lopal", cap), M))
    rhs = ganit_bar(named_mould("pic", cap),
                    adjoint_exp(named_mould("lopil", cap), swap(M)))
    return lhs.eq(rhs)


def goodfund_check(N):
    """Ad_ari_bar(invpil) ganit(-poc) swap(N) = swap(Ad_ari(invpal) N),
    valid when Ad_ari(invpal) N is push-invariant, compared up to the
    cap of N.

    ganit_bar(-poc) is the operator inverse of ganit_bar(pic); the sign
    is forced by the depth-2 composition."""
    cap = _cap("goodfund", N)
    return _goodfund(N, adjoint_exp(named_mould("invpal_log", cap), N))


def _goodfund(N, image):
    """goodfund_check(N) with its right-hand side read from `image`,
    which must be Ad_ari(invpal) N, compared up to the smaller cap of
    N and image."""
    cap = _cap("goodfund", N, image)
    lowered = ganit_bar(-named_mould("poc", cap), swap(N))
    return adjoint_exp(named_mould("invpil_log", cap), lowered).eq(
        swap(image))
