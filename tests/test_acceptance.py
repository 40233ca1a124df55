"""Acceptance criteria.

Each test is one criterion; `pytest -v` prints one pass/fail line per
criterion.  All arithmetic is exact (Fraction); every equality is an
exact comparison with zero tolerance.
"""

import io
import json
import math
import random
from fractions import Fraction as F

from moulde import ari, linalg, maps, mould, spaces, words
from moulde.ari import (ari as ari_bracket, ari_bar, dari, darit, ganit_bar,
                        goodfund_check, infinitesimal_generator, named_mould,
                        tnc_mould)
from moulde.cli import run as cli_run
from moulde.maps import (krv_section, lkv_to_krv_ell, verify_xi_image,
                         w_krv_gate)
from moulde.mould import (Mould, delta_inv, delta_op, is_alternal,
                          is_circ_constant, is_circ_neutral,
                          is_push_invariant, ma, mantar, neg_op, pari, push,
                          star_correction, swap)
from moulde.poly import MultiPoly, RatFrac
from moulde.words import (NCPoly, X, Y, angle_bracket, apply_derivation,
                          c_poly, is_circ_constant_poly, is_push_constant,
                          lie_bracket, lyndon_lie_basis, oder_pair,
                          poisson_bracket, trace_project)


def _random_mould(rng, max_depth, rational=True):
    """A random U-mould with small polynomial or rational values."""
    vals = {}
    for r in range(1, max_depth + 1):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(r))
            terms[e] = F(rng.randint(-4, 4))
        p = MultiPoly(r, terms)
        if p.is_zero():
            p = MultiPoly.variable(1, r)
        if rational and rng.random() < 0.5:
            dens = tuple(MultiPoly.variable(rng.randint(1, r), r)
                         for _ in range(rng.randint(1, 2)))
            vals[r] = RatFrac(p, dens)
        else:
            vals[r] = RatFrac.from_poly(p)
    return Mould("U", vals)


def _random_lie(rng, n):
    basis = lyndon_lie_basis(n)
    out = NCPoly.zero()
    for e in basis:
        out = out + e.scale(F(rng.randint(-2, 2)))
    if out.is_zero():
        out = basis[0]
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_weight3_pair_and_divergence(b3, a3):
    assert words.partner(b3) == a3
    assert (lie_bracket(X, a3) + lie_bracket(Y, b3)).is_zero()
    E = words.DerivationPair("E", a3, b3)
    assert apply_derivation(E, X + Y).is_zero()
    D = oder_pair(b3)
    assert apply_derivation(D, lie_bracket(X, Y)).is_zero()
    tr = trace_project((X + Y) * (X + Y) * (X + Y) - X * X * X - Y * Y * Y)
    assert words.divergence(E) == tr.scale(F(1, 3))


def test_criterion_02_weight5_depth_graded_pair(abar5, bbar5):
    assert (lie_bracket(X, abar5) + lie_bracket(Y, bbar5)).is_zero()
    assert words.is_push_invariant(bbar5)


def test_criterion_03_push_and_circ_constant_fixtures(psi5y, psi_yy, Bpsi):
    ok, c = is_push_constant(psi5y)
    assert ok and c == 1
    ok, c = is_circ_constant_poly(psi_yy)
    assert ok and c == 1
    ok, c = is_circ_constant(Bpsi, weight=5)
    assert ok and c == 1


def test_criterion_04_a3_quotient_alternality(A3):
    Q = delta_inv(A3)
    assert is_alternal(Q)
    corr = star_correction(swap(Q), "alternal")
    assert corr == {3: F(1, 3)}


def test_criterion_05_operator_identities_on_random_moulds():
    rng = random.Random(20260823)
    for _ in range(100):
        M = _random_mould(rng, 5)
        assert swap(swap(M)).eq(M)
        assert neg_op(push(M)).eq(mantar(swap(mantar(swap(M)))))
        for r in M.depths():
            part = Mould("U", {r: M.get(r)})
            P = part
            for _ in range(r + 1):
                P = push(P)
            assert P.eq(part)
    # ganit(pic) and ganit(-poc) are mutually inverse (sign pinned by the
    # depth-2 composition; see the decisions ledger)
    pic = named_mould("pic", 4)
    poc = named_mould("poc", 4)
    for _ in range(10):
        T = swap(_random_mould(rng, 4)).with_cap(4)
        assert ganit_bar(pic, ganit_bar(-poc, T)).eq(T)
        assert ganit_bar(-poc, ganit_bar(pic, T)).eq(T)


def test_criterion_06_ma_intertwines_the_three_brackets():
    pairs = [(c_poly(3), c_poly(3)),
             (lie_bracket(X, lie_bracket(X, Y)), c_poly(5)),
             (_random_lie(random.Random(7), 4), _random_lie(random.Random(8), 5)),
             (c_poly(5), c_poly(7))]
    for b, b2 in pairs:
        assert ma(lie_bracket(b, b2)).eq(ari.lu(ma(b), ma(b2)))
        assert ma(poisson_bracket(b, b2)).eq(ari_bracket(ma(b), ma(b2)))
    # Dari <-> angle bracket; the weight-(5,7) pair is the first nonzero
    # instance (the weight-3 generator is central for this bracket)
    c5, c7 = c_poly(5), c_poly(7)
    ab = angle_bracket(c5, c7)
    assert not ab.is_zero()
    assert ma(ab).eq(dari(ma(c5), ma(c7)))
    assert dari(ma(c5), ma(c7)).eq(
        darit(ma(c5), ma(c7)) - darit(ma(c7), ma(c5)))
    assert angle_bracket(c_poly(3), c5).is_zero()


def test_criterion_07_bracket_structure_preservation():
    rng = random.Random(31415)

    def random_push_invariant(rng):
        # combinations of ad_x^{n-1}(y) are push-invariant Lie elements,
        # so their ma-images are alternal with circ-neutral swap
        out = NCPoly.zero()
        for n in (3, 5, 7):
            out = out + c_poly(n).scale(F(rng.randint(-2, 2)))
        return out if not out.is_zero() else c_poly(3)

    for i in range(50):
        A = ma(_random_lie(rng, rng.randint(3, 5)))
        B = ma(_random_lie(rng, rng.randint(3, 5)))
        C = ari_bracket(A, B)
        assert is_alternal(C)
        Ap = ma(random_push_invariant(rng))
        Bp = ma(random_push_invariant(rng))
        assert is_circ_neutral(ari_bar(swap(Ap), swap(Bp)))
    # ari with a constant mould vanishes
    for i in range(10):
        M = _random_mould(rng, 4, rational=False)
        K = Mould("U", {1: F(rng.randint(1, 3)),
                        2: F(rng.randint(-3, -1))})
        assert ari_bracket(K, M).eq(Mould("U", {}))


def test_criterion_08_lkv_ls_dimension_agreement():
    # ls and lkv agree in every cell, and every ls element (a mould)
    # is push-invariant with circ-neutral swap
    checked = 0
    for n in range(1, 11):
        for r in range(1, 5):
            cell = spaces.solve_ls(n, r)
            assert cell.dim == spaces.solve_lkv(n, r).dim, (n, r)
            for b in cell.basis:
                assert mould.is_push_invariant(b), (n, r)
                assert is_circ_neutral(swap(b)), (n, r)
                checked += 1
    assert checked >= 1
    # parity vanishing: even weight has no depth-1 or depth-3 elements
    for n in (4, 6, 8, 10):
        assert spaces.solve_ls(n, 1).dim == 0
        assert spaces.solve_ls(n, 3).dim == 0
    # gr_krv dimensions are bounded by lkv in depth 1
    for n in range(3, 9):
        assert spaces.solve_gr_krv(n, 1) <= spaces.solve_lkv(n, 1).dim + 1
        assert spaces.solve_gr_krv(n, 1) == spaces.solve_lkv(n, 1).dim


def test_criterion_09_dilator_generator_and_named_moulds():
    cs = infinitesimal_generator(8)
    assert cs[:6] == [F(-1, 2), F(-1, 12), F(-1, 48), F(-1, 180),
                      F(-11, 8640), F(-1, 6720)]
    # re-substitute: the flow exp(g d/dx) maps x to 1 - e^{-x} through
    # degree 9
    top = 10
    g = [F(0)] * top
    for r, c in enumerate(cs, start=1):
        if r + 1 < top:
            g[r + 1] = c

    def d_g(h):
        out = [F(0)] * top
        for d in range(1, top):
            if h[d] == 0:
                continue
            for e in range(2, top):
                if g[e] != 0 and d - 1 + e < top:
                    out[d - 1 + e] += d * h[d] * g[e]
        return out

    flow = [F(0)] * top
    flow[1] = F(1)
    term = flow[:]
    k = 1
    while any(term):
        term = d_g(term)
        for d in range(top):
            flow[d] += term[d] / math.factorial(k)
        k += 1
    target = [F(0)] + [F((-1) ** (d + 1), math.factorial(d))
                       for d in range(1, top)]
    assert flow == target
    # lopil is alternal and circ-neutral; lopal = log_ari(pal) is alternal
    lopil = named_mould("lopil", 4)
    assert is_alternal(lopil) and is_circ_neutral(lopil)
    lopal = named_mould("lopal", 4)
    assert is_alternal(lopal)
    assert named_mould("pal", 4).eq(swap(named_mould("pil", 4)))


def test_criterion_10_goodfund_identity(w3, psi_minus):
    assert goodfund_check(ma(w3).with_cap(4))
    assert goodfund_check(ma(psi_minus).with_cap(4))


def test_criterion_11_xi_image_verdicts(w3, psi_minus):
    for w in (w3, psi_minus):
        report = verify_xi_image(ma(w), 4)
        assert report.verdicts["precondition"]
        assert report.verdicts["push_invariant"]
        assert report.verdicts["alternal"]
        assert report.verdicts["circ_neutral_star"]
        assert report.verdicts["in_ari_delta"]
        assert report.verdicts["fundamental_identity"]


def test_criterion_12_tnc_family():
    for n in range(3, 8):
        T = tnc_mould(n, 1)
        ok, c = is_circ_constant(T, weight=n)
        assert ok and c == 1
        # ganit(-poc) maps the pari'd family to a circ-neutral mould
        # (the -poc sign is pinned in the decisions ledger)
        G = ganit_bar(-named_mould("poc", n), pari(T))
        assert is_circ_neutral(G)


def test_criterion_13_lkv_embeds_in_krv_ell():
    found = 0
    for n in range(3, 10):
        for r in range(1, min(n, 4)):
            for b in spaces.solve_lkv(n, r).basis:
                word_img, mould_img = lkv_to_krv_ell(b)
                assert ma(word_img).eq(mould_img)
                Q = delta_inv(mould_img)
                assert is_alternal(Q)
                assert is_push_invariant(Q)
                assert star_correction(swap(Q), "circ_neutral") is not None
                found += 1
    assert found >= 5


def test_criterion_14_ds_ell_krv_ell_square(A3):
    # A3 lies in the span of both solver bases at (7, 3)
    target = A3.get(3).as_poly()
    for solver in (spaces.solve_ds_ell, spaces.solve_krv_ell):
        cell = solver(7, 3)
        polys = [b.get(3).as_poly() for b in cell.basis]
        exps = sorted({e for p in polys for e in p.terms}
                      | set(target.terms))
        matrix = [[p.coeff(e) for p in polys] for e in exps]
        rhs = [target.coeff(e) for e in exps]
        assert linalg.solve(matrix, rhs) is not None
    # every ds_ell basis element passes the krv_ell predicate suite
    for n in range(3, 9):
        for r in range(1, 4):
            for P in spaces.solve_ds_ell(n, r).basis:
                assert is_alternal(P)
                assert is_push_invariant(P)
                if r > 1:
                    Q = delta_inv(P)
                    assert star_correction(swap(Q), "circ_neutral") \
                        is not None


def test_criterion_15_cli_contract(tmp_path, b3, w3):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    # golden dumps are byte-stable across invocations
    for name in ("poc", "pic", "lopil"):
        a = run(["dump", "--mould", name, "--depth", "4", "--format", "json"])
        b = run(["dump", "--mould", name, "--depth", "4", "--format", "json"])
        assert a[0] == 0 and a == b
    assert run(["dump", "--mould", "pic", "--depth", "2",
                "--format", "json"])[1] == (
        '{"alphabet":"V","cap":2,"depths":{'
        '"1":{"den":[["1",[1]]],"num":[["1",[0]]]},'
        '"2":{"den":[["1",[1,1]]],"num":[["1",[0,0]]]}},"weight":0}')
    table = run(["dims", "--space", "lkv", "--n", "3..6", "--r", "1..2"])
    assert table[0] == 0
    assert table[1] == ("lkv dimensions\n"
                        "r\\n    3   4   5   6\n"
                        "1      1   0   1   0\n"
                        "2      0   0   0   0\n")
    assert table == run(["dims", "--space", "lkv", "--n", "3..6",
                         "--r", "1..2"])
    assert run(["dims", "--space", "ls", "--n", "3..6", "--r", "1..2"])[1] \
        .splitlines()[1:] == table[1].splitlines()[1:]
    # exit codes: 0 success, 1 verification failure, 2 usage error
    w3_path = tmp_path / "w3.txt"
    w3_path.write_text(words.ncpoly_to_text(w3))
    b3_path = tmp_path / "b3.txt"
    b3_path.write_text(words.ncpoly_to_text(b3))
    assert run(["check", "--input", str(w3_path), "--space", "wkrv"])[0] == 0
    assert run(["check", "--input", str(b3_path), "--space", "wkrv"])[0] == 1
    assert run(["dims", "--space", "nope", "--n", "3", "--r", "1"])[0] == 2
    assert run([])[0] == 2
