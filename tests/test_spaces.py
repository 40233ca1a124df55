"""Bigraded space solvers and dimension tables."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import moulde
from moulde import linalg, mould, spaces, words
from moulde.mould import (delta_inv, is_alternal, is_push_invariant, ma, swap)
from moulde.spaces import (VerificationError, dimension_table, solve_ds_ell,
                           solve_gr_krv, solve_krv_ell, solve_lkv, solve_ls,
                           solve_vkrv)


def _proportional(f, g):
    """Two nonzero word polynomials equal up to a rational scale."""
    w = next(iter(f.terms))
    c = g.coeff(w) / f.coeff(w)
    return c != 0 and g == f.scale(c)


# -- lkv / ls ----------------------------------------------------------------

def test_lkv_weight3():
    cell = solve_lkv(3, 1)
    assert cell.dim == 1
    b3 = words.lie_bracket(words.X, words.lie_bracket(words.X, words.Y))
    assert _proportional(cell.basis[0], b3)


def test_lkv_zeros():
    assert solve_lkv(4, 1).dim == 0
    assert solve_lkv(5, 2).dim == 0
    assert solve_lkv(6, 1).dim == 0


def test_lkv_basis_elements_satisfy_defining_predicates():
    for (n, r) in [(3, 1), (5, 1), (5, 3), (7, 3)]:
        cell = solve_lkv(n, r)
        for b in cell.basis:
            assert words.is_lie_element(b)
            assert mould.is_push_invariant(ma(b))
            assert mould.is_circ_neutral(swap(ma(b)))


def test_ls_equals_lkv_small():
    for n in range(1, 8):
        for r in range(1, 4):
            assert solve_ls(n, r).dim == solve_lkv(n, r).dim, (n, r)


def test_ls_known_cells():
    assert solve_ls(4, 2).dim == 0
    assert solve_ls(6, 2).dim == 0
    assert solve_ls(5, 1).dim == 1
    assert solve_ls(8, 2).dim == 1  # first depth-2 element


# Broadhurst-Kreimer (hep-th/9609128; Brown, arXiv:1301.3053): inverting
# 1/(1 - O y + S y^2 - S y^4), O = x^3/(1-x^2), S = x^12/((1-x^4)(1-x^6)),
# predicts the Lie dimensions; every tested cell not listed is 0.
# Depth 1 holds one element at each odd weight; depth 2 has 1 at n = 8,
# 10, 12 (2 at 14, 16, 18; 3 at 20); depth 3 has 1 at n = 11 (2 at 13,
# 15; 4 at 17; 5 at 19); depth 4 has 1 at n = 12, 14 (3 at 16; 5 at 18;
# 7 at 20).  The series starts at weight 3, so both spaces are 0 below it.
BROADHURST_KREIMER = {
    **{(n, 1): 1 for n in range(3, 13, 2)},
    (8, 2): 1, (10, 2): 1, (12, 2): 1,
    (11, 3): 1,
    (12, 4): 1, (14, 4): 1,
}


@pytest.mark.parametrize("solve", [solve_ls, solve_lkv])
def test_dims_match_broadhurst_kreimer(solve):
    cells = [(n, r) for n in range(1, 13) for r in (1, 2, 3, 4)]
    if solve is solve_ls:
        cells += [(13, 4), (14, 4)]
    for n, r in cells:
        assert solve(n, r).dim == BROADHURST_KREIMER.get((n, r), 0), (n, r)


def test_lie_basis_is_the_depth_filtered_lyndon_basis():
    for n in range(1, 10):
        full = words.lyndon_lie_basis(n)
        for r in range(n + 1):
            assert spaces.lie_basis(n, r) == [
                b for b in full if b.depths() == [r]], (n, r)


# -- vkrv --------------------------------------------------------------------

def test_vkrv_weight3(b3):
    cell = solve_vkrv(3)
    assert cell.dim == 1
    assert _proportional(cell.basis[0], b3)


def test_vkrv_weight4_empty():
    assert solve_vkrv(4).dim == 0


def test_vkrv_weight5_is_nu_of_psi_minus(v5):
    cell = solve_vkrv(5)
    assert cell.dim == 1
    assert _proportional(cell.basis[0], v5)


# -- gr_krv ------------------------------------------------------------------

def test_gr_krv_dims():
    assert solve_gr_krv(3, 1) == 1
    assert solve_gr_krv(5, 1) == 1
    assert solve_gr_krv(4, 1) == 0


def test_gr_krv_matches_lkv_in_depth1():
    for n in range(3, 8):
        assert solve_gr_krv(n, 1) == solve_lkv(n, 1).dim, n


def test_solver_path_never_falls_back_to_fraction_elimination(monkeypatch):
    def refuse(matrix):
        raise AssertionError("Fraction fallback taken")

    monkeypatch.setattr(linalg, "rref", refuse)
    nullities = {spaces.ls_system(10, 4): 0, spaces.ls_system(15, 3): 2,
                 spaces.lkv_system(10, 4): 0, spaces.vkrv_system(8): 1}
    for system, nullity in nullities.items():
        assert len(system.null_vectors()) == nullity
    spaces._vkrv_basis.cache_clear()
    try:
        for n in range(3, 8):
            for r in range(1, 4):
                assert solve_gr_krv(n, r) == int(n % 2 == 1 and r == 1)
    finally:
        spaces._vkrv_basis.cache_clear()
    b = words.lie_bracket(words.X, words.lie_bracket(words.X, words.Y))
    a = words.partner(b)
    assert (words.lie_bracket(words.X, a)
            + words.lie_bracket(words.Y, b)).is_zero()


# -- krv_ell / ds_ell --------------------------------------------------------

def test_krv_ell_dims():
    assert solve_krv_ell(5, 1).dim == 1
    assert solve_krv_ell(5, 2).dim == 1
    assert solve_krv_ell(5, 3).dim == 1
    assert solve_krv_ell(4, 2).dim == 0
    assert solve_krv_ell(3, 2).dim == 0


def test_ds_ell_dims():
    assert solve_ds_ell(5, 1).dim == 1
    assert solve_ds_ell(5, 2).dim == 1
    assert solve_ds_ell(5, 3).dim == 1
    assert solve_ds_ell(6, 3).dim == 0
    assert solve_ds_ell(7, 3).dim == 2


def test_ds_ell_depth1_even_only():
    # depth-1 cells carry u1^{n-1} only for odd n (even exponent)
    assert solve_ds_ell(5, 1).dim == 1
    assert solve_ds_ell(4, 1).dim == 0


def test_krv_ell_basis_properties():
    cell = solve_krv_ell(5, 2)
    for P in cell.basis:
        Q = delta_inv(P)
        assert is_alternal(Q)
        assert is_push_invariant(Q)


def test_ds_ell_basis_alternal():
    cell = solve_ds_ell(7, 2)
    for P in cell.basis:
        assert is_alternal(delta_inv(P))


def _mould_vector(M, keys):
    return [M.get(r).as_poly().coeff(e) if r in M.values else 0
            for r, e in keys]


def test_ds_ell_lies_in_the_span_of_krv_ell():
    checked = 0
    for n in range(3, 11):
        for r in (1, 2, 3):
            ds = solve_ds_ell(n, r).basis
            if not ds:
                continue
            krv = solve_krv_ell(n, r).basis
            keys = sorted({(d, e) for M in ds + krv for d in M.depths()
                           for e in M.get(d).as_poly().terms})
            rows = [_mould_vector(M, keys) for M in krv]
            assert linalg.rank(rows + [_mould_vector(M, keys) for M in ds]) \
                == linalg.rank(rows), (n, r)
            checked += len(ds)
    assert checked >= 10


@pytest.mark.parametrize("system", [spaces.krv_ell_system,
                                    spaces.ds_ell_system])
def test_adjoined_constant_is_never_alone(system):
    # the constant column has rows for the keys of the cleared
    # denominator too, so c cannot move on its own
    for n in range(3, 9):
        for r in (2, 3):
            s = system(n, r)
            assert s.parameters[-1] == "c"
            for v in s.null_vectors():
                assert any(v[:-1]), (n, r, v)


# -- verification -----------------------------------------------------------

def test_failed_check_raises_verification_error(monkeypatch):
    monkeypatch.setattr(mould, "is_alternal", lambda M: False)
    with pytest.raises(VerificationError) as info:
        solve_ls(8, 2)
    assert (info.value.space, info.value.n, info.value.r,
            info.value.check) == ("ls", 8, 2, "alternal")


def test_verification_survives_optimize_flag():
    script = (
        "from moulde import mould, spaces\n"
        "mould.is_alternal = lambda M: False\n"
        "try:\n"
        "    spaces.solve_ls(8, 2)\n"
        "except spaces.VerificationError as e:\n"
        "    print(__debug__, e.check)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(moulde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False alternal\n"


# -- dimension tables --------------------------------------------------------

def test_dimension_table_text():
    t = dimension_table("lkv", range(3, 6), range(1, 3))
    text = t.to_text()
    assert text == dimension_table("lkv", range(3, 6), range(1, 3)).to_text()
    assert "lkv" in text


def test_dimension_table_json():
    t = dimension_table("lkv", range(3, 5), range(1, 2))
    doc = json.loads(t.to_json())
    assert doc["space"] == "lkv"
    cells = {(c["n"], c["r"]): c["dim"] for c in doc["cells"]}
    assert cells[(3, 1)] == 1
    assert cells[(4, 1)] == 0


def test_dimension_table_unknown_space():
    with pytest.raises(ValueError):
        dimension_table("nope", range(3, 4), range(1, 2))


def test_gr_krv_table_solves_each_weight_once(monkeypatch):
    solved = []
    solve = spaces.solve_vkrv
    monkeypatch.setattr(spaces, "solve_vkrv",
                        lambda n: solved.append(n) or solve(n))
    spaces._vkrv_basis.cache_clear()
    try:
        table = dimension_table("gr_krv", range(3, 8), range(1, 4))
    finally:
        spaces._vkrv_basis.cache_clear()
    assert solved == [3, 4, 5, 6, 7]
    assert table.cells == [(n, r, int(n % 2 == 1 and r == 1))
                           for n in range(3, 8) for r in range(1, 4)]
