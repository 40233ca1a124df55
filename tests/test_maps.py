"""Structural maps: lkv -> krv_ell, xi, the krv section, W_krv gate."""

from fractions import Fraction as F

import pytest

from moulde import ari, maps, mould, spaces, words
from moulde.maps import (GateError, MapVerificationError, PipelineReport,
                         depth_sign, is_anti_palindromic, krv_section,
                         lkv_to_krv_ell, square_check,
                         swap_circ_constant_star, verify_xi_image,
                         w_krv_gate, xi)
from moulde.mould import Mould, delta_inv, delta_op, ma, swap
from moulde.poly import MultiPoly
from moulde.words import NCPoly, X, Y, lie_bracket


def _check_names(space):
    return [name for name, _ in spaces.checks(space)]


# -- helpers -----------------------------------------------------------------

def test_is_anti_palindromic(w3, b3):
    _, b_x, b_y, _, _ = words.decompose(w3)
    assert is_anti_palindromic(b_y - b_x, 3)
    # b3 itself is not in W_krv: its quotient difference fails
    _, c_x, c_y, _, _ = words.decompose(b3)
    assert not is_anti_palindromic(c_y - c_x, 3)


def test_depth_sign_involution():
    M = Mould("U", {1: MultiPoly(1, {(2,): F(1)}),
                    2: MultiPoly(2, {(1, 1): F(3)})})
    assert depth_sign(depth_sign(M)).eq(M)
    assert depth_sign(M).get(2).num == MultiPoly(2, {(1, 1): F(-3)})


def test_swap_circ_constant_star_on_w3(w3):
    ok, c = swap_circ_constant_star(ma(w3), 3)
    assert ok and c == w3.coeff("xxy")


@pytest.mark.parametrize("n", [3, 5])
def test_swap_circ_constant_star_counts_absent_depths(n):
    # ma(C_n) lives in depth 1 only, with c = 1: every depth 2 <= r < n
    # is absent, so its defect -monomial_sum(r, n - r) is no constant
    assert swap_circ_constant_star(ma(words.c_poly(n)), n) == (False, None)


def test_swap_circ_constant_star_keeps_w_krv(w3, psi_minus):
    assert swap_circ_constant_star(ma(w3), 3) == (True, 1)
    assert swap_circ_constant_star(ma(psi_minus), 5) == (True, -1)


# -- lkv -> krv_ell ----------------------------------------------------------

def test_lkv_to_krv_ell_b3(b3):
    word_img, mould_img = lkv_to_krv_ell(b3)
    assert mould_img.eq(delta_op(ma(b3)))
    assert ma(word_img).eq(mould_img)
    # image predicates
    Q = delta_inv(mould_img)
    assert mould.is_alternal(Q)
    assert mould.is_push_invariant(Q)


def test_lkv_to_krv_ell_rejects_non_lie():
    with pytest.raises(GateError):
        lkv_to_krv_ell(NCPoly.word("xy"))


def test_lkv_to_krv_ell_rejects_non_push_invariant():
    # xy - yx is Lie but not push-invariant at weight 2
    with pytest.raises(GateError):
        lkv_to_krv_ell(lie_bracket(X, Y))


def test_lkv_to_krv_ell_route_mismatch_is_typed(b3, monkeypatch):
    monkeypatch.setattr(mould, "delta_op", lambda M: M)
    with pytest.raises(MapVerificationError) as info:
        lkv_to_krv_ell(b3)
    assert info.value.stage == "lkv_to_krv_ell"


@pytest.mark.parametrize("predicate, check", [
    ("is_push_invariant", "push-invariant"),
    ("is_circ_neutral_poly", "circ-neutral")])
def test_lkv_to_krv_ell_names_the_failed_lkv_check(b3, monkeypatch,
                                                  predicate, check):
    monkeypatch.setattr(words, predicate, lambda f: False)
    with pytest.raises(GateError) as info:
        lkv_to_krv_ell(b3)
    assert str(info.value) == "lkv_to_krv_ell: input is not %s" % check
    assert check in _check_names("lkv")


# -- xi ----------------------------------------------------------------------

def test_xi_gates_on_non_senary(b3):
    with pytest.raises(GateError):
        xi(ma(b3))


def test_xi_depth1_preserved(w3):
    A = xi(ma(w3), 4)
    assert A.get(1) == mould.pari(ma(w3)).get(1)


def test_verify_xi_image_w3(w3):
    report = verify_xi_image(ma(w3), 4)
    assert report.verdicts == {
        "precondition": True, "push_invariant": True, "alternal": True,
        "circ_neutral_star": True, "in_ari_delta": True,
        "fundamental_identity": True}


def test_verify_xi_image_w5(psi_minus):
    report = verify_xi_image(ma(psi_minus), 4)
    assert report.all_true()


@pytest.fixture(scope="module")
def xi_inputs(w3, psi_minus):
    return {"w3": ma(w3), "w5": ma(psi_minus)}


@pytest.mark.parametrize("name", ["w3", "w5"])
@pytest.mark.parametrize("D", [3, 4])
def test_verify_xi_image_shares_the_goodfund_verdict(xi_inputs, name, D):
    B = xi_inputs[name]
    report = verify_xi_image(B, D)
    assert report.stages["image"].eq(xi(B, D))
    verdict = ari.goodfund_check(B.with_cap(D))
    assert verdict is True
    assert report.verdicts["fundamental_identity"] is verdict


@pytest.mark.parametrize("name", ["w3", "w5"])
def test_goodfund_refuses_a_perturbed_image(xi_inputs, name):
    D = 4
    N = xi_inputs[name].with_cap(D)
    image = maps._adjoint_image(N, D)
    assert ari._goodfund(N, image)
    assert image.depths()
    for r in image.depths():
        bumped = Mould("U", {**image.values, r: image.get(r).scale(2)}, D)
        assert not ari._goodfund(N, bumped), r


@pytest.mark.parametrize("name", ["w3", "w5"])
def test_verify_xi_image_depth5(xi_inputs, name):
    report = verify_xi_image(xi_inputs[name], 5)
    assert set(report.verdicts) == {
        "precondition", "push_invariant", "alternal", "circ_neutral_star",
        "in_ari_delta", "fundamental_identity"}
    assert report.all_true()


def test_verify_xi_image_bad_input(b3):
    report = verify_xi_image(ma(b3), 4)
    assert report.verdicts["precondition"] is False


# -- krv section -------------------------------------------------------------

def test_krv_section_b3_image(b3, A3):
    image = krv_section(b3, 4)
    expected = -(Mould("U", {1: MultiPoly(1, {(4,): F(1)})}) + A3)
    assert image.eq(expected)


def test_krv_section_gates(b3):
    with pytest.raises(GateError):
        krv_section(lie_bracket(X, Y), 4)


@pytest.mark.parametrize("name, skip, fail, check", [
    ("is_alternal", 1, False, "alternal"),  # xi's gate calls it first
    ("is_push_invariant", 0, False, "push-invariant"),
    ("star_correction", 0, None, "*circ-neutral"),
])
def test_krv_section_check_failure_is_typed(b3, monkeypatch, name, skip,
                                            fail, check):
    real, calls = getattr(mould, name), []

    def fake(*args):
        calls.append(args)
        return real(*args) if len(calls) <= skip else fail

    monkeypatch.setattr(mould, name, fake)
    with pytest.raises(MapVerificationError) as info:
        krv_section(b3, 4)
    assert (info.value.stage, info.value.check) == ("krv_section", check)
    assert check in _check_names("krv_ell")


@pytest.mark.parametrize("predicate, fake, check", [
    ("is_push_invariant", False, "push-invariant"),
    ("is_push_constant", (False, None), "push-constant")])
def test_krv_section_gate_names_the_failed_vkrv_check(b3, monkeypatch,
                                                     predicate, fake, check):
    monkeypatch.setattr(words, predicate, lambda *args: fake)
    with pytest.raises(GateError) as info:
        krv_section(b3, 4)
    assert str(info.value) == "krv_section: input is not %s" % check
    assert check in _check_names("vkrv")


def test_krv_section_weight5(psi_minus):
    v5 = words.nu_twist(psi_minus)
    image = krv_section(v5, 4)
    Q = delta_inv(image)
    assert mould.is_alternal(Q)
    assert mould.is_push_invariant(Q)


# -- W_krv gate --------------------------------------------------------------

def test_w_krv_gate_accepts_w3(w3):
    report = w_krv_gate(w3)
    assert report.verdicts["in_w_krv"]
    assert report.verdicts["word_mould_agreement"]


def test_w_krv_gate_accepts_psi_minus(psi_minus):
    report = w_krv_gate(psi_minus)
    assert report.verdicts["in_w_krv"]
    assert report.verdicts["word_mould_agreement"]


def test_w_krv_gate_rejects_b3(b3):
    report = w_krv_gate(b3)
    assert not report.verdicts["in_w_krv"]
    assert report.verdicts["word_mould_agreement"]


def test_w_krv_gate_rejects_nu_b5():
    # nu(ad_x^4 y) is senary and anti-palindromic but not circ-constant
    b5 = words.c_poly(5)
    v = words.nu_twist(b5)
    report = w_krv_gate(v)
    assert report.verdicts["senary"]
    assert report.verdicts["anti_palindromic"]
    assert not report.verdicts["circ_constant_word"]
    assert not report.verdicts["in_w_krv"]
    assert report.verdicts["word_mould_agreement"]


# -- the square --------------------------------------------------------------

def test_square_check_n1_checks_the_r_equals_n_cell():
    # ds_ell(1, 1) holds one element, in the cell r = n
    report = square_check(1)
    assert report.verdicts == {"krv_ell_r1_0": True, "checked": True}
    assert report.all_true()


def test_square_check_n3(w3):
    report = square_check(3, D=4, w_krv_elements=[w3])
    assert sorted(report.verdicts) == [
        "adjoint_ds_ell_w0", "adjoint_in_ari_delta_w0", "adjoint_krv_ell_w0",
        "checked", "krv_ell_r1_0"]
    assert report.all_true()


def test_square_check_n4():
    # ds_ell(4, r) = 0 for every r, so nothing is checked
    report = square_check(4, D=4)
    assert report.verdicts == {"checked": False}
    assert not report.all_true()


def test_square_check_n5(psi_minus):
    report = square_check(5, D=4, w_krv_elements=[psi_minus])
    assert report.verdicts["checked"]
    assert report.all_true()


def test_square_check_names_the_failed_check_of_the_adjoint_image():
    # nu(ad_x^4 y) is not in W_krv: its adjoint image lies in ARI^Delta
    # and is alternal and push-invariant, but its swap is neither
    # *alternal nor *circ-neutral
    w = words.nu_twist(words.c_poly(5))
    report = square_check(5, D=4, w_krv_elements=[w])
    assert report.verdicts["adjoint_in_ari_delta_w0"]
    assert {k: report.witnesses.get(k) for k in report.verdicts
            if not report.verdicts[k]} == {
        "adjoint_ds_ell_w0": "*alternal",
        "adjoint_krv_ell_w0": "*circ-neutral"}
    assert report.verdicts["checked"] and not report.all_true()
    assert "*alternal" in _check_names("ds_ell")
    assert "*circ-neutral" in _check_names("krv_ell")


def _fail_star(prop):
    """star_correction failing for `prop` only."""
    real = mould.star_correction
    return lambda M, p: None if p == prop else real(M, p)


# the ds_ell solver that square_check runs first needs *alternality and
# evenness in depth 1, so the fakes leave both alone
@pytest.mark.parametrize("predicate, fake, check", [
    ("is_push_invariant", lambda M: M.depths() == [1], "push-invariant"),
    ("star_correction", _fail_star("circ_neutral"), "*circ-neutral")],
    ids=["is_push_invariant", "star_correction"])
def test_square_check_names_the_failed_krv_ell_check(monkeypatch, predicate,
                                                     fake, check):
    monkeypatch.setattr(mould, predicate, fake)
    report = square_check(5, D=4)
    tags = [k for k in report.verdicts
            if k.startswith("krv_ell_") and not k.startswith("krv_ell_r1_")]
    assert tags and not any(report.verdicts[k] for k in tags)
    assert {report.witnesses[k] for k in tags} == {check}
    assert check in _check_names("krv_ell")


# -- report plumbing ---------------------------------------------------------

def test_pipeline_report_json():
    r = PipelineReport("demo")
    r.record("ok", True)
    r.record("bad", False, witness="w")
    text = r.to_json_text()
    assert '"ok": true' in text and '"bad": false' in text
    assert not r.all_true()
    assert r.all_true(["ok"])
