"""Structural maps between the spaces.

  lkv_to_krv_ell  b(x,y) -> [x, b(x,[x,y])], word and mould routes
  xi              B -> pari(Ad_ari(invpal) . B)
  verify_xi_image the four image verdicts plus the fundamental identity
  krv_section     b -> Delta(xi(ma(nu(b)))), landing in ma(krv_ell)
  w_krv_gate      word/mould characterization of W_krv membership
  square_check    instance checks of the ds_ell -> krv_ell inclusion
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import ari as ari_mod
from . import mould as mould_mod
from . import spaces as spaces_mod
from . import words as words_mod
from .mould import Mould
from .words import NCPoly, X, Y


class GateError(Exception):
    """An input failed a precondition gate; .stage names where."""

    def __init__(self, stage, message):
        super().__init__("%s: %s" % (stage, message))
        self.stage = stage


class MapVerificationError(Exception):
    """A map's image fails its own check; .stage names the map and
    .check the failed check.

    Raised in place of an `assert`, so the check also runs under
    `python -O`."""

    def __init__(self, stage, check):
        super().__init__("%s: image fails %s" % (stage, check))
        self.stage = stage
        self.check = check


class PipelineReport:
    """Verdicts plus the mould snapshots they were decided on."""

    __slots__ = ("description", "stages", "verdicts", "witnesses")

    def __init__(self, description):
        self.description = description
        self.stages = {}
        self.verdicts = {}
        self.witnesses = {}

    def record(self, name, verdict, witness=None):
        self.verdicts[name] = verdict
        if witness is not None:
            self.witnesses[name] = witness

    def snapshot(self, name, M):
        self.stages[name] = M

    def all_true(self, names=None):
        keys = names if names is not None else list(self.verdicts)
        return all(bool(self.verdicts[k]) for k in keys)

    def to_json_text(self):
        doc = {
            "description": self.description,
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "stages": {k: mould_mod.mould_to_json(M)
                       for k, M in self.stages.items()
                       if isinstance(M, Mould)},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def __repr__(self):
        body = ", ".join("%s=%s" % (k, v) for k, v in self.verdicts.items())
        return "PipelineReport(%s: %s)" % (self.description, body)


# ---------------------------------------------------------------------------
# Small word/mould helpers
# ---------------------------------------------------------------------------

def is_anti_palindromic(g, n):
    """beta(g) = (-1)^(n-1) g, n the weight of the ambient polynomial."""
    return words_mod.beta(g) == g.scale(Fraction((-1) ** (n - 1)))


def depth_sign(M):
    """Scale the depth-r part by (-1)^(r-1).

    This is the twist under which the word-level and mould-level
    circ-constance verdicts agree for polynomials whose words do not all
    end in y (see the v-family construction in words)."""
    return -mould_mod.pari(M)


def _space_gate(stage, space, b):
    """Refuse b unless it passes every check of `spaces.checks(space)`."""
    failed = spaces_mod.failed_check(space, b)
    if failed is not None:
        raise GateError(stage, "input is not %s" % failed)


def _yn_adjust(b, n, c):
    """b + (c/n) y^n."""
    if c == 0:
        return b
    return b + NCPoly.word("y" * n, Fraction(c, n))


def swap_circ_constant_star(B, n):
    """Is the (sign-twisted) swap of the U-mould B circ-constant up to
    per-depth constants?  Returns (flag, c).

    c is pinned by the depth-1 value c*v1^(n-1); for 2 <= r < n every
    defect of `mould.circ_defects` (an absent depth counts as zero) must
    be a constant, absorbable by a constant-valued correction mould;
    depth n is unconstrained."""
    found = mould_mod.circ_defects(depth_sign(mould_mod.swap(B)), n)
    if found is None or not all(d.is_polynomial() and d.num.is_constant()
                                for d in found[1]):
        return False, None
    return True, found[0]


# ---------------------------------------------------------------------------
# lkv -> krv_ell
# ---------------------------------------------------------------------------

_XY = X * Y - Y * X


def lkv_to_krv_ell(b):
    """The injective map b(x,y) -> [x, b(x,[x,y])].

    Returns (word_image, mould_image); ma(word_image) equals the mould
    image, which is ma(b) multiplied per depth by u1...ur(u1+...+ur)."""
    if not words_mod.is_lie_element(b):
        raise GateError("lkv_to_krv_ell", "input is not a Lie element")
    _space_gate("lkv_to_krv_ell", "lkv", b)
    word_image = words_mod.lie_bracket(
        X, words_mod.substitute_letters(b, {"x": X, "y": _XY}))
    mould_image = mould_mod.delta_op(mould_mod.ma(b))
    if not mould_mod.ma(word_image).eq(mould_image):
        raise MapVerificationError("lkv_to_krv_ell",
                                   "word/mould route agreement")
    return word_image, mould_image


# ---------------------------------------------------------------------------
# Xi
# ---------------------------------------------------------------------------

def _xi_gate(B, stage="xi"):
    if B.alphabet != "U":
        raise GateError(stage, "expected a U-mould")
    if not mould_mod.is_alternal(B):
        raise GateError(stage, "input is not alternal")
    if not mould_mod.is_senary(B):
        raise GateError(stage, "input fails the senary relation")
    n = B.weight()
    if n is None:
        raise GateError(stage, "input is not weight-homogeneous")
    ok, _ = swap_circ_constant_star(B, n)
    if not ok:
        raise GateError(stage, "swap is not circ-constant up to constants")
    return n


def _adjoint_image(B, D):
    """Ad_ari(invpal) . B to depth D (B's cap if lower), ungated."""
    return ari_mod.adjoint_exp(ari_mod.named_mould("invpal_log", D), B)


def xi(B, D=4):
    """pari(Ad_ari(invpal) . B) to depth D, gated on the domain
    predicates (alternal, senary, *circ-constant swap)."""
    _xi_gate(B)
    return mould_mod.pari(_adjoint_image(B, D))


def verify_xi_image(B, D=4):
    """Run xi and decide the four image verdicts exactly at depth D:
    push-invariance, alternality, *circ-neutral swap, and membership in
    ARI^Delta; the fundamental identity is checked alongside."""
    report = PipelineReport("xi image verdicts at D=%d" % D)
    try:
        _xi_gate(B, stage="verify_xi_image")
    except GateError as e:
        report.record("precondition", False, witness=str(e))
        return report
    report.record("precondition", True)
    image = _adjoint_image(B, D)
    A = mould_mod.pari(image)
    # the fundamental identity reads the adjoint image xi has computed,
    # which is dropped before the image verdicts run
    fundamental = ari_mod._goodfund(B, image)
    del image
    report.snapshot("input", B)
    report.snapshot("image", A)
    report.record("push_invariant", mould_mod.is_push_invariant(A))
    report.record("alternal", mould_mod.is_alternal(A))
    corr = mould_mod.star_correction(mould_mod.swap(A), "circ_neutral")
    report.record("circ_neutral_star", corr is not None, witness=corr)
    report.record("in_ari_delta", mould_mod.in_ari_delta(A))
    report.record("fundamental_identity", fundamental)
    return report


# ---------------------------------------------------------------------------
# The section krv -> krv_ell
# ---------------------------------------------------------------------------

def _vkrv_gate(b, stage):
    if not words_mod.is_lie_element(b):
        raise GateError(stage, "input is not a Lie element")
    if not b.is_weight_homogeneous():
        raise GateError(stage, "input is not weight-homogeneous")
    _space_gate(stage, "vkrv", b)


def krv_section(b, D=4):
    """Section of krv into ma(krv_ell): Delta(xi(ma(nu(b)))) at depth D.

    The input is gated as a V_krv element, and the image is verified
    against the krv_ell checks."""
    _vkrv_gate(b, "krv_section")
    image = mould_mod.delta_op(xi(mould_mod.ma(words_mod.nu_twist(b)), D))
    # Delta is symmetric and push-invariant, so the image is alternal or
    # push-invariant exactly when its Delta-quotient is
    failed = spaces_mod.failed_check("krv_ell", image)
    if failed is not None:
        raise MapVerificationError("krv_section", failed)
    return image


# ---------------------------------------------------------------------------
# W_krv membership gate
# ---------------------------------------------------------------------------

def w_krv_gate(b):
    """Word- and mould-side W_krv verdicts for a homogeneous Lie b.

    (i)  b_y - b_x anti-palindromic          [word]
    (ii) b + (c/n) y^n circ-constant          [word]
    (iii) ma(b) satisfies the senary relation [mould]
    (iv) swap of ma(b + (c/n) y^n) circ-constant after the depth-sign
         twist                                [mould]
    (i) <=> (iii) and (ii) <=> (iv); membership requires all four."""
    report = PipelineReport("W_krv gate")
    if not words_mod.is_lie_element(b):
        report.record("lie", False)
        return report
    report.record("lie", True)
    n = b.weight()
    c = b.coeff("x" * (n - 1) + "y")
    _, b_x, b_y, _, _ = words_mod.decompose(b)
    report.record("anti_palindromic", is_anti_palindromic(b_y - b_x, n))
    adjusted = _yn_adjust(b, n, c)
    ok, got = words_mod.is_circ_constant_poly(adjusted)
    report.record("circ_constant_word", ok, witness=got)
    B = mould_mod.ma(b)
    report.record("senary", mould_mod.is_senary(B))
    flag = mould_mod.is_circ_constant(
        depth_sign(mould_mod.swap(mould_mod.ma(adjusted))), weight=n)
    report.record("circ_constant_mould", flag[0], witness=flag[1])
    report.record("word_mould_agreement",
                  report.verdicts["anti_palindromic"]
                  == report.verdicts["senary"]
                  and report.verdicts["circ_constant_word"]
                  == report.verdicts["circ_constant_mould"])
    report.record("in_w_krv",
                  report.all_true(["lie", "anti_palindromic",
                                   "circ_constant_word", "senary",
                                   "circ_constant_mould"]))
    return report


# ---------------------------------------------------------------------------
# The ds_ell / krv_ell square
# ---------------------------------------------------------------------------

def square_check(n, D=4, w_krv_elements=()):
    """Instance checks of the ds_ell / krv_ell square at weight n.

    Bottom row: every solver-produced ds_ell basis mould, in each depth
    1 <= r <= n, passes the krv_ell checks, the inclusion
    ds_ell -> krv_ell.

    Left column: for each given W_krv element w, the adjoint image
    G = Ad_ari(invpal) . ma(w) lies in ARI^Delta, and Delta.G passes the
    ds_ell and the krv_ell checks.  Delta is symmetric and
    push-invariant, so Delta.G is alternal or push-invariant exactly
    when G is, and the starred checks read swap(G).

    Every space verdict reads `spaces.failed_check`, and a failure names
    the failed check as its witness.  "checked" is True when at least
    one instance ran, so `all_true()` holds exactly when some instance
    ran and every one passed."""
    report = PipelineReport("ds_ell / krv_ell square at n=%d" % n)

    def record(name, space, P):
        failed = spaces_mod.failed_check(space, P)
        report.record(name, failed is None, witness=failed)

    for r in range(1, n + 1):
        for idx, P in enumerate(spaces_mod.solve_ds_ell(n, r).basis):
            record("krv_ell_r%d_%d" % (r, idx), "krv_ell", P)
    for idx, w in enumerate(w_krv_elements):
        G = _adjoint_image(mould_mod.ma(w), D)
        report.record("adjoint_in_ari_delta_w%d" % idx,
                      mould_mod.in_ari_delta(G))
        P = mould_mod.delta_op(G)
        for space in ("ds_ell", "krv_ell"):
            record("adjoint_%s_w%d" % (space, idx), space, P)
    report.record("checked", bool(report.verdicts))
    return report
