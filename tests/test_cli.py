"""Command-line interface: verbs, formats, exit codes."""

import io
import json

import pytest

from moulde import cli, words
from moulde.cli import run
from moulde.mould import ma, mould_from_json_text, mould_to_json_text
from moulde.words import ncpoly_to_text


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- dims --------------------------------------------------------------------

def test_dims_text():
    code, out, err = _run(["dims", "--space", "lkv",
                           "--n", "3..5", "--r", "1..2"])
    assert code == 0 and err == ""
    assert "lkv" in out
    # stable across invocations
    assert out == _run(["dims", "--space", "lkv",
                        "--n", "3..5", "--r", "1..2"])[1]


def test_dims_json():
    code, out, _ = _run(["dims", "--space", "ls", "--n", "3..4",
                         "--r", "1..1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    cells = {(c["n"], c["r"]): c["dim"] for c in doc["cells"]}
    assert cells[(3, 1)] == 1 and cells[(4, 1)] == 0


def test_dims_vkrv_rejected():
    # vkrv is graded by weight only; the (n, r) grid does not apply
    code, _, err = _run(["dims", "--space", "vkrv", "--n", "3", "--r", "1"])
    assert code == 2 and "usage error" in err


def test_dims_unknown_space():
    code, _, err = _run(["dims", "--space", "nope", "--n", "3", "--r", "1"])
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("flag, value", [
    ("--n", "5..3"),    # reversed
    ("--n", "0..3"),    # non-positive
    ("--n", ""),        # empty
    ("--n", "3.."),     # missing upper bound
    ("--r", "-1"),      # non-positive
    ("--r", "2..1"),    # reversed
    ("--r", "x"),       # not an integer
])
def test_dims_rejects_bad_range(flag, value):
    argv = {"--n": "3..5", "--r": "1..2"}
    argv[flag] = value
    code, out, err = _run(["dims", "--space", "ls", "--n", argv["--n"],
                           "--r", argv["--r"]])
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument %s:" % flag)


# -- basis -------------------------------------------------------------------

def test_basis_lkv():
    code, out, _ = _run(["basis", "--space", "lkv", "--n", "3", "--r", "1"])
    assert code == 0
    assert "dim=1" in out


@pytest.mark.parametrize("space, n, r, flag", [
    ("vkrv", "-3", None, "--n"),     # non-positive weight
    ("ls", "0", "1", "--n"),
    ("ls", "5", "-2", "--r"),        # non-positive depth
    ("ls", "5", "0", "--r"),
    ("vkrv", "x", None, "--n"),      # not an integer
    ("lkv", "5", "1.5", "--r"),
])
def test_basis_rejects_bad_bound(space, n, r, flag):
    argv = ["basis", "--space", space, "--n", n]
    if r is not None:
        argv += ["--r", r]
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument %s:" % flag)


VKRV5 = ("-1*xxxxy + 4*xxxyx + 1*xxxyy - 6*xxyxx - 3/2*xxyxy - 3/2*xxyyx "
         "- 1*xxyyy + 4*xyxxx - 3/2*xyxxy + 6*xyxyx + 4*xyxyy - 3/2*xyyxx "
         "- 6*xyyxy + 4*xyyyx - 1*yxxxx + 1*yxxxy - 3/2*yxxyx - 1*yxxyy "
         "- 3/2*yxyxx + 4*yxyxy - 6*yxyyx + 1*yyxxx - 1*yyxxy + 4*yyxyx "
         "- 1*yyyxx")


def test_basis_vkrv_text():
    assert _run(["basis", "--space", "vkrv", "--n", "5"]) == (
        0, "vkrv n=5 r=None dim=1\n" + VKRV5 + "\n", "")


def test_basis_vkrv_json():
    code, out, err = _run(["basis", "--space", "vkrv", "--n", "5",
                           "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps({"basis": [VKRV5], "dim": 1, "n": 5, "r": None,
                              "space": "vkrv"}, indent=2) + "\n"


def test_basis_requires_r():
    code, _, err = _run(["basis", "--space", "lkv", "--n", "3"])
    assert code == 2 and "usage error" in err


def test_basis_vkrv_refuses_r():
    # vkrv is graded by weight only: --r would be dropped, not applied
    assert _run(["basis", "--space", "vkrv", "--n", "5", "--r", "3"]) == (
        2, "", "usage error: vkrv is graded by weight only; drop --r\n")


def test_check_refuses_space_beside_identity(tmp_path):
    # --identity runs the identity alone, so a --space would be ignored;
    # the refusal comes before the input is read
    argv = ["check", "--input", str(tmp_path / "missing.json"),
            "--identity", "senary", "--space", "wkrv"]
    assert _run(argv) == (
        2, "", "usage error: --identity and --space exclude each other\n")


# -- check / identity --------------------------------------------------------

def test_check_wkrv_accepts(tmp_path, w3):
    path = _write(tmp_path, "w3.txt", ncpoly_to_text(w3))
    code, out, _ = _run(["check", "--input", path, "--space", "wkrv"])
    assert code == 0
    assert "in_w_krv: True" in out


def test_check_wkrv_rejects(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    code, out, _ = _run(["check", "--input", path, "--space", "wkrv"])
    assert code == 1
    assert "in_w_krv: False" in out


def test_identity_senary_fail(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    code, out, _ = _run(["identity", "--name", "senary", "--input", path])
    assert code == 1 and "FAIL" in out


def test_identity_goodfund_ok(tmp_path, w3):
    path = _write(tmp_path, "w3.txt", ncpoly_to_text(w3))
    code, out, _ = _run(["identity", "--name", "goodfund", "--input", path,
                         "--depth", "4"])
    assert code == 0 and "OK" in out


def test_identity_ganit_inverse(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    code, out, _ = _run(["identity", "--name", "ganit_inverse",
                         "--input", path, "--depth", "3"])
    assert code == 0 and "OK" in out


def test_identity_fundamental_ok(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    assert _run(["identity", "--name", "fundamental", "--input", path]) == (
        0, "OK\n", "")


def test_check_predicates_of_a_u_mould(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    assert _run(["check", "--input", path]) == (
        1, "alternal: True\npush_invariant: True\nmantar_invariant: True\n"
        "in_ARI_delta: True\nsenary: False\n", "")


def test_check_predicates_of_a_v_mould(tmp_path, Bpsi):
    path = _write(tmp_path, "bpsi.json", mould_to_json_text(Bpsi))
    assert _run(["check", "--input", path]) == (
        1, "alternal: False\ncirc_neutral: False\ncirc_constant: True\n"
        "circ_constant_value: 1\nmantar_invariant: False\n", "")


def test_check_wkrv_json(tmp_path, w3):
    path = _write(tmp_path, "w3.txt", ncpoly_to_text(w3))
    code, out, err = _run(["check", "--input", path, "--space", "wkrv",
                           "--format", "json"])
    report = {
        "description": "W_krv gate", "stages": {},
        "verdicts": {"anti_palindromic": True, "circ_constant_mould": True,
                     "circ_constant_word": True, "in_w_krv": True,
                     "lie": True, "senary": True,
                     "word_mould_agreement": True},
        "witnesses": {"circ_constant_mould": "1", "circ_constant_word": "1"}}
    assert (code, err) == (0, "")
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_identity_json(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    assert _run(["identity", "--name", "senary", "--input", path,
                 "--format", "json"]) == (
        1, json.dumps({"holds": False, "identity": "senary"}, indent=2,
                      sort_keys=True) + "\n", "")


def test_check_predicates_json(tmp_path, Bpsi):
    path = _write(tmp_path, "bpsi.json", mould_to_json_text(Bpsi))
    report = {"alternal": False, "circ_neutral": False,
              "circ_constant": True, "circ_constant_value": "1",
              "mantar_invariant": False}
    assert _run(["check", "--input", path, "--format", "json"]) == (
        1, json.dumps(report, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize("argv", [["check"],
                                  ["identity", "--name", "fundamental"]])
def test_depth_above_the_cap_of_a_json_mould_exits_2(tmp_path, argv):
    _, lopil, _ = _run(["dump", "--mould", "lopil", "--depth", "3",
                        "--format", "json"])
    path = _write(tmp_path, "lopil.json", lopil)
    assert _run(argv + ["--input", path, "--depth", "4"]) == (
        2, "", "error: the input mould has cap 3, below --depth 4\n")
    # at or below the cap the battery runs as before
    battery = (1, "alternal: True\ncirc_neutral: True\ncirc_constant: False\n"
               "circ_constant_value: None\nmantar_invariant: True\n", "")
    for depth in ("3", "2"):
        assert _run(["check", "--input", path, "--depth", depth]) == battery


# -- apply -------------------------------------------------------------------

def test_apply_swap_roundtrip(tmp_path, b3):
    src = _write(tmp_path, "m.json", mould_to_json_text(ma(b3)))
    mid = str(tmp_path / "swapped.json")
    code, _, _ = _run(["apply", "--op", "swap", "--input", src,
                       "--output", mid, "--format", "json"])
    assert code == 0
    back = str(tmp_path / "back.json")
    code, _, _ = _run(["apply", "--op", "swap", "--input", mid,
                       "--output", back, "--format", "json"])
    assert code == 0
    with open(back) as fh:
        M = mould_from_json_text(fh.read())
    assert M.eq(ma(b3))


# 1/((u1 - u2)(u2 - u3)) in depth 3, whose swap has the denominator
# -x1x2 + 2x1x3 + 2x2^2 - 5x2x3 + 2x3^2, and a polynomial depth 1
ROUND_TRIP_U = ('{"alphabet":"U","depths":{'
                '"1":{"num":[["2",[1]]]},'
                '"3":{"num":[["1",[0,0,0]]],"den":[["1",[1,1,0]],'
                '["-1",[1,0,1]],["-1",[0,2,0]],["1",[0,1,1]]]}}}')


@pytest.mark.parametrize("op", sorted(cli.UNARY_OPS))
def test_apply_reads_back_what_it_writes(tmp_path, op):
    src = _write(tmp_path, "u.json", ROUND_TRIP_U)
    code, v_text, _ = _run(["apply", "--op", "swap", "--input", src,
                            "--format", "json"])
    assert code == 0 and '"-5"' in v_text
    inputs = [src, _write(tmp_path, "v.json", v_text)]
    written = 0
    for path in inputs:
        code, text, err = _run(["apply", "--op", op, "--input", path,
                                "--format", "json"])
        if code == 2 and "acts on" in err:  # the other alphabet
            continue
        assert code == 0, err
        written += 1
        # read back; neg is an involution on either alphabet
        mid = _write(tmp_path, "out.json", text)
        code, neg_text, err = _run(["apply", "--op", "neg", "--input", mid,
                                    "--format", "json"])
        assert code == 0, err
        code, back, err = _run(["apply", "--op", "neg", "--input",
                                _write(tmp_path, "neg.json", neg_text),
                                "--format", "json"])
        assert (code, back) == (0, text), err
    assert written


def test_apply_unknown_op(tmp_path, b3):
    src = _write(tmp_path, "m.json", mould_to_json_text(ma(b3)))
    code, _, err = _run(["apply", "--op", "zap", "--input", src])
    assert code == 2 and "usage error" in err


# -- section -----------------------------------------------------------------

def test_section_b3(tmp_path, b3):
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    code, out, _ = _run(["section", "--input", path, "--depth", "4"])
    assert code == 0
    assert "depth 1" in out and "depth 3" in out


def test_section_rejects_non_vkrv(tmp_path):
    path = _write(tmp_path, "f.txt", "1*xy - 1*yx")
    code, _, err = _run(["section", "--input", path])
    assert code == 1 and "gate failure" in err


# -- dump --------------------------------------------------------------------

def test_dump_poc_text():
    code, out, _ = _run(["dump", "--mould", "poc", "--depth", "3"])
    assert code == 0
    assert out == _run(["dump", "--mould", "poc", "--depth", "3"])[1]


def test_dump_json_parses():
    code, out, _ = _run(["dump", "--mould", "pic", "--depth", "2",
                         "--format", "json"])
    assert code == 0
    M = mould_from_json_text(out)
    assert sorted(M.depths()) == [1, 2]


@pytest.mark.parametrize("depth", ["-2", "0", "7", "x"])
def test_depth_out_of_bounds(depth):
    code, out, err = _run(["dump", "--mould", "pic", "--depth", depth])
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument --depth:")
    assert _run(["section", "--input", "f.txt", "--depth", depth])[0] == 2


def test_dump_unknown():
    code, _, err = _run(["dump", "--mould", "nope"])
    assert code == 2 and "usage error" in err


# -- top-level ---------------------------------------------------------------

def test_no_verb():
    code, _, err = _run([])
    assert code == 2 and "usage error" in err


def test_missing_file():
    code, _, err = _run(["check", "--input", "/no/such/file"])
    assert code == 2


def test_apply_dar_on_loaded_mould_matches_computed(tmp_path):
    from moulde import ari
    from moulde.mould import dar
    P = ari.named_mould("poc", 3)
    path = _write(tmp_path, "poc.json", mould_to_json_text(P))
    code, out, err = _run(["apply", "--op", "dar", "--input", path,
                           "--format", "json"])
    assert code == 0 and err == ""
    assert out == mould_to_json_text(dar(P))


def test_apply_rejects_zero_denominator(tmp_path):
    doc = '{"alphabet":"V","depths":{"1":{"num":[["1",[0]]],"den":[]}}}'
    path = _write(tmp_path, "zero.json", doc)
    code, out, err = _run(["apply", "--op", "dar", "--input", path])
    assert code == 2 and out == ""
    assert "zero denominator in depth 1" in err


def test_internal_error_exit_code(monkeypatch):
    from moulde import mould

    def broken(M):
        raise RuntimeError("predicate exploded")

    monkeypatch.setattr(mould, "is_alternal", broken)
    code, out, err = _run(["basis", "--space", "ls", "--n", "8", "--r", "2"])
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: predicate exploded\n"


def test_uncertified_nullspace_is_an_internal_error(monkeypatch):
    # ls(21,3) has rref entries past the reconstruction bound of 2^61 - 1
    from moulde import linalg
    monkeypatch.setattr(linalg, "PRIMES", linalg.PRIMES[:1])
    code, out, err = _run(["basis", "--space", "ls", "--n", "21", "--r", "3"])
    assert code == 3 and out == ""
    assert err.startswith("internal error: ArithmeticError: ")


def test_verification_error_exit_code(monkeypatch):
    from moulde import mould
    monkeypatch.setattr(mould, "is_alternal", lambda M: False)
    code, _, err = _run(["basis", "--space", "ls", "--n", "8", "--r", "2"])
    assert code == 3
    assert err.startswith("internal error: VerificationError: ls (n=8, r=2)")
    assert err.count("\n") == 1


def test_apply_rejects_nonlinear_denominator(tmp_path):
    # den = x1^2 + x2^2 is not a product of linear forms
    doc = ('{"alphabet":"V","depths":{"2":{"num":[["1",[1,0]]],'
           '"den":[["1",[2,0]],["1",[0,2]]]}}}')
    path = _write(tmp_path, "quadric.json", doc)
    code, out, err = _run(["apply", "--op", "swap", "--input", path])
    assert code == 2 and out == ""
    assert err == ("error: denominator factor is not a homogeneous linear "
                   "form: 1 * x1^2 + 1 * x2^2\n")


MALFORMED = {
    "coefficient-1/0": (
        "swap", '{"alphabet":"V","depths":{"1":{"num":[["1/0",[1]]]}}}',
        "depths['1'].num: bad term ['1/0', [1]]"),
    "coefficient-float": (
        "swap", '{"alphabet":"U","depths":{"1":{"num":[[0.1,[1]]]}}}',
        "depths['1'].num: bad term [0.1, [1]]"),
    "coefficient-bool": (
        "swap", '{"alphabet":"U","depths":{"1":{"num":[[true,[1]]]}}}',
        "depths['1'].num: bad term [True, [1]]"),
    "no-alphabet": (
        "swap", '{"depths":{"1":{"num":[["1",[1]]]}}}', "'alphabet'"),
    "depth-without-num": (
        "swap", '{"alphabet":"V","depths":{"1":{"den":[["1",[1]]]}}}',
        "depths['1']"),
    "not-an-object": ("swap", '[1,2]', "a JSON mould is an object"),
    "negative-exponent": (
        "swap", '{"alphabet":"V","depths":{"1":{"num":[["1",[-2]]]}}}',
        "depths['1'].num: exponents"),
    "negative-exponent-dar": (
        "dar", '{"alphabet":"V","depths":{"1":{"num":[["1",[-2]]]}}}',
        "depths['1'].num: exponents"),
    "cap-not-int": (
        "teru",
        '{"alphabet":"U","cap":"x","depths":{"1":{"num":[["1",[1]]]}}}',
        "'cap'"),
    "depth-leading-zero": (
        "swap", '{"alphabet":"U","depths":{"1":{"num":[["1",[1]]]},'
        '"01":{"num":[["2",[1]]]}}}', "depths['01']"),
    "depth-above-cap": (
        "swap", '{"alphabet":"U","cap":1,"depths":{"1":{"num":[["1",[1]]]},'
        '"3":{"num":[["1",[0,0,1]]]}}}', "depths['3']: depth above the cap 1"),
    "depth-non-ascii-digit": (
        "swap",
        '{"alphabet":"U","depths":{"\\u0663":{"num":[["1",[0,0,1]]]}}}',
        "depths['\u0663']"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_apply_rejects_malformed_mould(tmp_path, case):
    op, doc, field = MALFORMED[case]
    path = _write(tmp_path, "bad.json", doc)
    code, out, err = _run(["apply", "--op", op, "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err, err


def test_map_verification_error_exit_code(tmp_path, monkeypatch, b3):
    from moulde import mould
    monkeypatch.setattr(mould, "is_push_invariant", lambda M: False)
    path = _write(tmp_path, "b3.txt", ncpoly_to_text(b3))
    code, out, err = _run(["section", "--input", path, "--depth", "3"])
    assert code == 3 and out == ""
    assert err == ("internal error: MapVerificationError: krv_section: "
                   "image fails push-invariant\n")


V_MOULD = '{"alphabet":"V","depths":{"1":{"num":[["1",[2]]]}}}'
U_MOULD = '{"alphabet":"U","depths":{"1":{"num":[["1",[2]]]}}}'
BAD_INPUT = {
    "push-on-V": (["apply", "--op", "push"], "in.json", V_MOULD,
                  "push acts on U-moulds"),
    "circ-on-U": (["apply", "--op", "circ"], "in.json", U_MOULD,
                  "circ acts on V-moulds"),
    "senary-on-V": (["check", "--identity", "senary"], "in.json", V_MOULD,
                    "senary is a U-side predicate"),
    "fundamental-on-V": (["identity", "--name", "fundamental"], "in.json",
                         V_MOULD, "identity fundamental acts on U-moulds"),
    "goodfund-on-V": (["identity", "--name", "goodfund"], "in.json",
                      V_MOULD, "identity goodfund acts on U-moulds"),
    "ganit_inverse-on-V": (["identity", "--name", "ganit_inverse"],
                           "in.json", V_MOULD,
                           "identity ganit_inverse acts on U-moulds"),
    "word-outside-C-span": (["check"], "in.txt", "1*yx",
                            "leading word 'yx' not of C-monomial form"),
    "malformed-word-polynomial": (["check"], "in.txt", "2x",
                                  "bad term at offset 1"),
    # the commands that need a weight refuse the zero polynomial
    "zero-for-wkrv": (["check", "--space", "wkrv"], "in.txt", "0",
                      "the zero polynomial has no weight"),
    "zero-for-section": (["section"], "in.txt", "0",
                         "the zero polynomial has no weight"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(tmp_path, case):
    # input the operation does not accept is a typed ValueError, so the
    # CLI reports it as bad input rather than as an internal error
    argv, name, text, message = BAD_INPUT[case]
    path = _write(tmp_path, name, text)
    code, out, err = _run(argv + ["--input", path])
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_shared_parser_matches_fresh_parsers(monkeypatch):
    # a usage error between two good calls leaves the shared parser as a
    # fresh one would be: the same outputs and exit codes
    calls = [["dims", "--space", "ls", "--n", "3..4", "--r", "1..2"],
             ["dims", "--space", "ls", "--n", "4..3", "--r", "1"],
             ["dims", "--space", "lkv", "--n", "3..5", "--r", "1..2"]]
    shared = [_run(argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_run(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert shared[1][2].startswith("usage error: ")
