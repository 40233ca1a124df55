"""Command-line front end.

Verbs:
  dims      dimension tables for the bigraded spaces
  basis     basis of one (n, r) cell
  check     predicate suite or named identity on an input
  identity  named identity checks (alias of `check --identity`)
  apply     a unary mould operator applied to a JSON mould
  section   the krv -> krv_ell section of a word-polynomial input
  dump      named moulds and fixtures

Exit codes: 0 success, 1 verification failure, 2 usage error or bad
input (an unreadable file or any `ValueError`, such as a malformed
mould, a mould on the wrong alphabet for its operator
(`mould.AlphabetMismatch`) or a word polynomial outside the C-span
(`words.NotInCSpan`)), 3 internal error (any other exception, such as
a solved basis element or a map's image failing its own check:
`spaces.VerificationError`, `maps.MapVerificationError`; or an
`ArithmeticError` from a nullspace that no prime of `linalg.PRIMES`
certifies).

`--depth` runs from 1 to MAX_DEPTH (6).  At depth 6 the named moulds
take about 4 s to build, and `verify_xi_image` of the weight-5 W_krv
generator about 21 s more with them, at a peak RSS of 284 MiB (best of
three fresh processes on a shared 2-CPU Intel Xeon machine, Python
3.11.7, whose speed has moved by 2x between sessions); depth 7 takes
far longer.
The `--n`/`--r` ranges of `dims` must be nonempty and positive, and
`basis --n`/`--r` must be positive integers.  A flag that the verb
would ignore is refused: `--r` for the weight-graded `vkrv`, and
`--space` beside `check --identity`.
"""

from __future__ import annotations

import argparse
from functools import lru_cache
import json
import sys

from . import ari as ari_mod
from . import maps as maps_mod
from . import mould as mould_mod
from . import spaces as spaces_mod
from . import words as words_mod
from .maps import GateError

SPACES = (*spaces_mod.CELL_SOLVERS, "vkrv", "gr_krv")
NAMED_MOULDS = ("pic", "poc", "lopil", "pil", "pal", "lopal")
UNARY_OPS = {
    "swap": mould_mod.swap,
    "push": mould_mod.push,
    "circ": mould_mod.circ,
    "neg": mould_mod.neg_op,
    "mantar": mould_mod.mantar,
    "pari": mould_mod.pari,
    "dar": mould_mod.dar,
    "dar_inv": mould_mod.dar_inv,
    "delta": mould_mod.delta_op,
    "delta_inv": mould_mod.delta_inv,
    "teru": mould_mod.teru,
}
IDENTITIES = ("fundamental", "goodfund", "senary", "ganit_inverse")
MAX_DEPTH = 6
DEPTHS = range(1, MAX_DEPTH + 1)


class UsageError(Exception):
    pass


def _parse_range(text):
    """'3..10' -> range(3, 11); '5' -> range(5, 6).  Empty, reversed or
    non-positive ranges are refused."""
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        values = None
    if not values or values.start < 1:
        raise argparse.ArgumentTypeError(
            "expected N or LO..HI with 1 <= LO <= HI, got %r" % text)
    return values


def _positive(text):
    """'5' -> 5; anything but a positive integer is refused."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return value


def _read_input(path):
    """Mould from .json, word polynomial otherwise."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return mould_mod.mould_from_json_text(text)
    return words_mod.ncpoly_from_text(text.strip())


def _as_mould(obj, depth=None):
    """The mould of an input, truncated at `depth`.  A JSON mould capped
    below `depth` is refused: its values above the cap are unknown."""
    M = obj if isinstance(obj, mould_mod.Mould) else mould_mod.ma(obj)
    if None not in (M.cap, depth) and M.cap < depth:
        raise ValueError("the input mould has cap %d, below --depth %d"
                         % (M.cap, depth))
    return M.with_cap(depth)


def _mould_text(M):
    lines = []
    for r in M.depths():
        lines.append("depth %d: %s" % (r, M.get(r)))
    if not lines:
        lines = ["0"]
    return "\n".join(lines) + "\n"


def _write_mould(M, args, out):
    """Write M as text or JSON (`--format`) to `--output`, else to out."""
    text = (mould_mod.mould_to_json_text(M) if args.format == "json"
            else _mould_text(M))
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _basis_item(b, fmt):
    """One basis element: a mould as JSON or text, a word polynomial as
    its text."""
    if isinstance(b, mould_mod.Mould):
        return mould_mod.mould_to_json(b) if fmt == "json" else _mould_text(b)
    text = words_mod.ncpoly_to_text(b)
    return text if fmt == "json" else text + "\n"


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_dims(args, out):
    if args.space not in SPACES:
        raise UsageError("unknown space %r" % args.space)
    if args.space == "vkrv":
        raise UsageError("vkrv is graded by weight only; use basis")
    table = spaces_mod.dimension_table(args.space, args.n, args.r)
    out.write(table.to_json() if args.format == "json" else table.to_text())
    return 0


def cmd_basis(args, out):
    if args.space not in SPACES:
        raise UsageError("unknown space %r" % args.space)
    if args.space == "vkrv":
        if args.r is not None:
            raise UsageError("vkrv is graded by weight only; drop --r")
        cell = spaces_mod.solve_vkrv(args.n)
    elif args.space == "gr_krv":
        raise UsageError("gr_krv has dimensions only; use dims")
    else:
        if args.r is None:
            raise UsageError("--r required for space %r" % args.space)
        cell = spaces_mod.CELL_SOLVERS[args.space](args.n, args.r)
    items = [_basis_item(b, args.format) for b in cell.basis]
    if args.format == "json":
        out.write(json.dumps({"space": cell.space, "n": cell.n, "r": cell.r,
                              "dim": cell.dim, "basis": items},
                             indent=2, sort_keys=True) + "\n")
    else:
        out.write("%s n=%s r=%s dim=%d\n"
                  % (cell.space, cell.n, cell.r, cell.dim) + "".join(items))
    return 0


def _run_identity(name, obj, depth, fmt, out):
    M = _as_mould(obj, depth)
    if name in ("fundamental", "goodfund", "ganit_inverse"):
        mould_mod._require(M, "U", "identity " + name)
    if name == "fundamental":
        ok = ari_mod.fundamental_identity_check(M)
    elif name == "goodfund":
        ok = ari_mod.goodfund_check(M)
    elif name == "senary":
        ok = mould_mod.is_senary(M)
    elif name == "ganit_inverse":
        pic = ari_mod.named_mould("pic", depth)
        poc = ari_mod.named_mould("poc", depth)
        T = mould_mod.swap(M)
        ok = ari_mod.ganit_bar(pic, ari_mod.ganit_bar(-poc, T)).eq(T) \
            and ari_mod.ganit_bar(-poc, ari_mod.ganit_bar(pic, T)).eq(T)
    else:
        raise UsageError("unknown identity %r" % name)
    if fmt == "json":
        out.write(json.dumps({"identity": name, "holds": bool(ok)},
                             indent=2, sort_keys=True) + "\n")
    else:
        out.write("OK\n" if ok else "FAIL\n")
    return 0 if ok else 1


def cmd_check(args, out):
    if args.identity and args.space:
        raise UsageError("--identity and --space exclude each other")
    obj = _read_input(args.input)
    if args.identity:
        return _run_identity(args.identity, obj, args.depth, args.format,
                             out)
    if args.space:
        if args.space == "wkrv":
            if isinstance(obj, mould_mod.Mould):
                raise UsageError("wkrv check expects a word polynomial")
            report = maps_mod.w_krv_gate(obj)
            ok = report.verdicts.get("in_w_krv", False)
            if args.format == "json":
                out.write(report.to_json_text())
            else:
                for k, v in report.verdicts.items():
                    out.write("%s: %s\n" % (k, v))
            return 0 if ok else 1
        raise UsageError("unknown membership check %r" % args.space)
    # bare predicate battery
    M = _as_mould(obj, args.depth)
    report = mould_mod.predicates(M)
    ok = all(v for v in report.values() if isinstance(v, bool))
    if args.format == "json":
        # circ_constant_value, a Fraction, is written as its string
        out.write(json.dumps(report, indent=2, sort_keys=True, default=str)
                  + "\n")
    else:
        out.writelines("%s: %s\n" % item for item in report.items())
    return 0 if ok else 1


def cmd_identity(args, out):
    obj = _read_input(args.input)
    return _run_identity(args.name, obj, args.depth, args.format, out)


def cmd_apply(args, out):
    if args.op not in UNARY_OPS:
        raise UsageError("unknown operator %r" % args.op)
    obj = _read_input(args.input)
    return _write_mould(UNARY_OPS[args.op](_as_mould(obj)), args, out)


def cmd_section(args, out):
    obj = _read_input(args.input)
    if isinstance(obj, mould_mod.Mould):
        raise UsageError("section expects a word-polynomial input")
    return _write_mould(maps_mod.krv_section(obj, args.depth), args, out)


def cmd_dump(args, out):
    if args.mould not in NAMED_MOULDS:
        raise UsageError("unknown mould %r" % args.mould)
    return _write_mould(ari_mod.named_mould(args.mould, args.depth), args,
                        out)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(prog="moulde", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb")

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("dims")
    sp.add_argument("--space", required=True)
    sp.add_argument("--n", required=True, type=_parse_range,
                    help="weight or range, e.g. 3..10")
    sp.add_argument("--r", required=True, type=_parse_range,
                    help="depth or range, e.g. 1..3")
    common(sp)
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("basis")
    sp.add_argument("--space", required=True)
    sp.add_argument("--n", required=True, type=_positive)
    sp.add_argument("--r", type=_positive)
    common(sp)
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("check")
    sp.add_argument("--input", required=True)
    sp.add_argument("--identity", choices=IDENTITIES)
    sp.add_argument("--space")
    sp.add_argument("--depth", type=int, default=4, choices=DEPTHS)
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("identity")
    sp.add_argument("--name", required=True, choices=IDENTITIES)
    sp.add_argument("--input", required=True)
    sp.add_argument("--depth", type=int, default=4, choices=DEPTHS)
    common(sp)
    sp.set_defaults(fn=cmd_identity)

    sp = sub.add_parser("apply")
    sp.add_argument("--op", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    common(sp)
    sp.set_defaults(fn=cmd_apply)

    sp = sub.add_parser("section")
    sp.add_argument("--input", required=True)
    sp.add_argument("--depth", type=int, default=4, choices=DEPTHS)
    sp.add_argument("--output")
    common(sp)
    sp.set_defaults(fn=cmd_section)

    sp = sub.add_parser("dump")
    sp.add_argument("--mould", required=True)
    sp.add_argument("--depth", type=int, default=4, choices=DEPTHS)
    common(sp)
    sp.set_defaults(fn=cmd_dump)

    return p


@lru_cache(maxsize=None)
def _parser():
    """The parser of `run`, built on its first call: parsing keeps no
    state, so every call shares it."""
    return build_parser()


def run(argv, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "verb", None):
            raise UsageError("a verb is required "
                             "(dims, basis, check, identity, apply, "
                             "section, dump)")
        return args.fn(args, out)
    except UsageError as e:
        err.write("usage error: %s\n" % e)
        return 2
    except GateError as e:
        err.write("gate failure: %s\n" % e)
        return 1
    except (OSError, ValueError) as e:
        err.write("error: %s\n" % e)
        return 2
    except Exception as e:
        err.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
