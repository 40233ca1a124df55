"""The benchmark's workloads: inputs made from a seed, jobs, and checks.

Every job calls the package only through a public entry point
(`moulde.cli.run`, `moulde.spaces.solve_*`, `moulde.maps.*`).  Its
output is checked after the pass, outside the timed region, against
the reference captured in `golden/<workload>.json` and against oracles
that do not come from the package's own code path:

* Broadhurst-Kreimer dimensions for every `ls`/`lkv` cell,
* `ls == lkv` and `krv_ell == ds_ell` row by row,
* every `w_krv_gate` and `verify_xi_image` verdict is True,
* linearity of `krv_section` and `xi` under seeded rational scalars.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction as F

from moulde import ari, cli, maps, mould, spaces, words
from moulde.mould import Mould
from moulde.poly import MultiPoly
from moulde.words import NCPoly, X, Y, lie_bracket

WORKLOADS = ("tables", "hard_cells", "xi")

TABLE_ROWS = ([(s, n) for s in ("lkv", "ls", "krv_ell", "ds_ell")
               for n in range(3, 11)]
              + [("gr_krv", n) for n in range(3, 8)])


class Job:
    """One timed call.  `digest` maps its output to the JSON value kept
    as the reference (None: no reference, oracles only); `oracle`
    returns an error text or None, given the outputs of the pass."""

    __slots__ = ("id", "run", "digest", "oracle")

    def __init__(self, id, run, digest=None, oracle=None):
        self.id = id
        self.run = run
        self.digest = digest
        self.oracle = oracle


# ---------------------------------------------------------------------------
# Broadhurst-Kreimer oracle
# ---------------------------------------------------------------------------

def bk_dims(N, R):
    """Predicted depth-graded Lie dimensions d[n, r] for n <= N, r <= R:
    the PBW inverse of 1/(1 - O y + S y^2 - S y^4) with O = x^3/(1-x^2)
    and S = x^12/((1-x^4)(1-x^6))."""
    def mul(a, b):
        out = {}
        for (n1, r1), c1 in a.items():
            for (n2, r2), c2 in b.items():
                if n1 + n2 <= N and r1 + r2 <= R:
                    k = (n1 + n2, r1 + r2)
                    out[k] = out.get(k, 0) + c1 * c2
        return out

    T = {(n, 1): 1 for n in range(3, N + 1, 2)}
    for a in range(0, N + 1, 4):
        for b in range(0, N + 1, 6):
            n = 12 + a + b
            if n <= N:
                T[(n, 2)] = T.get((n, 2), 0) - 1
                if R >= 4:
                    T[(n, 4)] = T.get((n, 4), 0) + 1
    # log of the series = sum_m T^m / m; then Moebius over k | gcd(n, r)
    log, power = {}, {(0, 0): 1}
    for m in range(1, R + 1):
        power = mul(power, T)
        for k, c in power.items():
            log[k] = log.get(k, 0) + F(c, m)
    d = {}
    for n in range(1, N + 1):
        for r in range(1, R + 1):
            v = log.get((n, r), F(0))
            for k in range(2, min(n, r) + 1):
                if n % k == 0 and r % k == 0:
                    v -= F(d[(n // k, r // k)], k)
            d[(n, r)] = int(v)
    return d


BK = bk_dims(20, 4)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _dims_job(space, n):
    argv = ["dims", "--space", space, "--n", str(n), "--r", "1..3",
            "--format", "json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        rc = cli.run(argv, out=out, err=err)
        return rc, out.getvalue(), err.getvalue()

    def digest(res):
        return res[1]

    def oracle(res, outputs):
        rc, text, err = res
        if rc != 0 or err:
            return "exit %d: %s" % (rc, err.strip())
        dims = {(c["n"], c["r"]): c["dim"] for c in json.loads(text)["cells"]}
        if space in ("ls", "lkv"):
            bad = {k: v for k, v in dims.items() if v != BK[k]}
            if bad:
                return "Broadhurst-Kreimer mismatch %s" % bad
        partner = {"lkv": "ls", "ds_ell": "krv_ell"}.get(space)
        other = outputs.get("dims:%s:n=%d" % (partner, n)) if partner else None
        if other is not None and other[0] == 0:
            theirs = {(c["n"], c["r"]): c["dim"]
                      for c in json.loads(other[1])["cells"]}
            if theirs != dims:
                return "%s != %s: %s vs %s" % (space, partner, dims, theirs)
        return None

    return Job("dims:%s:n=%d" % (space, n), run, digest, oracle)


def tables(rng):
    jobs = [_dims_job(s, n) for s, n in TABLE_ROWS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# hard_cells
# ---------------------------------------------------------------------------

def _basis_text(b):
    if isinstance(b, Mould):
        return mould.mould_to_json_text(b)
    return words.ncpoly_to_text(b)


def _cell_digest(cell):
    return {"dim": cell.dim, "basis": [_basis_text(b) for b in cell.basis]}


def _bk_oracle(n, r):
    def oracle(cell, outputs):
        if cell.dim != BK[(n, r)]:
            return "Broadhurst-Kreimer predicts %d, got %d" % (BK[(n, r)],
                                                             cell.dim)
        return None
    return oracle


def hard_cells(rng):
    return [
        Job("solve_ls:10,4", lambda: spaces.solve_ls(10, 4), _cell_digest,
            _bk_oracle(10, 4)),
        Job("solve_ls:15,3", lambda: spaces.solve_ls(15, 3), _cell_digest,
            _bk_oracle(15, 3)),
        Job("solve_lkv:10,4", lambda: spaces.solve_lkv(10, 4), _cell_digest,
            _bk_oracle(10, 4)),
        Job("solve_vkrv:8", lambda: spaces.solve_vkrv(8), _cell_digest),
    ]


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------

def psi_minus():
    """psi(x,-y), rebuilt from its circ-constant swap mould (the c = 1
    mould of the push-constant polynomial psi^y)."""
    Bpsi = Mould("V", {
        1: MultiPoly(1, {(4,): F(1)}),
        2: MultiPoly(2, {(3, 0): F(-2), (2, 1): F(11, 2),
                         (1, 2): F(-9, 2), (0, 3): F(3)}),
        3: MultiPoly(3, {(2, 0, 0): F(2), (1, 1, 0): F(-11, 2),
                         (0, 2, 0): F(-1, 2), (1, 0, 1): F(9, 2),
                         (0, 1, 1): F(2), (0, 0, 2): F(-1, 2)}),
        4: MultiPoly(4, {(1, 0, 0, 0): F(-1), (0, 1, 0, 0): F(4),
                         (0, 0, 1, 0): F(-6), (0, 0, 0, 1): F(4)})})
    psi = mould.ma_inverse(mould.swap(Bpsi))
    return NCPoly({w: c * (-1) ** w.count("y") for w, c in psi.terms.items()})


def _scalar(rng):
    p, q = rng.sample(range(2, 10), 2)
    return F(rng.choice((-1, 1)) * p, q)


def _all_true(report):
    bad = [k for k, v in report.verdicts.items() if v is not True]
    return "verdicts not True: %s" % bad if bad else None


def _gate_digest(report):
    return report.verdicts


def _xi_digest(report):
    return {"verdicts": report.verdicts,
            "image": mould.mould_to_json_text(report.stages["image"])}


def _linear_oracle(base_id, c, image_of):
    def oracle(out, outputs):
        base = outputs.get(base_id)
        if base is None:
            return "no output from %s to compare with" % base_id
        if not out.eq(image_of(base).scale(c)):
            return "image of %s * input != %s * image" % (c, c)
        return None
    return oracle


def xi(rng):
    b3 = lie_bracket(X, lie_bracket(X, Y))
    w3 = words.nu_twist(b3)
    w5 = psi_minus()
    v5 = words.nu_twist(w5)
    c_sec, c_xi = _scalar(rng), _scalar(rng)
    D = 4
    jobs = [
        Job("w_krv_gate:w3", lambda: maps.w_krv_gate(w3), _gate_digest,
            lambda out, _: _all_true(out)),
        Job("w_krv_gate:w5", lambda: maps.w_krv_gate(w5), _gate_digest,
            lambda out, _: _all_true(out)),
        Job("verify_xi_image:w3", lambda: maps.verify_xi_image(
            mould.ma(w3), D), _xi_digest, lambda out, _: _all_true(out)),
        Job("krv_section:v5", lambda: maps.krv_section(v5, D),
            mould.mould_to_json_text),
        Job("xi:c*w3", lambda: maps.xi(mould.ma(w3.scale(c_xi)), D), None,
            _linear_oracle("verify_xi_image:w3", c_xi,
                           lambda report: report.stages["image"])),
        Job("krv_section:b3", lambda: maps.krv_section(b3, D),
            mould.mould_to_json_text),
        Job("krv_section:c*b3",
            lambda: maps.krv_section(b3.scale(c_sec), D), None,
            _linear_oracle("krv_section:b3", c_sec, lambda image: image)),
    ]
    rng.shuffle(jobs)
    return jobs


# named moulds the xi pipeline reads, memoized once per session
WARM = {
    "tables": [],
    "hard_cells": [],
    "xi": [("invpal_log", 4), ("invpil_log", 4), ("poc", 4)],
}


def build(name, seed):
    """Jobs of one pass, in seeded order, after warming the caches a
    session pays once."""
    rng = random.Random("%s:%d" % (name, seed))
    jobs = {"tables": tables, "hard_cells": hard_cells, "xi": xi}[name](rng)
    for args in WARM[name]:
        ari.named_mould(*args)
    return jobs
