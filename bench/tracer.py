"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces the public functions of every layer by
timing wrappers, in every place the package holds a reference to them:
module globals (so `from .linalg import nullspace` in `spaces` is
covered), class attributes (so `__rmul__ = __mul__` aliases are
covered), module-level dicts such as `cli.UNARY_OPS`, and default
arguments such as `exp_ari(..., pre=preari)`.  `uninstall()` puts every
original object back, and `find_wrappers()` proves that none is left.

Hot layers (poly, words, mould, ari) are aggregated as call count plus
self time.  Jobs, `spaces` cells, `maps` calls, `linalg` calls and
`cli` calls also get a span each, with a parent span and a job id.
Self time is the wrapper's elapsed time minus the elapsed time of the
wrappers it called, so the self times of all categories plus the
unwrapped remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter

MARK = "__bench_wrapper__"

# layer -> package module
LAYERS = {
    "poly": "moulde.poly",
    "linalg": "moulde.linalg",
    "words": "moulde.words",
    "mould": "moulde.mould",
    "ari": "moulde.ari",
    "spaces": "moulde.spaces",
    "maps": "moulde.maps",
    "cli": "moulde.cli",
}

# category -> (layer, [public names in that layer's module], span?)
CATEGORIES = {
    "poly.mul": ("poly", ["MultiPoly.__mul__"], False),
    "poly.substitute": ("poly", ["MultiPoly.substitute_linear",
                                 "RatFrac.substitute_linear"], False),
    "poly.permute": ("poly", ["MultiPoly.permute_variables"], False),
    "poly.ratfrac_new": ("poly", ["RatFrac.__init__"], False),
    "poly.ratfrac_add": ("poly", ["RatFrac.__add__"], False),
    "poly.divide": ("poly", ["exact_poly_divide"], False),
    "linalg.rref": ("linalg", ["rref"], True),
    "linalg.nullspace": ("linalg", ["nullspace"], True),
    "words.lyndon": ("words", ["lyndon_lie_basis"], False),
    "words.bracket": ("words", ["lie_bracket"], False),
    "words.c_basis": ("words", ["to_c_basis", "from_c_basis"], False),
    "words.predicates": ("words", [
        "decompose", "push_word", "is_push_invariant", "is_push_neutral",
        "is_push_constant", "is_circ_neutral_poly",
        "is_circ_constant_poly"], False),
    "mould.ops": ("mould", [
        "ma", "ma_inverse", "swap", "push", "circ", "mantar", "pari",
        "dar", "delta_op", "delta_inv"], False),
    "mould.sums": ("mould", ["shuffle_sum", "circ_cycle_sum"], False),
    "mould.predicates": ("mould", [
        "is_alternal", "is_push_invariant", "is_mantar_invariant",
        "is_circ_neutral", "is_circ_constant", "is_senary",
        "star_correction", "in_ari_delta"], False),
    "ari.flexion": ("ari", [
        "mu", "amit", "anit", "arit", "ari", "preari", "amit_bar",
        "anit_bar", "arit_bar", "ari_bar", "preari_bar"], False),
    "ari.ganit": ("ari", ["ganit_bar"], False),
    "ari.series": ("ari", ["exp_ari", "log_ari", "adjoint_exp"], False),
    "ari.named": ("ari", ["named_mould"], False),
    "spaces.assemble": ("spaces", [
        "lkv_system", "ls_system", "vkrv_system", "krv_ell_system",
        "ds_ell_system"], False),
    "spaces.solve": ("spaces", [
        "solve_lkv", "solve_ls", "solve_vkrv", "solve_gr_krv",
        "solve_krv_ell", "solve_ds_ell", "dimension_table"], True),
    "spaces.lie_basis": ("spaces", ["lie_basis"], False),
    "maps": ("maps", ["xi", "verify_xi_image", "krv_section",
                      "w_krv_gate"], True),
    "cli": ("cli", ["run"], True),
}


def _modules():
    return [importlib.import_module(m) for m in LAYERS.values()]


def _places(modules):
    """Every (kind, owner, key, value) slot where the package keeps a
    reference that a wrapper may need to replace."""
    seen_fns = set()
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            yield ("attr", mod, name, value)
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield ("item", value, k, v)
            fns = []
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cname, cvalue in list(vars(value).items()):
                    yield ("attr", value, cname, cvalue)
                    if isinstance(cvalue, types.FunctionType):
                        fns.append(cvalue)
            elif isinstance(value, types.FunctionType):
                fns.append(value)
            for fn in fns:
                if id(fn) in seen_fns:
                    continue
                seen_fns.add(id(fn))
                for i, d in enumerate(fn.__defaults__ or ()):
                    yield ("default", fn, i, d)
                for k, d in (fn.__kwdefaults__ or {}).items():
                    yield ("kwdefault", fn, k, d)


def _assign(kind, owner, key, value):
    if kind == "attr":
        setattr(owner, key, value)
    elif kind == "item":
        owner[key] = value
    elif kind == "default":
        d = list(owner.__defaults__)
        d[key] = value
        owner.__defaults__ = tuple(d)
    else:
        kw = dict(owner.__kwdefaults__)
        kw[key] = value
        owner.__kwdefaults__ = kw


def find_wrappers():
    """Number of slots in the package that hold a tracing wrapper."""
    return sum(1 for _, _, _, v in _places(_modules())
               if getattr(v, MARK, False))


def _lookup(mod, dotted):
    if "." in dotted:
        cls, attr = dotted.split(".")
        return vars(getattr(mod, cls))[attr]
    return getattr(mod, dotted)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(CATEGORIES, 0)
        self.self_s = dict.fromkeys(CATEGORIES, 0.0)
        self.counts = {}          # extra exact counts (entries, nnz, ...)
        self.max_bits = 0
        self.last_lyndon = 0
        self.stack = []           # child elapsed time of each open wrapper
        self.span_stack = []      # ids of open spans
        self.spans = []           # [id, parent, job, name, start, end]
        self.job = None
        self.undo = []
        self.named = self.named_info0 = None

    def exclude(self, seconds):
        """Leave time spent outside the package out of the open wrapper."""
        if self.stack:
            self.stack[-1] += seconds

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans ------------------------------------------------------------
    def open_span(self, name):
        sid = len(self.spans)
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append([sid, parent, self.job, name, perf_counter(), None])
        self.span_stack.append(sid)
        return sid

    def close_span(self, sid):
        self.spans[sid][5] = perf_counter()
        self.span_stack.pop()

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, cat, label, span, hook):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        if not span and hook is None:
            def wrapper(*a, **k):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*a, **k)
                finally:
                    el = perf_counter() - t0
                    self_s[cat] += el - stack.pop()
                    calls[cat] += 1
                    if stack:
                        stack[-1] += el
        else:
            def wrapper(*a, **k):
                sid = self.open_span(label) if span else None
                stack.append(0.0)
                t0 = perf_counter()
                out = None
                try:
                    out = fn(*a, **k)
                    return out
                finally:
                    el = perf_counter() - t0
                    self_s[cat] += el - stack.pop()
                    calls[cat] += 1
                    if sid is not None:
                        self.close_span(sid)
                    if hook is not None and out is not None:
                        hook(self, a, out)
                    if stack:
                        # the parent is not charged for this bookkeeping
                        stack[-1] += perf_counter() - t0

        if isinstance(fn, types.FunctionType):
            functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        modules = _modules()
        replace = {}
        for cat, (layer, names, span) in CATEGORIES.items():
            mod = importlib.import_module(LAYERS[layer])
            for name in names:
                fn = _lookup(mod, name)
                label = "%s.%s" % (layer, name)
                replace[id(fn)] = (fn, self._wrap(fn, cat, label, span,
                                                  HOOKS.get(name)))
        self.named = importlib.import_module("moulde.ari").named_mould
        self.named_info0 = self.named.cache_info()
        for kind, owner, key, value in list(_places(modules)):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                _assign(kind, owner, key, hit[1])
                self.undo.append((kind, owner, key, value))

    def uninstall(self):
        """Restore every original; return True when each slot holds its
        original object again and no wrapper is left anywhere."""
        for kind, owner, key, value in reversed(self.undo):
            _assign(kind, owner, key, value)
        ok = all(_current(kind, owner, key) is value
                 for kind, owner, key, value in self.undo)
        return ok and find_wrappers() == 0

    # -- results ----------------------------------------------------------
    def named_misses(self):
        return self.named.cache_info().misses - self.named_info0.misses


def _current(kind, owner, key):
    if kind == "attr":
        return vars(owner)[key]
    if kind == "item":
        return owner[key]
    if kind == "default":
        return owner.__defaults__[key]
    return owner.__kwdefaults__[key]


# -- exact counts gathered at the layer boundaries --------------------------

def _rref_hook(t, args, out):
    matrix = args[0]
    rows, pivots = out
    t._count("rref.entries", len(matrix) * (len(matrix[0]) if matrix else 0))
    t._count("rref.nnz", sum(1 for row in matrix for x in row if x))
    t._count("rref.rank", len(pivots))
    for row in rows:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > t.max_bits:
                t.max_bits = b


def _nullspace_hook(t, args, out):
    t._count("nullspace.vectors", len(out))


def _divide_hook(t, args, out):
    t._count("divide.hits", 1)


def _lyndon_hook(t, args, out):
    t.last_lyndon = len(out)


def _lie_basis_hook(t, args, out):
    # lie_basis(n, r) filters one lyndon_lie_basis(n) call down to depth r
    t._count("lie_basis.kept", len(out))
    t._count("lie_basis.of", t.last_lyndon)


def _system_hook(t, args, out):
    t._count("matrix.rows", len(out.rows))
    t._count("matrix.cols", len(out.parameters))


# hooks see the arguments and the result of a call that returned
# something other than None (a None from exact_poly_divide is a miss)
HOOKS = {
    "rref": _rref_hook,
    "nullspace": _nullspace_hook,
    "exact_poly_divide": _divide_hook,
    "lyndon_lie_basis": _lyndon_hook,
    "lie_basis": _lie_basis_hook,
    "lkv_system": _system_hook,
    "ls_system": _system_hook,
    "vkrv_system": _system_hook,
    "krv_ell_system": _system_hook,
    "ds_ell_system": _system_hook,
}


# -- per-layer metrics --------------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t, traced_s):
    """Per-layer metrics of one traced process, as {name: (value, unit)}
    grouped by layer; a layer's share is its self time over `traced_s`."""
    c, s, n = t.calls, t.self_s, t.counts
    out = {}

    def calls(*cats):
        for cat in cats:
            out[cat + ".calls"] = (c[cat], "count")

    def busy(*cats):
        for cat in cats:
            out[cat + ".self_s"] = (s[cat], "s")

    calls("poly.mul")
    busy("poly.mul")
    calls("poly.substitute")
    busy("poly.substitute")
    calls("poly.permute", "poly.ratfrac_new")
    busy("poly.ratfrac_new")
    calls("poly.ratfrac_add")
    busy("poly.ratfrac_add")
    calls("poly.divide")
    busy("poly.divide")
    out["poly.divide.hit_ratio"] = (
        _ratio(n.get("divide.hits", 0), c["poly.divide"]), "ratio")
    calls("linalg.rref")
    busy("linalg.rref")
    for key in ("entries", "nnz", "rank"):
        out["linalg.rref." + key] = (n.get("rref." + key, 0), "count")
    out["linalg.rref.max_bits"] = (t.max_bits, "bits")
    out["linalg.nullspace.vectors"] = (n.get("nullspace.vectors", 0), "count")
    calls("words.lyndon")
    busy("words.lyndon")
    out["words.lyndon.kept_ratio"] = (
        _ratio(n.get("lie_basis.kept", 0), n.get("lie_basis.of", 0)), "ratio")
    for cat in ("words.bracket", "words.c_basis"):
        calls(cat)
        busy(cat)
    busy("words.predicates")
    for cat in ("mould.ops", "mould.sums"):
        calls(cat)
        busy(cat)
    busy("mould.predicates")
    for cat in ("ari.flexion", "ari.ganit"):
        calls(cat)
        busy(cat)
    busy("ari.series")
    out["ari.named.misses"] = (t.named_misses(), "count")
    busy("ari.named")
    calls("spaces.assemble")
    busy("spaces.assemble", "spaces.solve")
    out["spaces.matrix.rows"] = (n.get("matrix.rows", 0), "count")
    out["spaces.matrix.cols"] = (n.get("matrix.cols", 0), "count")
    for cat in ("maps", "cli"):
        calls(cat)
        busy(cat)
    for layer in LAYERS:
        own = sum(v for cat, v in s.items() if CATEGORIES[cat][0] == layer)
        out[layer + ".share"] = (_ratio(own, traced_s), "ratio")
    return out
