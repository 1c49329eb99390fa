"""Layer tracing from outside the library.

`Tracer.install()` wraps every public function and method of the traced
`triaut` modules and rebinds each wrapper in every module that holds the
original by name (`cli` imports `compose`, `lie` imports `bracket`, ...),
so calls are seen whichever module makes them.  Nothing inside `triaut`
is edited; `uninstall()` restores the originals.

Each wrapped function belongs to one metric name (`polynomials.mul`,
`automorphisms.compose`, `harness`, ...).  A call opens a frame only
inside an item (see `Tracer.run_item`) and only when the caller is not a
frame of the same name, so `a - b` counts once as `polynomials.add`
even though `__sub__` calls `__neg__` and `__add__`.  A frame's self
time is its duration minus the time covered by its child frames.

Hot names (polynomials and `derivations.apply`, millions of calls) keep
per-name aggregates only.  Every other frame, and every item, is also
kept as a full span `(span, parent, item, name, start, end)`.

The bookkeeping done after a call returns (counting output terms,
coefficient sizes, ...) is timed separately as `trace.bookkeeping_s` and
excluded from every self time, so that

    sum(layer self times) + other.self_s + trace.bookkeeping_s
        == sum(traced item durations)

holds up to float rounding.  `other.self_s` is the items' own self time:
the benchmark's glue code between library calls.
"""

from __future__ import annotations

import inspect
import sys
from fractions import Fraction
from time import perf_counter

# (module, qualified name) -> metric name; anything public not listed
# falls back to the module's default below.
_NAMES = {
    ("polynomials", "Polynomial.__mul__"): "polynomials.mul",
    ("polynomials", "Polynomial.__rmul__"): "polynomials.mul",
    ("polynomials", "Polynomial.__truediv__"): "polynomials.mul",
    ("polynomials", "Polynomial.__add__"): "polynomials.add",
    ("polynomials", "Polynomial.__radd__"): "polynomials.add",
    ("polynomials", "Polynomial.__sub__"): "polynomials.add",
    ("polynomials", "Polynomial.__rsub__"): "polynomials.add",
    ("polynomials", "Polynomial.__neg__"): "polynomials.add",
    ("polynomials", "Polynomial.partial"): "polynomials.partial",
    ("polynomials", "Polynomial.substitute"): "polynomials.substitute",
    # private, but it is the substitution compose() calls directly
    ("polynomials", "Polynomial._substitute"): "polynomials.substitute",
    ("polynomials", "Polynomial.__str__"): "polynomials.str",
    ("polynomials", "Polynomial.__repr__"): "polynomials.str",
    ("automorphisms", "compose"): "automorphisms.compose",
    ("automorphisms", "invert"): "automorphisms.invert",
    ("automorphisms", "elementary_factorization"): "automorphisms.factor",
    ("derivations", "TriangularDerivation.apply"): "derivations.apply",
    ("derivations", "bracket"): "derivations.bracket",
    ("derivations", "exponential"): "derivations.exponential",
    ("lie", "lie_closure"): "lie.closure",
    ("lie", "lower_central_series"): "lie.series",
    ("lie", "derived_series"): "lie.series",
}

_DEFAULTS = {
    "polynomials": "polynomials.misc",
    "automorphisms": "automorphisms.misc",
    "derivations": "derivations.misc",
    "lie": "lie.misc",
    "harness": "harness",
    "parsing": "parsing",
    "cli": "cli.run",
}

# `words` is on no user path (neither the CLI nor the harness calls it).
LAYERS = tuple(_DEFAULTS)

# Implicitly called on every truth test; wrapping it would only add noise.
_SKIP = {"__bool__", "__len__"}

# Keep aggregates only for these, to bound memory.
_HOT_PREFIXES = ("polynomials.", "derivations.apply")

_FAILED = object()

# Every metric name a traced run reports, in print order.
METRIC_NAMES = sorted(set(_NAMES.values()) | set(_DEFAULTS.values()))


def _coefficient_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _rank(vectors: list[dict]) -> int:
    """Rank over Q of sparse vectors {column: coefficient}."""
    rows: list[dict] = []
    for vec in vectors:
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        for row in rows:
            pivot = next(iter(row))
            factor = vec.get(pivot)
            if factor:
                for k, v in row.items():
                    s = vec.get(k, 0) - factor * v
                    if s:
                        vec[k] = s
                    else:
                        vec.pop(k, None)
        if vec:
            pivot = min(vec)
            inv = 1 / vec[pivot]
            rows.append({pivot: Fraction(1),
                         **{k: v * inv for k, v in vec.items() if k != pivot}})
    return len(rows)


class Tracer:
    """Wraps the library's public functions and accumulates layer metrics."""

    def __init__(self):
        self.stack: list[list] = []     # frames: [name, child_time, span_id]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.bookkeeping_s = 0.0
        self.item_s = 0.0
        self.item_self_s = 0.0
        self._item_id = None
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- items ------------------------------------------------------------

    def run_item(self, item_id, fn, *args):
        """Run fn(*args) as one traced item; returns (result, seconds)."""
        frame = ["item", 0.0, len(self.spans)]
        self.spans.append(None)
        self._item_id = item_id
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[frame[2]] = (frame[2], None, item_id, "item", t0, t1)
            self.item_s += t1 - t0
            self.item_self_s += t1 - t0 - frame[1]
        return result, t1 - t0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, hook):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        spans = None if name.startswith(_HOT_PREFIXES) else self.spans
        tracer = self

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            parent = stack[-1]
            if spans is None:
                frame = [name, 0.0, parent[2]]
            else:
                frame = [name, 0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            out = _FAILED
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[1]
                if spans is not None:
                    spans[frame[2]] = (frame[2], parent[2], tracer._item_id, name, t0, t1)
                if hook is not None and out is not _FAILED:
                    hook(tracer, args, out)
                t2 = perf_counter()
                tracer.bookkeeping_s += t2 - t1
                parent[1] += t2 - t0
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _bump(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enclosing(self, prefixes):
        for frame in reversed(self.stack):
            if frame[0] in prefixes:
                return frame[0]
        return None

    def install(self, extra_modules=()):
        """Wrap the traced modules; rebind wrappers wherever imported by name."""
        import triaut  # noqa: F401  (loads every submodule)

        hooks = {
            "polynomials.mul": _mul_hook,
            "parsing": _parsing_hook,
            "lie.closure": _closure_hook,
            "derivations.bracket": _bracket_hook,
        }
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, name):
            w = wrappers.get(id(fn))
            if w is None:
                w = self._wrap(fn, name, hooks.get(name))
                wrappers[id(fn)] = w
            return w

        for layer in LAYERS:
            module = sys.modules[f"triaut.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    name = _NAMES.get((layer, attr), _DEFAULTS[layer])
                    self._patch(module, attr, obj, wrapper_for(obj, name))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, wrapper_for)

        originals = {id(w.__wrapped__): w for w in wrappers.values()}
        targets = [m for key, m in list(sys.modules.items())
                   if key == "triaut" or key.startswith("triaut.")]
        targets += list(extra_modules)
        for module in targets:
            for attr, obj in list(vars(module).items()):
                w = originals.get(id(obj))
                if w is not None and obj is w.__wrapped__:
                    self._patch(module, attr, obj, w)

    def _wrap_class(self, layer, cls, wrapper_for):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP:
                continue
            if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")) \
                    and (layer, f"{cls.__name__}.{attr}") not in _NAMES:
                continue
            name = _NAMES.get((layer, f"{cls.__name__}.{attr}"), _DEFAULTS[layer])
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if not inspect.isfunction(fn):
                    continue
                self._patch(cls, attr, raw, type(raw)(wrapper_for(fn, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, wrapper_for(raw, name))

    def _patch(self, owner, attr, original, replacement):
        if vars(owner).get(attr) is replacement:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every layer metric by name (counts exact, times in seconds)."""
        out: dict[str, float] = {}
        for name in METRIC_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        c = self.counts
        out_terms = c.get("mul.out_terms", 0)
        out["polynomials.mul.term_products"] = c.get("mul.term_products", 0)
        out["polynomials.mul.out_terms"] = out_terms
        out["polynomials.mul.frac_share"] = (c.get("mul.frac_terms", 0) / out_terms
                                             if out_terms else 0.0)
        out["polynomials.mul.max_coeff_bits"] = c.get("mul.max_coeff_bits", 0)
        closure_brackets = c.get("lie.closure.brackets", 0)
        out["lie.closure.brackets"] = closure_brackets
        out["lie.closure.bracket_yield"] = (c.get("lie.closure.added", 0) / closure_brackets
                                            if closure_brackets else 0.0)
        out["lie.series.brackets"] = c.get("lie.series.brackets", 0)
        out["lie.dimension_sum"] = c.get("lie.dimension_sum", 0)
        out["parsing.bytes"] = c.get("parsing.bytes", 0)
        out["other.self_s"] = self.item_self_s
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        out["trace.item_s"] = self.item_s
        out["trace.spans"] = len(self.spans)
        return out

    def accounting_error(self) -> float:
        """|sum of all self times + bookkeeping - item time|, in seconds."""
        total = sum(self.self_s.values()) + self.item_self_s + self.bookkeeping_s
        return abs(total - self.item_s)


def _mul_hook(tracer, args, out):
    a, b = args[0], args[1]
    c = tracer.counts
    products = len(a.terms) * len(b.terms) if hasattr(b, "terms") else len(a.terms)
    c["mul.term_products"] = c.get("mul.term_products", 0) + products
    values = out.terms.values()
    c["mul.out_terms"] = c.get("mul.out_terms", 0) + len(values)
    fracs = 0
    bits = c.get("mul.max_coeff_bits", 0)
    for v in values:
        if type(v) is not int:
            fracs += 1
        b_ = _coefficient_bits(v)
        if b_ > bits:
            bits = b_
    c["mul.frac_terms"] = c.get("mul.frac_terms", 0) + fracs
    c["mul.max_coeff_bits"] = bits


def _parsing_hook(tracer, args, out):
    tracer._bump("parsing.bytes", len(args[0].encode("utf-8")))


def _bracket_hook(tracer, args, out):
    owner = tracer._enclosing(("lie.closure", "lie.series"))
    if owner is not None:
        tracer._bump(f"{owner}.brackets", 1)


def _closure_hook(tracer, args, out):
    generators = list(args[0])
    vectors = [{(i, key): coeff for i, g in enumerate(d.coeffs) for key, coeff in g.terms.items()}
               for d in generators]
    tracer._bump("lie.dimension_sum", out.dimension)
    tracer._bump("lie.closure.added", out.dimension - _rank(vectors))
