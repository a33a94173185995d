"""In-memory span tracer over the public functions of each starprod layer.

install() replaces every public function of each layer module (and the
public arithmetic methods of FieldSpec) with a wrapper that records one
span per call: name, parent span, start and end.  The wrapper is bound
under every starprod module attribute that refers to the original
function, because sampling, oracle and codes import rank_many and
pairwise_product_rows by name at import time; wrapping only the defining
module would miss their calls.  Only public names are bound, so the
tracer survives changes to private helpers.

Spans stay in a list until the run ends.  Tracing is single-threaded:
the traced pass runs every entry point at threads=1.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("fields", "matrices", "codes", "exact", "sampling", "oracle", "apps")

# span record fields
NAME, LAYER, PARENT, START, END, WORK, CELLS, IN_SAMPLING = range(8)


def _rank_many_work(args, kwargs, out):
    mats = args[1] if len(args) > 1 else kwargs["mats"]
    b, r, c = mats.shape
    return b, b * r * c


def _product_work(args, kwargs, out):
    return out.nbytes, 0


def _min_distance_work(args, kwargs, out):
    c = args[0] if args else kwargs["c"]
    return c.field.q**c.k, 0  # span size charged against the distance budget


def _estimate_work(args, kwargs, out):
    return out.samples, 0


def _oracle_work(args, kwargs, out):
    budget = kwargs.get("budget")  # the benchmark passes a fresh EnumBudget by keyword
    return (budget.observed if budget is not None else 0), 0


# per-function work counters, computed from arguments and results
_WORK = {
    "matrices.rank_many": _rank_many_work,
    "codes.pairwise_product_rows": _product_work,
    "codes.min_distance": _min_distance_work,
    "sampling.mc_star_dim": _estimate_work,
    "sampling.mc_kernel_size": _estimate_work,
    "sampling.mc_full_dim_frequency": _estimate_work,
    "sampling.mc_intersection_dim": _estimate_work,
    "sampling.sample_code": lambda args, kwargs, out: (1, 0),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported from elsewhere; wrapped where it is defined
        if inspect.isgeneratorfunction(obj):
            continue  # a span would end before the generator is consumed
        yield name, obj


class Tracer:
    """Wraps the layers of an imported starprod package and records spans."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._restore = []

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self
        work = _WORK.get(qualname, _oracle_work if layer == "oracle" else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            in_sampling = layer == "sampling" or (parent >= 0 and tracer.spans[parent][IN_SAMPLING])
            rec = [qualname, layer, parent, time.perf_counter(), 0.0, 0, 0, in_sampling]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[WORK], rec[CELLS] = work(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        pkg_modules = [m for n, m in list(sys.modules.items()) if n == "starprod" or n.startswith("starprod.")]
        wrapped = {}  # id of each original function -> its wrapper
        for layer in LAYERS:
            module = sys.modules[f"starprod.{layer}"]
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = self._wrap(layer, f"{layer}.{name}", fn)
        for module in pkg_modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])
        spec_cls = sys.modules["starprod.fields"].FieldSpec
        for name in ("add", "neg", "sub", "mul", "inv", "div"):
            fn = spec_cls.__dict__[name]
            self._restore.append((spec_cls, name, fn))
            setattr(spec_cls, name, self._wrap("fields", f"fields.{name}", fn))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()


def _self_times(spans) -> list:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, pass_first: int, pass_busy: float, untraced_busy: float) -> dict:
    """Per-layer metrics of the traced pass, spans[pass_first:], whose public
    calls took pass_busy seconds against untraced_busy for the same calls
    untraced.  Earlier spans come from set-up (field tables, warm-up call)
    and count only towards fields.field_make.self_s.
    """
    self_t = _self_times(spans)
    field_make_s = sum(st for s, st in zip(spans, self_t) if s[NAME] == "fields.field_make")
    spans, self_t = spans[pass_first:], self_t[pass_first:]

    def parent_layer(s):
        return spans[s[PARENT] - pass_first][LAYER] if s[PARENT] >= 0 else None

    calls, self_s, work, cells, incl = {}, {}, {}, {}, {}
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    sampled_matrices = 0
    for s, st in zip(spans, self_t):
        name, layer = s[NAME], s[LAYER]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        work[name] = work.get(name, 0) + s[WORK]
        cells[name] = cells.get(name, 0) + s[CELLS]
        incl[name] = incl.get(name, 0.0) + s[END] - s[START]
        layer_self[layer] += st
        if parent_layer(s) != layer:
            layer_calls[layer] += 1
        if name == "matrices.rank_many" and s[IN_SAMPLING]:
            sampled_matrices += s[WORK]
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    samples = sum(s[WORK] for s in spans if s[LAYER] == "sampling")
    oracle_entries = [s for s in spans if s[LAYER] == "oracle" and parent_layer(s) != "oracle"]
    items_charged = sum(s[WORK] for s in oracle_entries)
    oracle_wall = sum(s[END] - s[START] for s in oracle_entries)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    rm = "matrices.rank_many"
    return {
        "matrices.rank_many.calls": (calls.get(rm, 0), "count"),
        "matrices.rank_many.matrices": (work.get(rm, 0), "count"),
        "matrices.rank_many.cells": (cells.get(rm, 0), "count"),
        "matrices.rank_many.self_s": (self_s.get(rm, 0.0), "s"),
        "matrices.rank_many.matrices_per_s": (rate(work.get(rm, 0), incl.get(rm, 0.0)), "1/s"),
        "matrices.rref.calls": (calls.get("matrices.rref", 0), "count"),
        "matrices.rref.self_s": (self_s.get("matrices.rref", 0.0), "s"),
        "codes.pairwise_product_rows.calls": (calls.get("codes.pairwise_product_rows", 0), "count"),
        "codes.pairwise_product_rows.self_s": (self_s.get("codes.pairwise_product_rows", 0.0), "s"),
        "codes.pairwise_product_rows.bytes_out": (work.get("codes.pairwise_product_rows", 0), "B"),
        "codes.star_product.self_s": (self_s.get("codes.star_product", 0.0), "s"),
        "codes.dual.self_s": (self_s.get("codes.dual", 0.0), "s"),
        "codes.min_distance.calls": (calls.get("codes.min_distance", 0), "count"),
        "codes.min_distance.self_s": (self_s.get("codes.min_distance", 0.0), "s"),
        "codes.min_distance.codewords": (work.get("codes.min_distance", 0), "count"),
        "fields.mul.calls": (calls.get("fields.mul", 0), "count"),
        "fields.mul.self_s": (self_s.get("fields.mul", 0.0), "s"),
        "fields.add.calls": (calls.get("fields.add", 0), "count"),
        "fields.add.self_s": (self_s.get("fields.add", 0.0), "s"),
        "fields.field_make.self_s": (field_make_s, "s"),
        "sampling.self_s": (layer_self["sampling"], "s"),
        "sampling.samples": (samples, "count"),
        "sampling.useful_rank_ratio": (rate(samples, sampled_matrices), "ratio"),
        "oracle.self_s": (layer_self["oracle"], "s"),
        "oracle.items_charged": (items_charged, "count"),
        "oracle.items_per_s": (rate(items_charged, oracle_wall), "1/s"),
        "exact.calls": (layer_calls["exact"], "count"),
        "exact.self_s": (layer_self["exact"], "s"),
        "apps.calls": (layer_calls["apps"], "count"),
        "apps.self_s": (layer_self["apps"], "s"),
        "trace.overhead_ratio": (rate(pass_busy, untraced_busy), "ratio"),
        "trace.coverage": (rate(roots, pass_busy), "ratio"),
    }
