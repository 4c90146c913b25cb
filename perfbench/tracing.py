"""Spans and boundary counters for helixkit, installed from outside.

``Tracer.install()`` wraps the public functions listed in ``TARGETS`` and
rebinds each wrapper in every helixkit module namespace and class that holds
the original (``cli`` and ``quadratic`` import names with ``from ... import``,
so patching the defining module alone would miss their calls).
``Tracer.uninstall()`` puts every original back.

Each wrapped call records a span: name, start, end, the end of the interval
it covers (end plus the time spent reading counters off its arguments and
result, which is billed to nobody), parent span and op id. Spans stay in
memory in flat arrays until ``write_spans``. A span's self time is its
duration minus the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import sys
from array import array
from math import prod
from time import perf_counter

TARGETS = {
    "cli": ("main",),
    "helix": (
        "invariants_from_seed",
        "check_positivity",
        "verify_periodicity",
        "closed_form",
        "limit_slopes",
        "verify_ratio_bound",
    ),
    "bundles": ("mutate_triad_right", "mutate_triad_left", "hom_dims"),
    "exact": (
        "TruncatedSeries.inverse",
        "TruncatedSeries.__mul__",
        "SurdValue.__pow__",
        "surd_to_decimal",
        "RationalMatrix.rref",
        "matrix_kernel",
        "_sparse_rank",
        "row_space_equal",
    ),
    "quadratic": (
        "QuadraticPresentation.__init__",
        "QuadraticPresentation.from_json_dict",
        "QuadraticPresentation.to_json_dict",
        "koszul_dual",
        "double_dual_check",
        "degree_dims",
        "koszulity_witness",
        "hilbert_A",
        "hilbert_B",
        "cross_check_hilbert",
        "normal_quotient_check",
    ),
    "sampling": (
        "random_presentation",
        "random_right_mutable_triad",
        "random_seed_triple",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# (name, unit, better) of the counters read at span boundaries, beside the
# calls and self_s every span name gets.
EXTRA_METRICS = (
    ("exact._sparse_rank.rows_in", "rows", "lower"),
    ("exact._sparse_rank.rank_out", "rows", "lower"),
    ("exact._sparse_rank.useful_ratio", "ratio", "higher"),
    ("quadratic.degree_dims.ambient_sum", "dims", "lower"),
    ("quadratic.degree_dims.quotient_sum", "dims", "lower"),
    ("quadratic.degree_dims.quotient_ratio", "ratio", "higher"),
    ("quadratic.degree_dims.ambient_max", "dims", "lower"),
    ("exact.RationalMatrix.rref.cells", "cells", "lower"),
    ("exact.RationalMatrix.rref.max_entry_bits", "bits", "lower"),
    ("exact.TruncatedSeries.inverse.order_sum", "terms", "lower"),
    ("helix.invariants_from_seed.rows", "rows", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("bundles.mutate_triad_right.raised", "count", "lower"),
    ("sampling.random_right_mutable_triad.accept_ratio", "ratio", "higher"),
    ("sampling.random_seed_triple.accept_ratio", "ratio", "higher"),
    ("py.gc.pause_s", "s", "lower"),
    ("py.gc.collections", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


def _counted(rows, box):
    for row in rows:
        box[0] += 1
        yield row


def _entry_bits(matrix) -> int:
    return max(
        (max(e.numerator.bit_length(), e.denominator.bit_length())
         for e in matrix.entries),
        default=0,
    )


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.name_id = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.names = array("H")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.current_op = -1
        self.counters = {name: 0 for name, _, _ in EXTRA_METRICS}
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_started = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.cover.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self.cover[idx] = t
        self.stack.pop()

    def _wrap(self, name: str, fn, pre=None, post=None):
        name_id = self.name_id[name]
        tracer = self
        raised = f"{name}.raised"
        count_raised = raised in self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if pre:
                args, state = pre(tracer, args)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                if count_raised:
                    tracer.counters[raised] += 1
                raise
            tracer._close(idx)
            if post:
                post(tracer, args, result, state)
                tracer.cover[idx] = perf_counter()
            return result

        wrapper.span_name = name
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever helixkit holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = helixkit_modules()
        for mod_name, fns in TARGETS.items():
            module = modules[f"helixkit.{mod_name}"]
            for qual in fns:
                name = f"{mod_name}.{qual}"
                pre, post = _HOOKS.get(name, (None, None))
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, pre, post))
                    else:
                        wrapped = self._wrap(name, raw, pre, post)
                    self._patch(cls, attr, raw, wrapped)
                    continue
                original = module.__dict__[qual]
                wrapped = self._wrap(name, original, pre, post)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapped)
        gc.callbacks.append(self._gc_callback)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_pause += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.cover, self.parent)

    def summary(self) -> dict[str, float]:
        """calls and self_s per span name, plus the boundary counters."""
        own = self.self_times()
        calls = [0] * len(SPAN_NAMES)
        selfs = [0.0] * len(SPAN_NAMES)
        for k, name_id in enumerate(self.names):
            calls[name_id] += 1
            selfs[name_id] += own[k]
        out: dict[str, float] = {}
        for name, n, s in zip(SPAN_NAMES, calls, selfs):
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = s
        c = dict(self.counters)
        c["exact._sparse_rank.useful_ratio"] = _ratio(
            c["exact._sparse_rank.rank_out"], c["exact._sparse_rank.rows_in"])
        c["quadratic.degree_dims.quotient_ratio"] = _ratio(
            c["quadratic.degree_dims.quotient_sum"],
            c["quadratic.degree_dims.ambient_sum"])
        for parent_name, child_name in (
            ("sampling.random_right_mutable_triad", "bundles.mutate_triad_right"),
            ("sampling.random_seed_triple", "helix.invariants_from_seed"),
        ):
            c[f"{parent_name}.accept_ratio"] = _ratio(
                calls[self.name_id[parent_name]],
                self.child_calls(parent_name, child_name))
        c["py.gc.pause_s"] = self.gc_pause
        c["py.gc.collections"] = self.gc_collections
        out.update(c)
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose parent span is named parent_name."""
        pid, cid = self.name_id[parent_name], self.name_id[child_name]
        return sum(
            1 for k, name_id in enumerate(self.names)
            if name_id == cid and self.parent[k] >= 0
            and self.names[self.parent[k]] == pid
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,cover,parent,op\n")
            for k in range(len(self.names)):
                fh.write(
                    f"{k},{SPAN_NAMES[self.names[k]]},{self.start[k]!r},"
                    f"{self.end[k]!r},{self.cover[k]!r},{self.parent[k]},{self.op[k]}\n"
                )


def self_times(start, end, cover, parent) -> list[float]:
    """Duration of each span minus the intervals its children cover."""
    out = [e - s for s, e in zip(start, end)]
    for k, p in enumerate(parent):
        if p >= 0:
            out[p] -= cover[k] - start[k]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def helixkit_modules() -> dict:
    """Every loaded helixkit module by full name (importing cli loads all)."""
    import helixkit.cli  # noqa: F401

    return {
        name: module
        for name, module in list(sys.modules.items())
        if (name == "helixkit" or name.startswith("helixkit.")) and module is not None
    }


# -- boundary counters: pre(tracer, args) -> (args, state) runs before the
#    span opens; post(tracer, args, result, state) runs after it closes and
#    inside its cover, so neither is billed to the parent's self time.


def _sparse_rank_pre(tracer, args):
    box = [0]
    return (_counted(args[0], box),) + tuple(args[1:]), box


def _sparse_rank_post(tracer, args, result, box):
    c = tracer.counters
    c["exact._sparse_rank.rows_in"] += box[0]
    c["exact._sparse_rank.rank_out"] += result


def _degree_dims_post(tracer, args, result, state):
    p, top = args[0], args[1]
    c = tracer.counters
    for i in range(p.period):
        for n in range(2, top + 1):
            ambient = prod(p.gen_dims[(i + k) % p.period] for k in range(n))
            c["quadratic.degree_dims.ambient_sum"] += ambient
            c["quadratic.degree_dims.quotient_sum"] += result.dims[i][n]
            c["quadratic.degree_dims.ambient_max"] = max(
                c["quadratic.degree_dims.ambient_max"], ambient)


def _rref_post(tracer, args, result, state):
    c = tracer.counters
    c["exact.RationalMatrix.rref.cells"] += args[0].rows * args[0].cols
    c["exact.RationalMatrix.rref.max_entry_bits"] = max(
        c["exact.RationalMatrix.rref.max_entry_bits"], _entry_bits(result[0]))


def _inverse_post(tracer, args, result, state):
    tracer.counters["exact.TruncatedSeries.inverse.order_sum"] += args[0].order


def _invariants_post(tracer, args, result, state):
    tracer.counters["helix.invariants_from_seed.rows"] += len(result.rows)


_HOOKS = {
    "exact._sparse_rank": (_sparse_rank_pre, _sparse_rank_post),
    "quadratic.degree_dims": (None, _degree_dims_post),
    "exact.RationalMatrix.rref": (None, _rref_post),
    "exact.TruncatedSeries.inverse": (None, _inverse_post),
    "helix.invariants_from_seed": (None, _invariants_post),
}
