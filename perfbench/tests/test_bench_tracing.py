"""The tracer patches every binding of a wrapped function and restores it."""

import contextlib
import inspect
import io
from array import array

import pytest

import tracing


def _namespaces():
    """(owner, key, value) for every module and helixkit class namespace."""
    for module in tracing.helixkit_modules().values():
        for key, value in list(vars(module).items()):
            yield module, key, value
            if inspect.isclass(value) and value.__module__.startswith("helixkit"):
                for attr, raw in list(vars(value).items()):
                    yield value, attr, raw


def _originals():
    """id -> name of every target's original function object."""
    modules = tracing.helixkit_modules()
    out = {}
    for mod_name, fns in tracing.TARGETS.items():
        module = modules[f"helixkit.{mod_name}"]
        for qual in fns:
            if "." in qual:
                cls_name, attr = qual.split(".")
                raw = vars(getattr(module, cls_name))[attr]
                out[id(raw)] = qual
                if isinstance(raw, classmethod):
                    out[id(raw.__func__)] = qual
            else:
                out[id(vars(module)[qual])] = qual
    return out


def _is_wrapper(value) -> bool:
    return hasattr(getattr(value, "__func__", value), "span_name")


def _snapshot():
    return {(id(owner), key): value for owner, key, value in _namespaces()}


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_no_namespace_keeps_an_unwrapped_original():
    originals = _originals()
    t = tracing.Tracer()
    t.install()
    try:
        left = [
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, value in _namespaces()
            if id(value) in originals
            or (isinstance(value, classmethod) and id(value.__func__) in originals)
        ]
    finally:
        t.uninstall()
    assert left == []


def test_every_target_is_wrapped_while_installed(tracer):
    import helixkit.cli as cli
    import helixkit.quadratic as qa
    from helixkit.exact import RationalMatrix

    assert cli.main.span_name == "cli.main"
    assert qa._sparse_rank.span_name == "exact._sparse_rank"  # from-import
    assert cli.invariants_from_seed.span_name == "helix.invariants_from_seed"
    assert RationalMatrix.rref.span_name == "exact.RationalMatrix.rref"
    assert _is_wrapper(vars(qa.QuadraticPresentation)["from_json_dict"])
    wrapped = sum(_is_wrapper(v) for _, _, v in _namespaces())
    assert wrapped >= len(tracing.SPAN_NAMES)


def test_uninstall_restores_every_original():
    before = _snapshot()
    t = tracing.Tracer()
    t.install()
    assert _snapshot() != before
    t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(_is_wrapper(v) for _, _, v in _namespaces())


def test_traced_call_records_nested_spans(tracer):
    import helixkit.cli as cli

    tracer.current_op = 7
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["hilbert", "--d", "5", "--order", "8"]) == 0
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["quadratic.hilbert_A.calls"] >= 1
    assert summary["exact.TruncatedSeries.inverse.order_sum"] > 0
    assert set(tracer.op) == {7}
    roots = [k for k, p in enumerate(tracer.parent) if p < 0]
    assert [tracing.SPAN_NAMES[tracer.names[k]] for k in roots] == ["cli.main"]
    # self times add up to the root's duration less the counter-reading gaps
    gaps = sum(c - e for c, e in zip(tracer.cover[1:], tracer.end[1:]))
    total = sum(tracer.self_times())
    assert total == pytest.approx(tracer.end[0] - tracer.start[0] - gaps, abs=1e-9)


def test_self_time_subtracts_what_children_cover():
    # root [0, 10]; a [1, 4] covering to 5; a's child [2, 3]; b [6, 9]
    start = array("d", [0, 1, 2, 6])
    end = array("d", [10, 4, 3, 9])
    cover = array("d", [10, 5, 3, 9])
    parent = array("l", [-1, 0, 1, 0])
    assert tracing.self_times(start, end, cover, parent) == [3, 2, 1, 3]


def test_accept_ratio_counts_children_under_the_sampler():
    t = tracing.Tracer()
    sampler = t.name_id["sampling.random_right_mutable_triad"]
    mutate = t.name_id["bundles.mutate_triad_right"]
    # one sampler call that needed three mutation attempts, plus one
    # mutation outside any sampler
    for name_id, parent in ((sampler, -1), (mutate, 0), (mutate, 0), (mutate, 0),
                            (mutate, -1)):
        t.names.append(name_id)
        t.parent.append(parent)
        t.op.append(0)
        for arr in (t.start, t.end, t.cover):
            arr.append(0.0)
    s = t.summary()
    assert s["sampling.random_right_mutable_triad.accept_ratio"] == pytest.approx(1 / 3)
    assert s["bundles.mutate_triad_right.calls"] == 4


def test_metric_list_matches_the_benchmark_file():
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == tracing.per_layer_metrics()
