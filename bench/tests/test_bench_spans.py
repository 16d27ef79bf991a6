"""Span self time, per-root layer medians and coverage."""

import pytest

from bench import spans as sp


def _span(name, start, end, parent=None, it=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "iter": it}


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        _span("root", 0.0, 10.0),            # 0: children cover 2..5, 6..9
        _span("a", 2.0, 5.0, parent=0),      # 1: child covers 3..4
        _span("a.inner", 3.0, 4.0, parent=1),
        _span("b", 6.0, 9.0, parent=0),      # 3: sibling of 1
    ]
    assert sp.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 6.0, parent=0),
             _span("b", 4.0, 8.0, parent=0),      # overlaps a on 4..6
             _span("late", 9.0, 12.0, parent=0)]  # clipped to the parent
    assert sp.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_medians_sum_beneath_each_root_and_skip_warm_up():
    root = sp.SAMPLE + "op"
    spans = []
    for it, (cost_a, cost_b) in enumerate([(1.0, 2.0), (3.0, 2.0),
                                           (5.0, 0.0)]):
        base = 100.0 * it
        spans.append(_span(root, base, base + 10.0, it=it))
        parent = len(spans) - 1
        spans.append(_span("a", base, base + cost_a / 2, parent, it))
        spans.append(_span("a", base + 5, base + 5 + cost_a / 2, parent, it))
        if cost_b:
            spans.append(_span("b", base + 7, base + 7 + cost_b, parent, it))
    # A warm-up sample and a span outside any root are left out.
    spans.append(_span(root, 900.0, 990.0, it=sp.UNTIMED))
    spans.append(_span("a", 900.0, 990.0, len(spans) - 1, sp.UNTIMED))
    spans.append(_span("a", 995.0, 999.0, None, 2))
    layers = sp.layer_medians(spans, root)
    assert layers["a"] == pytest.approx(3.0)
    assert layers["b"] == pytest.approx(2.0)      # 2, 2 and a zero
    assert layers[root] == pytest.approx(5.0)     # 7, 5, 5 left uncovered


def test_coverage_is_what_lies_inside_layer_spans():
    spans = [_span(sp.ITERATION, 0.0, 10.0),
             _span(sp.SAMPLE + "op", 1.0, 9.0, parent=0),
             _span("layer", 2.0, 8.0, parent=1),
             _span("host.calib", 9.0, 10.0, parent=0)]
    # Unaccounted: 0..1 of the round and 1..2, 8..9 of the sample.
    assert sp.coverage(spans) == pytest.approx(0.7)


def test_recorder_is_a_plain_call_when_off_and_nests_when_on():
    off = sp.Recorder(False)
    assert off.call("x", lambda a, b=0: a + b, 1, b=2) == 3
    assert off.spans == []
    on = sp.Recorder(True)
    on.iter = 7
    assert on.call("outer", lambda: on.call("inner", lambda: 5)) == 5
    outer, inner = on.spans
    assert (outer["name"], outer["parent"], outer["iter"]) == ("outer", None, 7)
    assert (inner["name"], inner["parent"]) == ("inner", 0)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    with pytest.raises(ZeroDivisionError):
        on.call("boom", lambda: 1 / 0)
    assert on.spans[-1]["end"] >= on.spans[-1]["start"] > 0
    assert on.call("after", lambda: 1) == 1 and on.spans[-1]["parent"] is None
