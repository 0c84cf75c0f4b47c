import json
from collections import Counter
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_children():
    #   root [0, 10]
    #     a [1, 4]      b [5, 9]
    #       a1 [2, 3]     b1 [5, 6]  b2 [7, 8.5]
    spans = [
        ["cli.main", 0.0, 10.0, None],
        ["verify.a", 1.0, 4.0, 0],
        ["exactpoly.a1", 2.0, 3.0, 1],
        ["verify.b", 5.0, 9.0, 0],
        ["exactpoly.b1", 5.0, 6.0, 3],
        ["exactpoly.b2", 7.0, 8.5, 3],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0], ["c3", 9.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_groups_by_name():
    spans = [["a.f", 0.0, 4.0, None], ["b.g", 1.0, 2.0, 0], ["b.g", 2.5, 3.0, 0]]
    table = tracing.summarize(spans)
    assert table["b.g"].calls == 2
    assert table["b.g"].total_s == pytest.approx(1.5)
    assert table["a.f"].self_s == pytest.approx(2.5)


def test_wrapper_nests_spans_and_runs_hooks():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = tracer.wrap("x.inner", lambda v: v * 2,
                        after=lambda t, args, kwargs, result: seen.append(result) or result + 1)
    outer = tracer.wrap("x.outer", lambda v: inner(v) + inner(v))
    assert outer(3) == 14
    assert seen == [6, 6]
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("x.outer", None), ("x.inner", 0), ("x.inner", 0)]


def test_install_and_restore_leave_the_program_unchanged():
    import run

    modules = run.load_program()
    before = {m: dict(vars(mod)) for m, mod in modules.items()}
    family_cls = modules["magneflow.cli"].IntegralFamily
    raw_from_dict = vars(family_cls)["from_dict"]
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert modules["magneflow.verify"].poisson_bracket is not before["magneflow.verify"]["poisson_bracket"]
    tracer.restore()
    assert {m: dict(vars(mod)) for m, mod in modules.items()} == before
    assert vars(family_cls)["from_dict"] is raw_from_dict


def test_layer_metrics_cover_per_layer_and_benchmark_json():
    table = tracing.summarize([["cli.main", 0.0, 2.0, None], ["flow.step", 0.5, 1.0, 0]])
    metrics = tracing.layer_metrics(table, Counter(), wall_s=2.0, overhead_s=0.1)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["flow.step_us"] == pytest.approx(5e5)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
