"""bench/micro.py calls the package's hot functions with fixed arguments
(retract(x, s), pullback_value_grad(f, x, s), scaledgd_step(lf, rf, f,
eta), a panel with a band, ...), but only a --trace 1 run reaches them.
Each case runs here once, so a changed signature or return value fails
tier-1 rather than only the per-layer benchmark."""

import json
import os

from test_bench_names import BENCH, _load_bench


def _per_layer_units():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def test_every_micro_case_runs_once_and_names_a_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)      # micro.py imports spans.py by its bare name
    micro = _load_bench("micro")

    def once(fn):
        fn()
        return 1.0

    monkeypatch.setattr(micro, "per_call_seconds", once)
    units = _per_layer_units()
    for metrics, count in ((micro.microbenchmarks(), 13), (micro.per_iteration_counts(), 8)):
        assert len(metrics) == count
        for name, (_, unit) in metrics.items():
            assert units.get(name) == unit, name
