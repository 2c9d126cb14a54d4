import importlib
import sys

import pytest

from tracer import Tracer, combine, count_mismatches, layer_metrics, median_raw, scaled
from workloads import (
    GibbsCoverageWorkload,
    IdentitySuiteWorkload,
    MalaSweepWorkload,
    TrainWorkload,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.wrap("x.leaf", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)

    mid = tr.wrap("x.mid", mid_body)

    def top_body():
        clock.advance(3.0)
        mid()
        leaf()

    tr.wrap("x.top", top_body)()
    stats = tr.take()["stats"]
    assert stats["x.leaf"] == [2, 4.0, 4.0]
    assert stats["x.mid"] == [1, 3.5, 1.5]
    assert stats["x.top"] == [1, 8.5, 3.0]
    by_name = {}
    for unit, sid, parent, name, start, end in tr.records:
        by_name.setdefault(name, []).append((sid, parent, start, end))
    (top_id, top_parent, _, _), = by_name["x.top"]
    (mid_id, mid_parent, mid_start, mid_end), = by_name["x.mid"]
    assert top_parent == 0 and mid_parent == top_id
    assert sorted(p for _, p, _, _ in by_name["x.leaf"]) == sorted([mid_id, top_id])
    assert (mid_start, mid_end) == (3.0, 6.5)


def test_unrecorded_span_is_timed_and_its_children_attach_to_its_parent():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    inner = tr.wrap("x.inner", lambda: clock.advance(1.0))
    draw = tr.wrap("rng.draw", lambda: (clock.advance(0.25), inner()))
    tr.wrap("x.outer", draw)()
    stats = tr.take()["stats"]
    assert stats["rng.draw"] == [1, 1.25, 0.25]
    assert stats["x.outer"] == [1, 1.25, 0.0]
    names = {name: (sid, parent) for _, sid, parent, name, _, _ in tr.records}
    assert "rng.draw" not in names
    assert names["x.inner"][1] == names["x.outer"][0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    outer = tr.wrap("x.outer", lambda: tr.wrap("x.boom", boom)())
    with pytest.raises(ValueError):
        outer()
    stats = tr.take()["stats"]
    assert stats["x.boom"] == [1, 1.0, 1.0]
    assert stats["x.outer"] == [1, 1.0, 0.0]
    assert not tr._stack


def test_take_median_and_combine():
    a = {"stats": {"s.f": [2, 1.0, 0.5]}, "counters": {"c": 3.0}}
    b = {"stats": {"s.f": [2, 3.0, 1.5]}, "counters": {"c": 5.0}}
    c = {"stats": {"s.f": [2, 2.0, 1.0]}, "counters": {}}
    assert median_raw([a, b, c]) == {"stats": {"s.f": [2, 2.0, 1.0]}, "counters": {"c": 3.0}}
    assert combine(a, b) == {"stats": {"s.f": [4, 4.0, 2.0]}, "counters": {"c": 8.0}}
    assert scaled(b, 2.0) == {"stats": {"s.f": [2, 1.5, 0.75]}, "counters": {"c": 5.0}}
    assert count_mismatches(a, {"s.f": 2}) == {}
    assert count_mismatches(a, {"s.f": 3, "s.g": 1}) == {
        "s.f": {"expected": 3, "observed": 2}, "s.g": {"expected": 1, "observed": 0}}


def test_layer_ratios():
    raw = {
        "stats": {"sampler.run_chains": [2, 4.0, 1.0]},
        "counters": {"sampler.row_steps": 100.0, "sampler.proposals": 80.0,
                     "sampler.accepted": 60.0, "sampler.ess_sum": 5.0, "sampler.kept_rows": 50.0},
    }
    m = layer_metrics(raw)
    assert m["sampler.run_chains.calls"] == 2
    assert m["sampler.row_steps_per_s"] == 25.0
    assert m["sampler.accept_rate"] == 0.75
    assert m["sampler.ess_per_kept"] == 0.1
    empty = layer_metrics({"stats": {}, "counters": {}})
    assert empty["sampler.accept_rate"] == 0.0 and empty["sampler.row_steps_per_s"] == 0.0


def test_patching_reaches_every_consumer_and_is_undone(tp):
    cli = importlib.import_module("thermoep.cli")
    orig = tp.sampler.run_chains
    tr = Tracer()
    with tr.patched("u"):
        for mod in (tp.sampler, tp.estimators, tp.diagnostics, cli, sys.modules["thermoep"]):
            assert mod.run_chains is not orig and mod.run_chains.__wrapped__ is orig
        assert tp.train.make_generator.__wrapped__ is not None
        assert cli.train is tp.train.train and cli.train.__wrapped__ is not None
        assert "__wrapped__" in vars(tp.models.SpinGlassModel.kernel_site_delta)
    assert tp.sampler.run_chains is orig and tp.estimators.run_chains is orig
    assert not hasattr(tp.models.SpinGlassModel.kernel_site_delta, "__wrapped__")


SMALL = [
    GibbsCoverageWorkload(n_spins=4, n_chains=3, n_steps=12, burn_in=8, n_nodes=3),
    MalaSweepWorkload(n_probes=1, n_repeats=1, n_chains=2, n_steps=6, ref_chains=2,
                      ref_steps=10, n_train_per_class=1, n_test_per_class=1),
    TrainWorkload(n_train_per_class=5, n_test_per_class=1, n_hidden=3, pretrain_epochs=2),
    IdentitySuiteWorkload(slot_sizes=(3, 4), n_trial_dists=3),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_counts_match_config_and_repeat(workload, tp, tmp_path):
    tr = Tracer()
    with tr.patched("setup"):
        ctx = workload.setup(tp, 3, tmp_path)
    expected_setup, expected_unit = workload.expected_calls(ctx)
    assert count_mismatches(tr.take(), expected_setup) == {}
    counts = []
    for unit in (0, 1):
        inputs = workload.prepare(ctx, unit)
        with tr.patched(unit):
            workload.run(ctx, inputs)
        raw = tr.take()
        assert count_mismatches(raw, expected_unit) == {}
        counts.append({name: v[0] for name, v in raw["stats"].items()})
    assert counts[0] == counts[1]
