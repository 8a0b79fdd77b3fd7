"""Metrics registry invariants: instruments, snapshots, shard merging.

The load-bearing property mirrors ``tests/analysis/test_shard_merge.py``:
merging the snapshots of K shard registries must equal the snapshot of
one registry that saw every observation — counters, bucket counts and
extrema exactly, sums to float tolerance.
"""

import json
import random

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    active_registry,
    bucket_bound,
    bucket_index,
    empty_snapshot,
    merge_snapshots,
    use_registry,
)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


def test_counter_accumulates_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("c") is counter  # get-or-create
    with pytest.raises(ObservabilityError):
        counter.inc(-1)


def test_gauge_tracks_level_and_peak():
    gauge = MetricsRegistry().gauge("g")
    gauge.set(3.0)
    gauge.inc(2.0)
    gauge.dec(4.0)
    assert gauge.value == 1.0
    assert gauge.peak == 5.0


def test_histogram_observe_tracks_extrema_and_buckets():
    histogram = MetricsRegistry().histogram("h")
    for value in (0.5, 0.5, 7.0):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.minimum == 0.5 and histogram.maximum == 7.0
    assert histogram.mean == pytest.approx(8.0 / 3.0)
    assert sum(histogram.buckets.values()) == 3
    assert histogram.buckets[bucket_index(0.5)] == 2


def test_cross_type_name_collision_rejected():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ObservabilityError):
        registry.histogram("x")
    with pytest.raises(ObservabilityError):
        registry.gauge("x")


def test_bucket_index_monotone_and_bounds_consistent():
    indexes = [bucket_index(b) for b in BUCKET_BOUNDS]
    assert indexes == sorted(indexes)
    assert bucket_index(0.0) == 0
    assert bucket_index(-1.0) == 0
    assert bucket_bound(len(BUCKET_BOUNDS)) is None  # overflow bucket
    # every value lands in the bucket whose bound is the first >= it
    for value in (1e-10, 3.3e-5, 0.5, 1.0, 9999.0, 1e6):
        index = bucket_index(value)
        bound = bucket_bound(index)
        assert bound is None or value <= bound


# ---------------------------------------------------------------------------
# Snapshot / merge invariants
# ---------------------------------------------------------------------------


def _observe_all(registry, values):
    for value in values:
        registry.counter("events").inc()
        registry.gauge("level").set(value)
        registry.histogram("durations").observe(value)


def shards_and_whole(seed=7, sizes=(3, 17, 1, 40, 9)):
    rng = random.Random(seed)
    shards = [[rng.lognormvariate(0.0, 1.0) for _ in range(n)] for n in sizes]
    whole = [x for shard in shards for x in shard]
    return shards, whole


def test_merged_shard_snapshots_equal_whole_run_snapshot():
    shards, whole = shards_and_whole()
    shard_snapshots = []
    for values in shards:
        registry = MetricsRegistry()
        _observe_all(registry, values)
        shard_snapshots.append(registry.snapshot())
    whole_registry = MetricsRegistry()
    _observe_all(whole_registry, whole)
    merged = merge_snapshots(shard_snapshots)
    direct = whole_registry.snapshot()

    assert merged["counters"] == direct["counters"]
    hist_m = merged["histograms"]["durations"]
    hist_d = direct["histograms"]["durations"]
    assert hist_m["count"] == hist_d["count"]
    assert hist_m["buckets"] == hist_d["buckets"]  # integer adds: exact
    assert hist_m["min"] == hist_d["min"]
    assert hist_m["max"] == hist_d["max"]
    assert hist_m["sum"] == pytest.approx(hist_d["sum"], rel=1e-12)
    # gauges merge by max — the whole run's peak is the max of shard peaks
    assert merged["gauges"]["level"]["peak"] == direct["gauges"]["level"]["peak"]


def test_merge_is_deterministic_byte_for_byte():
    shards, _ = shards_and_whole(seed=11)
    snapshots = []
    for values in shards:
        registry = MetricsRegistry()
        _observe_all(registry, values)
        snapshots.append(registry.snapshot())
    first = json.dumps(merge_snapshots(snapshots), sort_keys=True)
    second = json.dumps(merge_snapshots(list(snapshots)), sort_keys=True)
    assert first == second


def test_identical_observations_produce_identical_snapshots():
    """The per-trial property the campaign manifest relies on."""
    a, b = MetricsRegistry(), MetricsRegistry()
    _, whole = shards_and_whole(seed=3, sizes=(25,))
    _observe_all(a, whole)
    _observe_all(b, whole)
    assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
        b.snapshot(), sort_keys=True
    )


def test_merge_tolerates_empty_and_missing_sections():
    registry = MetricsRegistry()
    registry.counter("only").inc()
    merged = merge_snapshots([{}, empty_snapshot(), registry.snapshot()])
    assert merged["counters"] == {"only": 1}
    assert merged["gauges"] == {} and merged["histograms"] == {}


def test_merge_single_snapshot_identity():
    registry = MetricsRegistry()
    _observe_all(registry, [0.25, 4.0])
    snap = registry.snapshot()
    assert json.dumps(merge_snapshots([snap]), sort_keys=True) == json.dumps(
        snap, sort_keys=True
    )


def test_snapshot_is_json_safe():
    registry = MetricsRegistry()
    _observe_all(registry, [1e-12, 5000.0])
    round_tripped = json.loads(json.dumps(registry.snapshot()))
    assert round_tripped["counters"]["events"] == 2


# ---------------------------------------------------------------------------
# Process-local scoping
# ---------------------------------------------------------------------------


def test_use_registry_scopes_and_nests():
    assert active_registry() is None
    with use_registry() as outer:
        assert active_registry() is outer
        inner_registry = MetricsRegistry()
        with use_registry(inner_registry) as inner:
            assert inner is inner_registry
            assert active_registry() is inner
        assert active_registry() is outer
    assert active_registry() is None


def test_machine_adopts_active_registry():
    from repro import build_machine, juno_r1_config

    with use_registry() as registry:
        machine = build_machine(juno_r1_config(seed=1))
    assert machine.metrics is registry
    assert machine.sim.metrics is registry


# ---------------------------------------------------------------------------
# Namespaced views (per-job metrics in the service)
# ---------------------------------------------------------------------------


def test_namespaced_registry_prefixes_every_instrument():
    registry = MetricsRegistry()
    ns = registry.namespaced("job.j1")
    ns.counter("done").inc(2)
    ns.gauge("depth").set(3.0)
    ns.histogram("wall").observe(0.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["job.j1.done"] == 2
    assert snapshot["gauges"]["job.j1.depth"]["value"] == 3.0
    assert snapshot["histograms"]["job.j1.wall"]["count"] == 1


def test_namespaced_registry_shares_underlying_instruments():
    registry = MetricsRegistry()
    ns = registry.namespaced("job.j1")
    ns.counter("done").inc()
    registry.counter("job.j1.done").inc()
    assert registry.snapshot()["counters"]["job.j1.done"] == 2


def test_namespaced_registry_nests():
    registry = MetricsRegistry()
    inner = registry.namespaced("a").namespaced("b")
    inner.counter("c").inc()
    assert registry.snapshot()["counters"]["a.b.c"] == 1


def test_namespaces_are_isolated():
    registry = MetricsRegistry()
    registry.namespaced("job.j1").counter("done").inc()
    registry.namespaced("job.j2").counter("done").inc(5)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["job.j1.done"] == 1
    assert snapshot["counters"]["job.j2.done"] == 5
