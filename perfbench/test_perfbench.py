"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import (Ledger, latency_summary, percentile, samples_beyond,  # noqa: E402
                   tail_percentile, timed_request, walls_agree)
from tracer import Tracer, layer_of_module, owner_layer  # noqa: E402


# -- percentile selection ----------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 100) == 100.0
    assert percentile([3.0], 90) == 3.0


@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),        # not even the median has 10 samples beyond it
        (20, 50.0),       # p50 leaves 10 beyond, p75 only 5
        (40, 75.0),
        (99, 75.0),       # p90 leaves 9 beyond: not enough
        (100, 90.0),      # the serve workload's minimum per class
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_latency_summary_reports_tail_only_when_supported():
    short = latency_summary([0.1] * 15)
    assert short["tail_pct"] is None and short["tail"] is None
    full = latency_summary([float(v) for v in range(1, 101)])
    assert full["n"] == 100 and full["tail_pct"] == 90.0 and full["tail"] == full["p90"] == 90.0


# -- refused requests ----------------------------------------------------------


def test_refused_request_is_infinite_latency_and_a_failure():
    ledger = Ledger()
    latencies = []
    for elapsed in [0.1] * 89 + [None] * 11:
        ledger.attempt()
        if elapsed is None:
            ledger.fail("refused after retries")
        timed_request(latencies, elapsed)
    assert ledger.failed == 11 and ledger.attempted == 100
    assert ledger.ok_ratio == pytest.approx(0.89)
    # 11 refusals sit beyond p90, so the tail is unbounded, the median is not
    summary = latency_summary(latencies)
    assert math.isinf(summary["p90"])
    assert summary["p50"] == 0.1


def test_refused_job_is_infinite_latency_and_a_failure(monkeypatch):
    client = pytest.importorskip("repro.service.client")
    from repro.errors import ServiceError

    import serve

    def refuse(url, spec):
        raise ServiceError("job submission failed (HTTP 429): pending queue is full")

    monkeypatch.setattr(client, "submit_job", refuse)
    ledger = Ledger()
    load = serve.Pass("http://stub", seed=1, ledger=ledger, window_s=0, min_samples=0)
    assert load._iteration("fresh", serve.fresh_spec(1, 0, 0)) is False
    assert load.latency["fresh"] == [math.inf]
    assert (ledger.attempted, ledger.failed, load.jobs) == (1, 1, 1)


def test_client_backoff_counts_as_retry_not_failure(monkeypatch):
    client = pytest.importorskip("repro.service.client")

    import serve

    def overloaded_once(url, path, method="GET", payload=None, sleep=None, **kwargs):
        sleep(0.0)  # one 429 answered with backoff, then accepted
        return 200, {"job_id": "job-0001"}

    monkeypatch.setattr(client, "request", overloaded_once)
    ledger = Ledger()
    undo = serve.count_retries(ledger)
    try:
        assert client.submit_job("http://stub", {"kind": "campaign"}) == {"job_id": "job-0001"}
    finally:
        undo()
    assert client.request is overloaded_once
    assert (ledger.retries, ledger.failed) == (1, 0)


def test_retries_are_not_failures():
    ledger = Ledger()
    ledger.attempt()
    ledger.retry()
    ledger.retry()
    assert ledger.retries == 2 and ledger.failed == 0 and ledger.ok_ratio == 1.0


def test_failed_check_counts_once():
    ledger = Ledger()
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "fingerprint differs")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.problems == ["fingerprint differs"]


# -- self time with nested spans ----------------------------------------------


class FakeClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 10
        tracer.event("secure", leaf)()
        clock.now += 20
        tracer.event("secure", leaf)()

    def root(task):
        clock.now += 100
        tracer.event("kernel", middle)()
        clock.now += 1

    tracer.kept("experiments.trial", "experiments", root,
                request_of=lambda task: task["key"])({"key": "k1"})

    assert tracer.self_ns == {"experiments": 101, "kernel": 30, "secure": 10}
    assert tracer.calls == {"experiments": 1, "kernel": 1, "secure": 2}
    assert tracer.wall_ns == 141 == sum(tracer.self_ns.values())
    assert tracer.spans == [["experiments.trial", "experiments", 0, 141, None, "k1"]]


def test_kept_spans_link_to_nearest_kept_parent_and_inherit_request():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def put():
        clock.now += 3

    def callback():
        clock.now += 2
        tracer.kept("campaign.store_put", "campaign", put)()

    def run():
        tracer.event("sim", callback)()

    tracer.kept("campaign.run", "campaign", run, request_of=lambda: "E9@7")()
    (outer, inner) = tracer.spans
    assert inner[0] == "campaign.store_put" and inner[4] == 0 and inner[5] == "E9@7"
    assert outer[4] is None
    assert tracer.self_ns == {"campaign": 3, "sim": 2}
    assert tracer.durations["campaign.store_put"] == [3]


def test_sibling_roots_add_to_wall_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work():
        clock.now += 7

    tracer.kept("a", "campaign", work)()
    tracer.kept("b", "campaign", work)()
    assert tracer.wall_ns == 14 == tracer.self_ns["campaign"]


def test_traced_wall_must_match_the_measured_wall():
    assert walls_agree(10.1, 10.0)
    assert walls_agree(0.004, 0.0)
    assert not walls_agree(9.0, 10.0)
    assert not walls_agree(0.0, 1.0)


def test_exception_still_closes_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 4
        raise StopIteration

    with pytest.raises(StopIteration):
        tracer.event("attacks", boom)()
    assert tracer.self_ns["attacks"] == 4 and tracer.stack() == []


# -- callback-owner attribution -------------------------------------------------


def test_layer_of_module():
    assert layer_of_module("repro.kernel.sched.scheduler") == "kernel"
    assert layer_of_module("repro.sim.simulator") == "sim"
    assert layer_of_module("repro") == "other"
    assert layer_of_module("builtins") == "other"
    assert layer_of_module(None) == "other"


def _owner_of(module: str, source: str, name: str):
    namespace = {"__name__": module}
    exec(source, namespace)
    return namespace[name]


def test_owner_layer_of_functions_methods_partials_and_lambdas():
    function = _owner_of("repro.hw.timer", "def fire(): pass", "fire")
    cls = _owner_of("repro.kernel.sched.scheduler",
                    "class Scheduler:\n    def _quantum_end(self): pass", "Scheduler")
    lam = _owner_of("repro.hw.monitor", "back = lambda: None", "back")
    assert owner_layer(function) == "hw"
    assert owner_layer(cls()._quantum_end) == "kernel"
    assert owner_layer(functools.partial(cls()._quantum_end)) == "kernel"
    assert owner_layer(lam) == "hw"


def test_owner_layer_of_builtin_methods():
    body = _owner_of("repro.attacks.kprober2", "def body():\n    yield 1", "body")
    assert owner_layer(body().send) == "attacks"
    assert owner_layer([].append) == "other"


def test_traced_generator_charges_its_own_layer():
    from tracer import TracedGenerator

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner_fn = _owner_of("repro.core.checker", "def run_round(clock):\n"
                         "    clock.now += 6\n    yield 1\n    clock.now += 6\n    return 'ok'",
                         "run_round")
    outer_fn = _owner_of("repro.secure.tsp", "def payload(inner, clock):\n"
                         "    clock.now += 1\n    result = yield from inner\n    return result",
                         "payload")
    gen = TracedGenerator(tracer, outer_fn(TracedGenerator(tracer, inner_fn(clock)), clock))
    assert gen.send(None) == 1
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "ok"
    assert tracer.self_ns == {"secure": 1, "core": 12}
