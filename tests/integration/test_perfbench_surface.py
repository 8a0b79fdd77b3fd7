"""The ``repro`` surface that the repo benchmark (``perfbench/``) binds.

``perfbench/`` is not a package and is run as a script, so nothing in
tier-1 imports it.  A symbol it uses (``Simulator.schedule_batch``,
``repro.bench.ReferenceSimulator``, the client calls it wraps, ...) can
look dead from ``src/`` alone; these tests load ``tracer.py`` and
``run.py`` read-only from their file paths so deleting such a symbol
fails here instead of in the next benchmark run.
"""

import contextlib
import importlib.util
import json
import os
import sys

import pytest

from tests.conftest import EXPECTED_DETERMINISM

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PERFBENCH = os.path.join(ROOT, "perfbench")

#: Module names loading the scripts can register: ``run.py`` imports its
#: sibling ``stats`` as a top-level module.
_MODULE_NAMES = ("stats", "perfbench_tracer", "perfbench_run")


def _load(name):
    qualified = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(
        qualified, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules at class creation
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _perfbench_modules():
    """``(tracer, run)`` modules; sys.path and sys.modules restored after."""
    saved = {name: sys.modules.get(name) for name in _MODULE_NAMES}
    sys.path.insert(0, PERFBENCH)
    try:
        yield _load("tracer"), _load("run")
    finally:
        sys.path.remove(PERFBENCH)
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.fixture
def perfbench():
    with _perfbench_modules() as modules:
        yield modules


def test_instrument_binds_and_restores_every_entry_point(perfbench):
    tracer, _ = perfbench
    from repro.service import client
    from repro.sim.simulator import Simulator

    originals = {name: getattr(Simulator, name)
                 for name in ("schedule", "schedule_batch", "schedule_span", "run")}
    submit_job = client.submit_job
    tracer.instrument(tracer.Tracer()).restore()
    tracer.instrument_client(tracer.Tracer()).restore()
    assert {name: getattr(Simulator, name) for name in originals} == originals
    assert client.submit_job is submit_job


def test_calibration_runs_the_reference_engine(perfbench):
    _, run = perfbench
    assert run.calibrate() > 0


def test_pinned_tables_live_where_the_benchmark_reads_them(perfbench):
    _, run = perfbench
    path = os.path.join(ROOT, run.EXPECTED_TABLES)
    assert os.path.samefile(path, EXPECTED_DETERMINISM)
    with open(path, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert {"e1_table_sha256", "e9_table_sha256"} <= set(pinned)

