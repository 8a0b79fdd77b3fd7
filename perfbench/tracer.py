"""Spans around calls into the program's layers, for the traced run.

Nothing under ``src/`` is edited: :func:`instrument` wraps public
functions and methods of the ``repro`` modules from outside, and every
callback handed to ``Simulator.schedule``/``schedule_at``/
``schedule_batch``/``schedule_span``.  A layer is the package directly
under ``repro`` that defines the code (``repro.kernel.sched.scheduler``
is ``kernel``).

Two kinds of span share one stack, so self time is exact across them:

* *kept* spans (a campaign run, a trial, a stack build, a store access, a
  manifest write, a service call) carry a name, start, end, parent and
  request id, and are kept in memory until :meth:`Tracer.dump` writes them
  out at exit;
* *event* spans (one per fired callback or coroutine resumption, ~500k in
  an E9 trial) only add to their layer's self time and call count, since
  keeping each one would cost more memory than the trial itself.

A span's self time is its duration minus the part its children cover, so
the layers' self times sum exactly (in integer nanoseconds) to the summed
duration of the top-level spans: the traced wall time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layer of code defined outside the ``repro`` package (builtins, stdlib).
OTHER = "other"


def layer_of_module(module: Optional[str]) -> str:
    """``repro.kernel.sched.scheduler`` -> ``kernel``; non-repro -> ``other``."""
    if module and module.startswith("repro."):
        return module.split(".")[1]
    return OTHER


def owner_module(callback: Any) -> Optional[str]:
    """The module that defined ``callback``.

    Bound methods and partials resolve to their function; a builtin bound
    method resolves through its receiver (a generator's ``send`` to the
    generator's module, ``list.append`` to ``builtins``).
    """
    if isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None)
    if module is not None:
        return module
    owner = getattr(callback, "__self__", None)
    frame = getattr(owner, "gi_frame", None)
    if frame is not None:
        return frame.f_globals.get("__name__")
    return type(owner).__module__ if owner is not None else None


def owner_layer(callback: Any) -> str:
    return layer_of_module(owner_module(callback))


class Tracer:
    """Per-layer self time, call counts and kept spans of one process.

    Each thread has its own span stack, so client threads that share the
    wrapped service functions nest their spans independently; the totals
    are updated under a lock on the kept-span path.  Event spans are only
    created on the thread that runs the simulator.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        #: inclusive durations (ns) of kept spans, by span name
        self.durations: Dict[str, List[int]] = defaultdict(list)
        #: kept spans: [name, layer, start_ns, end_ns, parent, request]
        self.spans: List[List[Any]] = []
        #: summed duration of top-level spans
        self.wall_ns = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> List[List[Any]]:
        """This thread's open spans, innermost last.

        Each frame starts ``[child_ns, kept_span_index]``; an event span's
        index is None.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- kept spans ----------------------------------------------------
    def begin(self, name: str, layer: str, request: Optional[str] = None) -> List[Any]:
        stack = self.stack()
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        if request is None and parent is not None:
            request = self.spans[parent][5]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, 0, 0, parent, request])
        frame = [0, index, name, layer, 0]
        stack.append(frame)
        frame[4] = self.clock()
        return frame

    def end(self, frame: List[Any]) -> int:
        end = self.clock()
        stack = self.stack()
        stack.pop()
        elapsed = end - frame[4]
        with self._lock:
            self.self_ns[frame[3]] += elapsed - frame[0]
            self.calls[frame[3]] += 1
            self.durations[frame[2]].append(elapsed)
            self.spans[frame[1]][2:4] = [frame[4], end]
            if stack:
                stack[-1][0] += elapsed
            else:
                self.wall_ns += elapsed
        return elapsed

    def kept(self, name: str, layer: str, fn: Callable[..., Any],
             request_of: Optional[Callable[..., Optional[str]]] = None) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is a kept span."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            request = request_of(*args, **kwargs) if request_of else None
            frame = self.begin(name, layer, request)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)
        return traced

    # -- event spans -----------------------------------------------------
    def event(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call adds to ``layer``'s self time and count.

        The hot path of the traced run: no span record, no lock.
        """
        stack = self.stack()
        clock = self.clock
        self_ns = self.self_ns
        calls = self.calls

        def traced(*args: Any) -> Any:
            frame = [0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.wall_ns += elapsed
        return traced

    def dump(self, path: str) -> None:
        """Write the kept spans and per-layer totals as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "layer", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                    "wall_ns": self.wall_ns,
                    "self_ns": dict(self.self_ns),
                    "calls": dict(self.calls),
                },
                handle,
            )


class TracedGenerator:
    """A coroutine whose every resumption is an event span of its layer.

    Iterable, so a ``yield from`` in another layer's coroutine delegates
    to it and its body is charged to its own layer.
    """

    __slots__ = ("gen", "send")

    def __init__(self, tracer: Tracer, gen: Any) -> None:
        self.gen = gen
        frame = getattr(gen, "gi_frame", None)
        module = frame.f_globals.get("__name__") if frame is not None else None
        self.send = tracer.event(layer_of_module(module), gen.send)

    def __iter__(self) -> "TracedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def throw(self, *args: Any) -> Any:
        return self.gen.throw(*args)

    def close(self) -> None:
        self.gen.close()


class Patches:
    """Attribute replacements that :meth:`restore` undoes, newest first."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original: Any, value: Any) -> None:
        """Replace ``original`` in every loaded ``repro`` module that bound it.

        ``from repro.x import f`` copies the function into the importer's
        namespace, so patching only its home module would miss those calls.
        """
        import sys

        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def instrument(tracer: Tracer) -> Patches:
    """Wrap each layer's public entry points; returns the undo handle.

    Import every module whose functions are wrapped *before* calling this:
    only names bound at that moment are replaced.
    """
    from repro.campaign import runner, trials
    from repro.campaign.store import ResultStore
    from repro.core.checker import IntegrityCheckingModule
    from repro.experiments import common
    from repro.hw.memory import PhysicalMemory
    from repro.hw.monitor import SecureExecution
    from repro.kernel.threads import Task
    from repro.obs import manifest
    from repro.secure.hashes import LinearHasher
    from repro.sim.process import CoroutineDriver
    from repro.sim.simulator import Simulator

    patches = Patches()
    layers: Dict[Any, str] = {}

    def wrap(callback: Any) -> Any:
        # keyed by code object: closures made per call share one entry
        code = getattr(getattr(callback, "__func__", callback), "__code__", None)
        layer = layers.get(code) if code is not None else None
        if layer is None:
            layer = owner_layer(callback)
            if code is not None:
                layers[code] = layer
        return tracer.event(layer, callback)

    # sim: the run loop, and every callback it fires, charged to its owner
    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
    schedule_batch, schedule_span = Simulator.schedule_batch, Simulator.schedule_span
    run, step = Simulator.run, Simulator.step
    patches.set(Simulator, "schedule",
                lambda self, delay, cb, *args: schedule(self, delay, wrap(cb), *args))
    patches.set(Simulator, "schedule_at",
                lambda self, when, cb, *args: schedule_at(self, when, wrap(cb), *args))
    patches.set(Simulator, "schedule_batch",
                lambda self, items: schedule_batch(
                    self, [(delay, wrap(cb), args) for delay, cb, args in items]))
    patches.set(Simulator, "schedule_span",
                lambda self, times, cb, *args: schedule_span(self, times, wrap(cb), *args))
    traced_run = tracer.event("sim", run)
    patches.set(Simulator, "run", lambda self, until=None, max_events=None:
                traced_run(self, until, max_events))
    patches.set(Simulator, "step", tracer.event("sim", step))

    # coroutine bodies (kernel threads, bare-metal drivers, secure payloads)
    # are charged to the module that defines the generator
    def wrap_gen(method: Callable[..., Any]) -> Callable[..., Any]:
        def traced(self: Any, *args: Any) -> Any:
            result = method(self, *args)
            if self.gen is not None and not isinstance(self.gen, TracedGenerator):
                self.gen = TracedGenerator(tracer, self.gen)
            return result
        return traced

    patches.set(Task, "ensure_started", wrap_gen(Task.ensure_started))
    patches.set(CoroutineDriver, "__init__", wrap_gen(CoroutineDriver.__init__))
    patches.set(SecureExecution, "__init__", wrap_gen(SecureExecution.__init__))
    # a SATIN round runs by ``yield from`` inside the secure payload
    run_round = IntegrityCheckingModule.run_round
    patches.set(IntegrityCheckingModule, "run_round",
                lambda self, core: TracedGenerator(tracer, run_round(self, core)))

    # hw: physical memory accesses
    for name in ("read", "write", "view"):
        patches.set(PhysicalMemory, name, tracer.event("hw", getattr(PhysicalMemory, name)))

    # secure: every djb2/sdbm fold goes through LinearHasher.update
    update = tracer.event("secure", LinearHasher.update)

    def traced_update(self: Any, data: Any) -> Any:
        tracer.counters["secure.hash_bytes"] += memoryview(data).nbytes
        return update(self, data)

    patches.set(LinearHasher, "update", traced_update)

    # experiments, campaign and obs: kept spans with request ids
    patches.everywhere(common.build_stack, tracer.kept(
        "experiments.build_stack", "experiments", common.build_stack))
    patches.everywhere(trials.run_experiment_trial, tracer.kept(
        "experiments.trial", "experiments", trials.run_experiment_trial,
        request_of=lambda task: task["key"]))
    patches.everywhere(runner.run_campaign, tracer.kept(
        "campaign.run", "campaign", runner.run_campaign,
        request_of=lambda spec, *a, **k: f"{spec.experiment_id}@{spec.seeds[0]}"))
    patches.set(ResultStore, "put", tracer.kept(
        "campaign.store_put", "campaign", ResultStore.put))
    patches.set(ResultStore, "ok_record", tracer.kept(
        "campaign.store_read", "campaign", ResultStore.ok_record))
    patches.everywhere(manifest.build_manifest, tracer.kept(
        "obs.build_manifest", "obs", manifest.build_manifest))
    patches.everywhere(manifest.write_manifest, tracer.kept(
        "obs.write_manifest", "obs", manifest.write_manifest))
    return patches


def instrument_client(tracer: Tracer) -> Patches:
    """Kept spans around the service client calls of one benchmark process."""
    from repro.service import client

    patches = Patches()
    for name, span in (("submit_job", "service.submit"),
                       ("job_status", "service.status"),
                       ("fetch_manifest", "service.fetch"),
                       ("wait_for_job", "service.wait")):
        patches.set(client, name, tracer.kept(
            span, "service", getattr(client, name),
            request_of=lambda url, arg=None, *a, **k: arg if isinstance(arg, str) else None))
    return patches
