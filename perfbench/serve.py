"""The ``serve`` workload: a closed loop of client threads against ``repro serve``.

The server runs as a subprocess with its defaults (2 job workers, job
``backend=auto``/``jobs=1``, which forks).  Each client thread waits for
its reply before sending the next request, like ``repro submit --wait``
callers.  An iteration is ``submit_job``, ``wait_for_job`` with a short
poll, then ``fetch_manifest``; iterations alternate between a *fresh*
small E1 campaign (new ``seed_base``) and a *hit*, which resubmits a spec
the same thread already completed.
"""

from __future__ import annotations

import hashlib
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from stats import Ledger, timed_request

#: Client threads of the closed loop.
CLIENTS = 2
#: Seeds of one fresh E1 job: one, so that both classes reach
#: ``MIN_SAMPLES`` in about 30 s on a 2-core host.
FRESH_SEEDS = 1
#: ``wait_for_job`` poll period, seconds.
POLL_S = 0.02
#: Each latency class needs this many samples, so that its p90 has at
#: least 10 samples beyond it.
MIN_SAMPLES = 100
#: No pass outlasts this, whatever its sample counts.
MAX_PASS_S = 110.0
#: A job still running after this long counts as failed.
JOB_TIMEOUT_S = 30.0


class Server:
    """One ``repro serve`` subprocess on a fresh cache directory."""

    def __init__(self, root: str, cache_dir: str, env: Dict[str, str]) -> None:
        from repro.errors import ServiceError
        from repro.service import client

        started = time.perf_counter()
        self.cache_dir = cache_dir
        # stderr goes to a file, not a pipe nobody drains during the load
        self.log_path = cache_dir + ".log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", cache_dir],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            deadline = started + 60.0
            while True:
                with open(self.log_path, "r", encoding="utf-8") as log:
                    match = re.search(r"listening on (http://[\d.]+:\d+)", log.read())
                if match is not None:
                    break
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"repro serve did not start (see {self.log_path})")
                time.sleep(0.005)
            self.url = match.group(1)
            while True:
                try:
                    status, _ = client.request(self.url, "/healthz", retries=0, timeout=5.0)
                    if status == 200:
                        break
                except ServiceError:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def metrics(self) -> Dict[str, Any]:
        from repro.service import client

        status, body = client.request(self.url, "/metrics", retries=0)
        if status != 200 or not isinstance(body, dict):
            raise RuntimeError(f"/metrics answered HTTP {status}")
        return body

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def count_retries(ledger: Ledger):
    """Make the client count each backoff sleep of ``request`` as a retry."""
    from repro.service import client

    original = client.request

    def sleep(seconds: float) -> None:
        ledger.retry()
        time.sleep(seconds)

    def request(*args: Any, **kwargs: Any):
        kwargs.setdefault("sleep", sleep)
        return original(*args, **kwargs)

    client.request = request
    return lambda: setattr(client, "request", original)


def fresh_spec(seed: int, thread: int, index: int) -> Dict[str, Any]:
    base = ((seed * CLIENTS + thread) * 10_000 + index) * FRESH_SEEDS
    return {"kind": "campaign", "target": "E1", "seeds": FRESH_SEEDS, "seed_base": base}


def spec_key(spec: Dict[str, Any]) -> Tuple[str, int]:
    return spec["target"], spec["seed_base"]


class Pass:
    """One closed-loop pass against one server.

    With ``plan`` unset the threads generate iterations until the window
    is over and each class has ``MIN_SAMPLES``; with a plan (the iteration
    list of an earlier pass, per thread) they replay it exactly.
    """

    def __init__(self, url: str, seed: int, ledger: Ledger, window_s: float,
                 min_samples: int, plan: Optional[List[List[Tuple[str, Dict]]]] = None) -> None:
        self.url = url
        self.seed = seed
        self.ledger = ledger
        self.window_s = window_s
        self.min_samples = min_samples
        self.plan = plan
        self.latency: Dict[str, List[float]] = {"fresh": [], "hit": []}
        self.done: List[List[Tuple[str, Dict]]] = [[] for _ in range(CLIENTS)]
        #: fingerprint_sha256 of every completed fresh spec
        self.fingerprints: Dict[Tuple[str, int], str] = {}
        self.fresh_trials = 0
        self.jobs = 0
        self.stale_manifests = 0
        self._lock = threading.Lock()
        self._errors: List[BaseException] = []

    def run(self) -> float:
        threads = [threading.Thread(target=self._thread, args=(k,), daemon=True)
                   for k in range(CLIENTS)]
        self.started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=MAX_PASS_S + JOB_TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
        if self._errors:
            raise self._errors[0]
        return time.perf_counter() - self.started

    def _enough(self) -> bool:
        elapsed = time.perf_counter() - self.started
        if elapsed >= MAX_PASS_S:
            return True
        with self._lock:
            counts = [len(v) for v in self.latency.values()]
        return elapsed >= self.window_s and min(counts) >= self.min_samples

    def _thread(self, thread: int) -> None:
        try:
            rng = random.Random(f"{self.seed}:{thread}")
            completed: List[Dict[str, Any]] = []
            index = 0
            while True:
                if self.plan is not None:
                    if index >= len(self.plan[thread]):
                        return
                    kind, spec = self.plan[thread][index]
                elif self._enough():
                    return
                elif index % 2 == 1 and completed:
                    kind, spec = "hit", rng.choice(completed)
                else:
                    kind, spec = "fresh", fresh_spec(self.seed, thread, index)
                if self._iteration(kind, spec) and kind == "fresh":
                    completed.append(spec)
                self.done[thread].append((kind, spec))
                index += 1
        except Exception as exc:  # surfaced by run()
            self._errors.append(exc)

    def _iteration(self, kind: str, spec: Dict[str, Any]) -> bool:
        from repro.errors import ServiceError
        from repro.obs.manifest import manifest_fingerprint
        from repro.service import client

        ledger = self.ledger
        ledger.attempt()
        started = time.perf_counter()
        problem = None
        try:
            job = client.submit_job(self.url, spec)
            state = client.wait_for_job(self.url, job["job_id"], timeout=JOB_TIMEOUT_S,
                                        poll=POLL_S)
            manifest = client.fetch_manifest(self.url, job["job_id"])
        except ServiceError as exc:  # HTTP error, refused after retries, timeout
            problem = str(exc)
        else:
            elapsed = time.perf_counter() - started
            result = state.get("result") or {}
            if state.get("state") != "done":
                problem = f"ended {state.get('state')}: {state.get('error')}"
            elif result.get("quarantined"):
                problem = f"quarantined {result['quarantined']} trial(s)"
        if problem is not None:
            ledger.fail(f"{kind} {spec_key(spec)}: {problem}")
        with self._lock:
            self.jobs += 1
            timed_request(self.latency[kind], None if problem else elapsed)
            if problem is not None:
                return False
            fingerprint = result.get("fingerprint_sha256")
            # Every job of one grid shares a manifest path, so a job's
            # manifest can be rewritten by a later job before it is fetched.
            served = hashlib.sha256(manifest_fingerprint(manifest).encode()).hexdigest()
            self.stale_manifests += served != fingerprint
            if kind == "fresh":
                self.fresh_trials += result.get("ran", 0)
                self.fingerprints[spec_key(spec)] = fingerprint
                return True
            expected = self.fingerprints.get(spec_key(spec))
        ledger.check(bool(result.get("pure_cache_hit")),
                     f"hit {spec_key(spec)} was not a pure cache hit")
        ledger.check(fingerprint == expected,
                     f"hit {spec_key(spec)} fingerprint differs from its fresh job")
        return True
