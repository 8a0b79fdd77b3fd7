"""The repository benchmark: ``detect``, ``introspect`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs the same work twice, first untraced and then traced
(spans around each layer's public entry points, see ``tracer.py``), checks
that the traced run reproduces every ``manifest_fingerprint``, and reports
the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything else the run measured (sample
counts, tails, the per-layer self-time table, the host calibration score
at start and end) goes to ``.perfbench/results/``, and traced spans to
``.perfbench/trace/``.  Any failed output check makes the exit code 1.
See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from stats import Ledger, latency_summary, median, peak_rss_mb, walls_agree

HERE = os.path.dirname(os.path.abspath(__file__))

#: Files of the program under test, relative to the checkout root.
PROGRAM = os.path.join("src", "repro", "__init__.py")
EXPECTED_TABLES = os.path.join("benchmarks", "perf", "expected_determinism.json")

#: Events fired by one calibration of the reference engine.
CALIBRATION_EVENTS = 100_000


@dataclass(frozen=True)
class CampaignWorkload:
    """A campaign workload: rounds of one fresh worker process each."""

    experiment: str
    #: seeds of one cold campaign (one "fresh job")
    seeds_per_job: int
    #: cold campaigns per worker process; fixes the work behind its peak RSS
    jobs_per_worker: int


WORKLOADS: Dict[str, Optional[CampaignWorkload]] = {
    # §VI-B1 detection campaign: SATIN + TZ-Evader + KProber-II, ~2.6 s/trial
    "detect": CampaignWorkload("E9", seeds_per_job=1, jobs_per_worker=2),
    # Table I: ~0.1 s/trial, hashing and boot work; 8 trials per process
    "introspect": CampaignWorkload("E1", seeds_per_job=2, jobs_per_worker=4),
    "serve": None,
}

#: Warm CLI resumes of each worker's last campaign, per round.
CLI_RESUMES = 3

#: End-to-end metric units (``--trace 0``).
END_TO_END = {
    "setup_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MiB",
    "trials_per_s": "1/s", "jobs_per_s": "1/s", "resume_s": "s",
    "fresh_p50_s": "s", "fresh_p90_s": "s", "hit_p50_s": "s", "hit_p90_s": "s",
}

#: Per-layer metric units (``--trace 1``); a layer a workload does not
#: reach reports 0.
PER_LAYER = {
    "import_s": "s",
    "experiments.build_stack_s": "s", "experiments.trial_p50_s": "s",
    "experiments.self_s": "s/trial",
    "sim.events": "1/trial", "sim.engine_self_s": "s/trial", "sim.host_ns_per_event": "ns",
    "kernel.self_s": "s/trial", "kernel.callbacks": "1/trial",
    "attacks.self_s": "s/trial", "attacks.callbacks": "1/trial", "attacks.detections": "1/trial",
    "core.self_s": "s/trial", "core.rounds": "1/trial", "core.scan_bytes": "B/trial",
    "hw.self_s": "s/trial", "hw.world_switches": "1/trial",
    "secure.self_s": "s/trial", "secure.hash_bytes": "B/trial",
    "secure.host_ns_per_byte": "ns", "secure.boot_cache_hit_ratio": "ratio",
    "campaign.store_put_s": "s", "campaign.store_read_s": "s",
    "campaign.self_s": "s/trial", "campaign.cache_hit_ratio": "ratio",
    "obs.manifest_s": "s",
    "service.submit_s": "s", "service.status_s": "s", "service.fetch_s": "s",
    "service.polls_per_job": "1/job", "service.retries": "count",
    "service.job_wall_mean_s": "s", "service.rejected": "count",
    "service.http_requests": "1/job", "service.wait_overhead_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "host.calibration_events_per_s": "1/s",
}


class Run:
    """Paths, environment and failure ledger of one benchmark invocation."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ledger = Ledger()
        #: result-file sections beyond the metrics (layer tables, findings)
        self.extra: Dict[str, Any] = {}
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.tag = tag
        self.work = os.path.join(root, ".perfbench", "runs", tag)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


# ---------------------------------------------------------------------------
# Host calibration and output checks
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Events/s of the seed-style ``ReferenceSimulator`` on a fixed timer mix."""
    from repro.bench import ReferenceSimulator

    sim = ReferenceSimulator()
    delays = [((i * 7919) % 1000 + 1) * 1e-7 for i in range(1024)]
    count = [0]

    def tick() -> None:
        count[0] += 1
        sim.schedule(delays[count[0] & 1023], tick)

    for i in range(4):
        sim.schedule(delays[i], tick)
    started = time.perf_counter()
    sim.run(max_events=CALIBRATION_EVENTS)
    return CALIBRATION_EVENTS / (time.perf_counter() - started)


def check_tables(run: Run) -> None:
    """The seed-2019 E1/E9 tables still hash to the pinned digests."""
    from repro.experiments.report import run_experiment

    with open(os.path.join(run.root, EXPECTED_TABLES), "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    for experiment in ("E1", "E9"):
        rendered = run_experiment(experiment, seed=2019).rendered
        digest = hashlib.sha256(rendered.encode()).hexdigest()
        key = f"{experiment.lower()}_table_sha256"
        run.ledger.check(digest == expected[key],
                         f"seed-2019 {experiment} table hash {digest} != {expected[key]}")


def cli_resume(run: Run, experiment: str, seeds: int, seed_base: int, cache_dir: str,
               manifest_path: str, want: str) -> float:
    """Warm ``python -m repro campaign --resume``; returns its wall time.

    Checks that it ran no trial and that its manifest fingerprint hashes
    to ``want``.
    """
    from repro.obs.manifest import load_manifest, manifest_fingerprint

    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", experiment,
         "--seeds", str(seeds), "--seed-base", str(seed_base),
         "--jobs", "0", "--resume", "--no-progress", "--cache-dir", cache_dir],
        cwd=run.root, env=run.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    wall = time.perf_counter() - started
    what = f"CLI resume of {experiment}@{seed_base}"
    if not run.ledger.check(done.returncode == 0,
                            f"{what} exited {done.returncode}: {done.stderr[-500:]}"):
        return wall
    manifest = load_manifest(manifest_path)
    totals = manifest.get("totals", {})
    run.ledger.check(totals.get("ran") == 0 and totals.get("cached") == totals.get("trials"),
                     f"{what} ran {totals.get('ran')} of {totals.get('trials')} trial(s)")
    got = hashlib.sha256(manifest_fingerprint(manifest).encode()).hexdigest()
    run.ledger.check(got == want, f"{what} gave fingerprint {got}, expected {want}")
    return wall


# ---------------------------------------------------------------------------
# detect / introspect
# ---------------------------------------------------------------------------


def spawn_worker(run: Run, wl: CampaignWorkload, seed_base: int, cache_dir: str,
                 trace_file: Optional[str]) -> Tuple[float, Dict[str, Any]]:
    """One worker process; returns (spawn-to-ready seconds, its report)."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", run.root,
        "--experiment", wl.experiment, "--seed-base", str(seed_base),
        "--jobs", str(wl.jobs_per_worker), "--seeds-per-job", str(wl.seeds_per_job),
        "--cache-dir", cache_dir,
    ]
    if trace_file:
        command += ["--trace", trace_file]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=run.root, env=run.env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {ready}{err[-2000:]}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def campaign_pass(run: Run, wl: CampaignWorkload, window_s: float, label: str,
                  plan: Optional[List[int]] = None, traced: bool = False) -> Dict[str, Any]:
    """Worker rounds until ``window_s`` has passed (or over ``plan``'s seed bases)."""
    ledger = run.ledger
    per_worker = wl.jobs_per_worker * wl.seeds_per_job
    rounds: List[Dict[str, Any]] = []
    resumes: List[float] = []
    started = time.perf_counter()
    while True:
        k = len(rounds)
        if plan is not None:
            if k >= len(plan):
                break
            seed_base = plan[k]
        elif k and time.perf_counter() - started >= window_s:
            break
        else:
            seed_base = (run.seed * 1000 + k) * per_worker
        cache_dir = run.path(f"cache-{label}-{k}")
        trace_file = None
        if traced:
            trace_dir = os.path.join(run.root, ".perfbench", "trace", run.tag)
            os.makedirs(trace_dir, exist_ok=True)
            trace_file = os.path.join(trace_dir, f"worker-{k}.json")
        setup_s, report = spawn_worker(run, wl, seed_base, cache_dir, trace_file)
        report["setup_s"] = setup_s
        report["seed_base"] = seed_base
        for job in report["jobs"]:
            ledger.attempt(job["trials"])
            if job["quarantined"]:
                ledger.fail(f"{wl.experiment}@{job['seed_base']}: "
                            f"{job['quarantined']} trial(s) quarantined", job["quarantined"])
            ledger.check(job["ran"] == job["trials"],
                         f"cold campaign @{job['seed_base']} ran {job['ran']} of {job['trials']}")
            ledger.attempt(len(job["hit_s"]))
            for problem in job["hit_problems"]:
                ledger.fail(f"{wl.experiment}@{job['seed_base']}: {problem}")
        if not traced:
            last = report["jobs"][-1]
            want = hashlib.sha256(last["fingerprint"].encode()).hexdigest()
            for _ in range(CLI_RESUMES):
                resumes.append(cli_resume(run, wl.experiment, wl.seeds_per_job,
                                          last["seed_base"], cache_dir,
                                          last["manifest_path"], want))
        shutil.rmtree(cache_dir, ignore_errors=True)
        rounds.append(report)
    return {"rounds": rounds, "resume_s": resumes, "wall_s": time.perf_counter() - started}


def campaign_end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """A fresh job is a cold in-process campaign; a hit is a warm CLI resume.

    Not the ~4 ms in-process resume: on a shared 2-core host a varying
    share of those ran 2-5x slower, with or without the manifest fsync, so
    their p90 swung by up to half its median from run to run.
    """
    jobs = [job for r in result["rounds"] for job in r["jobs"]]
    fresh = [job["fresh_s"] for job in jobs]
    hits = result["resume_s"]
    fresh_summary, hit_summary = latency_summary(fresh), latency_summary(hits)
    return {
        "setup_s": median([r["setup_s"] for r in result["rounds"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in result["rounds"]]),
        "trials_per_s": sum(job["trials"] for job in jobs) / sum(fresh),
        "jobs_per_s": (len(fresh) + len(hits)) / (sum(fresh) + sum(hits)),
        "resume_s": median(result["resume_s"]),
        "fresh_p50_s": fresh_summary["p50"], "fresh_p90_s": fresh_summary["p90"],
        "hit_p50_s": hit_summary["p50"], "hit_p90_s": hit_summary["p90"],
    }


def campaign_layers(run: Run, untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: counts and trial times from the untraced pass,
    self times and span durations from the traced replay of it."""
    ledger = run.ledger
    plain = [job for r in untraced["rounds"] for job in r["jobs"]]
    replay = [job for r in traced["rounds"] for job in r["jobs"]]
    ledger.check(len(replay) == len(plain), "traced run did not replay every campaign")
    for a, b in zip(plain, replay):
        ledger.check(a["fingerprint"] == b["fingerprint"],
                     f"traced run changed the fingerprint of @{a['seed_base']}")
    trials = sum(job["trials"] for job in plain)

    def counter(name: str) -> float:
        return sum(job["counters"].get(name, 0) for job in plain) / trials

    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    durations: Dict[str, List[int]] = {}
    hash_bytes = wall_ns = 0
    for r in traced["rounds"]:
        t = r["trace"]
        # the layers' self times sum to wall_ns by construction; this checks
        # that their spans cover the wall measured around each run_campaign
        measured = sum(job["fresh_s"] + sum(job["hit_s"]) for job in r["jobs"])
        ledger.check(walls_agree(t["wall_ns"] / 1e9, measured),
                     f"traced wall {t['wall_ns'] / 1e9:.3f} s of worker @{r['seed_base']} "
                     f"differs from its measured {measured:.3f} s")
        wall_ns += t["wall_ns"]
        hash_bytes += t["counters"].get("secure.hash_bytes", 0)
        for layer, ns in t["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + ns
        for layer, n in t["calls"].items():
            calls[layer] = calls.get(layer, 0) + n
        for name, values in t["durations"].items():
            durations.setdefault(name, []).extend(values)

    def self_s(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e9 / trials

    def span_s(name: str) -> float:
        return median(durations.get(name, [])) / 1e9

    boot = {k: sum(r["boot_cache"][k] for r in untraced["rounds"]) for k in ("hits", "misses")}
    trial_s = [s for job in plain for s in job["trial_s"]]
    plain_wall = sum(job["fresh_s"] + sum(job["hit_s"]) for job in plain)
    layers = {
        "import_s": median([r["import_s"] for r in untraced["rounds"]]),
        "experiments.build_stack_s": span_s("experiments.build_stack"),
        "experiments.trial_p50_s": median(trial_s),
        "experiments.self_s": self_s("experiments"),
        "sim.events": counter("sim.events"),
        "sim.engine_self_s": self_s("sim"),
        "sim.host_ns_per_event": sum(trial_s) / (counter("sim.events") * trials) * 1e9,
        "kernel.self_s": self_s("kernel"),
        "kernel.callbacks": calls.get("kernel", 0) / trials,
        "attacks.self_s": self_s("attacks"),
        "attacks.callbacks": calls.get("attacks", 0) / trials,
        "attacks.detections": counter("attack.probe_detections"),
        "core.self_s": self_s("core"),
        "core.rounds": counter("satin.rounds"),
        "core.scan_bytes": sum(job["scan_bytes"] for job in plain) / trials,
        "hw.self_s": self_s("hw"),
        "hw.world_switches": counter("monitor.world_switches"),
        "secure.self_s": self_s("secure"),
        "secure.hash_bytes": hash_bytes / trials,
        "secure.host_ns_per_byte": self_ns.get("secure", 0) / hash_bytes if hash_bytes else 0.0,
        "secure.boot_cache_hit_ratio": boot["hits"] / max(1, boot["hits"] + boot["misses"]),
        "campaign.store_put_s": span_s("campaign.store_put"),
        "campaign.store_read_s": span_s("campaign.store_read"),
        "campaign.self_s": self_s("campaign"),
        "campaign.cache_hit_ratio": (sum(job["cached"] for job in plain)
                                     / sum(job["total"] for job in plain)),
        "obs.manifest_s": span_s("obs.build_manifest") + span_s("obs.write_manifest"),
        "trace.wall_s": wall_ns / 1e9,
        "trace.overhead_s": wall_ns / 1e9 - plain_wall,
    }
    run.extra["self_s_by_layer"] = {k: v / 1e9 for k, v in sorted(self_ns.items())}
    run.extra["calls_by_layer"] = dict(sorted(calls.items()))
    run.extra["boot_digest_cache"] = boot
    return layers


def run_campaign_workload(run: Run, wl: CampaignWorkload) -> Tuple[Dict[str, float], Dict]:
    if not run.trace:
        result = campaign_pass(run, wl, run.seconds, "plain")
        return campaign_end_to_end(result), result
    untraced = campaign_pass(run, wl, run.seconds / 2, "plain")
    traced = campaign_pass(run, wl, 0, "traced", plan=[r["seed_base"] for r in untraced["rounds"]],
                           traced=True)
    return campaign_layers(run, untraced, traced), untraced


def campaign_samples(result: Dict[str, Any]) -> Dict[str, Any]:
    jobs = [job for r in result["rounds"] for job in r["jobs"]]
    return {
        "workers": len(result["rounds"]),
        "trials": sum(job["trials"] for job in jobs),
        "fresh": latency_summary([job["fresh_s"] for job in jobs]),
        "hit": latency_summary(result["resume_s"]),
        "resume_s": result["resume_s"],
        "in_process_resume": latency_summary([s for job in jobs for s in job["hit_s"]]),
        "setup_s": [r["setup_s"] for r in result["rounds"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in result["rounds"]],
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

#: Server spawns per ``--trace 0`` run: the last one takes the load.  The
#: others ("probes") each serve one fresh job before it, so that the warm
#: CLI resumes, timed after each server stops, are split between the start
#: and the end of the run.  On a shared 2-core host, speed drifted by up
#: to ~40% from one run to the next, for ten seconds and more at a time; a
#: median of resumes taken ~30 s apart moves less than one of resumes taken
#: together.
SERVER_SPAWNS = 3
#: Warm CLI resumes after each probe, and after the loaded server.
PROBE_RESUMES = 3
SERVE_RESUMES = 6


def probe_server(run: Run, k: int) -> Tuple[float, List[float]]:
    """A server that serves one fresh job; returns (set-up s, CLI resume walls)."""
    import serve

    server = serve.Server(run.root, run.path(f"probe-{k}"), run.env)
    try:
        spec = serve.fresh_spec(run.seed, serve.CLIENTS + k, 0)
        load = serve.Pass(server.url, run.seed, run.ledger, 0, 0,
                          plan=[[("fresh", spec)]] + [[] for _ in range(serve.CLIENTS - 1)])
        load.run()
    finally:
        code = server.stop()
    run.ledger.check(code == 0, f"repro serve exited {code} after SIGTERM")
    return server.setup_s, serve_resumes(run, load, server.cache_dir, PROBE_RESUMES)


def serve_pass(run: Run, label: str, window_s: float, min_samples: int,
               plan=None) -> Dict[str, Any]:
    import serve

    server = serve.Server(run.root, run.path(f"serve-{label}"), run.env)
    setups = [server.setup_s]
    retries_before = run.ledger.retries
    try:
        load = serve.Pass(server.url, run.seed, run.ledger, window_s, min_samples, plan=plan)
        wall = load.run()
        metrics = server.metrics()
        rss = peak_rss_mb(str(server.proc.pid))
    finally:
        code = server.stop()
    run.ledger.check(code == 0, f"repro serve exited {code} after SIGTERM")
    return {"load": load, "wall_s": wall, "metrics": metrics, "peak_rss_mb": rss,
            "setup_s": setups, "cache_dir": server.cache_dir,
            "retries": run.ledger.retries - retries_before}


def serve_resumes(run: Run, load, cache_dir: str, count: int) -> List[float]:
    """``count`` warm CLI resumes of the fresh specs a stopped server completed."""
    import serve
    from repro.service.jobs import JobSpec

    specs = [spec for thread in load.done for kind, spec in thread if kind == "fresh"
             and serve.spec_key(spec) in load.fingerprints]
    walls = []
    for spec in itertools.islice(itertools.cycle(specs), count):
        run_spec = JobSpec.from_json(dict(spec)).to_run_spec(cache_dir)
        manifest_path = os.path.join(cache_dir, run_spec.campaign_id(), "manifest.json")
        walls.append(cli_resume(run, spec["target"], spec["seeds"], spec["seed_base"],
                                cache_dir, manifest_path,
                                load.fingerprints[serve.spec_key(spec)]))
    return walls


def serve_end_to_end(result: Dict[str, Any], resumes: List[float]) -> Dict[str, float]:
    load = result["load"]
    fresh = latency_summary(load.latency["fresh"])
    hit = latency_summary(load.latency["hit"])
    return {
        "setup_s": median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "trials_per_s": load.fresh_trials / result["wall_s"],
        "jobs_per_s": load.jobs / result["wall_s"],
        "resume_s": median(resumes),
        "fresh_p50_s": fresh["p50"], "fresh_p90_s": fresh["p90"],
        "hit_p50_s": hit["p50"], "hit_p90_s": hit["p90"],
    }


def import_seconds(run: Run) -> float:
    """Median of 3 import times of the server's modules, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli, repro.service.server; "
            "print(time.perf_counter() - t)")
    walls = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code], cwd=run.root, env=run.env,
                              capture_output=True, text=True, timeout=60, check=True)
        walls.append(float(done.stdout.strip()))
    return median(walls)


def serve_layers(run: Run, untraced: Dict[str, Any], traced: Dict[str, Any],
                 tracer) -> Dict[str, float]:
    ledger = run.ledger
    for key, fingerprint in untraced["load"].fingerprints.items():
        ledger.check(traced["load"].fingerprints.get(key) == fingerprint,
                     f"traced run changed the fingerprint of {key}")
    load = traced["load"]
    finite = [s for v in load.latency.values() for s in v if s != float("inf")]
    # the client spans of an iteration cover it from submit to fetch (a
    # failed iteration is already a failure, and has no latency to compare)
    ledger.check(walls_agree(tracer.wall_ns / 1e9, sum(finite)),
                 f"traced client wall {tracer.wall_ns / 1e9:.3f} s differs from the "
                 f"summed latency {sum(finite):.3f} s")
    jobs = max(1, load.jobs)
    counters = traced["metrics"].get("counters", {})
    job_wall = traced["metrics"].get("histograms", {}).get("service.job_wall_seconds", {})
    job_wall_mean = job_wall.get("sum", 0.0) / max(1, job_wall.get("count", 0))

    def span_s(name: str) -> float:
        return median(tracer.durations.get(name, [])) / 1e9

    run.extra["self_s_by_layer"] = {k: v / 1e9 for k, v in sorted(tracer.self_ns.items())}
    run.extra["stale_manifests"] = load.stale_manifests
    return {
        "import_s": import_seconds(run),
        "service.submit_s": span_s("service.submit"),
        "service.status_s": span_s("service.status"),
        "service.fetch_s": span_s("service.fetch"),
        "service.polls_per_job": len(tracer.durations.get("service.status", [])) / jobs,
        "service.retries": traced["retries"],
        "service.job_wall_mean_s": job_wall_mean,
        "service.rejected": counters.get("service.jobs_rejected", 0),
        "service.http_requests": counters.get("service.http_requests", 0) / jobs,
        "service.wait_overhead_s": (sum(finite) / len(finite) if finite else 0.0) - job_wall_mean,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }


def run_serve_workload(run: Run) -> Tuple[Dict[str, float], Dict]:
    import serve

    undo = serve.count_retries(run.ledger)
    try:
        if not run.trace:
            probes = [probe_server(run, k) for k in range(SERVER_SPAWNS - 1)]
            result = serve_pass(run, "plain", run.seconds, serve.MIN_SAMPLES)
            result["setup_s"] += [setup for setup, _ in probes]
            samples = min(len(v) for v in result["load"].latency.values())
            run.ledger.check(samples >= serve.MIN_SAMPLES,
                             f"serve pass ended with {samples} samples in a class, "
                             f"fewer than {serve.MIN_SAMPLES}")
            resumes = [wall for _, walls in probes for wall in walls]
            resumes += serve_resumes(run, result["load"], result["cache_dir"], SERVE_RESUMES)
            run.extra["stale_manifests"] = result["load"].stale_manifests
            run.extra["resume_s"] = resumes
            return serve_end_to_end(result, resumes), result
        from tracer import Tracer, instrument_client

        untraced = serve_pass(run, "plain", run.seconds / 2, 0)
        tracer = Tracer()
        patches = instrument_client(tracer)
        try:
            traced = serve_pass(run, "traced", 0, 0, plan=untraced["load"].done)
        finally:
            patches.restore()
        trace_dir = os.path.join(run.root, ".perfbench", "trace", run.tag)
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, "clients.json"))
        return serve_layers(run, untraced, traced, tracer), untraced
    finally:
        undo()


def serve_samples(result: Dict[str, Any]) -> Dict[str, Any]:
    load = result["load"]
    return {
        "wall_s": result["wall_s"],
        "jobs": load.jobs,
        "fresh": latency_summary(load.latency["fresh"]),
        "hit": latency_summary(load.latency["hit"]),
        "setup_s": result["setup_s"],
        "retries": result["retries"],
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative (it seeds the simulator)")

    root = os.getcwd()
    for required in (PROGRAM, EXPECTED_TABLES):
        if not os.path.isfile(os.path.join(root, required)):
            print(f"perfbench: {required} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # SIGTERM unwinds like an exception, so the ``finally`` blocks stop
    # the workers and servers this run started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    calibration_start = calibrate()
    workload = WORKLOADS[args.workload]
    if workload is None:
        metrics, result = run_serve_workload(run)
        samples = serve_samples(result)
    else:
        metrics, result = run_campaign_workload(run, workload)
        samples = campaign_samples(result)
    check_tables(run)
    calibration_end = calibrate()

    ledger = run.ledger
    units = PER_LAYER if run.trace else END_TO_END
    if run.trace:
        metrics["host.calibration_events_per_s"] = (calibration_start + calibration_end) / 2
    else:
        metrics["ok_ratio"] = ledger.ok_ratio
    metrics = {name: metrics.get(name, 0.0) for name in units}
    correct = ledger.failed == 0

    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{run.tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({
            "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
            "trace": run.trace, "correct": correct, "metrics": metrics,
            "calibration_events_per_s": {"start": calibration_start, "end": calibration_end},
            "attempted": ledger.attempted, "failed": ledger.failed,
            "retries": ledger.retries, "problems": ledger.problems,
            "samples": samples, **run.extra,
        }, handle, indent=1, sort_keys=True, default=str)
    shutil.rmtree(run.work, ignore_errors=True)

    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
