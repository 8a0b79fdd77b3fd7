"""One campaign worker process of the ``detect`` and ``introspect`` workloads.

Run by ``run.py``, never by hand::

    python perfbench/worker.py --root ROOT --experiment E9 --seed-base 7000 \
        --jobs 2 --seeds-per-job 1 --cache-dir DIR [--trace FILE]

It imports the program, builds one warm-up stack (which fills the kernel
image and boot-digest caches, exactly like a user's first trial), prints
``ready`` and then runs ``--jobs`` cold campaigns inline (``jobs=0``), each
followed by ``HITS`` warm in-process resumes.  The last stdout line is a
JSON report.  A fixed amount of work per process keeps its peak RSS
comparable between runs: E1 grows by ~16 MB per trial in one process.

With ``--trace FILE`` the layers are instrumented (see ``tracer.py``) after
the warm-up, and the spans are written to FILE at exit.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: Warm in-process resumes ("hit jobs") after each cold campaign.
HITS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--experiment", required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seeds-per-job", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import dataclasses

    from repro.campaign import runner
    from repro.campaign.runner import CampaignSpec
    from repro.experiments import report  # noqa: F401  (every driver, as a trial needs)
    from repro.experiments.common import build_stack
    from repro.obs.manifest import load_manifest, manifest_fingerprint
    from repro.secure.boot import DIGEST_CACHE_STATS

    import_s = time.perf_counter() - _STARTED
    build_stack(with_satin=True)
    print("ready", flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    boot_before = dict(DIGEST_CACHE_STATS)
    jobs = []
    for index in range(args.jobs):
        base = args.seed_base + index * args.seeds_per_job
        spec = CampaignSpec(
            experiment_id=args.experiment,
            seeds=list(range(base, base + args.seeds_per_job)),
            jobs=0,
            cache_dir=args.cache_dir,
        )
        started = time.perf_counter()
        result = runner.run_campaign(spec, progress=False)
        fresh_s = time.perf_counter() - started
        manifest = load_manifest(result.manifest_path)
        fingerprint = manifest_fingerprint(manifest)
        job = {
            "seed_base": base,
            "fresh_s": fresh_s,
            "trials": result.total,
            "ran": result.ran,
            "quarantined": len(result.quarantined),
            "trial_s": [trial["elapsed"] for trial in manifest["trials"]],
            "counters": manifest["metrics"]["counters"],
            "scan_bytes": manifest["metrics"]["histograms"]
            .get("satin.scan_bytes", {}).get("sum", 0),
            "fingerprint": fingerprint,
            "manifest_path": result.manifest_path,
            "hit_s": [],
            "hit_problems": [],
            # trials served from the store, over every run_campaign call
            "cached": result.cached,
            "total": result.total,
        }
        warm = dataclasses.replace(spec, resume=True)
        for _ in range(HITS):
            started = time.perf_counter()
            hit = runner.run_campaign(warm, progress=False)
            job["hit_s"].append(time.perf_counter() - started)
            job["cached"] += hit.cached
            job["total"] += hit.total
            if hit.ran != 0 or hit.cached != hit.total:
                job["hit_problems"].append(f"warm resume ran {hit.ran} trial(s)")
            elif manifest_fingerprint(load_manifest(hit.manifest_path)) != fingerprint:
                job["hit_problems"].append("warm resume changed the manifest fingerprint")
        jobs.append(job)

    from stats import peak_rss_mb

    out = {
        "import_s": import_s,
        "jobs": jobs,
        "boot_cache": {k: DIGEST_CACHE_STATS[k] - boot_before[k] for k in boot_before},
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.dump(args.trace)
        out["trace"] = {
            "wall_ns": tracer.wall_ns,
            "self_ns": dict(tracer.self_ns),
            "calls": dict(tracer.calls),
            "counters": dict(tracer.counters),
            "durations": dict(tracer.durations),
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
