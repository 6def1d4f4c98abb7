"""Serving benchmark: one workload, one seed, one timed run.

Run from the repository root::

    python3 perfbench/run.py --workload exact_serve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, each for half of ``--seconds``, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the host facts, sample counts and
any check that failed.  See README.md beside this file for the
workloads and what every metric means.
"""

import time

# setup_s starts here, before numpy or repro is imported.
SETUP_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS/OpenMP pools pinned to one thread: a second spinning thread on a
#: 2-core host costs the measured thread its core.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
#: The run's threads share one CPU (the last one the process may use;
#: the first usually takes the host's interrupts).  The gateway hands
#: every server step to a worker thread; on a second, idle vCPU each
#: hand-off waits for the hypervisor to wake it, for a time that
#: follows the host's load rather than the program.
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra set-ups per untraced run; setup_s is the median over all.
SETUP_REPEATS = 2
#: Reference-clock probes taken after the imports and after set-up.
SETUP_PROBES = 10
#: Percentiles reported for each host timing.
P50, P95 = 50.0, 95.0
#: Tiny sizes for the self-tests (--tiny).
TINY = {
    "exact_serve": {"frames": 4},
    "gateway_churn": {"frames": 4},
    "digest_herd": {"scale": 0.02},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test sizes (not benchmarked)"
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print its setup time and exit",
    )
    return parser.parse_args(argv)


def state_dir() -> Path:
    """Where run state is kept: the cross-run sim record and traces."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    path = base / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def repeat_setups(args) -> list[float]:
    """Set the workload up again in fresh interpreters (imports too)."""
    times = []
    for _ in range(SETUP_REPEATS):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only",
        ] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=150, check=True
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def host_timings(phase, clock=None, scaled_tails: bool = True) -> dict:
    """The timing metrics of one phase, in reference time when
    ``clock`` is given.  ``scaled_tails=False`` keeps the p95 tails in
    wall-clock time (see ``ExactServe.SCALED_TAILS``)."""
    t = phase.timings(clock)
    tails = t if scaled_tails else phase.timings()
    return {
        "frames_per_s": (phase.frames / t["wall_s"], "1/s"),
        "sessions_per_s": (phase.sessions / t["wall_s"], "1/s"),
        "frame_ms_p50": (percentile(t["gaps_ms"], P50), "ms"),
        "frame_ms_p95": (percentile(tails["gaps_ms"], P95), "ms"),
        "first_frame_ms_p50": (percentile(t["first_ms"], P50), "ms"),
        "first_frame_ms_p95": (percentile(tails["first_ms"], P95), "ms"),
        "resume_ms_p50": (percentile(t["resume_ms"], P50), "ms"),
    }


def end_to_end(phase, clock, scaled_tails: bool, setup_s: float, summary: dict) -> dict:
    """The user-facing metrics of one untraced phase."""
    return {
        "setup_s": (setup_s, "s"),
        **host_timings(phase, clock, scaled_tails),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_fps_mean": (summary["sim_fps_mean"], "1/s"),
        "sim_deadline_met_frac": (summary["sim_deadline_met_frac"], "frac"),
    }


def per_layer(tracer, phase, summary: dict, untraced_fps: float, setup: dict) -> dict:
    """The traced phase's per-layer metrics."""
    import layers

    totals = tracer.totals()
    metrics = {}
    for metric, (span, self_only) in layers.TIMED.items():
        own, whole, count = totals.get(span, (0.0, 0.0, 0))
        count = tracer.counts.get(f"calls:{span}", count)
        metrics[metric] = ((own if self_only else whole) / count * 1e3 if count else 0.0, "ms")
    attributed = 0.0
    for span in layers.SPAN_NAMES:
        own = totals.get(span, (0.0, 0.0, 0))[0]
        attributed += own
        metrics[f"trace.share.{span}"] = (own / phase.wall, "frac")
    unknown = set(totals) - set(layers.SPAN_NAMES)
    if unknown:
        raise RuntimeError(f"spans without a share metric: {sorted(unknown)}")
    counts = tracer.counts
    steps = counts["server_steps"]
    metrics.update({
        "stream.binning.reuse_ratio": (summary["reuse_ratio"], "frac"),
        "core.reuse_cache.hit_rate": (summary["hit_rate"], "frac"),
        "stream.gateway.messages_per_frame": (
            phase.counts.get("messages_per_frame", 0.0), "count"
        ),
        "stream.server.frames_per_step": (
            counts["server_frames"] / steps if steps else 0.0, "count"
        ),
        "stream.server.empty_step_frac": (
            counts["server_empty_steps"] / steps if steps else 0.0, "frac"
        ),
        "stream.fleet.queue_depth_max": (
            float(phase.counts.get("queue_depth_max", 0)), "count"
        ),
        "stream.fleet.admission_delay_mean_s": (
            float(phase.counts.get("admission_delay_mean_s", 0.0)), "s"
        ),
        "setup.import_s": (setup["setup.import_s"], "s"),
        "setup.calibrate_s": (setup.get("setup.calibrate_s", 0.0), "s"),
        "stream.traffic.generate_s": (
            setup.get("stream.traffic.generate_s", 0.0), "s"
        ),
        "trace.unattributed_share": (1.0 - attributed / phase.wall, "frac"),
        "trace.overhead": (
            (phase.frames / phase.wall) / untraced_fps, "ratio"
        ),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import_t0 = time.perf_counter()
    import workloads  # noqa: E402 - imports numpy and repro

    import refclock

    setup = {"setup.import_s": time.perf_counter() - import_t0}
    # setup_s is scaled by probes taken right after the imports and
    # right after set-up; their own time is taken out.
    setup_clock = refclock.ReferenceClock()
    for _ in range(SETUP_PROBES):
        setup_clock.probe()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = cls(args.seed, **(TINY[args.workload] if args.tiny else {}))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        workload.setup(tracer)
        setup_end = time.perf_counter()
        for _ in range(SETUP_PROBES):
            setup_clock.probe()
        setup_host_s = setup_end - SETUP_T0
        setup_s = setup_clock.scale(
            setup_host_s - setup_clock.probe_seconds(SETUP_T0, setup_end)
        )
        setup.update(workload.setup_phases)
        setup["setup_host_s"] = setup_host_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Objects made during set-up (inputs, models, modules) live for
        # the whole run; the collector need not walk them again.
        gc.collect()
        gc.freeze()
        setup_samples = [setup_s]
        clock = None
        if not args.trace:
            setup_samples += repeat_setups(args)
            clock = workload.clock = refclock.ReferenceClock()
            clock.probe()
            phases = {"main": workload.run(args.seconds, "main")}
            clock.probe()
        else:
            phases = {"u": workload.run(args.seconds / 2, "u")}
            import layers

            layers.install(tracer)
            tracer.enabled = True
            try:
                phases["t"] = workload.run(args.seconds / 2, "t")
            finally:
                tracer.enabled = False
                tracer.uninstall()
        workload.collect(phases)
    finally:
        workload.close()

    summaries = {tag: workloads.sim_summary(p.sample) for tag, p in phases.items()}
    problems = [f"{tag}: {text}" for tag, p in phases.items() for text in p.problems]
    failed = sum(p.failed for p in phases.values())
    # Simulated results are a function of the seed alone: traced and
    # untraced phases, and every run with this seed, must agree exactly.
    sim = next(iter(summaries.values()))
    if any(s != sim for s in summaries.values()):
        problems.append("simulated sample differs between traced and untraced phases")
        failed += 1
    record = state_dir() / (
        f"sim-{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}.json"
    )
    if record.exists():
        if json.loads(record.read_text()) != sim:
            problems.append(f"simulated sample differs from the earlier run in {record}")
            failed += 1
    else:
        record.write_text(json.dumps(sim, sort_keys=True))

    if args.trace:
        untraced = phases["u"]
        metrics = per_layer(
            tracer, phases["t"], summaries["t"], untraced.frames / untraced.wall, setup
        )
        tracer.write(state_dir() / f"trace-{args.workload}-{args.seed}.jsonl")
        timed = phases["t"]
    else:
        setup["setup_samples_s"] = setup_samples
        timed = phases["main"]
        setup_s = sorted(setup_samples)[len(setup_samples) // 2]
        metrics = end_to_end(timed, clock, workload.SCALED_TAILS, setup_s, sim)
        setup["reference_clock"] = clock.summary(timed.t0, timed.t1)
        setup["host_metrics"] = {
            name: value for name, (value, _) in host_timings(timed).items()
        }

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "samples": {
            "frames": timed.frames,
            "sessions": timed.sessions,
            "frame_ms": len(timed.gaps) // 2,
            "first_frame_ms": len(timed.firsts) // 2,
            "resume_ms": len(timed.resumes) // 2,
            "sim_frames": sim["frames"],
            "setup_s": len(setup_samples),
        },
        "wall_s": timed.wall,
        "setup": setup,
        "sim": sim,
        "counts": timed.counts,
        "problems": problems,
    }
    print(json.dumps({"perfbench": facts}, sort_keys=True))
    attempted = sum(p.attempted for p in phases.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
