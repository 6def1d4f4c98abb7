"""Shared serving reports: summaries, tick results, cache economics.

Both frame pipelines (the exact image pipeline of
:mod:`repro.stream.pipeline` and the digest pipeline of
:mod:`repro.stream.digest`) and both serving layers
(:class:`~repro.stream.server.StreamServer` and
:class:`~repro.stream.fleet.EdgeFleet`) emit results through the
dataclasses in this module, so fleet-level numbers compose from
node-level numbers by construction instead of by parallel bookkeeping:

* :class:`SessionResult` — one session's streamed report plus its
  final placement;
* :class:`ServeSummary` — the serve-level aggregate, with
  :meth:`ServeSummary.merge` folding node summaries into a fleet
  summary in the same vocabulary;
* :class:`TickResult` — one worker's answer to a dispatched tick,
  with :meth:`TickResult.merged` composing per-batch results and
  threading per-tier :class:`~repro.core.reuse_cache.CacheEconomics`
  through :func:`~repro.stream.content_cache.merge_economics`.

Extracted from ``server.py``/``fleet.py`` (which re-export them for
compatibility) so the exact and digest pipelines report through a
single path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.reuse_cache import CacheEconomics
from repro.stream.checkpoint import SessionCheckpoint
from repro.stream.content_cache import merge_economics
from repro.stream.pipeline import FrameRecord, StreamReport

__all__ = [
    "ConnectionStats",
    "ServeSummary",
    "SessionResult",
    "TickResult",
    "frame_evidence",
    "report_evidence",
]


@dataclass
class SessionResult:
    """What one session streamed: its report plus placement info."""

    session_id: str
    scene: str
    worker: int
    report: StreamReport

    @property
    def frames(self) -> list[FrameRecord]:
        return self.report.frames


@dataclass
class ServeSummary:
    """Aggregate serving metrics over one serve call.

    Two throughput views are reported:

    * ``sim_frames_per_sec`` — *simulated serving throughput*: every
      worker is one simulated GBU+GPU unit, its busy time is the sum
      of its frames' paper-scale latencies, and the makespan is the
      busiest worker.  This is the deployment-scaling metric (how much
      frame rate N workers serve), consistent with how every other
      number in this repository is extrapolated.
    * ``wall_frames_per_sec`` — host wall-clock throughput of the
      simulation itself; scales with physical cores, not with the
      modeled hardware.

    ``recoveries`` and ``migrations`` count worker respawns and
    checkpoint-replay session moves during the serve.
    """

    workers: int
    sessions: int
    total_frames: int
    sim_makespan_seconds: float
    #: Host wall-clock of the serve.  Excluded from equality: two
    #: serves that produced identical simulated output ARE equal, and
    #: golden/merge comparisons must not flake on host load
    #: (``perf_counter`` timings differ on every run).
    wall_seconds: float = field(compare=False)
    recoveries: int = 0
    migrations: int = 0

    @property
    def sim_frames_per_sec(self) -> float:
        if self.sim_makespan_seconds <= 0:
            return 0.0
        return self.total_frames / self.sim_makespan_seconds

    @property
    def wall_frames_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_frames / self.wall_seconds

    @staticmethod
    def merge(summaries: list["ServeSummary"]) -> "ServeSummary":
        """Compose node-level summaries into one fleet-level summary.

        Worker and session counts add; frames add; the makespan is the
        busiest *node* (nodes serve concurrently, exactly like workers
        within a node); wall seconds take the max for the same reason.
        Used by :mod:`repro.stream.fleet` to report a fleet serve in
        the same vocabulary as a single server.
        """
        if not summaries:
            return ServeSummary(
                workers=0,
                sessions=0,
                total_frames=0,
                sim_makespan_seconds=0.0,
                wall_seconds=0.0,
            )
        return ServeSummary(
            workers=sum(s.workers for s in summaries),
            sessions=sum(s.sessions for s in summaries),
            total_frames=sum(s.total_frames for s in summaries),
            sim_makespan_seconds=max(s.sim_makespan_seconds for s in summaries),
            wall_seconds=max(s.wall_seconds for s in summaries),
            recoveries=sum(s.recoveries for s in summaries),
            migrations=sum(s.migrations for s in summaries),
        )

    @staticmethod
    def from_results(
        results: list[SessionResult],
        workers: int,
        wall_seconds: float,
        recoveries: int = 0,
        migrations: int = 0,
        busy_seconds: dict[int, float] | None = None,
    ) -> "ServeSummary":
        """Aggregate results; ``busy_seconds`` is the scheduler's exact
        per-worker busy accounting (frames attributed to the worker
        that *rendered* them, which matters once a session migrated
        mid-stream — the fallback attributes by final placement)."""
        total = sum(r.report.n_frames for r in results)
        if busy_seconds is None:
            busy_seconds = {}
            for r in results:
                busy_seconds[r.worker] = busy_seconds.get(r.worker, 0.0) + float(
                    sum(f.sim_seconds for f in r.frames)
                )
        makespan = max(busy_seconds.values(), default=0.0)
        return ServeSummary(
            workers=max(workers, 1),
            sessions=len(results),
            total_frames=total,
            sim_makespan_seconds=makespan,
            wall_seconds=wall_seconds,
            recoveries=recoveries,
            migrations=migrations,
        )


@dataclass
class TickResult:
    """One worker's answer to a dispatched tick batch.

    ``frames`` holds the rendered (session, record) pairs;
    ``done`` names sessions whose frame budget is now exhausted (the
    scheduler drops them from future ticks); ``checkpoints`` snapshots
    every session that rendered on a subprocess worker, enabling crash
    recovery and migration; ``content`` carries the tick's per-tier
    content-cache economics (empty without a content cache).

    Only a subprocess worker's own result carries ``checkpoints``: the
    server keeps each session's latest one, and :meth:`merged` leaves
    them out.  An in-process worker ships none; the server cuts a
    checkpoint from its live stream when extract, migrate or recover
    asks for one.
    """

    frames: list[tuple[str, FrameRecord]] = field(default_factory=list)
    done: list[str] = field(default_factory=list)
    checkpoints: dict[str, SessionCheckpoint] = field(default_factory=dict)
    content: dict[str, CacheEconomics] = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def sim_seconds(self) -> float:
        """Summed paper-scale latency of this tick's frames.

        One worker's batches render serially, so this is the simulated
        busy time the tick added — the composable unit the fleet's
        clock advances on.
        """
        return float(sum(record.sim_seconds for _, record in self.frames))

    @staticmethod
    def merged(results: list["TickResult"]) -> "TickResult":
        """Fold the per-batch results of one tick into a single view
        (frames, ``done`` ids and cache economics; no checkpoints)."""
        out = TickResult()
        for result in results:
            out.frames.extend(result.frames)
            out.done.extend(result.done)
            merge_economics(out.content, result.content)
        return out


@dataclass
class ConnectionStats:
    """Wire-side accounting for one gateway connection.

    One physical connection serves at most one session; a session that
    reconnects appears as *several* connections sharing a
    ``session_id`` (``resumed`` marks the later ones).  ``queue_peak``
    vs. the gateway's configured bound is the backpressure audit:
    the send queue must never exceed the bound, and ``pauses`` counts
    how often dispatch was paused to enforce that.
    """

    peer: str
    session_id: str | None = None
    frames_sent: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    #: Deepest the bounded send queue ever got (<= the bound, always).
    queue_peak: int = 0
    #: Full-queue pause transitions backpressure applied (each one
    #: froze dispatch for this session until the client caught up).
    pauses: int = 0
    #: This connection resumed a detached session's checkpoint.
    resumed: bool = False
    #: The client said ``bye`` or streamed to completion (vs.
    #: vanishing mid-stream).
    clean_close: bool = False
    #: Server-side checkpoint-restore latency for resumed connections
    #: (wall telemetry; never feeds simulated physics).
    restore_seconds: float = 0.0


def frame_evidence(record: FrameRecord, image_hash: bool = True) -> dict:
    """Deterministic, wall-clock-free view of one rendered frame.

    The gateway's per-frame wire message and the byte-identity tests
    both read frames through this projection, so "what the client saw"
    is exactly "what the simulation produced" minus host timing —
    ``wall_seconds`` and anything else ``perf_counter``-derived never
    reaches a comparison that must hold across runs.
    """
    out: dict = {
        "frame": int(record.frame),
        "detail": float(record.detail),
        "sim_seconds": float(record.sim_seconds),
        "sim_fps": float(record.sim_fps),
        "n_visible": int(record.n_visible),
        "n_instances": int(record.n_instances),
        "shards": int(record.shards),
        "served_from": record.served_from,
        "hit_rate": float(record.hit_rate),
        "cumulative_hit_rate": float(record.cache.cumulative_hit_rate),
    }
    if record.qos is None:
        out["deadline"] = None
    else:
        out["deadline"] = {
            "met": bool(record.qos.met),
            "margin_seconds": float(record.qos.margin_seconds),
        }
    if image_hash and record.image is not None:
        out["image_sha256"] = hashlib.sha256(
            record.image.tobytes()
        ).hexdigest()
    return out


def report_evidence(report: StreamReport) -> dict:
    """Deterministic, wall-clock-free summary of one streamed session.

    Shipped in the gateway's ``end`` message and compared in the
    reconnect chaos tests: equal evidence means equal images (hashes),
    detail traces, and cache counters — the replay invariant.
    """
    return {
        "scene": report.scene,
        "trajectory": report.trajectory,
        "n_frames": int(report.n_frames),
        "mean_detail": float(report.mean_detail),
        "detail_trace": [float(d) for d in report.detail_trace],
        "deadline_miss_rate": float(report.deadline_miss_rate()),
        "warm_hit_rate": float(report.warm_hit_rate),
        "frames": [frame_evidence(f) for f in report.frames],
    }
