"""Load-aware, fault-tolerant session scheduling for the stream server.

PR 2's server spread sessions over workers blindly (arrival order
modulo pool size) and kept dispatching every session id every tick.
This module owns those decisions instead:

* **Placement** — where a session runs.  ``rr`` keeps the arrival-order
  round-robin; ``load`` places each admitted session on the worker with
  the least *estimated remaining cost*, where a session costs
  ``frame budget x per-frame latency``.  The per-frame latency starts
  from a static catalog proxy (:func:`static_frame_estimate`) and is
  replaced by *measured* paper-scale latency as frames are observed.
  Estimates are keyed ``(scene, detail)`` — adaptive (QoS) sessions
  render the same scene at several details, and one scene/one number
  would let a low-detail observation poison the placement of a
  full-detail session.  A detail without its own observation falls
  back to the nearest observed detail of the same scene (proxy-ratio
  rescaled); unobserved scenes are calibrated against the observed
  ones so the two unit systems never mix.
* **Admission control** — ``max_inflight`` bounds how many sessions are
  served concurrently; the rest queue and are admitted as sessions
  finish (backpressure instead of oversubscribing the pool).
* **Rebalancing** — when the spread of per-worker remaining cost
  exceeds ``rebalance_threshold`` (relative to the mean), the
  load-aware policy proposes a :class:`Migration` of one session from
  the most- to the least-loaded worker.  The server executes it by
  replaying the session's checkpoint on the target worker
  (``repro.stream.checkpoint``), so migration never changes a
  session's output.
* **Completion tracking** — workers report budget-exhausted sessions;
  :meth:`StreamScheduler.mark_done` drops them from future ticks (no
  more pay-per-tick IPC for finished streams) and admits queued ones.

The scheduler is deterministic: identical sessions and observations
produce identical placements, admissions, and migrations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream.qos import detail_key

# The '"StreamSession"' annotations below refer to repro.stream.server,
# which imports this module — a type-only forward reference keeps the
# import acyclic (sessions are duck-typed here: session_id, scene,
# detail, frame_budget).

#: Placement policies accepted by the server and CLI.
PLACEMENTS = ("rr", "load")


def static_frame_estimate(scene: str, detail: float = 1.0) -> float:
    """Relative per-frame cost proxy for a scene, before any frame ran.

    The product of the catalog's sim-to-paper workload scale and the
    detail-scaled Gaussian count tracks how Step-1/Step-3 work grows
    across scenes.  Only the *relative* ordering matters: as soon as a
    scene's first frame is rendered, its measured ``sim_seconds``
    replaces this proxy.
    """
    spec = CATALOG[scene]
    return spec.workload_scale * spec.n_gaussians * max(detail, 1e-6)


@dataclass(frozen=True)
class Migration:
    """Move one session from worker ``src`` to worker ``dst``."""

    session_id: str
    src: int
    dst: int


@dataclass
class _SessionPlan:
    """Mutable scheduling state of one session.

    ``current_detail`` tracks the detail the session actually renders
    at — it starts at the descriptor's nominal detail and follows the
    QoS controller's rung as frames are observed, so cost estimates
    for adaptive sessions stay honest.  ``key`` is the estimate key
    ``(scene, detail_key(current_detail))``, recomputed only when
    ``current_detail`` changes; ``observed`` says whether a frame at
    that key has been fed to the estimates yet.
    """

    session: "StreamSession"
    worker: int = -1  # -1: queued, not yet admitted
    frames_done: int = 0
    done: bool = False
    current_detail: float = 0.0
    key: tuple[str, float] = ("", 0.0)
    observed: bool = False

    def __post_init__(self) -> None:
        self.current_detail = float(self.session.detail)
        self.key = (self.session.scene, detail_key(self.current_detail))

    @property
    def admitted(self) -> bool:
        return self.worker >= 0

    @property
    def active(self) -> bool:
        return self.admitted and not self.done

    @property
    def frames_left(self) -> int:
        return max(self.session.frame_budget - self.frames_done, 0)


class StreamScheduler:
    """Base scheduler: admission control + tick planning.

    Subclasses decide *where* a session goes (:meth:`_place`) and
    whether to rebalance; everything else — the admission queue, cost
    model, completion bookkeeping — is shared.
    """

    def __init__(
        self,
        sessions: list["StreamSession"],
        workers: int,
        max_inflight: int | None = None,
        estimator: Callable[[str, float], float] = static_frame_estimate,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValidationError("max_inflight must be at least 1 when set")
        self.workers = max(workers, 1)
        self.max_inflight = max_inflight
        self._estimator = estimator
        self._plans = {s.session_id: _SessionPlan(s) for s in sessions}
        #: Arrival-ordered subsequence of ``_plans`` that still has
        #: work (queued or active).  Tick planning and cost accounting
        #: iterate this instead of every plan ever registered, keeping
        #: steady-state tick cost proportional to *live* sessions — at
        #: 10^5+ arrivals over a serve, scanning finished plans each
        #: tick dominates everything else.  Removal never reorders, so
        #: iteration order (and therefore float accumulation order)
        #: matches the historical full scan exactly.
        self._undone = dict(self._plans)
        #: Live count of admitted, unfinished sessions (``inflight``
        #: without an O(sessions) scan on every admission check).
        self._active_count = 0
        self._proxy: dict[tuple[str, float], float] = {}
        for plan in self._plans.values():
            self._proxy_at(plan.key, plan.session.detail)
        self._observed: dict[tuple[str, float], float] = {}
        self.busy_seconds = {w: 0.0 for w in range(self.workers)}
        self.migrations: list[Migration] = []
        #: Memoized :meth:`remaining_cost`; ``None`` when any state it
        #: depends on changed since the last computation.
        self._cost_cache: dict[int, float] | None = None
        #: Sessions excluded from tick dispatch (gateway backpressure).
        #: A paused session keeps its worker, its admission slot, and
        #: its crash-recovery registration — it simply renders no new
        #: frames until resumed, so a slow client stalls *its own*
        #: stream instead of growing an unbounded send queue.
        self._paused: set[str] = set()
        self._queue: deque[str] = deque(self._admission_order(sessions))
        self.admit()

    # -- admission ------------------------------------------------------
    def _admission_order(self, sessions: list["StreamSession"]) -> list[str]:
        """Queue order for admission; base policy is FIFO (arrival)."""
        return [s.session_id for s in sessions]

    # -- dynamic session population ------------------------------------
    def add_session(self, session: "StreamSession") -> bool:
        """Register a session that arrived after construction.

        Open-loop serving (the fleet's generated traffic) submits
        sessions while a serve is already running; they join the
        admission queue and are placed the moment capacity allows.
        Returns whether the session was admitted immediately.
        """
        if session.session_id in self._plans:
            raise ValidationError(
                f"session '{session.session_id}' is already scheduled"
            )
        plan = _SessionPlan(session)
        self._plans[session.session_id] = plan
        self._undone[session.session_id] = plan
        self._proxy_at(plan.key, session.detail)
        self._queue.append(session.session_id)
        return session.session_id in self.admit()

    def attach_session(
        self,
        session: "StreamSession",
        frames_done: int = 0,
        worker: int | None = None,
    ) -> int:
        """Admit a (possibly mid-stream) session immediately.

        Used for checkpoint-replay *injection*: a session migrating in
        from another node arrives with ``frames_done`` frames already
        rendered elsewhere and must start ticking now, bypassing the
        admission queue (its source node already admitted it — a fleet
        migration must never park a running client behind
        backpressure).  ``worker`` forces placement; ``None`` asks the
        policy.  Returns the worker the session landed on.
        """
        if session.session_id in self._plans:
            raise ValidationError(
                f"session '{session.session_id}' is already scheduled"
            )
        if frames_done < 0:
            raise ValidationError("frames_done cannot be negative")
        plan = _SessionPlan(session)
        plan.frames_done = int(frames_done)
        self._proxy_at(plan.key, session.detail)
        plan.worker = self._place(session) if worker is None else worker
        if not 0 <= plan.worker < self.workers:
            raise ValidationError(
                f"worker {plan.worker} is outside the pool of {self.workers}"
            )
        plan.done = plan.frames_left == 0
        self._plans[session.session_id] = plan
        if not plan.done:
            self._undone[session.session_id] = plan
            self._active_count += 1
        self._cost_cache = None
        return plan.worker

    def remove_session(self, session_id: str) -> "StreamSession":
        """Forget a session (migration source side).

        Busy-seconds already attributed to this scheduler's workers
        stay — frames rendered here were rendered here.  A session
        still waiting in the admission queue is simply dequeued.
        """
        plan = self._plans.pop(session_id, None)
        if plan is None:
            raise ValidationError(f"unknown session '{session_id}'")
        self._undone.pop(session_id, None)
        self._paused.discard(session_id)
        self._cost_cache = None
        if not plan.admitted:
            self._queue.remove(session_id)
        else:
            # An admitted session left; its capacity slot frees up.
            if plan.active:
                self._active_count -= 1
            self.admit()
        return plan.session

    def frames_done(self, session_id: str) -> int:
        return self._plans[session_id].frames_done

    @property
    def inflight(self) -> int:
        return self._active_count

    @property
    def n_queued(self) -> int:
        """Sessions waiting for admission (backpressure queue)."""
        return len(self._queue)

    def admit(self) -> list[str]:
        """Admit queued sessions while the pool has capacity."""
        admitted = []
        while self._queue and (
            self.max_inflight is None or self._active_count < self.max_inflight
        ):
            session_id = self._queue.popleft()
            plan = self._plans[session_id]
            plan.worker = self._place(plan.session)
            self._active_count += 1
            self._cost_cache = None
            admitted.append(session_id)
        return admitted

    def _place(self, session: "StreamSession") -> int:
        raise NotImplementedError

    # -- cost model -----------------------------------------------------
    def _proxy_for(self, scene: str, detail: float) -> float:
        """The static cost proxy for ``(scene, detail)`` (memoized)."""
        return self._proxy_at((scene, detail_key(detail)), detail)

    def _proxy_at(self, key: tuple[str, float], detail: float) -> float:
        """:meth:`_proxy_for` with the key already computed."""
        proxy = self._proxy.get(key)
        if proxy is None:
            proxy = self._proxy[key] = self._estimator(key[0], detail)
        return proxy

    def frame_estimate(
        self, session: "StreamSession", detail: float | None = None
    ) -> float:
        """Best current estimate of one frame's paper-scale seconds.

        Estimates are keyed ``(scene, detail)``: a scene rendered at
        two details is two different workloads, and adaptive (QoS)
        sessions change detail mid-stream.  ``detail`` defaults to the
        session's *current* detail (the last observed rung).  Lookup
        order:

        1. an observation at exactly ``(scene, detail)``;
        2. the nearest observed detail of the same scene, rescaled by
           the static proxy ratio between the two details;
        3. the static proxy, unit-calibrated against whatever other
           scenes have been observed.
        """
        plan = self._plans.get(session.session_id) if detail is None else None
        if plan is not None:
            key, detail = plan.key, plan.current_detail
        else:
            if detail is None:
                detail = session.detail
            key = (session.scene, detail_key(detail))
        if key in self._observed:
            return self._observed[key]
        proxy = self._proxy_at(key, detail)
        same_scene = [
            (abs(d - key[1]), d)
            for (scene, d) in self._observed
            if scene == session.scene
        ]
        if same_scene:
            nearest = min(same_scene)[1]
            observed = self._observed[(session.scene, nearest)]
            near_proxy = self._proxy_for(session.scene, nearest)
            return observed * proxy / near_proxy if near_proxy > 0 else observed
        if not self._observed:
            return proxy
        # Calibrate proxy units against scenes we have measured, so an
        # unobserved scene competes in (approximate) real seconds.
        ratios = [
            self._observed[k] / self._proxy[k]
            for k in self._observed
            if self._proxy.get(k)
        ]
        return proxy * (sum(ratios) / len(ratios)) if ratios else proxy

    def remaining_cost(self) -> dict[int, float]:
        """Estimated outstanding seconds of work per worker.

        Memoized until any input changes (admission, observation,
        completion, migration): fleet routing queries every node's
        cost for every arrival, and only the node that actually
        changed needs a recompute.  The recompute memoizes
        ``frame_estimate`` per ``(scene, detail)`` — the estimate is a
        pure function of that key between observations, so thousands
        of same-workload sessions collapse to one lookup without
        changing a single accumulated float.
        """
        if self._cost_cache is None:
            cost = {w: 0.0 for w in range(self.workers)}
            estimates: dict[tuple[str, float], float] = {}
            for plan in self._undone.values():
                if not plan.active:
                    continue
                key = plan.key
                estimate = estimates.get(key)
                if estimate is None:
                    estimate = estimates[key] = self.frame_estimate(plan.session)
                cost[plan.worker] += plan.frames_left * estimate
            self._cost_cache = cost
        return dict(self._cost_cache)

    # -- observation / completion --------------------------------------
    def observe_frame(
        self, session_id: str, sim_seconds: float, detail: float | None = None
    ) -> None:
        """Account one rendered frame (updates costs and estimates).

        ``detail`` is the detail the frame actually rendered at; the
        server forwards it from the frame record so adaptive sessions
        re-key their estimates as the QoS controller moves, instead of
        poisoning the nominal-detail entry with off-rung latencies.

        The plan's key is recomputed only when the detail changes, and
        a key's first frame is the only one that can add an estimate,
        so a frame at an unchanged detail costs no key and no lookup.
        """
        plan = self._plans[session_id]
        plan.frames_done += 1
        self.busy_seconds[plan.worker] += float(sim_seconds)
        self._cost_cache = None
        if detail is not None and detail != plan.current_detail:
            plan.current_detail = float(detail)
            key = (plan.session.scene, detail_key(detail))
            if key != plan.key:
                plan.key = key
                plan.observed = False
            self._proxy_at(key, detail)
        if not plan.observed:
            plan.observed = True
            self._observed.setdefault(plan.key, float(sim_seconds))

    def mark_done(self, session_id: str) -> list[str]:
        """Drop a finished session from future ticks; admit queued ones."""
        plan = self._plans[session_id]
        if plan.active:
            self._active_count -= 1
        plan.done = True
        self._undone.pop(session_id, None)
        self._paused.discard(session_id)
        self._cost_cache = None
        return self.admit()

    # -- pause / resume (gateway backpressure) --------------------------
    def pause_session(self, session_id: str) -> None:
        """Stop dispatching ``session_id`` until :meth:`resume_session`.

        The session keeps its worker and admission slot (pausing is a
        flow-control signal, not an eviction), so resuming continues
        the stream exactly where it stopped.  Pausing an already-paused
        or queued session is a no-op.
        """
        if session_id not in self._plans:
            raise ValidationError(f"unknown session '{session_id}'")
        self._paused.add(session_id)

    def resume_session(self, session_id: str) -> None:
        """Re-enable tick dispatch for a paused session (idempotent)."""
        if session_id not in self._plans:
            raise ValidationError(f"unknown session '{session_id}'")
        self._paused.discard(session_id)

    @property
    def paused(self) -> list[str]:
        """Session ids currently excluded from dispatch (sorted)."""
        return sorted(self._paused)

    # -- queries --------------------------------------------------------
    def session(self, session_id: str) -> "StreamSession":
        return self._plans[session_id].session

    def worker_of(self, session_id: str) -> int:
        return self._plans[session_id].worker

    def is_done(self, session_id: str) -> bool:
        return self._plans[session_id].done

    def active_on(self, worker: int) -> list["StreamSession"]:
        """Admitted, unfinished sessions placed on ``worker``."""
        return [
            p.session
            for p in self._undone.values()
            if p.active and p.worker == worker
        ]

    def tick_assignments(self) -> dict[int, list["StreamSession"]]:
        """Per worker, the sessions to dispatch this tick (none when
        every session has drained)."""
        out: dict[int, list["StreamSession"]] = {}
        for plan in self._undone.values():
            if plan.active and plan.session.session_id not in self._paused:
                out.setdefault(plan.worker, []).append(plan.session)
        return out

    # -- rebalancing ----------------------------------------------------
    def rebalance(self) -> list[Migration]:
        """Propose migrations (base policy: placement is final)."""
        return []


class RoundRobinScheduler(StreamScheduler):
    """PR 2's arrival-order placement, now with completion tracking."""

    def __init__(self, *args, **kwargs) -> None:
        self._next = 0
        super().__init__(*args, **kwargs)

    def _place(self, session: "StreamSession") -> int:
        worker = self._next % self.workers
        self._next += 1
        return worker


class LoadAwareScheduler(StreamScheduler):
    """Cost-based placement with skew-triggered rebalancing.

    Admission order is estimated-cost-descending (longest processing
    time first — the classic makespan heuristic); each admitted session
    lands on the worker with the least estimated remaining cost.
    """

    def __init__(
        self,
        sessions: list["StreamSession"],
        workers: int,
        max_inflight: int | None = None,
        estimator: Callable[[str, float], float] = static_frame_estimate,
        rebalance_threshold: float = 0.25,
    ) -> None:
        if rebalance_threshold <= 0:
            raise ValidationError("rebalance threshold must be positive")
        self.rebalance_threshold = rebalance_threshold
        super().__init__(
            sessions, workers, max_inflight=max_inflight, estimator=estimator
        )

    def _admission_order(self, sessions: list["StreamSession"]) -> list[str]:
        plans = self._plans
        order = sorted(
            range(len(sessions)),
            key=lambda i: (
                -sessions[i].frame_budget
                * self._proxy[plans[sessions[i].session_id].key],
                i,
            ),
        )
        return [sessions[i].session_id for i in order]

    def _place(self, session: "StreamSession") -> int:
        cost = self.remaining_cost()
        return min(range(self.workers), key=lambda w: (cost[w], w))

    def rebalance(self) -> list[Migration]:
        """One migration from the most- to the least-loaded worker.

        Triggered when the relative spread of remaining cost exceeds
        the threshold; the moved session is the largest one that still
        fits in the gap (strictly improving the imbalance).  One
        migration per tick keeps the schedule easy to audit; persistent
        skew drains over consecutive ticks.
        """
        if self.workers < 2:
            return []
        cost = self.remaining_cost()
        total = sum(cost.values())
        if total <= 0:
            return []
        mean = total / self.workers
        src = max(cost, key=lambda w: (cost[w], -w))
        dst = min(cost, key=lambda w: (cost[w], w))
        gap = cost[src] - cost[dst]
        if gap / mean <= self.rebalance_threshold:
            return []
        best: tuple[float, str] | None = None
        for plan in self._undone.values():
            if not plan.active or plan.worker != src:
                continue
            move = plan.frames_left * self.frame_estimate(plan.session)
            if 0.0 < move < gap and (best is None or move > best[0]):
                best = (move, plan.session.session_id)
        if best is None:
            return []
        session_id = best[1]
        self._plans[session_id].worker = dst
        self._cost_cache = None
        migration = Migration(session_id=session_id, src=src, dst=dst)
        self.migrations.append(migration)
        return [migration]


SCHEDULERS = {"rr": RoundRobinScheduler, "load": LoadAwareScheduler}


def make_scheduler(
    placement: str,
    sessions: list["StreamSession"],
    workers: int,
    max_inflight: int | None = None,
    rebalance_threshold: float = 0.25,
    estimator: Callable[[str, float], float] = static_frame_estimate,
) -> StreamScheduler:
    """Build the scheduler for a ``serve`` call."""
    if placement not in SCHEDULERS:
        raise ValidationError(
            f"unknown placement policy '{placement}'; choose from "
            + ", ".join(PLACEMENTS)
        )
    if placement == "load":
        return LoadAwareScheduler(
            sessions,
            workers,
            max_inflight=max_inflight,
            estimator=estimator,
            rebalance_threshold=rebalance_threshold,
        )
    return RoundRobinScheduler(
        sessions, workers, max_inflight=max_inflight, estimator=estimator
    )
