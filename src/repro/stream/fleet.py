"""Fleet-scale serving: N stream-server nodes behind a global router.

One :class:`~repro.stream.server.StreamServer` is one edge node — a
worker pool, a scheduler, a QoS loop.  The paper's deployment target
(and the roadmap's north star) is many such nodes serving open-loop
user traffic.  :class:`EdgeFleet` adds that layer:

* **Global routing** — arriving sessions (usually from
  :class:`~repro.stream.traffic.TrafficGenerator`) queue at the fleet
  router and are placed on a node with free capacity:
  ``router="least"`` picks the least-loaded node (fewest active
  sessions, then least simulated busy time), ``"affinity"`` prefers a
  node already serving the same scene (bundle and estimate reuse)
  before falling back to least-loaded, and ``"active"`` balances on
  active-session count alone.
* **Fleet admission control** — each node serves at most
  ``node_capacity`` sessions concurrently; the rest wait in the
  router queue.  Queue depth is the autoscaling signal and is traced
  per tick.
* **Cross-node migration** — when the estimated remaining cost spread
  across nodes exceeds ``migration_threshold`` (relative to the
  mean), one session moves from the most- to the least-loaded node by
  checkpoint replay (:meth:`StreamServer.extract_session` /
  :meth:`StreamServer.inject_session`).  Replay is byte-identical, so
  migration changes *where* frames render, never what they contain.
* **Threshold autoscaling** — a router queue deeper than
  ``scale_up_queue`` for ``sustain`` consecutive ticks spawns a node
  (up to ``max_nodes``); a node idle for ``scale_down_idle`` ticks
  with an empty queue drains (down to ``min_nodes``).  Every action
  is recorded as an :class:`AutoscaleEvent` with its reaction time.

Simulated time: the fleet clock advances to the earliest point the
least-loaded *stepped* node has worked through its issued frames (the
same paper-scale busy accounting workers use), or jumps to the next
arrival when the fleet is idle — deterministic, host-independent, and
composable with every other simulated metric in this repository.
Node-level :class:`~repro.stream.server.ServeSummary` objects merge
into the fleet summary via :meth:`ServeSummary.merge`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.reuse_cache import CacheEconomics
from repro.errors import SimulationError, ValidationError
from repro.stream.content_cache import (
    BundleIntern,
    CacheTier,
    ContentCacheConfig,
    merge_economics,
)
from repro.stream.checkpoint import SessionCheckpoint
from repro.stream.digest import WorkloadModelTable
from repro.stream.pipeline import StreamReport
from repro.stream.reporting import ServeSummary, SessionResult, TickResult
from repro.stream.server import StreamServer, StreamSession, check_servable
from repro.stream.traffic import SessionArrival

#: Fleet routing policies.  ``"least"`` and ``"affinity"`` weigh
#: estimated remaining cost; ``"active"`` routes on active-session
#: count alone (O(1) per node per arrival — the only policy that holds
#: up at 10^5+ queued arrivals, where cost-model recomputation per
#: routed session dominates the serve).
ROUTERS = ("least", "affinity", "active")


@dataclass(frozen=True)
class NodeMigration:
    """One cross-node session move (checkpoint replay on ``dst``)."""

    session_id: str
    src: int
    dst: int
    tick: int
    sim_time: float


@dataclass(frozen=True)
class AutoscaleEvent:
    """One autoscaling action and the signal that triggered it.

    ``reaction_ticks`` is the fleet's response latency: for a spawn,
    ticks between the queue first breaching the threshold and the node
    coming up; for a drain, the idle streak length that triggered it.
    """

    action: str  # "spawn" | "drain"
    node: int
    tick: int
    sim_time: float
    queue_depth: int
    reaction_ticks: int


@dataclass
class FleetResult:
    """Everything one fleet serve produced.

    ``results`` holds every session exactly once (reported by the node
    that finished it — migrations carry reports along);
    ``node_summaries`` are per-node :class:`ServeSummary` views (one
    per node that ever existed, including drained ones) and
    ``summary`` their :meth:`ServeSummary.merge` composition with
    ``workers`` corrected to the *peak concurrent* capacity —
    autoscale churn can spawn more nodes over a serve's lifetime than
    were ever alive at once.
    """

    results: list[SessionResult]
    summary: ServeSummary
    node_summaries: dict[int, ServeSummary]
    migrations: list[NodeMigration] = field(default_factory=list)
    autoscale_events: list[AutoscaleEvent] = field(default_factory=list)
    queue_depth_trace: list[int] = field(default_factory=list)
    admission_delays: dict[str, float] = field(default_factory=dict)
    ticks: int = 0
    #: Maximum number of simultaneously-alive nodes during the serve.
    peak_nodes: int = 0
    #: Maximum number of concurrently admitted sessions across the
    #: fleet (the headline scale number for digest-mode benchmarks).
    peak_active: int = 0
    #: Per-tick concurrently admitted session counts (post-routing),
    #: aligned with ``queue_depth_trace``.
    active_trace: list[int] = field(default_factory=list)
    #: Fleet-wide per-tier content-cache economics (session → worker →
    #: node → fleet), summed over every node; empty without a content
    #: cache.
    content: dict[str, CacheEconomics] = field(default_factory=dict)
    #: Scene-bundle interning counters (shared immutable bundles
    #: across co-located workers); zero without a content cache.
    bundle_intern_hits: int = 0
    bundle_intern_misses: int = 0

    @property
    def total_frames(self) -> int:
        return self.summary.total_frames

    @property
    def sim_frames_per_sec(self) -> float:
        return self.summary.sim_frames_per_sec

    @property
    def total_nodes(self) -> int:
        """Nodes that ever existed (spawned ones included)."""
        return len(self.node_summaries)

    @property
    def spawns(self) -> list[AutoscaleEvent]:
        return [e for e in self.autoscale_events if e.action == "spawn"]

    @property
    def drains(self) -> list[AutoscaleEvent]:
        return [e for e in self.autoscale_events if e.action == "drain"]

    @property
    def max_queue_depth(self) -> int:
        return max(self.queue_depth_trace, default=0)

    @property
    def mean_admission_delay(self) -> float:
        if not self.admission_delays:
            return 0.0
        delays = list(self.admission_delays.values())
        return float(sum(delays) / len(delays))


class _FleetNode:
    """One live node: a server plus the router's bookkeeping.

    ``clock_offset`` anchors the node's busy ledger to absolute fleet
    time: a node spawned at fleet clock C starts counting busy seconds
    from zero, so its absolute serving horizon is
    ``clock_offset + busy_makespan``.
    """

    def __init__(
        self,
        node_id: int,
        server: StreamServer,
        tick: int,
        clock_offset: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.server = server
        self.spawned_tick = tick
        self.clock_offset = clock_offset
        self.idle_ticks = 0
        self.alive = True

    @property
    def horizon(self) -> float:
        """Absolute fleet time this node has worked up to."""
        return self.clock_offset + self.server.busy_makespan


@dataclass
class _OpenFleetServe:
    """Mutable state of one open (incremental) fleet serve.

    Everything that used to live as locals of the closed ``serve``
    loop, lifted onto the fleet so :meth:`EdgeFleet.step` can run one
    tick at a time — the serving gateway drives real client arrivals
    through exactly the loop body the batch path uses, so both produce
    byte-identical streams.
    """

    pending: list[SessionArrival]
    wall0: float
    queue: list[SessionArrival] = field(default_factory=list)
    clock: float = 0.0
    tick: int = 0
    cursor: int = 0
    breach_start: int | None = None
    migrations: list[NodeMigration] = field(default_factory=list)
    events: list[AutoscaleEvent] = field(default_factory=list)
    queue_trace: list[int] = field(default_factory=list)
    active_trace: list[int] = field(default_factory=list)
    admission_delays: dict[str, float] = field(default_factory=dict)
    finished: dict[int, tuple[list[SessionResult], ServeSummary]] = field(
        default_factory=dict
    )
    #: Submission order of every session ever seen (result sort key).
    order: dict[str, int] = field(default_factory=dict)
    total_frames: int = 0
    n_arrivals: int = 0
    peak_nodes: int = 0
    #: Set when a tick ends with nothing stepped, nothing queued, and
    #: no pending arrivals — the batch loop's stop signal.  A later
    #: :meth:`EdgeFleet.submit` clears it (gateway traffic is open-
    #: ended).
    drained: bool = False
    #: Ticks that rendered nothing because gateway flow control paused
    #: the admitted sessions (slow clients).  Excused from the tick
    #: budget: a stalled reader can idle an open serve indefinitely,
    #: and that is backpressure working, not a scheduler livelock.
    flow_stalls: int = 0

    @property
    def max_ticks(self) -> int:
        return self.total_frames + 2 * self.n_arrivals + 64


class EdgeFleet:
    """Serve open-loop session traffic over a fleet of server nodes.

    Parameters
    ----------
    nodes:
        Initial node count.
    node_workers:
        Workers per node (each node is a deterministic in-process
        multi-worker :class:`StreamServer`, ``local=True``).
    router:
        Node-selection policy, one of :data:`ROUTERS`: ``"least"``,
        ``"affinity"`` or ``"active"``.
    node_capacity:
        Max concurrent sessions per node (fleet admission control).
    placement:
        Intra-node session→worker policy (``"load"``/``"rr"``).
    min_nodes / max_nodes:
        Autoscaling band; both default to ``nodes`` (autoscaling off).
    scale_up_queue:
        Router queue depth that (sustained) triggers a spawn; defaults
        to ``node_capacity``.
    sustain:
        Consecutive breached ticks required before spawning.
    scale_down_idle:
        Consecutive idle ticks (with an empty queue) before a node
        drains.
    migration:
        Enable cross-node checkpoint-replay rebalancing.
    migration_threshold:
        Relative remaining-cost spread (vs. the mean) above which one
        session migrates per tick.
    fault_injector:
        Chaos hook ``(node, tick, worker) -> bool`` forwarded to each
        node's server (node-local tick counter), exercising worker
        recovery inside a fleet serve.
    bundle_cache_size:
        Per-worker bundle LRU capacity, forwarded to the nodes.
    content_cache:
        Enable the fleet-wide content-addressed render cache
        (:mod:`repro.stream.content_cache`).  The fleet owns the
        top-level fleet tier and the cross-worker scene-bundle
        interner; every spawned node's server chains its node tier to
        the fleet tier, so co-located viewers dedup across nodes.
        Per-tier economics land on :attr:`FleetResult.content`.
    models:
        Calibrated :class:`~repro.stream.digest.WorkloadModelTable`
        forwarded to every node's server; required before any
        submitted session may request ``pipeline="digest"``.
    """

    def __init__(
        self,
        nodes: int = 2,
        node_workers: int = 1,
        router: str = "least",
        node_capacity: int = 4,
        placement: str = "load",
        min_nodes: int | None = None,
        max_nodes: int | None = None,
        scale_up_queue: int | None = None,
        sustain: int = 2,
        scale_down_idle: int = 4,
        migration: bool = True,
        migration_threshold: float = 0.5,
        fault_injector=None,
        bundle_cache_size: int = 8,
        content_cache: ContentCacheConfig | None = None,
        models: WorkloadModelTable | None = None,
    ) -> None:
        if nodes < 1:
            raise ValidationError("fleet needs at least one node")
        if node_workers < 1:
            raise ValidationError("nodes need at least one worker")
        if router not in ROUTERS:
            raise ValidationError(
                f"unknown router '{router}'; choose from " + ", ".join(ROUTERS)
            )
        if node_capacity < 1:
            raise ValidationError("node capacity must be at least 1")
        self.min_nodes = nodes if min_nodes is None else min_nodes
        self.max_nodes = nodes if max_nodes is None else max_nodes
        if not 1 <= self.min_nodes <= nodes <= self.max_nodes:
            raise ValidationError(
                "autoscale band needs 1 <= min_nodes <= nodes <= max_nodes"
            )
        self.scale_up_queue = (
            node_capacity if scale_up_queue is None else scale_up_queue
        )
        if self.scale_up_queue < 1:
            raise ValidationError("scale_up_queue must be at least 1")
        if sustain < 1:
            raise ValidationError("sustain must be at least 1")
        if scale_down_idle < 1:
            raise ValidationError("scale_down_idle must be at least 1")
        if migration_threshold <= 0:
            raise ValidationError("migration threshold must be positive")
        self.initial_nodes = nodes
        self.node_workers = node_workers
        self.router = router
        self.node_capacity = node_capacity
        self.placement = placement
        self.sustain = sustain
        self.scale_down_idle = scale_down_idle
        self.migration = migration
        self.migration_threshold = migration_threshold
        self.fault_injector = fault_injector
        self.bundle_cache_size = bundle_cache_size
        self.content_cache = content_cache
        self.models = models
        self._fleet_tier: CacheTier | None = None
        self._intern: BundleIntern | None = None
        if content_cache is not None:
            self._fleet_tier = CacheTier("fleet", content_cache.fleet_bytes)
            self._intern = BundleIntern()
        self._content_totals: dict[str, CacheEconomics] = {}
        self._nodes: list[_FleetNode] = []
        self._next_node_id = 0
        self._open: _OpenFleetServe | None = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "EdgeFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down every node's worker pool (idempotent)."""
        for node in self._nodes:
            node.server.close()
        self._nodes = []
        self._open = None

    def _spawn_node(self, tick: int, clock: float = 0.0) -> _FleetNode:
        node_id = self._next_node_id
        self._next_node_id += 1
        injector = None
        if self.fault_injector is not None:
            hook = self.fault_injector
            injector = lambda t, w, n=node_id: hook(n, t, w)  # noqa: E731
        server = StreamServer(
            workers=self.node_workers,
            placement=self.placement,
            local=True,
            fault_injector=injector,
            bundle_cache_size=self.bundle_cache_size,
            content_cache=self.content_cache,
            content_parent=self._fleet_tier,
            bundle_builder=self._intern.build if self._intern is not None else None,
            models=self.models,
        )
        server.begin([])
        node = _FleetNode(node_id, server, tick, clock_offset=clock)
        self._nodes.append(node)
        return node

    # -- routing --------------------------------------------------------
    def _alive(self) -> list[_FleetNode]:
        return [n for n in self._nodes if n.alive]

    def _has_capacity(self, node: _FleetNode) -> bool:
        return node.server.n_active < self.node_capacity

    def _route(
        self,
        queue: list[SessionArrival],
        clock: float,
        admission_delays: dict[str, float],
    ) -> list[SessionArrival]:
        """Place queued sessions onto nodes with capacity (FIFO).

        Returns the arrivals still waiting; admitted sessions record
        their router-queue delay in simulated seconds.  Routing stops
        scanning at the first arrival no node can take *only* when the
        whole fleet is saturated: today ``_select_node`` returns
        ``None`` exactly when every node is at capacity (the affinity
        scene filter narrows the choice among open nodes but never
        empties it), so the rest of the queue cannot be placed either —
        a thundering herd of 10^5 arrivals must not be re-scanned in
        full on every saturated tick.  The saturation re-check guards
        that invariant: if selection ever becomes genuinely
        session-dependent (returning ``None`` for one session while
        capacity remains), only *that* arrival parks and the scan
        continues, so a placeable arrival is never stranded behind an
        unplaceable one.  Pinned by
        ``tests/stream/test_fleet.py::test_route_invariants``.
        """
        still_queued: list[SessionArrival] = []
        for i, arrival in enumerate(queue):
            node = self._select_node(arrival.session)
            if node is None:
                if not any(self._has_capacity(n) for n in self._alive()):
                    # Fleet saturated: bulk-requeue the tail unscanned.
                    still_queued.extend(queue[i:])
                    break
                # Session-specific refusal with capacity left: park it,
                # keep FIFO order for the rest of the scan.
                still_queued.append(arrival)
                continue
            node.server.submit(arrival.session)
            admission_delays[arrival.session_id] = max(
                clock - arrival.time, 0.0
            )
        return still_queued

    def _select_node(self, session: StreamSession) -> _FleetNode | None:
        """Pick the node a queued session routes to (None: no capacity)."""
        open_nodes = [n for n in self._alive() if self._has_capacity(n)]
        if not open_nodes:
            return None
        if self.router == "active":
            # Count-only balancing: no cost-model query, so routing one
            # arrival is O(nodes) with a trivial constant.
            return min(
                open_nodes, key=lambda n: (n.server.n_active, n.node_id)
            )
        if self.router == "affinity":
            same_scene = [
                n for n in open_nodes if session.scene in n.server.active_scenes()
            ]
            if same_scene:
                open_nodes = same_scene
        return min(
            open_nodes,
            key=lambda n: (
                n.server.n_active,
                n.server.remaining_cost(),
                n.node_id,
            ),
        )

    # -- rebalancing ----------------------------------------------------
    def _rebalance(
        self, tick: int, clock: float, migrations: list[NodeMigration]
    ) -> None:
        """Move one session from the most- to the least-loaded node."""
        alive = self._alive()
        if len(alive) < 2:
            return
        costs = {n.node_id: n.server.remaining_cost() for n in alive}
        total = sum(costs.values())
        if total <= 0:
            return
        mean = total / len(alive)
        src = max(alive, key=lambda n: (costs[n.node_id], -n.node_id))
        dst = min(alive, key=lambda n: (costs[n.node_id], n.node_id))
        gap = costs[src.node_id] - costs[dst.node_id]
        if gap / mean <= self.migration_threshold:
            return
        if not self._has_capacity(dst):
            return
        # Largest session that still fits in the gap (strict improvement).
        for session_id, cost in src.server.migration_candidates():
            if 0.0 < cost < gap:
                session, ckpt, report = src.server.extract_session(session_id)
                dst.server.inject_session(session, ckpt, report)
                migrations.append(
                    NodeMigration(
                        session_id=session_id,
                        src=src.node_id,
                        dst=dst.node_id,
                        tick=tick,
                        sim_time=clock,
                    )
                )
                return

    # -- serving --------------------------------------------------------
    def serve_sessions(self, sessions: list[StreamSession]) -> FleetResult:
        """Serve a closed session list (everything arrives at t=0)."""
        return self.serve([SessionArrival(0.0, s) for s in sessions])

    def serve(self, arrivals: list[SessionArrival]) -> FleetResult:
        """Serve an open-loop arrival sequence to completion.

        A thin wrapper over the incremental protocol: :meth:`begin`,
        :meth:`step` until drained, :meth:`finish`.  The loop per tick:
        admit due arrivals into the router queue, route queued sessions
        onto nodes with capacity, autoscale on the sustained queue
        signal, step every node with work one tick (one frame per
        admitted session), rebalance, then advance the fleet clock.
        Returns once every session has drained.
        """
        self.begin(arrivals)
        try:
            while not self._open.drained:
                self.step()
            return self.finish()
        except BaseException:
            self.close()
            raise

    # -- incremental serving --------------------------------------------
    @property
    def serving(self) -> bool:
        """A fleet serve is open (between :meth:`begin`/:meth:`finish`)."""
        return self._open is not None

    def _require_open(self, what: str) -> _OpenFleetServe:
        if self._open is None:
            raise ValidationError(
                f"{what} requires an open fleet serve (begin first)"
            )
        return self._open

    def begin(self, arrivals: list[SessionArrival] | None = None) -> None:
        """Open an incremental fleet serve.

        Mirrors :meth:`StreamServer.begin`: the caller drives ticks
        with :meth:`step`, may :meth:`submit` sessions at any point
        (the serving gateway submits one per accepted connection), and
        collects results with :meth:`finish`.  ``arrivals`` seeds the
        schedule with timestamped open-loop traffic; live traffic
        starts empty.
        """
        if self.serving:
            raise ValidationError("a fleet serve is already open")
        pending = sorted(arrivals or [], key=lambda a: a.time)
        ids = [a.session_id for a in pending]
        if len(set(ids)) != len(ids):
            raise ValidationError("session ids must be unique across arrivals")
        for arrival in pending:
            check_servable(arrival.session, self.models)
        wall0 = time.perf_counter()
        self.close()
        self._next_node_id = 0
        if self._fleet_tier is not None:
            self._fleet_tier.clear()
        if self._intern is not None:
            self._intern.clear()
        self._content_totals = {}
        for _ in range(self.initial_nodes):
            self._spawn_node(tick=0)
        self._open = _OpenFleetServe(
            pending=pending,
            wall0=wall0,
            order={a.session_id: i for i, a in enumerate(pending)},
            total_frames=sum(a.session.frame_budget for a in pending),
            n_arrivals=len(pending),
            peak_nodes=len(self._alive()),
        )

    def submit(self, session: StreamSession, at: float | None = None) -> None:
        """Enqueue a session on the open serve's router.

        ``at`` is the arrival's simulated timestamp and defaults to the
        current fleet clock (a live connection arrives *now*).  The
        session joins the router queue and is placed on the next tick
        under the normal capacity/routing rules.
        """
        st = self._require_open("submit")
        session_id = session.session_id
        if session_id in st.order:
            raise ValidationError(
                f"session id '{session_id}' was already submitted"
            )
        check_servable(session, self.models)
        st.order[session_id] = len(st.order)
        st.total_frames += session.frame_budget
        st.n_arrivals += 1
        st.queue.append(
            SessionArrival(st.clock if at is None else float(at), session)
        )
        st.drained = False

    def step(self) -> TickResult:
        """Run one fleet tick; returns the nodes' merged tick result.

        The loop body of the historical closed ``serve`` — admission,
        routing, autoscaling, node stepping, idle drains, rebalancing,
        clock advance — executed exactly once.  Returns an empty
        :class:`TickResult` once the serve has drained (no active
        sessions, empty router queue, no pending arrivals); a later
        :meth:`submit` re-opens the tap.
        """
        st = self._require_open("step")
        if st.drained:
            return TickResult()
        if st.tick - st.flow_stalls > st.max_ticks:
            raise SimulationError(
                "fleet serve did not drain within its tick budget"
            )
        # 1. Admit arrivals whose time has come.
        while (
            st.cursor < len(st.pending)
            and st.pending[st.cursor].time <= st.clock
        ):
            st.queue.append(st.pending[st.cursor])
            st.cursor += 1
        # 2. Route queued sessions onto nodes with capacity.  The
        # per-tick trace records the depth *after* routing — the
        # autoscaling signal.
        st.queue = self._route(st.queue, st.clock, st.admission_delays)
        st.queue_trace.append(len(st.queue))
        # 3. Autoscale on the sustained queue-depth signal (at most
        # one spawn per tick; the new node is filled immediately at
        # the same clock and steps below with everyone else).
        if len(st.queue) >= self.scale_up_queue:
            if st.breach_start is None:
                st.breach_start = st.tick
            sustained = st.tick - st.breach_start + 1
            if (
                sustained >= self.sustain
                and len(self._alive()) < self.max_nodes
            ):
                node = self._spawn_node(st.tick, clock=st.clock)
                st.events.append(
                    AutoscaleEvent(
                        action="spawn",
                        node=node.node_id,
                        tick=st.tick,
                        sim_time=st.clock,
                        queue_depth=len(st.queue),
                        reaction_ticks=st.tick - st.breach_start,
                    )
                )
                st.breach_start = None
                st.queue = self._route(st.queue, st.clock, st.admission_delays)
        else:
            st.breach_start = None
        st.peak_nodes = max(st.peak_nodes, len(self._alive()))
        # Post-routing fleet concurrency: how many sessions are
        # admitted somewhere right now (the scale headline).
        st.active_trace.append(sum(n.server.n_active for n in self._alive()))
        # 4. Step every node that has work.
        stepped: list[_FleetNode] = []
        node_ticks: list[TickResult] = []
        for node in self._alive():
            if node.server.n_active > 0:
                node_ticks.append(node.server.step())
                node.idle_ticks = 0
                stepped.append(node)
            else:
                node.idle_ticks += 1
        # 5. Drain long-idle nodes while the queue is empty.
        if not st.queue and len(self._alive()) > self.min_nodes:
            for node in self._alive():
                if node.idle_ticks >= self.scale_down_idle:
                    st.finished[node.node_id] = self._retire(node)
                    st.events.append(
                        AutoscaleEvent(
                            action="drain",
                            node=node.node_id,
                            tick=st.tick,
                            sim_time=st.clock,
                            queue_depth=0,
                            reaction_ticks=node.idle_ticks,
                        )
                    )
                    break  # at most one scale-down per tick
        # 6. Cross-node rebalancing.
        if self.migration:
            self._rebalance(st.tick, st.clock, st.migrations)
        # 7. Advance the fleet clock to the earliest absolute time
        # a stepped node has worked through its issued frames
        # (node horizons anchor busy ledgers at spawn time, so a
        # freshly spawned node never drags the clock backwards).
        if stepped:
            candidate = min(n.horizon for n in stepped)
            if st.cursor < len(st.pending) and any(
                self._has_capacity(n) for n in self._alive()
            ):
                candidate = min(candidate, st.pending[st.cursor].time)
            st.clock = max(st.clock, candidate)
        elif st.cursor < len(st.pending):
            st.clock = max(st.clock, st.pending[st.cursor].time)
        elif not st.queue:
            st.drained = True
            return TickResult.merged(node_ticks)
        # 8. Re-anchor caught-up nodes to the present: a node whose
        # horizon fell behind the clock (it sat idle through a
        # jumped gap, or drained its issued work early) cannot
        # serve in the past — its next frame completes after *now*.
        # Without this, arrivals after an idle gap would wait for
        # busy ledgers to catch up to absolute time and serialize.
        for node in self._alive():
            if node.horizon < st.clock:
                node.clock_offset = st.clock - node.server.busy_makespan
        merged = TickResult.merged(node_ticks)
        if (
            not merged.frames
            and not merged.done
            and any(n.server.paused_sessions for n in self._alive())
        ):
            # Nothing rendered and at least one session is paused by
            # gateway flow control: a stall tick, not budget-billable
            # progress (the budget exists to catch scheduler livelock,
            # not slow readers — see ``flow_stalls``).
            st.flow_stalls += 1
        st.tick += 1
        return merged

    def finish(self) -> FleetResult:
        """Close the open serve and assemble the :class:`FleetResult`."""
        st = self._require_open("finish")
        wall = time.perf_counter() - st.wall0
        for node in list(self._nodes):
            if node.alive:
                st.finished[node.node_id] = self._retire(node, wall=wall)
        results: list[SessionResult] = []
        node_summaries: dict[int, ServeSummary] = {}
        for node_id in sorted(st.finished):
            node_results, summary = st.finished[node_id]
            results.extend(node_results)
            node_summaries[node_id] = summary
        self._nodes = []
        results.sort(key=lambda r: st.order[r.session_id])
        fleet_summary = ServeSummary.merge(list(node_summaries.values()))
        fleet_summary.wall_seconds = wall
        fleet_summary.migrations += len(st.migrations)
        # Worker capacity is what was ever alive *at once*, not the
        # sum over autoscale churn.
        fleet_summary.workers = st.peak_nodes * self.node_workers
        result = FleetResult(
            results=results,
            summary=fleet_summary,
            node_summaries=node_summaries,
            migrations=st.migrations,
            autoscale_events=st.events,
            queue_depth_trace=st.queue_trace,
            admission_delays=st.admission_delays,
            ticks=st.tick,
            peak_nodes=st.peak_nodes,
            peak_active=max(st.active_trace, default=0),
            active_trace=st.active_trace,
            content=dict(self._content_totals),
            bundle_intern_hits=self._intern.hits if self._intern else 0,
            bundle_intern_misses=self._intern.misses if self._intern else 0,
        )
        self._open = None
        return result

    # -- session forwarding (gateway surface) ---------------------------
    @property
    def n_active(self) -> int:
        """Sessions admitted on some alive node right now."""
        return sum(n.server.n_active for n in self._alive())

    @property
    def n_queued(self) -> int:
        """Sessions waiting at the router or in node admission queues."""
        queued = sum(n.server.n_queued for n in self._alive())
        if self._open is not None:
            queued += len(self._open.queue)
            queued += len(self._open.pending) - self._open.cursor
        return queued

    def _node_of(self, session_id: str) -> _FleetNode | None:
        for node in self._alive():
            if node.server.has_session(session_id):
                return node
        return None

    def has_session(self, session_id: str) -> bool:
        """Whether the open serve tracks ``session_id`` anywhere."""
        if not self.serving:
            return False
        if self._node_of(session_id) is not None:
            return True
        return any(a.session_id == session_id for a in self._open.queue)

    def is_done(self, session_id: str) -> bool:
        """Whether a tracked session has exhausted its frame budget."""
        node = self._node_of(session_id)
        if node is not None:
            return node.server.is_done(session_id)
        if self.has_session(session_id):
            return False  # still waiting at the router
        raise ValidationError(f"unknown session '{session_id}'")

    def pause_session(self, session_id: str) -> None:
        """Forward gateway backpressure to the session's node.

        A session still waiting at the router is a no-op (it renders
        nothing anyway); an unknown session raises.
        """
        node = self._node_of(session_id)
        if node is not None:
            node.server.pause_session(session_id)
        elif not self.has_session(session_id):
            raise ValidationError(f"unknown session '{session_id}'")

    def resume_session(self, session_id: str) -> None:
        """Re-enable dispatch for a paused session (idempotent)."""
        node = self._node_of(session_id)
        if node is not None:
            node.server.resume_session(session_id)
        elif not self.has_session(session_id):
            raise ValidationError(f"unknown session '{session_id}'")

    def report_of(self, session_id: str) -> StreamReport:
        """The frames streamed so far for a node-admitted session."""
        node = self._node_of(session_id)
        if node is None:
            raise ValidationError(f"unknown session '{session_id}'")
        return node.server.report_of(session_id)

    def extract_session(
        self, session_id: str
    ) -> tuple[StreamSession, SessionCheckpoint | None, StreamReport]:
        """Remove a session from the open serve (gateway disconnect).

        A session already admitted on a node extracts with its
        checkpoint and report; one still waiting at the router leaves
        with no checkpoint and an empty report.
        """
        st = self._require_open("extract")
        node = self._node_of(session_id)
        if node is not None:
            return node.server.extract_session(session_id)
        for i, arrival in enumerate(st.queue):
            if arrival.session_id == session_id:
                st.queue.pop(i)
                session = arrival.session
                report = StreamReport(
                    scene=session.scene, trajectory=session.trajectory.kind
                )
                return session, None, report
        raise ValidationError(f"unknown session '{session_id}'")

    def inject_session(
        self,
        session: StreamSession,
        checkpoint: SessionCheckpoint | None = None,
        report: StreamReport | None = None,
    ) -> int:
        """Resume an extracted session (gateway reconnect).

        Routed like a fresh arrival when capacity allows; a saturated
        fleet readmits on the least-active node anyway — the client
        was already admitted before it disconnected, and a reconnect
        must never be refused by its own admission control.  Returns
        the node the session landed on.
        """
        st = self._require_open("inject")
        node = self._select_node(session)
        if node is None:
            node = min(
                self._alive(), key=lambda n: (n.server.n_active, n.node_id)
            )
        node.server.inject_session(session, checkpoint, report)
        st.order.setdefault(session.session_id, len(st.order))
        st.drained = False
        return node.node_id

    def _retire(
        self, node: _FleetNode, wall: float = 0.0
    ) -> tuple[list[SessionResult], ServeSummary]:
        """Finish a node's open serve and fold it into a summary."""
        merge_economics(self._content_totals, node.server.content_totals)
        results = node.server.finish()
        summary = ServeSummary.from_results(
            results,
            workers=self.node_workers,
            wall_seconds=wall,
            recoveries=node.server.recoveries,
            migrations=len(node.server.migrations),
            busy_seconds=node.server.worker_busy_seconds or None,
        )
        node.server.close()
        node.alive = False
        return results, summary
