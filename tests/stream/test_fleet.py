"""EdgeFleet: routing, admission, cross-node migration, autoscaling.

The fleet invariant mirrors the server's: *where* a session renders —
which node, after how many migrations, through how many autoscale
events — must never change *what* it renders.  Every test here
compares fleet output against a single plain server serving the same
sessions.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream.fleet import EdgeFleet, FleetResult
from repro.stream.server import ServeSummary, StreamServer, StreamSession
from repro.stream.traffic import SessionArrival, TrafficGenerator
from repro.stream.trajectory import CameraTrajectory

pytestmark = pytest.mark.fleet

DETAIL = 0.25


def _traffic(rate=60.0, duration=0.25, seed=3, mix="heavy", detail=DETAIL):
    return TrafficGenerator(
        mix=mix, rate=rate, duration=duration, seed=seed, detail=detail
    ).generate()


def _evidence(report):
    """What byte-identical fleet serving must preserve per frame."""
    return [
        (
            f.frame,
            f.sim_seconds,
            f.hit_rate,
            f.cache.cumulative_hit_rate,
            f.cache.carried_hit_rate,
            f.detail,
        )
        for f in report.frames
    ]


@pytest.fixture(scope="module")
def burst():
    """A saturating generated burst plus its single-server baseline."""
    arrivals = _traffic()
    sessions = [a.session for a in arrivals]
    with StreamServer(workers=0) as server:
        baseline = {r.session_id: r.report for r in server.serve(sessions)}
    return arrivals, baseline


@pytest.fixture(scope="module")
def two_nodes(burst):
    """The burst served once on 2 nodes x 4 slots (read-only)."""
    arrivals, _ = burst
    with EdgeFleet(nodes=2, node_capacity=4) as fleet:
        return fleet.serve(arrivals)


def _assert_matches_baseline(result: FleetResult, baseline) -> None:
    assert {r.session_id for r in result.results} == set(baseline)
    for r in result.results:
        assert _evidence(r.report) == _evidence(baseline[r.session_id])


def test_fleet_serve_matches_single_server(burst, two_nodes):
    arrivals, baseline = burst
    _assert_matches_baseline(two_nodes, baseline)
    # Every session reported exactly once, in arrival order.
    assert [r.session_id for r in two_nodes.results] == [
        a.session_id for a in arrivals
    ]


def test_fleet_serve_is_deterministic(burst, two_nodes):
    arrivals, _ = burst
    a = two_nodes
    with EdgeFleet(nodes=2, node_capacity=4) as fleet:
        b = fleet.serve(arrivals)
    assert a.summary.sim_makespan_seconds == b.summary.sim_makespan_seconds
    assert [m.session_id for m in a.migrations] == [
        m.session_id for m in b.migrations
    ]
    assert a.queue_depth_trace == b.queue_depth_trace


def test_more_nodes_cut_the_makespan(burst, two_nodes):
    """The fleet scaling floor: the identical workload (same frame
    total) serves >= 1.3x the simulated frames/s on 2 nodes as on 1
    (measured 1.88x)."""
    arrivals, _ = burst
    with EdgeFleet(nodes=1, node_capacity=4) as fleet:
        one = fleet.serve(arrivals).summary
    two = two_nodes.summary
    assert two.sim_makespan_seconds < one.sim_makespan_seconds
    assert two.total_frames == one.total_frames
    assert two.sim_frames_per_sec >= 1.3 * one.sim_frames_per_sec


def test_cross_node_migration_is_byte_identical(burst):
    """Affinity routing stacks same-scene sessions on one node; the
    rebalancer must spread them by checkpoint replay without changing
    a single frame."""
    arrivals, baseline = burst
    with EdgeFleet(
        nodes=2, node_capacity=8, router="affinity",
        migration=True, migration_threshold=0.3,
    ) as fleet:
        result = fleet.serve(arrivals)
    assert len(result.migrations) >= 1
    _assert_matches_baseline(result, baseline)
    # Migrations move sessions between distinct live nodes.
    for m in result.migrations:
        assert m.src != m.dst


def test_migration_beats_pinned_affinity_at_half_detail():
    """The migration floor on 2 affinity-routed nodes: rebalancing
    moves >= 1 session and does not lengthen the simulated makespan
    (measured 14 moves, 1.32x).  Detail 0.5, not the burst's 0.25: at
    0.25 the benefit sits on the 1.0 floor."""
    makespans = {}
    for migration in (False, True):
        with EdgeFleet(
            nodes=2, node_capacity=8, router="affinity",
            migration=migration, migration_threshold=0.3,
        ) as fleet:
            result = fleet.serve(_traffic(detail=0.5))
        assert (len(result.migrations) >= 1) == migration
        makespans[migration] = result.summary.sim_makespan_seconds
    assert makespans[False] >= makespans[True]


def test_migration_can_be_disabled(burst):
    arrivals, baseline = burst
    with EdgeFleet(
        nodes=2, node_capacity=8, router="affinity", migration=False
    ) as fleet:
        result = fleet.serve(arrivals)
    assert result.migrations == []
    _assert_matches_baseline(result, baseline)


def test_node_capacity_backpressure(burst):
    """Sessions beyond capacity wait in the router queue (and still
    come out identical)."""
    arrivals, baseline = burst
    with EdgeFleet(nodes=1, node_capacity=1, migration=False) as fleet:
        result = fleet.serve(arrivals)
    assert result.max_queue_depth >= 1
    assert any(d > 0 for d in result.admission_delays.values())
    _assert_matches_baseline(result, baseline)


def test_autoscale_spawns_and_drains(burst):
    """The autoscale floor: the burst triggers >= 1 spawn, each within
    the 2-tick sustain window (measured 3 spawns, 1-tick reaction)."""
    arrivals, baseline = burst
    with EdgeFleet(
        nodes=1,
        node_capacity=2,
        max_nodes=4,
        min_nodes=1,
        scale_up_queue=2,
        sustain=2,
        scale_down_idle=3,
    ) as fleet:
        result = fleet.serve(arrivals)
    assert len(result.spawns) >= 1
    # peak_nodes is *concurrent* aliveness; total_nodes counts churn.
    assert 1 < result.peak_nodes <= 4
    assert result.total_nodes >= result.peak_nodes
    assert result.summary.workers == result.peak_nodes
    # Reaction time: a spawn lands within the sustain window of the
    # queue first breaching the threshold.
    assert all(e.reaction_ticks <= 2 for e in result.spawns)
    # Scale-down happens once the burst drains (idle node retired).
    assert len(result.drains) >= 1
    # One queue-depth sample per tick, spawns included; event clocks
    # never run backwards (spawned nodes are horizon-anchored).
    assert len(result.queue_depth_trace) == result.ticks + 1
    stamps = [e.sim_time for e in result.autoscale_events]
    assert stamps == sorted(stamps)
    _assert_matches_baseline(result, baseline)


def test_fleet_chaos_worker_crash_recovers(burst):
    """A worker crash inside a fleet node replays checkpoints there."""
    arrivals, baseline = burst
    injector = lambda node, tick, w: node == 0 and tick == 2  # noqa: E731
    with EdgeFleet(
        nodes=2, node_capacity=8, fault_injector=injector
    ) as fleet:
        result = fleet.serve(arrivals)
    assert result.summary.recoveries >= 1
    _assert_matches_baseline(result, baseline)


def test_node_summaries_compose(burst, two_nodes):
    arrivals, _ = burst
    result = two_nodes
    merged = ServeSummary.merge(list(result.node_summaries.values()))
    assert merged.total_frames == result.summary.total_frames
    assert merged.sessions == result.summary.sessions == len(arrivals)
    assert merged.sim_makespan_seconds == max(
        s.sim_makespan_seconds for s in result.node_summaries.values()
    )
    assert result.summary.sim_makespan_seconds == merged.sim_makespan_seconds
    # Per-session frame counts survive aggregation.
    assert result.summary.total_frames == sum(
        r.report.n_frames for r in result.results
    )


def test_arrivals_after_idle_gap_overlap_across_nodes():
    """An idle gap must not serialize later concurrent arrivals: node
    busy ledgers re-anchor to the present when the clock jumps, so two
    sessions arriving together after the gap spread over both nodes."""
    from repro.scenes.catalog import CATALOG
    from repro.stream import CameraTrajectory, StreamSession

    heavy, light = CATALOG["bicycle"], CATALOG["female_4"]

    def _session(sid, spec, scene, frames, seed):
        return StreamSession(
            sid,
            scene,
            CameraTrajectory.for_scene(
                spec, "head_jitter", n_frames=frames, seed=seed, detail=DETAIL
            ),
            detail=DETAIL,
        )

    arrivals = [
        SessionArrival(0.0, _session("early", light, "female_4", 2, 1)),
        SessionArrival(5.0, _session("late-a", heavy, "bicycle", 10, 2)),
        SessionArrival(5.001, _session("late-b", heavy, "bicycle", 10, 3)),
    ]
    with EdgeFleet(nodes=2, node_capacity=4, migration=False) as fleet:
        result = fleet.serve(arrivals)
    served = sorted(s.sessions for s in result.node_summaries.values())
    assert served == [1, 2]
    # Both late arrivals were admitted at (essentially) their arrival
    # time, not after the first one drained.
    assert result.admission_delays["late-b"] < 0.01


def test_sparse_arrivals_jump_the_clock():
    """Arrivals far apart in sim time serve back-to-back on one node
    (the fleet clock jumps over idle gaps, open-loop)."""
    arrivals = _traffic(rate=4.0, duration=3.0, seed=7, mix="light")
    assert len(arrivals) >= 2
    with EdgeFleet(nodes=2, node_capacity=4) as fleet:
        result = fleet.serve(arrivals)
    assert result.summary.sessions == len(arrivals)
    assert result.max_queue_depth == 0
    assert all(d == 0.0 for d in result.admission_delays.values())


def test_validation_errors(burst):
    arrivals, _ = burst
    with pytest.raises(ValidationError):
        EdgeFleet(nodes=0)
    with pytest.raises(ValidationError):
        EdgeFleet(router="hash-ring")
    with pytest.raises(ValidationError):
        EdgeFleet(node_capacity=0)
    with pytest.raises(ValidationError):
        EdgeFleet(nodes=2, max_nodes=1)
    with pytest.raises(ValidationError):
        EdgeFleet(nodes=2, min_nodes=3)
    with pytest.raises(ValidationError):
        EdgeFleet(sustain=0)
    with pytest.raises(ValidationError):
        EdgeFleet(migration_threshold=0.0)
    twin = [arrivals[0], SessionArrival(0.1, arrivals[0].session)]
    with EdgeFleet(nodes=1) as fleet:
        with pytest.raises(ValidationError):
            fleet.serve(twin)


def test_empty_traffic_serves_nothing():
    with EdgeFleet(nodes=1) as fleet:
        result = fleet.serve([])
    assert result.results == []
    assert result.total_frames == 0
    assert result.summary.sessions == 0


def test_keep_images_rides_through_migration():
    """Pixel-level byte identity across forced migration."""
    arrivals = _traffic(rate=80.0, duration=0.1, seed=9)
    sessions = [
        a.session.__class__(**{**a.session.__dict__, "keep_images": True})
        for a in arrivals
    ]
    arrivals = [
        SessionArrival(a.time, s) for a, s in zip(arrivals, sessions)
    ]
    with StreamServer(workers=0) as server:
        baseline = {r.session_id: r.report for r in server.serve(sessions)}
    with EdgeFleet(
        nodes=2, node_capacity=8, router="affinity", migration_threshold=0.3
    ) as fleet:
        result = fleet.serve(arrivals)
    for r in result.results:
        for mine, ref in zip(r.report.frames, baseline[r.session_id].frames):
            assert np.array_equal(mine.image, ref.image)


# -- router-queue FIFO invariants ---------------------------------------
def _session(session_id, scene):
    spec = CATALOG[scene]
    trajectory = CameraTrajectory.for_scene(
        spec, "frozen", n_frames=2, detail=DETAIL
    )
    return StreamSession(
        session_id=session_id, scene=scene, trajectory=trajectory, detail=DETAIL
    )


def _arrival(session_id, scene, time=0.0):
    return SessionArrival(time, _session(session_id, scene))


class TestRouteInvariants:
    """Pin `_route`'s contract: `_select_node` returns None only when
    every node is saturated, and the first-unplaceable-breaks-FIFO
    shortcut must never strand a placeable arrival behind an
    unplaceable one (see the `_route` docstring)."""

    def test_saturated_fleet_requeues_whole_queue_in_order(self):
        with EdgeFleet(nodes=2, node_capacity=1, router="affinity") as fleet:
            fleet.begin()
            fleet._nodes[0].server.submit(_session("a0", "bicycle"))
            fleet._nodes[1].server.submit(_session("a1", "bonsai"))
            queue = [
                _arrival("q0", "bicycle"),
                _arrival("q1", "bonsai"),
                _arrival("q2", "bicycle"),
            ]
            delays = {}
            still = fleet._route(list(queue), 0.0, delays)
            # Mixed scenes, affinity router, zero capacity: nothing is
            # admitted and FIFO order survives untouched.
            assert [a.session_id for a in still] == ["q0", "q1", "q2"]
            assert delays == {}

    def test_single_slot_admits_fifo_head_regardless_of_affinity(self):
        with EdgeFleet(nodes=2, node_capacity=1, router="affinity") as fleet:
            fleet.begin()
            # Node 1 serves bonsai; node 0 is the only open slot.
            fleet._nodes[1].server.submit(_session("a1", "bonsai"))
            queue = [
                _arrival("q0", "bicycle"),
                _arrival("q1", "bonsai"),  # affinity points at full node 1
                _arrival("q2", "bicycle"),
            ]
            delays = {}
            still = fleet._route(list(queue), 2.5, delays)
            # The head takes the slot — a later arrival must not jump
            # the queue because of scene affinity.
            assert [a.session_id for a in still] == ["q1", "q2"]
            assert set(delays) == {"q0"}
            assert delays["q0"] == pytest.approx(2.5)
            assert fleet._nodes[0].server.n_active == 1

    def test_refused_arrival_does_not_strand_placeable_ones(self, monkeypatch):
        """If selection ever refuses one session while capacity
        remains, only that arrival may park — the scan continues."""
        with EdgeFleet(nodes=1, node_capacity=4) as fleet:
            fleet.begin()
            original = fleet._select_node

            def picky(session):
                if session.session_id == "poison":
                    return None
                return original(session)

            monkeypatch.setattr(fleet, "_select_node", picky)
            queue = [
                _arrival("poison", "bicycle"),
                _arrival("ok0", "bicycle"),
                _arrival("ok1", "bonsai"),
            ]
            delays = {}
            still = fleet._route(list(queue), 0.0, delays)
            assert [a.session_id for a in still] == ["poison"]
            assert set(delays) == {"ok0", "ok1"}


# -- gateway flow-control stalls vs. the tick budget ----------------------
def test_paused_stall_ticks_do_not_trip_the_tick_budget():
    """Gateway backpressure can idle an open serve indefinitely (every
    admitted session paused by a slow client); those empty ticks must
    not count against the drain budget, or the serving pump dies with
    SimulationError mid-serve instead of waiting the client out."""
    with EdgeFleet(nodes=1, node_capacity=2) as fleet:
        fleet.begin()
        fleet.submit(_session("stall", "bicycle"))
        first = fleet.step()
        assert [sid for sid, _ in first.frames] == ["stall"]
        fleet.pause_session("stall")
        budget = fleet._open.max_ticks
        # Far past the budget: every tick is an excused flow stall.
        for _ in range(budget + 8):
            tick = fleet.step()
            assert not tick.frames and not tick.done
        fleet.resume_session("stall")
        second = fleet.step()
        assert [sid for sid, _ in second.frames] == ["stall"]
        assert second.done == ["stall"]  # the 2-frame session drained
        result = fleet.finish()
    assert result.results[0].report.n_frames == 2
