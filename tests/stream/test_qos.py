"""QoS: deadlines, the AIMD controller, adaptive streams, serving,
checkpoint replay (including crash recovery and double migration)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG, BundleCache
from repro.stream import (
    CameraTrajectory,
    DigestFrameStream,
    FrameDeadline,
    FrameStream,
    QoSPolicy,
    QualityController,
    StreamServer,
    StreamSession,
    WorkloadModelTable,
    capture_checkpoint,
    restore_checkpoint,
    streaming_config,
    trace_agreement,
)
from repro.stream.digest import SIM_SECONDS_REL_TOL
from repro.stream.server import _WorkerState

TARGET_FPS = 72.0


def _controller(policy=None, fps=TARGET_FPS, nominal=1.0):
    return QualityController(
        FrameDeadline(fps), policy, nominal_detail=nominal
    )


class TestFrameDeadline:
    def test_budget_and_margin(self):
        deadline = FrameDeadline(100.0)
        assert deadline.deadline_seconds == pytest.approx(0.01)
        assert deadline.met(0.009) and not deadline.met(0.011)
        assert deadline.margin(0.004) == pytest.approx(0.006)
        assert deadline.margin(0.014) == pytest.approx(-0.004)

    def test_rejects_non_positive_fps(self):
        with pytest.raises(ValidationError):
            FrameDeadline(0.0)
        with pytest.raises(ValidationError):
            FrameDeadline(-72.0)


class TestQoSPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            QoSPolicy(min_detail=0.0)
        with pytest.raises(ValidationError):
            QoSPolicy(min_detail=0.8, max_detail=0.5)
        with pytest.raises(ValidationError):
            QoSPolicy(decrease=0.0)
        with pytest.raises(ValidationError):
            QoSPolicy(decrease=1.5)
        with pytest.raises(ValidationError):
            QoSPolicy(increase=-0.1)
        with pytest.raises(ValidationError):
            QoSPolicy(hysteresis=-0.1)
        with pytest.raises(ValidationError):
            QoSPolicy(quantum=0.0)

    def test_fixed_policy_pins_detail(self):
        policy = QoSPolicy.fixed()
        assert policy.min_detail == policy.max_detail == 1.0
        assert policy.increase == 0.0


class TestQualityController:
    def test_miss_decreases_multiplicatively(self):
        ctrl = _controller(QoSPolicy(decrease=0.5, quantum=0.01))
        deadline = ctrl.deadline.deadline_seconds
        record = ctrl.observe(frame=0, detail=1.0, sim_seconds=2 * deadline)
        assert not record.met
        assert record.margin_seconds == pytest.approx(-deadline)
        assert ctrl.scale == pytest.approx(0.5)
        ctrl.observe(frame=1, detail=0.5, sim_seconds=2 * deadline)
        assert ctrl.scale == pytest.approx(0.25)  # clamped floor next

    def test_scale_clamped_to_band(self):
        ctrl = _controller(QoSPolicy(min_detail=0.4, decrease=0.1))
        ctrl.observe(frame=0, detail=1.0, sim_seconds=1.0)
        assert ctrl.scale == pytest.approx(0.4)

    def test_comfortable_frames_recover_additively(self):
        policy = QoSPolicy(decrease=0.5, increase=0.1, hysteresis=0.1)
        ctrl = _controller(policy)
        deadline = ctrl.deadline.deadline_seconds
        ctrl.observe(frame=0, detail=1.0, sim_seconds=2 * deadline)
        assert ctrl.scale == pytest.approx(0.5)
        ctrl.observe(frame=1, detail=0.5, sim_seconds=0.5 * deadline)
        assert ctrl.scale == pytest.approx(0.6)
        # Recovery never exceeds the band ceiling.
        for k in range(10):
            ctrl.observe(frame=2 + k, detail=1.0, sim_seconds=0.5 * deadline)
        assert ctrl.scale == pytest.approx(1.0)

    def test_hysteresis_holds_near_the_deadline(self):
        policy = QoSPolicy(increase=0.1, hysteresis=0.2)
        ctrl = _controller(policy)
        deadline = ctrl.deadline.deadline_seconds
        ctrl.observe(frame=0, detail=1.0, sim_seconds=2 * deadline)
        parked = ctrl.scale
        # Met, but inside the hysteresis band: no recovery.
        ctrl.observe(frame=1, detail=0.75, sim_seconds=0.9 * deadline)
        assert ctrl.scale == pytest.approx(parked)

    def test_next_detail_snaps_to_quantum_ladder(self):
        ctrl = _controller(QoSPolicy(decrease=0.77, quantum=0.05))
        deadline = ctrl.deadline.deadline_seconds
        ctrl.observe(frame=0, detail=1.0, sim_seconds=2 * deadline)
        assert ctrl.scale == pytest.approx(0.77)
        assert ctrl.next_detail == pytest.approx(0.75)
        rung = round(ctrl.next_detail / 0.05)
        assert rung * 0.05 == pytest.approx(ctrl.next_detail)

    def test_nominal_detail_scales_the_ladder(self):
        ctrl = _controller(QoSPolicy(decrease=0.5, quantum=0.25), nominal=0.5)
        assert ctrl.next_detail == pytest.approx(0.5)
        ctrl.observe(frame=0, detail=0.5, sim_seconds=1.0)
        assert ctrl.next_detail == pytest.approx(0.25)

    def test_ceiling_rung_emits_the_exact_nominal_detail(self):
        """At the band ceiling the emitted detail must compare equal to
        the stream's nominal detail bit-for-bit — otherwise frame 0
        spuriously reloads the bundle and flushes the cache for any
        nominal (like 1/3) that a decimal round would perturb."""
        nominal = 1.0 / 3.0
        ctrl = _controller(nominal=nominal)
        assert ctrl.next_detail == nominal
        stream = FrameStream(
            CATALOG["nerf_lego"],
            CameraTrajectory.for_scene(
                CATALOG["nerf_lego"], "frozen", n_frames=2, detail=nominal
            ),
            detail=nominal,
            controller=QualityController(
                FrameDeadline(1.0), nominal_detail=nominal
            ),
        )
        record = stream.render_next()
        assert record.detail == nominal
        assert stream.bundle is not None
        # No rung change: the seeded nominal bundle was reused, not
        # rebuilt into a second cache slot.
        assert stream.active_detail == nominal

    def test_fixed_policy_records_but_never_adapts(self):
        ctrl = _controller(QoSPolicy.fixed())
        deadline = ctrl.deadline.deadline_seconds
        for k in range(4):
            record = ctrl.observe(
                frame=k, detail=1.0, sim_seconds=2 * deadline
            )
            assert not record.met
        assert ctrl.next_detail == 1.0
        assert ctrl.misses == 4
        assert ctrl.miss_rate == 1.0

    def test_state_roundtrip_continues_identically(self):
        rng = np.random.default_rng(7)
        deadline = 1.0 / TARGET_FPS
        latencies = list(rng.uniform(0.3 * deadline, 2.0 * deadline, 24))

        full = _controller()
        for k, lat in enumerate(latencies):
            full.observe(frame=k, detail=full.next_detail, sim_seconds=lat)

        head = _controller()
        for k, lat in enumerate(latencies[:10]):
            head.observe(frame=k, detail=head.next_detail, sim_seconds=lat)
        tail = _controller()
        tail.import_state(head.export_state())
        for k, lat in enumerate(latencies[10:], start=10):
            tail.observe(frame=k, detail=tail.next_detail, sim_seconds=lat)

        assert tail.scale == full.scale
        assert tail.next_detail == full.next_detail
        assert tail.frames_observed == full.frames_observed
        assert tail.misses == full.misses

    def test_import_validates_state(self):
        from repro.stream import QoSControllerState

        ctrl = _controller(QoSPolicy(min_detail=0.5))
        with pytest.raises(ValidationError):
            ctrl.import_state(
                QoSControllerState(scale=0.25, frames_observed=1, misses=0)
            )
        with pytest.raises(ValidationError):
            ctrl.import_state(
                QoSControllerState(scale=1.0, frames_observed=1, misses=2)
            )

    def test_rejects_bad_inputs(self):
        ctrl = _controller()
        with pytest.raises(ValidationError):
            ctrl.observe(frame=0, detail=1.0, sim_seconds=0.0)
        with pytest.raises(ValidationError):
            QualityController(FrameDeadline(72.0), nominal_detail=0.0)


# ----------------------------------------------------------------------
# Adaptive FrameStream
# ----------------------------------------------------------------------
def _adaptive_stream(n_frames=10, scene="bicycle", keep_images=False,
                     cache=None, fps=TARGET_FPS):
    spec = CATALOG[scene]
    traj = CameraTrajectory.for_scene(spec, "orbit", n_frames=n_frames)
    return FrameStream(
        spec,
        traj,
        keep_images=keep_images,
        controller=_controller(fps=fps),
        bundle_provider=None if cache is None else cache.get,
    )


class TestAdaptiveFrameStream:
    def test_controller_reduces_latency_below_fixed(self):
        """The heavy scene misses a 72 Hz budget fixed; QoS closes it."""
        spec = CATALOG["bicycle"]
        traj = CameraTrajectory.for_scene(spec, "orbit", n_frames=10)
        fixed = FrameStream(spec, traj).run(10)
        deadline = 1.0 / TARGET_FPS
        assert fixed.deadline_miss_rate(deadline) == 1.0

        adaptive = _adaptive_stream(10)
        report = adaptive.run(10)
        assert report.deadline_miss_rate() < 0.5
        assert report.mean_detail < 1.0
        # Quality is traded, not abandoned.
        assert report.mean_detail >= 0.5

    def test_frames_carry_qos_records_and_detail(self):
        stream = _adaptive_stream(4)
        records = [stream.render_next() for _ in range(4)]
        for r in records:
            assert r.qos is not None
            assert r.qos.detail == r.detail
            assert r.qos.deadline_seconds == pytest.approx(1.0 / TARGET_FPS)
            assert r.qos.met == (r.sim_seconds <= r.qos.deadline_seconds)

    def test_detail_switch_rescales_resolution(self):
        stream = _adaptive_stream(6, keep_images=True)
        records = [stream.render_next() for _ in range(6)]
        details = {r.detail for r in records}
        assert len(details) > 1  # the controller actually moved
        spec = CATALOG["bicycle"]
        for r in records:
            width, height = spec.eval_resolution(r.detail)
            assert r.image.shape == (height, width, 3)

    def test_controller_nominal_must_match_stream_detail(self):
        spec = CATALOG["bicycle"]
        traj = CameraTrajectory.for_scene(spec, "orbit", n_frames=2)
        with pytest.raises(ValidationError):
            FrameStream(
                spec, traj, detail=0.5, controller=_controller(nominal=1.0)
            )

    def test_detail_change_without_provider_raises(self):
        spec = CATALOG["bicycle"]
        traj = CameraTrajectory.for_scene(spec, "orbit", n_frames=2)
        stream = FrameStream(spec, traj)
        with pytest.raises(ValidationError):
            stream.load_detail(0.5)

    def test_reset_restores_nominal_detail_and_controller(self):
        stream = _adaptive_stream(6)
        for _ in range(4):
            stream.render_next()
        assert stream.active_detail < 1.0
        stream.reset()
        assert stream.active_detail == 1.0
        assert stream.controller.frames_observed == 0
        first = stream.render_next()
        assert first.frame == 0 and first.detail == 1.0


class TestBundleCache:
    def test_capacity_cap_under_detail_sweep(self):
        cache = BundleCache(capacity=3)
        for detail in (1.0, 0.75, 0.5, 0.25, 0.35, 0.6, 0.75):
            cache.get("nerf_lego", detail)
            assert len(cache) <= 3
        assert cache.misses >= 6  # 0.75 was evicted and rebuilt

    def test_lru_eviction_order(self):
        cache = BundleCache(capacity=2)
        a = cache.get("nerf_lego", 0.5)
        cache.get("nerf_lego", 0.25)
        assert cache.get("nerf_lego", 0.5) is a  # hit refreshes recency
        cache.get("nerf_lego", 0.75)  # evicts 0.25, not 0.5
        assert cache.get("nerf_lego", 0.5) is a
        assert cache.hits == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError):
            BundleCache(capacity=0)

    def test_worker_state_cache_stays_bounded_under_adaptive_session(self):
        """A detail-sweeping adaptive session never grows the worker's
        bundle cache beyond its cap."""
        spec = CATALOG["bicycle"]
        session = StreamSession(
            "sweep",
            "bicycle",
            CameraTrajectory.for_scene(spec, "orbit", n_frames=12),
            target_fps=TARGET_FPS,
            # Aggressive knobs so the controller sweeps many rungs.
            qos=QoSPolicy(decrease=0.6, increase=0.15, hysteresis=0.0),
        )
        state = _WorkerState(bundle_cache_size=2)
        rendered = []
        for _ in range(12):
            result = state.render_tick(
                [session if not state.hosted else "sweep"]
            )
            rendered.extend(record for _, record in result.frames)
            assert len(state.bundles) <= 2
        assert len(rendered) == 12
        assert not state.hosted  # released once it reported done
        # The sweep really visited more rungs than the cache can hold.
        assert len({r.detail for r in rendered}) > 2


# ----------------------------------------------------------------------
# Checkpoint replay
# ----------------------------------------------------------------------
def _evidence(records):
    return [
        (
            r.frame,
            r.detail,
            r.sim_seconds,
            r.hit_rate,
            r.cache.cumulative_hit_rate,
            r.cache.carried_hit_rate,
            r.qos.met,
            r.qos.margin_seconds,
        )
        for r in records
    ]


class TestQoSCheckpointReplay:
    @pytest.mark.parametrize("cut", [2, 5])
    def test_replay_is_byte_identical_mid_adaptation(self, cut):
        cache = BundleCache()
        full_stream = _adaptive_stream(10, keep_images=True, cache=cache)
        full = [full_stream.render_next() for _ in range(10)]

        part = _adaptive_stream(10, keep_images=True, cache=cache)
        for _ in range(cut):
            part.render_next()
        ckpt = capture_checkpoint("client", part, detail=1.0)
        assert ckpt.qos is not None
        assert ckpt.active_detail == part.active_detail

        restored = _adaptive_stream(10, keep_images=True, cache=cache)
        restore_checkpoint(restored, ckpt)
        tail = [restored.render_next() for _ in range(10 - cut)]

        assert _evidence(tail) == _evidence(full[cut:])
        for expect, got in zip(full[cut:], tail):
            assert np.array_equal(expect.image, got.image)

    def test_restore_rejects_qos_mismatch(self):
        spec = CATALOG["bicycle"]
        traj = CameraTrajectory.for_scene(spec, "orbit", n_frames=4)
        adaptive = _adaptive_stream(4)
        adaptive.render_next()
        ckpt = capture_checkpoint("client", adaptive, detail=1.0)
        plain = FrameStream(spec, traj)
        with pytest.raises(ValidationError):
            restore_checkpoint(plain, ckpt)

        plain.render_next()
        plain_ckpt = capture_checkpoint("client", plain, detail=1.0)
        fresh = _adaptive_stream(4)
        with pytest.raises(ValidationError):
            restore_checkpoint(fresh, plain_ckpt)

    def test_double_migration_replay_is_byte_identical(self):
        """migrate -> crash -> restore -> migrate again: the full relay
        of worker states reproduces the uninterrupted stream exactly,
        QoS controller state included."""
        spec = CATALOG["bicycle"]
        session = StreamSession(
            "relay",
            "bicycle",
            CameraTrajectory.for_scene(spec, "orbit", n_frames=12),
            keep_images=True,
            target_fps=TARGET_FPS,
        )

        solo = _WorkerState()
        baseline = []
        for _ in range(12):
            result = solo.render_tick([session if not baseline else "relay"])
            baseline.extend(record for _, record in result.frames)

        relay: list = []
        checkpoint = None
        # Four hops: initial worker, migration target, post-crash
        # respawn, second migration target.
        hops = [_WorkerState() for _ in range(4)]
        frames_per_hop = [3, 3, 3, 3]
        for state, n in zip(hops, frames_per_hop):
            state.restore_sessions([(session, checkpoint)])
            for _ in range(n):
                result = state.render_tick(["relay"])
                relay.extend(record for _, record in result.frames)
                checkpoint = result.checkpoints["relay"]
            # A crash between hop 2 and 3 loses the worker state; the
            # checkpoint alone must carry the session.

        assert _evidence(relay) == _evidence(baseline)
        for expect, got in zip(baseline, relay):
            assert np.array_equal(expect.image, got.image)
        # The controller genuinely moved across hops, so the replay
        # exercised checkpointed QoS state, not a constant ladder.
        assert len({r.detail for r in baseline}) > 1


# ----------------------------------------------------------------------
# Serving with QoS
# ----------------------------------------------------------------------
def _qos_sessions(n_frames=6):
    heavy = CATALOG["bicycle"]
    light = CATALOG["female_4"]
    return [
        StreamSession(
            "heavy",
            "bicycle",
            CameraTrajectory.for_scene(heavy, "orbit", n_frames=n_frames),
            target_fps=TARGET_FPS,
        ),
        StreamSession(
            "light",
            "female_4",
            CameraTrajectory.for_scene(light, "head_jitter", n_frames=n_frames, seed=3),
            target_fps=TARGET_FPS,
        ),
    ]


class TestQoSServing:
    def test_serve_matches_standalone_streams(self):
        sessions = _qos_sessions()
        with StreamServer(workers=0) as server:
            results = server.serve(sessions)
        for session, result in zip(sessions, results):
            solo = FrameStream(
                session.scene,
                session.trajectory,
                controller=QualityController(
                    FrameDeadline(session.target_fps),
                    session.qos,
                    nominal_detail=session.detail,
                ),
            ).run(session.frame_budget)
            assert _evidence(result.report.frames) == _evidence(solo.frames)

    def test_local_multiworker_matches_in_process(self):
        sessions = _qos_sessions()
        with StreamServer(workers=0) as server:
            a = server.serve(sessions)
        with StreamServer(workers=2, local=True) as server:
            b = server.serve(sessions)
        for x, y in zip(a, b):
            assert _evidence(x.report.frames) == _evidence(y.report.frames)

    def test_crash_recovery_preserves_qos_trace(self):
        sessions = _qos_sessions(n_frames=8)
        with StreamServer(workers=0) as server:
            baseline = server.serve(sessions)
        injector = lambda tick, w: tick == 3  # noqa: E731 - every worker
        with StreamServer(workers=2, local=True, fault_injector=injector) as server:
            recovered = server.serve(sessions)
            assert server.recoveries >= 1
        for before, after in zip(baseline, recovered):
            assert _evidence(before.report.frames) == _evidence(
                after.report.frames
            )
            assert (
                before.report.detail_trace == after.report.detail_trace
            )

    def test_adaptive_halves_misses_and_keeps_half_the_detail(self):
        """The QoS acceptance floors on the heavy/light mix: adaptive
        serving cuts the deadline-miss rate >= 2x against fixed detail
        (measured 4.0x) while delivering >= 0.5 of the requested detail
        (measured 0.880).  Every number is simulated, so it is exact."""
        from repro.analysis.streaming import compare_qos, qos_session_mix

        comparison = compare_qos(
            sessions=qos_session_mix(heavy=2, light=2, n_frames=8, detail=0.5),
            workers=2,
            target_fps=150.0,
        )
        assert comparison.miss_reduction >= 2.0
        assert comparison.points["adaptive"].mean_scale >= 0.5

    def test_miss_reduction_requires_both_modes(self):
        from repro.analysis.streaming import QoSComparison, QoSPoint

        point = QoSPoint(
            mode="adaptive", target_fps=72.0, workers=1, sessions=1,
            total_frames=1, deadline_misses=0, miss_rate=0.0,
            mean_detail=1.0, mean_scale=1.0, sim_makespan_seconds=0.1,
        )
        lopsided = QoSComparison(
            workers=1, target_fps=72.0, points={"adaptive": point}
        )
        with pytest.raises(ValidationError, match="fixed"):
            lopsided.miss_reduction

    def test_scheduler_sees_per_detail_estimates(self, dispatches):
        """Adaptive sessions re-key the scheduler's estimate table."""
        sessions = _qos_sessions(n_frames=8)
        with StreamServer(workers=0, placement="load") as server:
            server.serve(sessions)
        # No direct hook into the internal scheduler after serve, but
        # dispatch accounting must show every frame was served.
        assert dispatches == {"heavy": 8, "light": 8}


class TestShardEscalation:
    """Intra-frame shard escalation: the controller adds tile shards
    only after quality degradation is exhausted (consecutive misses at
    the detail floor), climbs one shard at a time, and releases shards
    after a sustained comfortable streak."""

    POLICY = QoSPolicy(
        min_detail=0.5, decrease=0.5, increase=0.1, hysteresis=0.1,
        max_shards=3, shard_after=2, shard_release=3,
    )

    def _miss(self, ctrl, frame):
        return ctrl.observe(
            frame=frame, detail=ctrl.next_detail,
            sim_seconds=2 * ctrl.deadline.deadline_seconds,
        )

    def _comfortable(self, ctrl, frame):
        return ctrl.observe(
            frame=frame, detail=ctrl.next_detail,
            sim_seconds=0.5 * ctrl.deadline.deadline_seconds,
        )

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            QoSPolicy(max_shards=0)
        with pytest.raises(ValidationError):
            QoSPolicy(shard_after=0)
        with pytest.raises(ValidationError):
            QoSPolicy(shard_release=0)

    def test_default_policy_never_shards(self):
        """max_shards=1 (the default) is the legacy detail-only loop:
        identical detail trace, next_shards pinned at 1."""
        legacy = _controller(QoSPolicy(min_detail=0.5, decrease=0.5))
        for frame in range(12):
            self._miss(legacy, frame)
            assert legacy.next_shards == 1

    def test_escalates_only_after_floor_misses(self):
        ctrl = _controller(self.POLICY)
        # Miss 0 drops detail to the floor but was observed above it.
        self._miss(ctrl, 0)
        assert ctrl.at_detail_floor and ctrl.next_shards == 1
        # Two consecutive misses *at* the floor trip the escalation.
        self._miss(ctrl, 1)
        assert ctrl.next_shards == 1
        self._miss(ctrl, 2)
        assert ctrl.next_shards == 2

    def test_climbs_one_shard_at_a_time_to_the_cap(self):
        ctrl = _controller(self.POLICY)
        shards_seen = []
        for frame in range(12):
            self._miss(ctrl, frame)
            shards_seen.append(ctrl.next_shards)
        assert shards_seen == [1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]

    def test_met_frame_resets_floor_miss_streak(self):
        ctrl = _controller(self.POLICY)
        self._miss(ctrl, 0)
        self._miss(ctrl, 1)  # one floor miss accrued
        self._comfortable(ctrl, 2)  # streak broken
        self._miss(ctrl, 3)
        self._miss(ctrl, 4)
        assert ctrl.next_shards == 1  # needs shard_after consecutive again
        self._miss(ctrl, 5)
        assert ctrl.next_shards == 2

    def test_released_after_comfortable_streak(self):
        ctrl = _controller(self.POLICY)
        for frame in range(5):
            self._miss(ctrl, frame)
        assert ctrl.next_shards == 3
        frame = 5
        for _ in range(self.POLICY.shard_release):
            self._comfortable(ctrl, frame)
            frame += 1
        assert ctrl.next_shards == 2
        # A tight (non-comfortable) met frame resets the streak.
        for _ in range(self.POLICY.shard_release - 1):
            self._comfortable(ctrl, frame)
            frame += 1
        ctrl.observe(
            frame=frame, detail=ctrl.next_detail,
            sim_seconds=0.99 * ctrl.deadline.deadline_seconds,
        )
        frame += 1
        for _ in range(self.POLICY.shard_release - 1):
            self._comfortable(ctrl, frame)
            frame += 1
        assert ctrl.next_shards == 2  # streak restarted after the reset
        self._comfortable(ctrl, frame)
        assert ctrl.next_shards == 1

    def test_checkpoint_roundtrip_preserves_escalation(self):
        ctrl = _controller(self.POLICY)
        for frame in range(4):
            self._miss(ctrl, frame)
        clone = _controller(self.POLICY)
        clone.import_state(ctrl.export_state())
        assert clone.next_shards == ctrl.next_shards
        # Both continue identically from the restored counters.
        self._miss(ctrl, 4)
        self._miss(clone, 4)
        assert clone.next_shards == ctrl.next_shards == 3
        assert clone.export_state() == ctrl.export_state()

    def test_legacy_checkpoint_restores_unsharded(self):
        """Pre-escalation checkpoints (no shard fields) restore with
        the defaults: one shard, zeroed counters."""
        from repro.stream.qos import QoSControllerState

        state = QoSControllerState(scale=0.75, frames_observed=5, misses=2)
        ctrl = _controller(self.POLICY)
        ctrl.import_state(state)
        assert ctrl.next_shards == 1

    def test_import_validates_shard_state(self):
        from repro.stream.qos import QoSControllerState

        ctrl = _controller(self.POLICY)
        with pytest.raises(ValidationError, match="shard count"):
            ctrl.import_state(
                QoSControllerState(
                    scale=0.75, frames_observed=1, misses=0, shards=7
                )
            )
        with pytest.raises(ValidationError, match="shard-escalation"):
            ctrl.import_state(
                QoSControllerState(
                    scale=0.75, frames_observed=1, misses=0, floor_misses=-1
                )
            )

    def _escalating_stream(self, policy, cls=FrameStream, **kwargs):
        """Bicycle at detail 0.2 under an unmeetable 10^5 fps deadline:
        the controller drops to the 0.1 floor, then adds shards."""
        spec = CATALOG["bicycle"]
        trajectory = CameraTrajectory.for_scene(
            spec, "orbit", n_frames=8, seed=0, detail=0.2
        )
        controller = QualityController(
            FrameDeadline(1e5), policy, nominal_detail=0.2
        )
        return cls(spec, trajectory, detail=0.2, controller=controller, **kwargs)

    def test_exact_stream_escalates_without_changing_images(self):
        """Sharding is pixel-exact and only shortens the tile-engine
        time, so the images match an unsharded run bit for bit."""
        sharded = self._escalating_stream(
            self.POLICY, keep_images=True, bundle_provider=BundleCache().get
        ).run(8)
        unsharded = self._escalating_stream(
            dataclasses.replace(self.POLICY, max_shards=1),
            keep_images=True,
            bundle_provider=BundleCache().get,
        ).run(8)
        assert [f.shards for f in sharded.frames] == [1, 1, 1, 2, 2, 3, 3, 3]
        assert [f.shards for f in unsharded.frames] == [1] * 8
        pairs = list(zip(sharded.frames, unsharded.frames))
        for a, b in pairs:
            assert a.detail == b.detail
            np.testing.assert_array_equal(a.image, b.image)
            assert a.sim_seconds <= b.sim_seconds
        # Memory-bound frames keep their time; a compute-bound one gains.
        assert any(a.sim_seconds < b.sim_seconds for a, b in pairs)

    def test_digest_tracks_exact_escalation(self):
        table = WorkloadModelTable.calibrate(
            ["bicycle"],
            details=(0.2, 0.1),
            trajectories=("orbit",),
            n_frames=8,
            config=streaming_config(),
            seed=0,
        )
        exact = self._escalating_stream(
            self.POLICY, bundle_provider=BundleCache().get
        ).run(8)
        digest = self._escalating_stream(
            self.POLICY, cls=DigestFrameStream, models=table
        ).run(8)
        agreement = trace_agreement(exact, digest)
        assert agreement.shards_match and agreement.details_match
        assert agreement.max_sim_rel_err <= SIM_SECONDS_REL_TOL
        assert agreement.ok, agreement.mismatches

    def test_reset_returns_to_one_shard(self):
        ctrl = _controller(self.POLICY)
        for frame in range(5):
            self._miss(ctrl, frame)
        assert ctrl.next_shards > 1
        ctrl.reset()
        assert ctrl.next_shards == 1
        assert ctrl.export_state().floor_misses == 0
