"""Deadline-aware adaptive quality control for stream serving.

The paper's premise is *real-time* Gaussian rendering: an AR/VR frame
is only useful if it lands before the display refresh (72/90 Hz).  A
fixed per-session ``detail`` ignores that — heavy scenes simply miss
every deadline while light ones waste quality headroom.  This module
closes the loop:

* :class:`FrameDeadline` — a session's frame budget, derived from a
  target refresh rate;
* :class:`QoSPolicy` — the controller knobs: the detail band the
  controller may walk (relative to the session's nominal detail), the
  multiplicative decrease applied on a deadline miss, the slow
  additive recovery, the recovery hysteresis, and the ladder quantum
  that keeps the set of distinct rendered details finite;
* :class:`QualityController` — a per-session AIMD-style closed loop:
  every observed frame latency (the stream's paper-scale
  ``sim_seconds``) updates the detail the *next* frame renders at.
  Deadline misses cut detail multiplicatively (fast back-off);
  comfortably-met deadlines recover it additively (slow probing), but
  only while the latency margin exceeds the hysteresis band, so the
  controller parks just below the deadline instead of oscillating
  across it;
* :class:`QoSRecord` — the per-frame audit trail (deadline, detail
  used, met/missed, margin) attached to every
  :class:`~repro.stream.pipeline.FrameRecord`;
* :class:`QoSControllerState` — the exported controller state carried
  by :class:`~repro.stream.checkpoint.SessionCheckpoint`, so crash
  recovery and migration replay the *same* detail trace byte for byte.

Determinism: the controller is a pure function of its policy and the
observed latency sequence — identical inputs produce identical detail
ladders, which is what checkpoint replay relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

#: Session quality modes: ``fixed`` only tracks deadlines, ``adaptive``
#: walks the detail ladder (the order :func:`~repro.analysis.streaming.
#: compare_qos` serves them in).
QOS_MODES = ("fixed", "adaptive")


def detail_key(detail: float) -> float:
    """A detail value as a table key: rounded so float noise from the
    ladder's ``rung * nominal_detail`` arithmetic cannot split a rung."""
    return round(float(detail), 6)


@dataclass(frozen=True)
class FrameDeadline:
    """A session's per-frame latency budget, from a target refresh rate."""

    target_fps: float

    def __post_init__(self) -> None:
        if self.target_fps <= 0:
            raise ValidationError("target FPS must be positive")

    @property
    def deadline_seconds(self) -> float:
        """The frame budget: one refresh interval."""
        return 1.0 / self.target_fps

    def met(self, sim_seconds: float) -> bool:
        return sim_seconds <= self.deadline_seconds

    def margin(self, sim_seconds: float) -> float:
        """Seconds of slack (negative when the deadline was missed)."""
        return self.deadline_seconds - sim_seconds


@dataclass(frozen=True)
class QoSPolicy:
    """Knobs of the closed-loop quality controller.

    The detail band is *relative* to the session's nominal detail: a
    session requested at ``detail=0.5`` with ``min_detail=0.25`` may
    drop to an absolute detail of ``0.125``.  At the default nominal
    detail of 1.0 the band reads as absolute detail.

    Attributes
    ----------
    min_detail / max_detail:
        The band the controller may walk, as multiples of the
        session's nominal detail.
    decrease:
        Multiplicative back-off applied to detail on a deadline miss.
    increase:
        Additive recovery step (in detail units, relative scale) for a
        comfortably-met frame.
    hysteresis:
        Recovery dead band: detail only recovers while the latency
        margin exceeds this fraction of the deadline, so the
        controller holds position near the deadline instead of
        climbing into it.
    quantum:
        Detail ladder rung size.  The controller's internal state is
        continuous, but emitted details snap to multiples of the
        quantum — keeping the set of distinct (scene, detail) bundles
        a serve touches finite and cacheable.
    max_shards:
        Ceiling on intra-frame tile sharding.  The default of 1
        disables escalation entirely (the legacy detail-only
        controller).  When larger, a session that keeps missing its
        deadline *at the detail floor* — quality degradation is
        exhausted — escalates to more parallel tile engines instead of
        simply failing every frame.
    shard_after:
        Consecutive deadline misses at the detail floor before the
        controller adds a shard.
    shard_release:
        Consecutive comfortably-met frames (margin above the
        hysteresis band) before one shard is released again, so
        hardware parallelism is returned once quality has recovered.
    """

    min_detail: float = 0.25
    max_detail: float = 1.0
    decrease: float = 0.75
    increase: float = 0.05
    hysteresis: float = 0.1
    quantum: float = 0.05
    max_shards: int = 1
    shard_after: int = 3
    shard_release: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.min_detail <= self.max_detail:
            raise ValidationError(
                "detail band needs 0 < min_detail <= max_detail"
            )
        if not 0 < self.decrease <= 1:
            raise ValidationError("decrease factor must be in (0, 1]")
        if self.increase < 0:
            raise ValidationError("increase step cannot be negative")
        if self.hysteresis < 0:
            raise ValidationError("hysteresis cannot be negative")
        if self.quantum <= 0:
            raise ValidationError("detail quantum must be positive")
        if self.max_shards < 1:
            raise ValidationError("max_shards must be at least 1")
        if self.shard_after < 1 or self.shard_release < 1:
            raise ValidationError(
                "shard escalation thresholds must be at least 1"
            )

    @staticmethod
    def fixed() -> "QoSPolicy":
        """Deadline *tracking* without adaptation.

        The controller pins detail at the nominal value and only
        records met/missed — the baseline the adaptive mode is
        compared against in ``analysis/streaming.py`` and
        ``tests/stream/test_qos.py``.
        """
        return QoSPolicy(min_detail=1.0, max_detail=1.0, increase=0.0)


@dataclass(frozen=True)
class QoSRecord:
    """Per-frame quality-of-service audit record.

    Attributes
    ----------
    frame:
        Stream frame index.
    detail:
        Absolute detail the frame rendered at.
    sim_seconds:
        The frame's paper-scale latency (what the deadline judges).
    deadline_seconds:
        The session's frame budget.
    met:
        Whether the frame landed within the deadline.
    margin_seconds:
        ``deadline - sim_seconds`` (negative on a miss).
    """

    frame: int
    detail: float
    sim_seconds: float
    deadline_seconds: float
    met: bool
    margin_seconds: float


@dataclass(frozen=True)
class QoSControllerState:
    """Exported controller state (checkpointed with the session).

    ``scale`` is the continuous internal detail scale; the counters
    make the controller's cumulative statistics survive recovery.  The
    shard fields default to the legacy (no-escalation) values so
    checkpoints taken before shard escalation existed restore
    unchanged.
    """

    scale: float
    frames_observed: int
    misses: int
    shards: int = 1
    floor_misses: int = 0
    comfortable_streak: int = 0


class QualityController:
    """Closed-loop per-session detail controller (AIMD).

    Parameters
    ----------
    deadline:
        The session's frame budget.
    policy:
        Controller knobs (:class:`QoSPolicy`).
    nominal_detail:
        The session's requested detail; the policy's detail band and
        the emitted absolute details are scaled by it.
    """

    def __init__(
        self,
        deadline: FrameDeadline,
        policy: QoSPolicy | None = None,
        nominal_detail: float = 1.0,
    ) -> None:
        if nominal_detail <= 0:
            raise ValidationError("nominal detail must be positive")
        self.deadline = deadline
        self.policy = QoSPolicy() if policy is None else policy
        self.nominal_detail = float(nominal_detail)
        self._scale = self.policy.max_detail
        self._frames = 0
        self._misses = 0
        self._shards = 1
        self._floor_misses = 0
        self._comfort = 0

    # -- emitted detail -------------------------------------------------
    @property
    def scale(self) -> float:
        """Continuous internal detail scale (before quantization)."""
        return self._scale

    @property
    def next_detail(self) -> float:
        """Absolute detail the next frame should render at.

        The continuous scale snaps to the policy's ladder quantum, so
        consecutive frames reuse the same scene bundle until the
        controller has drifted a full rung.  Equal rungs always emit
        the bit-identical float (``int * quantum * nominal``), so rung
        comparisons and ``(scene, detail)`` cache keys are exact; at
        the band ceiling of 1.0 the emitted detail *is* the nominal
        detail, whatever its binary representation.
        """
        q = self.policy.quantum
        rung = round(self._scale / q) * q
        rung = min(max(rung, self.policy.min_detail), self.policy.max_detail)
        if rung == 1.0:
            return self.nominal_detail
        return rung * self.nominal_detail

    @property
    def next_shards(self) -> int:
        """Tile shards the next frame should render with.

        Stays 1 (no sharding) until the session has exhausted its
        quality band — ``shard_after`` consecutive misses while parked
        at the detail floor — then climbs one shard at a time toward
        the policy's ``max_shards``; released again after
        ``shard_release`` comfortable frames.
        """
        return self._shards

    @property
    def at_detail_floor(self) -> bool:
        """Whether the emitted detail is pinned at the band floor."""
        q = self.policy.quantum
        rung = round(self._scale / q) * q
        return max(rung, self.policy.min_detail) <= self.policy.min_detail

    # -- statistics -----------------------------------------------------
    @property
    def frames_observed(self) -> int:
        return self._frames

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def miss_rate(self) -> float:
        if self._frames == 0:
            return 0.0
        return self._misses / self._frames

    # -- the loop -------------------------------------------------------
    def observe(self, frame: int, detail: float, sim_seconds: float) -> QoSRecord:
        """Account one rendered frame and adapt the next frame's detail.

        ``detail`` is the absolute detail the frame actually rendered
        at (the :attr:`next_detail` the caller read before rendering);
        it is recorded, not re-derived, so the audit trail always
        matches what happened.
        """
        if sim_seconds <= 0:
            raise ValidationError("frame latency must be positive")
        met = self.deadline.met(sim_seconds)
        margin = self.deadline.margin(sim_seconds)
        self._frames += 1
        comfortable = (
            met
            and margin > self.policy.hysteresis * self.deadline.deadline_seconds
        )
        if not met:
            self._misses += 1
            was_at_floor = self.at_detail_floor
            self._scale = max(
                self._scale * self.policy.decrease, self.policy.min_detail
            )
            self._comfort = 0
            # Quality degradation exhausted -> escalate parallelism.
            if was_at_floor and self.policy.max_shards > 1:
                self._floor_misses += 1
                if (
                    self._floor_misses >= self.policy.shard_after
                    and self._shards < self.policy.max_shards
                ):
                    self._shards += 1
                    self._floor_misses = 0
        else:
            self._floor_misses = 0
            if comfortable:
                self._scale = min(
                    self._scale + self.policy.increase, self.policy.max_detail
                )
                if self._shards > 1:
                    self._comfort += 1
                    if self._comfort >= self.policy.shard_release:
                        self._shards -= 1
                        self._comfort = 0
            else:
                self._comfort = 0
        return QoSRecord(
            frame=frame,
            detail=detail,
            sim_seconds=sim_seconds,
            deadline_seconds=self.deadline.deadline_seconds,
            met=met,
            margin_seconds=margin,
        )

    def reset(self) -> None:
        """Return to the initial state (full detail, zero counters)."""
        self._scale = self.policy.max_detail
        self._frames = 0
        self._misses = 0
        self._shards = 1
        self._floor_misses = 0
        self._comfort = 0

    # -- checkpointing --------------------------------------------------
    def export_state(self) -> QoSControllerState:
        """Snapshot the loop state for a session checkpoint."""
        return QoSControllerState(
            scale=self._scale,
            frames_observed=self._frames,
            misses=self._misses,
            shards=self._shards,
            floor_misses=self._floor_misses,
            comfortable_streak=self._comfort,
        )

    def import_state(self, state: QoSControllerState) -> None:
        """Restore loop state captured by :meth:`export_state`."""
        if not (
            self.policy.min_detail <= state.scale <= self.policy.max_detail
        ):
            raise ValidationError(
                f"checkpointed detail scale {state.scale} is outside the "
                f"policy band [{self.policy.min_detail}, "
                f"{self.policy.max_detail}]"
            )
        if state.frames_observed < 0 or not (
            0 <= state.misses <= state.frames_observed
        ):
            raise ValidationError("corrupt QoS controller counters")
        if not 1 <= state.shards <= max(self.policy.max_shards, 1):
            raise ValidationError(
                f"checkpointed shard count {state.shards} is outside the "
                f"policy's [1, {self.policy.max_shards}]"
            )
        if state.floor_misses < 0 or state.comfortable_streak < 0:
            raise ValidationError("corrupt QoS shard-escalation counters")
        self._scale = float(state.scale)
        self._frames = int(state.frames_observed)
        self._misses = int(state.misses)
        self._shards = int(state.shards)
        self._floor_misses = int(state.floor_misses)
        self._comfort = int(state.comfortable_streak)
