"""Seeded open-loop synthetic traffic for fleet-scale serving.

Serving experiments so far enumerated their session lists by hand
(``skewed_session_mix``, ``qos_session_mix``).  That does not scale to
fleet-level questions — *when* do sessions arrive, in what mix, under
what daily load shape?  This module generates serving scenarios
instead of enumerating them:

* :class:`SessionArchetype` — a client population: scene, trajectory
  kind, frame-count range, detail, optional per-session target-FPS
  choices, and a sampling weight;
* :data:`MIXES` — named archetype blends (``heavy``, ``light``,
  ``dynamic``, ``mixed``) covering the paper's three application
  classes;
* :class:`RateProfile` — the arrival-rate shape over the generation
  window: ``constant``, ``diurnal`` (trough → peak → trough, a
  compressed day) or ``ramp`` (linear ramp-up, the flash-crowd /
  launch-day shape);
* :class:`TrafficGenerator` — an *open-loop* Poisson process: arrival
  times are drawn from the (possibly time-varying) rate by thinning,
  independent of how fast the fleet serves — the load model used for
  capacity studies, because closed loops hide overload.

Everything is driven by one ``numpy`` generator seeded at
construction: the same ``(mix, rate, duration, seed)`` produce the
bitwise-identical arrival sequence, session ids, trajectories and
target-FPS draws, on any host.  Tests and benchmarks rely on this to
assert on generated scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream.pipeline import PIPELINES
from repro.stream.server import StreamSession
from repro.stream.trajectory import CameraTrajectory


@dataclass(frozen=True)
class SessionArchetype:
    """One client population the generator samples sessions from.

    Attributes
    ----------
    name:
        Label used in generated session ids (``"{name}-{n:04d}"``).
    scene:
        Catalog scene every session of this archetype streams.
    trajectory:
        Camera-path kind (``orbit``/``dolly``/``head_jitter``/
        ``frozen``).
    frames:
        Inclusive ``(lo, hi)`` range the per-session frame count is
        drawn from.
    detail:
        Scene detail multiplier (scaled further by the generator's
        global ``detail``).
    target_fps:
        Per-session deadline choices; one value is drawn per session
        (``None``: the archetype streams without QoS control).
    weight:
        Relative sampling weight within a mix.
    """

    name: str
    scene: str
    trajectory: str = "orbit"
    frames: tuple[int, int] = (8, 16)
    detail: float = 1.0
    target_fps: tuple[float, ...] | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.scene not in CATALOG:
            raise ValidationError(f"unknown scene '{self.scene}'")
        lo, hi = self.frames
        if lo < 1 or hi < lo:
            raise ValidationError(
                f"frame range {self.frames} needs 1 <= lo <= hi"
            )
        if self.detail <= 0:
            raise ValidationError("archetype detail must be positive")
        if self.weight <= 0:
            raise ValidationError("archetype weight must be positive")
        if self.target_fps is not None and any(
            f <= 0 for f in self.target_fps
        ):
            raise ValidationError("target FPS choices must be positive")


#: Named archetype blends.  ``heavy`` stresses the large outdoor
#: scenes, ``light`` is short avatar streams, ``dynamic`` exercises the
#: temporal scenes, and ``mixed`` blends all three classes the way a
#: shared edge deployment would see them (with a QoS-controlled slice).
MIXES: dict[str, tuple[SessionArchetype, ...]] = {
    "heavy": (
        SessionArchetype("heavy", "bicycle", "orbit", (10, 16)),
        SessionArchetype(
            "heavy-indoor", "kitchen", "head_jitter", (8, 14), weight=0.5
        ),
    ),
    "light": (
        SessionArchetype("light", "female_4", "head_jitter", (4, 8)),
        SessionArchetype("light-m", "male_3", "orbit", (4, 8), weight=0.5),
    ),
    "dynamic": (
        SessionArchetype("dyn", "flame_steak", "head_jitter", (6, 12)),
        SessionArchetype("dyn-sear", "sear_steak", "orbit", (6, 12), weight=0.5),
    ),
    "mixed": (
        SessionArchetype("heavy", "bicycle", "orbit", (10, 16), weight=0.6),
        SessionArchetype(
            "heavy-qos",
            "bicycle",
            "head_jitter",
            (8, 12),
            target_fps=(72.0, 90.0),
            weight=0.4,
        ),
        SessionArchetype("light", "female_4", "head_jitter", (4, 8), weight=1.0),
        SessionArchetype("dyn", "flame_steak", "head_jitter", (6, 12), weight=0.5),
    ),
}

#: Rate-profile kinds accepted by :class:`RateProfile`.
PROFILES = ("constant", "diurnal", "ramp")

#: Ceiling on the *expected* candidate-arrival draws of one
#: :meth:`TrafficGenerator.generate` call (``rate x duration``).
#: Thinning draws one candidate per ``1/rate`` seconds regardless of
#: how many survive, so a runaway rate would spin the generation loop
#: (and the fleet's tick budget downstream) long before producing a
#: usable scenario; uncapped generators above this raise
#: :class:`~repro.errors.ValidationError` at construction.
MAX_CANDIDATE_ARRIVALS = 2_000_000


@dataclass(frozen=True)
class RateProfile:
    """Arrival-rate shape over the generation window.

    The profile is a multiplier on the generator's peak ``rate``:
    ``constant`` stays at 1; ``diurnal`` runs trough → peak → trough
    over the window (one compressed day, a raised-cosine); ``ramp``
    climbs linearly from the trough to the peak (flash crowd).
    ``floor`` is the trough fraction of peak.
    """

    kind: str = "constant"
    floor: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in PROFILES:
            raise ValidationError(
                f"unknown rate profile '{self.kind}'; choose from "
                + ", ".join(PROFILES)
            )
        if not 0 < self.floor <= 1:
            raise ValidationError("profile floor must be in (0, 1]")

    def multiplier(self, phase: float) -> float:
        """Rate multiplier in ``(0, 1]`` at ``phase`` in ``[0, 1]``."""
        phase = min(max(phase, 0.0), 1.0)
        if self.kind == "constant":
            return 1.0
        if self.kind == "ramp":
            return self.floor + (1.0 - self.floor) * phase
        # diurnal: raised cosine, trough at both window edges.
        return self.floor + (1.0 - self.floor) * 0.5 * (
            1.0 - float(np.cos(2.0 * np.pi * phase))
        )

    def multiplier_array(self, phases: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`multiplier` for analytic validation.

        High-rate tests integrate the profile over 10^5+ arrival
        phases to predict counts; element-wise identical to the scalar
        path.
        """
        phases = np.clip(np.asarray(phases, dtype=np.float64), 0.0, 1.0)
        if self.kind == "constant":
            return np.ones_like(phases)
        if self.kind == "ramp":
            return self.floor + (1.0 - self.floor) * phases
        return self.floor + (1.0 - self.floor) * 0.5 * (
            1.0 - np.cos(2.0 * np.pi * phases)
        )

    @property
    def mean_multiplier(self) -> float:
        """Window-averaged multiplier (the thinning acceptance rate).

        ``constant`` is 1; ``ramp`` averages the linear climb and
        ``diurnal`` the raised cosine — both integrate to the midpoint
        of floor and peak over one window.
        """
        if self.kind == "constant":
            return 1.0
        return 0.5 * (1.0 + self.floor)


@dataclass(frozen=True)
class SessionArrival:
    """One generated arrival: when the client shows up, and its request."""

    time: float
    session: StreamSession

    @property
    def session_id(self) -> str:
        return self.session.session_id


class TrafficGenerator:
    """Open-loop Poisson session traffic over a named (or custom) mix.

    Parameters
    ----------
    mix:
        A key of :data:`MIXES` or an explicit archetype tuple.
    rate:
        Peak arrival rate in sessions per simulated second; the
        instantaneous rate is ``rate * profile.multiplier(t/duration)``.
    duration:
        Generation window in simulated seconds (arrivals beyond it are
        not generated — the fleet keeps serving until drained).
    seed:
        Seeds every draw: arrival times, archetype choices, frame
        counts, trajectory seeds/phases, target-FPS picks.
    profile:
        Arrival-rate shape (default: constant).
    detail:
        Global detail multiplier applied on top of each archetype's
        detail (tests and smokes use < 1).
    max_sessions:
        Optional hard cap on generated sessions (safety valve for
        high-rate sweeps).
    pipeline:
        Frame-pipeline mode stamped on every generated session
        (``"exact"`` or ``"digest"``); digest scenarios are how the
        fleet reaches 10^5+ concurrent sessions.
    compact:
        Build one-pose camera trajectories and carry the drawn frame
        count on ``StreamSession.n_frames``.  Draw-for-draw identical
        RNG consumption, so arrival times, session ids, frame budgets,
        details and target-FPS picks are bitwise identical to the full
        build.  Trajectories build their poses on demand, so this no
        longer saves generation time; compact sessions still cannot
        feed the exact pipeline's content-addressed cache (no per-frame
        poses).
    """

    def __init__(
        self,
        mix: str | Iterable[SessionArchetype] = "mixed",
        rate: float = 2.0,
        duration: float = 8.0,
        seed: int = 0,
        profile: RateProfile | None = None,
        detail: float = 1.0,
        max_sessions: int | None = None,
        pipeline: str = "exact",
        compact: bool = False,
    ) -> None:
        if isinstance(mix, str):
            if mix not in MIXES:
                raise ValidationError(
                    f"unknown traffic mix '{mix}'; choose from "
                    + ", ".join(sorted(MIXES))
                )
            archetypes = MIXES[mix]
            self.mix_name = mix
        else:
            archetypes = tuple(mix)
            self.mix_name = "custom"
        if not archetypes:
            raise ValidationError("traffic mix needs at least one archetype")
        if rate <= 0:
            raise ValidationError("arrival rate must be positive")
        if duration <= 0:
            raise ValidationError("traffic duration must be positive")
        if detail <= 0:
            raise ValidationError("traffic detail must be positive")
        if max_sessions is not None and max_sessions < 1:
            raise ValidationError("max_sessions must be at least 1 when set")
        if seed < 0:
            raise ValidationError("traffic seed cannot be negative")
        if pipeline not in PIPELINES:
            raise ValidationError(
                f"unknown pipeline '{pipeline}'; choose from "
                + ", ".join(PIPELINES)
            )
        if max_sessions is None and rate * duration > MAX_CANDIDATE_ARRIVALS:
            raise ValidationError(
                f"rate {rate:g}/s over {duration:g}s implies "
                f"~{rate * duration:.0f} arrival candidates, overflowing "
                f"the generation budget of {MAX_CANDIDATE_ARRIVALS}; cap "
                "the scenario with max_sessions or lower the rate"
            )
        self.archetypes = archetypes
        self.rate = float(rate)
        self.duration = float(duration)
        self.seed = int(seed)
        self.profile = RateProfile() if profile is None else profile
        self.detail = float(detail)
        self.max_sessions = max_sessions
        self.pipeline = pipeline
        self.compact = bool(compact)
        weights = np.array([a.weight for a in archetypes], dtype=np.float64)
        self._weights = weights / weights.sum()

    def expected_sessions(self) -> float:
        """Analytically expected surviving-arrival count.

        The thinned process keeps candidates (drawn at the peak rate)
        with probability ``profile.multiplier``, so the expectation is
        ``rate x duration x mean_multiplier`` — the number high-rate
        validation compares generated counts against (and the capacity
        planner's first input).  ``max_sessions`` truncates it.
        """
        expected = self.rate * self.duration * self.profile.mean_multiplier
        if self.max_sessions is not None:
            expected = min(expected, float(self.max_sessions))
        return expected

    def _build_session(
        self, rng: np.random.Generator, index: int
    ) -> StreamSession:
        arch = self.archetypes[
            int(rng.choice(len(self.archetypes), p=self._weights))
        ]
        lo, hi = arch.frames
        n_frames = int(rng.integers(lo, hi + 1))
        detail = arch.detail * self.detail
        spec = CATALOG[arch.scene]
        # The compact branch consumes the RNG identically (same draws,
        # same order) — only the trajectory's length shrinks.
        trajectory = CameraTrajectory.for_scene(
            spec,
            kind=arch.trajectory,
            n_frames=1 if self.compact else n_frames,
            seed=int(rng.integers(0, 2**31 - 1)),
            detail=detail,
            phase_deg=float(rng.uniform(0.0, 360.0)),
        )
        target_fps = None
        if arch.target_fps is not None:
            target_fps = float(
                arch.target_fps[int(rng.integers(0, len(arch.target_fps)))]
            )
        return StreamSession(
            session_id=f"{arch.name}-{index:04d}",
            scene=arch.scene,
            trajectory=trajectory,
            n_frames=n_frames if self.compact else None,
            detail=detail,
            target_fps=target_fps,
            pipeline=self.pipeline,
        )

    def generate(self) -> list[SessionArrival]:
        """Draw the full arrival sequence (sorted by arrival time).

        Non-homogeneous Poisson sampling by thinning: candidate gaps
        are exponential at the peak rate; each candidate survives with
        probability ``profile.multiplier(t / duration)``.  Every draw
        comes from one seeded generator, so the whole scenario is a
        pure function of the constructor arguments.
        """
        rng = np.random.default_rng(self.seed)
        arrivals: list[SessionArrival] = []
        t = 0.0
        index = 0
        while True:
            t += float(rng.exponential(1.0 / self.rate))
            if t >= self.duration:
                break
            if rng.uniform() > self.profile.multiplier(t / self.duration):
                continue
            arrivals.append(
                SessionArrival(time=t, session=self._build_session(rng, index))
            )
            index += 1
            if self.max_sessions is not None and index >= self.max_sessions:
                break
        return arrivals

    def generate_sessions(self) -> list[StreamSession]:
        """Just the session descriptors (closed-loop studies, benchmarks)."""
        return [a.session for a in self.generate()]
