"""Fleet-wide content-addressed render cache with cross-session dedup.

The paper's reuse cache exploits *inter-frame* redundancy on one
device; this module exploits *inter-viewer* redundancy across the
fleet.  A thousand users orbiting the same scene demand the same
frames, so one render product can serve many clients (the SplatBus
pattern: decouple the renderer from its viewers).

Architecture — four tiers chained by parent pointers::

    session tier (per stream)            8 MB
        └── worker tier (per worker)    32 MB
                └── node tier (per server/node)   64 MB
                        └── fleet tier (per EdgeFleet)  128 MB

A lookup walks the chain bottom-up; a hit at an ancestor *fills down*
(promotes the frame into every tier below the hit) so subsequent
lookups from the same session stay local.  A miss renders, then
write-through inserts the product into every tier up the chain.
Eviction is GreedyDual-Size: score ``(1 + hits) * compute_seconds``
(popularity times render cost), evict the minimum, least-recently-used
tiebreak — cheap unpopular frames go first.

Key derivation — the content address of a frame is a SHA-256 digest
over exactly the inputs that determine its pixels and timing:

1. **Scene content** — ``repr(SceneSpec)``: the spec is frozen and
   fully determines the generated scene (deterministic build).
2. **Camera intrinsics** — width/height/fx/fy/cx/cy.
3. **Quantized camera pose** — with ``pose_quant == q > 0``, the eye
   position's lattice cell ``floor(eye / q)``; viewers whose eyes fall
   in the same cell share a key.  With ``q == 0`` the exact pose bytes
   (rotation + translation) are the key: only bit-identical poses
   dedup.
4. **Animation clock** — ``SceneBundle.frame_clock(k)``, so dynamic
   scenes only dedup frames showing the same animation phase.
5. **Detail rung** — the LoD the frame was rendered at.
6. **Render mode** — the frame's shard count plus fp16, row
   interleaving and cross-tile overlap: everything in
   :class:`~repro.core.gbu.GBUConfig` that changes pixels or compute
   cycles.  ``cache_policy`` is deliberately *excluded*: the temporal
   cache policy changes neither the image nor the trace, and each
   session replays the cached trace through its own policy anyway.

Pose quantization snaps the *eye position only* to the cell center and
rebuilds the camera with :meth:`Camera.look_at` toward the scene
origin (all repository trajectories aim at the origin); quantizing
rotation-matrix elements directly would break orthonormality.  The
snapped camera is what actually gets rendered — canonical-pose
rendering — so a dedup-served image is byte-identical to what a fresh
render at the canonical pose produces, regardless of cache
temperature.

Correctness contract: a cache hit short-circuits only the *functional*
render.  Timing and temporal state advance exactly as a fresh render
would — the cached feature trace is replayed through the session's own
:class:`~repro.core.reuse_cache.TemporalReuseSimulator`, and step-3
seconds are recomputed with
:meth:`~repro.core.gbu.GBUDevice.replay_step3_seconds` (bit-identical
arithmetic).  The dedup benefit is host wall-clock, never simulated
physics, which is why checkpoint/restore and cross-node migration stay
byte-identical whether the cache was warm, cold, or mid-eviction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.gbu import GBUConfig
from repro.core.reuse_cache import CacheEconomics
from repro.errors import ValidationError
from repro.gaussians.camera import Camera
from repro.scenes.catalog import SceneBundle, SceneSpec, build_scene

#: Tier levels, innermost first — the lookup walk order.
TIER_LEVELS = ("session", "worker", "node", "fleet")

_MB = 1024 * 1024


@dataclass(frozen=True)
class ContentCacheConfig:
    """Knobs of the content-addressed cache (picklable: crosses the
    process boundary to subprocess workers).

    Attributes
    ----------
    pose_quant:
        Eye-position lattice pitch in scene units.  ``0.0`` disables
        snapping: only bit-identical poses share a key.
    session_bytes / worker_bytes / node_bytes / fleet_bytes:
        Per-tier capacity in bytes of cached frame payloads.
    """

    pose_quant: float = 0.0
    session_bytes: int = 8 * _MB
    worker_bytes: int = 32 * _MB
    node_bytes: int = 64 * _MB
    fleet_bytes: int = 128 * _MB

    def __post_init__(self) -> None:
        if self.pose_quant < 0:
            raise ValidationError("pose_quant must be >= 0")
        for level in TIER_LEVELS:
            if getattr(self, f"{level}_bytes") < 0:
                raise ValidationError(f"{level}_bytes must be >= 0")

    def tier_bytes(self, level: str) -> int:
        return getattr(self, f"{level}_bytes")


def canonical_camera(camera: Camera, pose_quant: float) -> Camera:
    """The camera actually rendered under pose quantization.

    Snaps the eye position to the center of its lattice cell and
    rebuilds the view toward the scene origin, recovering the vertical
    field of view from ``fy`` (the same formula the jitter trajectory
    uses).  With ``pose_quant == 0`` the camera is returned unchanged,
    so the exact-pose path renders exactly what the viewer asked for.
    """
    if pose_quant <= 0.0:
        return camera
    cell = np.floor(camera.position / pose_quant)
    snapped_eye = (cell + 0.5) * pose_quant
    fov_y_deg = float(2.0 * np.rad2deg(np.arctan(0.5 * camera.height / camera.fy)))
    return Camera.look_at(
        snapped_eye,
        np.zeros(3),
        width=camera.width,
        height=camera.height,
        fov_y_deg=fov_y_deg,
    )


def pose_cell(camera: Camera, pose_quant: float) -> tuple[int, int, int]:
    """The eye position's lattice cell (the dedup equivalence class)."""
    if pose_quant <= 0.0:
        raise ValidationError("pose_cell requires pose_quant > 0")
    cell = np.floor(camera.position / pose_quant)
    return tuple(int(c) for c in cell)


def render_mode_key(
    fp16: bool,
    shards: int,
    interleaved_rows: bool,
    cross_tile_overlap: bool,
) -> tuple:
    """The render-mode component of the content address.

    Everything that changes pixels or compute cycles; the temporal
    ``cache_policy`` is excluded on purpose (see module docstring).
    """
    return (fp16, shards, interleaved_rows, cross_tile_overlap)


def render_mode(config: GBUConfig, shards: int) -> tuple:
    """The render mode of one frame rendered on ``shards``.

    Exactly what the exact pipeline's device renders with: every
    config knob that changes pixels or compute cycles.  The exact and digest pipelines both key frames through
    this one function, so their content keys agree by construction.
    """
    return render_mode_key(
        config.fp16,
        shards,
        config.interleaved_rows,
        config.cross_tile_overlap,
    )


def frame_content_key(
    spec: SceneSpec,
    camera: Camera,
    frame_clock: int,
    detail: float,
    mode: tuple,
    pose_quant: float,
) -> str:
    """SHA-256 content address of one frame (hex digest)."""
    h = hashlib.sha256()
    h.update(repr(spec).encode())
    intrinsics = (
        camera.width, camera.height,
        float(camera.fx), float(camera.fy),
        float(camera.cx), float(camera.cy),
    )
    h.update(repr(intrinsics).encode())
    if pose_quant > 0.0:
        h.update(repr(("cell", pose_cell(camera, pose_quant), float(pose_quant))).encode())
    else:
        h.update(b"exact")
        h.update(np.ascontiguousarray(camera.rotation).tobytes())
        h.update(np.ascontiguousarray(camera.translation).tobytes())
    h.update(repr((int(frame_clock), float(detail), mode)).encode())
    return h.hexdigest()


@dataclass
class CachedFrame:
    """One interned render product: the image plus everything a peer
    session needs to replay the frame's timing as its own.

    ``image`` is marked read-only at insert time — every viewer shares
    the same buffer.
    """

    key: str
    image: np.ndarray
    trace: np.ndarray
    tiles: np.ndarray
    compute_seconds: float
    n_visible: int
    n_instances: int
    extra_flops: float
    nbytes: int = 0

    def __post_init__(self) -> None:
        self.image.setflags(write=False)
        self.trace.setflags(write=False)
        self.tiles.setflags(write=False)
        if self.nbytes == 0:
            self.nbytes = int(
                self.image.nbytes + self.trace.nbytes + self.tiles.nbytes
            )


@dataclass
class _Entry:
    frame: CachedFrame
    hits: int = 0
    seq: int = 0

    def score(self) -> float:
        """GreedyDual-Size eviction score: popularity times render
        cost.  Cheap unpopular frames evict first."""
        return (1 + self.hits) * self.frame.compute_seconds


class CacheTier:
    """One tier of the content cache, chained to its parent.

    Tiers are dumb byte-bounded stores; lookup-chain walking and
    economics attribution live in :class:`SessionContentView` so each
    session's stats are attributed to the tick that incurred them.
    """

    def __init__(
        self, level: str, capacity_bytes: int, parent: "CacheTier | None" = None
    ) -> None:
        if level not in TIER_LEVELS:
            raise ValidationError(f"unknown tier level '{level}'")
        self.level = level
        self.capacity_bytes = capacity_bytes
        self.parent = parent
        self._entries: dict[str, _Entry] = {}
        self._bytes = 0
        self._seq = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> CachedFrame | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.hits += 1
        self._seq += 1
        entry.seq = self._seq
        return entry.frame

    def put(self, frame: CachedFrame) -> None:
        """Insert ``frame``, evicting minimum-score entries to fit.

        A frame larger than the whole tier is not stored (it would
        evict everything and then itself); a re-inserted key only
        refreshes recency.
        """
        if frame.nbytes > self.capacity_bytes:
            return
        existing = self._entries.get(key := frame.key)
        self._seq += 1
        if existing is not None:
            existing.seq = self._seq
            return
        self._entries[key] = _Entry(frame=frame, seq=self._seq)
        self._bytes += frame.nbytes
        while self._bytes > self.capacity_bytes and len(self._entries) > 1:
            victim_key = min(
                (k for k in self._entries if k != key),
                key=lambda k: (self._entries[k].score(), self._entries[k].seq),
            )
            self._bytes -= self._entries.pop(victim_key).frame.nbytes
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self._seq = 0
        self.evictions = 0


def make_tier_chain(
    config: ContentCacheConfig,
    levels: tuple[str, ...] = TIER_LEVELS,
    parent: CacheTier | None = None,
) -> CacheTier:
    """Build a chain of tiers (innermost returned), outermost attached
    to ``parent``.  Callers that own only part of the hierarchy (a
    worker owns session+worker; a server owns node; a fleet owns fleet)
    build their segment and point it at the segment above.
    """
    tier = parent
    for level in reversed(levels):
        tier = CacheTier(level, config.tier_bytes(level), parent=tier)
    assert tier is not None
    return tier


class SessionContentView:
    """One session's window onto the tier chain.

    Owns the innermost (session) tier, walks the chain on lookup,
    fills hits down, write-through inserts on miss, and attributes
    per-tier economics to *this* session so the serving layers can
    drain them per tick.
    """

    def __init__(self, config: ContentCacheConfig, session_tier: CacheTier) -> None:
        self.config = config
        self.tier = session_tier
        self._stats: dict[str, dict[str, float]] = {}
        #: Tiers that missed on the most recent total-miss lookup;
        #: their miss/total bytes are attributed when the rendered
        #: frame arrives via :meth:`insert` (its size is unknown until
        #: then).
        self._pending_miss: list[CacheTier] = []

    def canonical_camera(self, camera: Camera) -> Camera:
        return canonical_camera(camera, self.config.pose_quant)

    def frame_key(
        self,
        spec: SceneSpec,
        camera: Camera,
        frame_clock: int,
        detail: float,
        mode: tuple,
    ) -> str:
        return frame_content_key(
            spec, camera, frame_clock, detail, mode, self.config.pose_quant
        )

    def _level_stats(self, level: str) -> dict[str, float]:
        return self._stats.setdefault(
            level,
            {"accesses": 0, "hits": 0, "misses": 0, "miss_bytes": 0.0, "total_bytes": 0.0},
        )

    def lookup(self, key: str) -> tuple[CachedFrame, str] | None:
        """Walk the chain for ``key``; fill a hit down; track stats.

        Returns ``(frame, level)`` on a hit, ``None`` on a total miss
        (byte attribution for the missed tiers is deferred to
        :meth:`insert`).
        """
        self._pending_miss = []
        missed: list[CacheTier] = []
        tier: CacheTier | None = self.tier
        while tier is not None:
            frame = tier.get(key)
            stats = self._level_stats(tier.level)
            stats["accesses"] += 1
            if frame is not None:
                stats["hits"] += 1
                stats["total_bytes"] += frame.nbytes
                for lower in missed:
                    s = self._level_stats(lower.level)
                    s["misses"] += 1
                    s["miss_bytes"] += frame.nbytes
                    s["total_bytes"] += frame.nbytes
                    lower.put(frame)
                return frame, tier.level
            missed.append(tier)
            tier = tier.parent
        self._pending_miss = missed
        return None

    def insert(self, frame: CachedFrame) -> None:
        """Write-through insert after a miss rendered ``frame``.

        Also settles the byte attribution the preceding :meth:`lookup`
        left pending (the frame's size was unknown at lookup time).
        """
        for tier in self._pending_miss:
            stats = self._level_stats(tier.level)
            stats["misses"] += 1
            stats["miss_bytes"] += frame.nbytes
            stats["total_bytes"] += frame.nbytes
        self._pending_miss = []
        tier: CacheTier | None = self.tier
        while tier is not None:
            tier.put(frame)
            tier = tier.parent

    def drain(self) -> dict[str, CacheEconomics]:
        """This session's per-tier economics since the last drain."""
        out = {
            level: CacheEconomics(
                accesses=int(s["accesses"]),
                hits=int(s["hits"]),
                misses=int(s["misses"]),
                miss_bytes=s["miss_bytes"],
                total_bytes=s["total_bytes"],
            )
            for level, s in self._stats.items()
            if s["accesses"]
        }
        self._stats = {}
        return out


def merge_economics(
    into: dict[str, CacheEconomics], delta: dict[str, CacheEconomics]
) -> dict[str, CacheEconomics]:
    """Fold ``delta`` into ``into`` (in place; returned for chaining)."""
    for level, econ in delta.items():
        into[level] = into.get(level, CacheEconomics()) + econ
    return into


def economics_to_dict(economics: dict[str, CacheEconomics]) -> dict[str, dict]:
    """JSON-safe view of a per-tier economics mapping, in tier order."""
    return {
        level: economics[level].to_dict()
        for level in TIER_LEVELS
        if level in economics
    }


@dataclass
class BundleIntern:
    """Shared immutable scene-bundle interning across workers.

    Scene bundles are deterministic functions of ``(scene, detail)``
    and never mutated after build, so co-located workers can share one
    object instead of each building (and holding) its own copy.  Used
    as the ``builder`` of each worker's
    :class:`~repro.scenes.catalog.BundleCache` in local/fleet mode;
    subprocess workers cannot share memory and keep the default
    builder.
    """

    _bundles: dict[tuple[str, float], SceneBundle] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def build(self, scene: SceneSpec | str, detail: float = 1.0) -> SceneBundle:
        name = scene if isinstance(scene, str) else scene.name
        key = (name, float(detail))
        bundle = self._bundles.get(key)
        if bundle is not None:
            self.hits += 1
            return bundle
        self.misses += 1
        bundle = build_scene(scene, detail=detail)
        self._bundles[key] = bundle
        return bundle

    def clear(self) -> None:
        self._bundles.clear()
        self.hits = 0
        self.misses = 0
