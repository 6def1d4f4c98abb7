"""Cache and memory studies: Fig. 17 (hit rate vs capacity), the
Sec. V-A DRAM-pressure measurements, and the replacement-policy
ablation (reuse-distance vs LRU vs FIFO).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dnb import reuse_distance_table, run_dnb
from repro.core.reuse_cache import POLICIES, TemporalReuseSimulator, sweep_cache_sizes
from repro.gaussians import project
from repro.gpu.specs import GBU_SPEC
from repro.scenes import build_scene
from repro.scenes.catalog import CATALOG, AppType, SceneSpec, scenes_of_type

# Fig. 17's x-axis (bytes); 0 KB is the no-cache point.
CACHE_SIZES = tuple(k * 1024 for k in (0, 2, 4, 8, 16, 32, 64))


@dataclass
class CacheSweepResult:
    """Hit-rate curve for one scene."""

    scene: str
    app_type: AppType
    policy: str
    hit_rates: dict[int, float]

    def saturation_size(self, tolerance: float = 0.01) -> int:
        """Smallest capacity whose hit rate is within ``tolerance`` of
        the largest capacity's (the paper picks 32 KB this way)."""
        sizes = sorted(self.hit_rates)
        best = self.hit_rates[sizes[-1]]
        for size in sizes:
            if best - self.hit_rates[size] <= tolerance:
                return size
        return sizes[-1]


def _frame_trace(spec: SceneSpec, frame: int = 0, detail: float = 1.0):
    bundle = build_scene(spec, detail=detail)
    cloud, _ = bundle.frame_cloud(frame)
    projected = project(cloud, bundle.camera)
    dnb = run_dnb(projected)
    return reuse_distance_table(dnb.lists)


def sweep_scene(
    spec_or_name: SceneSpec | str,
    sizes: tuple[int, ...] = CACHE_SIZES,
    policy: str = "reuse_distance",
    detail: float = 1.0,
) -> CacheSweepResult:
    """Fig. 17 for a single scene."""
    spec = CATALOG[spec_or_name] if isinstance(spec_or_name, str) else spec_or_name
    trace, tiles = _frame_trace(spec, detail=detail)
    reports = sweep_cache_sizes(
        trace, tiles, list(sizes), GBU_SPEC.feature_bytes, policy
    )
    return CacheSweepResult(
        scene=spec.name,
        app_type=spec.app_type,
        policy=policy,
        hit_rates={size: report.hit_rate for size, report in reports.items()},
    )


def sweep_app_types(
    sizes: tuple[int, ...] = CACHE_SIZES,
    policy: str = "reuse_distance",
    detail: float = 1.0,
) -> dict[AppType, dict[int, float]]:
    """Fig. 17: average hit-rate curve per application class."""
    curves: dict[AppType, dict[int, float]] = {}
    for app in AppType:
        rates: dict[int, list[float]] = {size: [] for size in sizes}
        for spec in scenes_of_type(app):
            result = sweep_scene(spec, sizes, policy, detail)
            for size, rate in result.hit_rates.items():
                rates[size].append(rate)
        curves[app] = {size: float(np.mean(vals)) for size, vals in rates.items()}
    return curves


@dataclass
class PolicyComparison:
    """Replacement-policy ablation at the shipping 32 KB capacity."""

    scene: str
    hit_rates: dict[str, float]

    @property
    def rd_advantage_over_lru(self) -> float:
        return self.hit_rates["reuse_distance"] - self.hit_rates["lru"]


def compare_policies(
    spec_or_name: SceneSpec | str,
    capacity_bytes: int = 32 * 1024,
    detail: float = 1.0,
) -> PolicyComparison:
    """Reuse-distance vs LRU vs FIFO on one frame's trace."""
    spec = CATALOG[spec_or_name] if isinstance(spec_or_name, str) else spec_or_name
    trace, tiles = _frame_trace(spec, detail=detail)
    lines = capacity_bytes // GBU_SPEC.feature_bytes
    rates = {
        name: TemporalReuseSimulator(lines, GBU_SPEC.feature_bytes, name)
        .observe_frame(trace, tiles)
        .report.hit_rate
        for name in POLICIES
    }
    return PolicyComparison(scene=spec.name, hit_rates=rates)


@dataclass
class MemoryPressure:
    """Sec. V-A numbers for one scene."""

    scene: str
    traffic_reduction: float
    pipeline_slowdown_without_cache: float


def memory_pressure(
    spec_or_name: SceneSpec | str, detail: float = 1.0
) -> MemoryPressure:
    """Cache traffic reduction (44.9%) and the end-to-end cost of
    removing the cache (13.5% in Sec. V-A)."""
    from repro.analysis.endtoend import evaluate_scene  # local: avoid cycle

    spec = CATALOG[spec_or_name] if isinstance(spec_or_name, str) else spec_or_name
    with_cache = evaluate_scene(spec, "gbu_full", detail=detail)
    without = evaluate_scene(spec, "gbu_dnb", detail=detail)
    return MemoryPressure(
        scene=spec.name,
        traffic_reduction=with_cache.gbu_report.cache.traffic_reduction,
        pipeline_slowdown_without_cache=(
            without.frame_seconds / with_cache.frame_seconds - 1.0
        ),
    )
