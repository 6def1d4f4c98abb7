"""The experiment registry: one runner per table/figure of the paper.

Each runner returns an :class:`ExperimentOutput` holding structured
results plus a formatted table that prints the same rows/series the
paper reports.  Benchmarks call these; EXPERIMENTS.md records their
output next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis import ablation as ablation_mod
from repro.analysis import cache_study, literature, profiling, quality, scaling
from repro.analysis import standalone_study, streaming
from repro.analysis.endtoend import evaluate_all_configs
from repro.errors import ValidationError
from repro.metrics.energy import EnergyModel
from repro.scenes.catalog import EVALUATION_SCENES
from repro.tables import format_table


@dataclass
class ExperimentOutput:
    """A runnable experiment's rendered output.

    Attributes
    ----------
    experiment:
        Registry key ("fig14", "tab5", ...).
    table:
        Plain-text table mirroring the paper's rows/series.
    data:
        Structured results for programmatic checks.
    """

    experiment: str
    table: str
    data: object


def fig1_landscape(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 1: quality/speed landscape (reported values)."""
    rows = [
        [m.name, m.family, m.app_type, m.psnr, m.fps]
        for m in literature.FIG1_LANDSCAPE
    ]
    table = format_table(["method", "family", "app", "PSNR", "FPS"], rows)
    return ExperimentOutput("fig1", table, literature.FIG1_LANDSCAPE)


def tab1_datasets(detail: float = 1.0) -> ExperimentOutput:
    """Tab. I: the scene catalog and its paper-side metadata."""
    from repro.scenes.catalog import CATALOG

    rows = []
    for name in EVALUATION_SCENES:
        spec = CATALOG[name]
        rows.append(
            [
                name,
                spec.app_type.value,
                f"{spec.width}x{spec.height}",
                f"{spec.paper_resolution[0]}x{spec.paper_resolution[1]}",
                spec.n_gaussians,
                spec.paper_n_gaussians,
                spec.workload_scale,
            ]
        )
    table = format_table(
        ["scene", "type", "sim res", "paper res", "sim N", "paper N", "scale"],
        rows,
    )
    return ExperimentOutput("tab1", table, rows)


def fig4_fig5_profile(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 4 + Fig. 5: baseline render time and stage breakdown."""
    profiles = profiling.profile_evaluation_scenes(detail=detail)
    rows = []
    for p in profiles:
        f1, f2, f3 = p.breakdown.fractions
        rows.append(
            [
                p.scene,
                p.app_type.value,
                p.breakdown.total_s * 1e3,
                p.breakdown.fps,
                f1,
                f2,
                f3,
            ]
        )
    table = format_table(
        ["scene", "type", "ms/frame", "FPS", "step1", "step2", "step3"], rows
    )
    return ExperimentOutput("fig4_fig5", table, profiles)


def fig6_flops(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 6 + Challenge 1/2: per-fragment FLOPs and redundancy."""
    profiles = profiling.profile_evaluation_scenes(detail=detail)
    rows = []
    for p in profiles:
        comp = p.comparison
        irss_per_frag = (
            comp.irss_flops / comp.irss_fragments if comp.irss_fragments else 0.0
        )
        rows.append(
            [
                p.scene,
                p.fragment_ratio,
                p.significant_fraction,
                comp.fragment_skip_rate,
                11.0,
                irss_per_frag,
                comp.per_fragment_reduction,
            ]
        )
    table = format_table(
        [
            "scene",
            "frag/gauss",
            "sig frac",
            "skip rate",
            "PFS FLOPs",
            "IRSS FLOPs",
            "reduction",
        ],
        rows,
    )
    return ExperimentOutput("fig6", table, profiles)


def fig9_row_workload(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 9: per-row workload imbalance on a static scene."""
    rows_hist = profiling.per_row_workload_histogram("bonsai", detail=detail)
    imbalance = profiling.row_imbalance_ratio(rows_hist)
    quantiles = np.percentile(rows_hist, [50, 90, 99, 100])
    table = format_table(
        ["metric", "value"],
        [
            ["rows profiled", int(rows_hist.size)],
            ["median fragments/row", float(quantiles[0])],
            ["p90 fragments/row", float(quantiles[1])],
            ["p99 fragments/row", float(quantiles[2])],
            ["max fragments/row", float(quantiles[3])],
            ["max/mean imbalance in tiles", imbalance],
        ],
    )
    return ExperimentOutput("fig9", table, {"histogram": rows_hist, "imbalance": imbalance})


def sec4d_irss_gpu(detail: float = 1.0) -> ExperimentOutput:
    """Sec. IV-D: IRSS as a CUDA kernel (13 -> 22 FPS, -59% step 3)."""
    result = ablation_mod.irss_on_gpu(detail=detail)
    table = format_table(
        ["metric", "measured", "paper"],
        [
            ["baseline FPS", result.baseline_fps, 12.8],
            ["IRSS-GPU FPS", result.irss_fps, 22.0],
            ["speedup", result.speedup, 1.71],
            ["step-3 latency reduction", result.step3_reduction, 0.59],
            ["IRSS SIMT utilization", result.irss_step3_utilization, 0.189],
        ],
    )
    return ExperimentOutput("sec4d", table, result)


def tab2_tab3_specs(detail: float = 1.0) -> ExperimentOutput:
    """Tab. II/III: device specs and GBU module breakdown."""
    from repro.gpu.specs import GBU_SPEC, ORIN_NX

    rows = [
        [
            ORIN_NX.name,
            f"{ORIN_NX.sram_bytes // (1024 * 1024)} MB",
            ORIN_NX.area_mm2,
            f"{ORIN_NX.clock_hz / 1e6:.0f} MHz",
            f"{ORIN_NX.technology_nm} nm",
            ORIN_NX.busy_power_w,
        ],
        [
            "GBU",
            f"{GBU_SPEC.sram_bytes // 1024} KB",
            GBU_SPEC.area_mm2,
            f"{GBU_SPEC.clock_hz / 1e9:.0f} GHz",
            f"{GBU_SPEC.technology_nm} nm",
            GBU_SPEC.power_w,
        ],
    ]
    spec_table = format_table(
        ["device", "SRAM", "area mm2", "freq", "tech", "power W"], rows
    )
    module_rows = [
        [m.name, m.area_mm2, m.power_w] for m in GBU_SPEC.modules
    ]
    module_table = format_table(["module", "area mm2", "power W"], module_rows)
    return ExperimentOutput(
        "tab2_tab3", spec_table + "\n\n" + module_table, (rows, module_rows)
    )


def fig14_fig15_endtoend(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 14 + Fig. 15: FPS and energy efficiency, all 12 scenes."""
    rows = []
    data = {}
    for name in EVALUATION_SCENES:
        results = evaluate_all_configs(name, detail=detail)
        base = results["gpu_pfs"]
        full = results["gbu_full"]
        eff = EnergyModel.efficiency_improvement(base.energy, full.energy)
        rows.append(
            [
                name,
                base.fps,
                full.fps,
                full.fps / base.fps,
                eff,
                base.energy.per_n_frames(60),
                full.energy.per_n_frames(60),
            ]
        )
        data[name] = results
    table = format_table(
        [
            "scene",
            "Orin FPS",
            "GBU FPS",
            "speedup",
            "energy eff",
            "J/60f base",
            "J/60f GBU",
        ],
        rows,
    )
    return ExperimentOutput("fig14_fig15", table, data)


def tab4_quality(detail: float = 1.0) -> ExperimentOutput:
    """Tab. IV: rendering quality parity."""
    results = quality.quality_by_app_type(detail=detail)
    rows = []
    for app, r in results.items():
        rows.append(
            [
                app.value,
                r.reference_psnr,
                r.gbu_psnr,
                r.psnr_delta,
                r.reference_lpips,
                r.gbu_lpips,
                r.lpips_delta,
            ]
        )
    table = format_table(
        [
            "type",
            "3D-GS PSNR",
            "GBU PSNR",
            "dPSNR",
            "3D-GS LPIPS",
            "GBU LPIPS",
            "dLPIPS",
        ],
        rows,
    )
    return ExperimentOutput("tab4", table, results)


def tab5_ablation(detail: float = 1.0) -> ExperimentOutput:
    """Tab. V: technique-by-technique ablation on static scenes."""
    rows_data = ablation_mod.run_ablation(detail=detail)
    rows = [
        [r.label, r.fps, r.energy_efficiency, r.psnr, r.lpips] for r in rows_data
    ]
    table = format_table(
        ["configuration", "FPS", "energy eff", "PSNR", "LPIPS"], rows
    )
    return ExperimentOutput("tab5", table, rows_data)


def fig16_resolution(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 16: resolution scaling on the three dynamic scenes."""
    rows = []
    data = {}
    for name in ("flame_steak", "sear_steak", "cut_beef"):
        points = scaling.resolution_sweep(name)
        data[name] = points
        for p in points:
            rows.append(
                [name, f"{p.width}x{p.height}", p.baseline_fps, p.gbu_fps, p.speedup]
            )
    table = format_table(
        ["scene", "resolution", "Orin FPS", "GBU FPS", "speedup"], rows
    )
    return ExperimentOutput("fig16", table, data)


def fig17_cache(detail: float = 1.0) -> ExperimentOutput:
    """Fig. 17: cache hit rate vs capacity per application class."""
    curves = cache_study.sweep_app_types(detail=detail)
    sizes = sorted(next(iter(curves.values())))
    rows = []
    for app, curve in curves.items():
        rows.append([app.value] + [curve[s] for s in sizes])
    table = format_table(
        ["type"] + [f"{s // 1024}KB" for s in sizes], rows
    )
    return ExperimentOutput("fig17", table, curves)


def sec5a_memory(detail: float = 1.0) -> ExperimentOutput:
    """Sec. V-A: DRAM pressure and the reuse cache's effect."""
    profiles = [
        profiling.profile_scene(name, detail=detail)
        for name in ("bicycle", "bonsai", "counter", "kitchen", "room", "stump")
    ]
    dram = float(np.mean([p.step3_dram_fraction_60fps for p in profiles]))
    pressure = [
        cache_study.memory_pressure(name, detail=detail)
        for name in ("bicycle", "kitchen", "stump")
    ]
    reduction = float(np.mean([p.traffic_reduction for p in pressure]))
    slowdown = float(np.mean([p.pipeline_slowdown_without_cache for p in pressure]))
    table = format_table(
        ["metric", "measured", "paper"],
        [
            ["step-3 DRAM fraction @60FPS", dram, 0.621],
            ["cache traffic reduction", reduction, 0.449],
            ["slowdown without cache", slowdown, 0.135],
        ],
    )
    return ExperimentOutput(
        "sec5a", table, {"dram": dram, "reduction": reduction, "slowdown": slowdown}
    )


def sec6f_distance(detail: float = 1.0) -> ExperimentOutput:
    """Sec. VI-F: camera-distance stress on a static scene."""
    points = scaling.camera_distance_sweep("bonsai")
    base = points[0]
    rows = [
        [p.factor, p.baseline_fps, p.gbu_fps, p.speedup, p.speedup / base.speedup]
        for p in points
    ]
    table = format_table(
        ["distance x", "Orin FPS", "GBU FPS", "speedup", "vs 1x"], rows
    )
    return ExperimentOutput("sec6f", table, points)


def tab6_tab7_standalone(detail: float = 1.0) -> ExperimentOutput:
    """Tab. VI/VII: GBU-Standalone vs prior accelerators."""
    measured = standalone_study.measure_standalone(detail=detail)
    rows = []
    for spec in standalone_study.tab7_rows(measured):
        rows.append(
            [
                spec.name,
                spec.algorithm,
                f"{spec.technology_nm}nm",
                spec.frequency_ghz,
                spec.area_mm2,
                spec.power_w,
                spec.psnr,
                spec.fps,
            ]
        )
    table = format_table(
        ["device", "algorithm", "tech", "GHz", "area mm2", "power W", "PSNR", "FPS"],
        rows,
    )
    return ExperimentOutput("tab6_tab7", table, measured)


def stream_reuse(detail: float = 1.0) -> ExperimentOutput:
    """Streaming extension: cross-frame reuse per application class."""
    points = streaming.stream_reuse_study(detail=detail)
    rows = [
        [
            p.scene,
            p.app_type.value,
            p.trajectory,
            p.cold_hit_rate,
            p.warm_hit_rate,
            p.hit_rate_gain,
            p.binning_reuse,
            p.mean_sim_fps,
            p.motion,
        ]
        for p in points
    ]
    table = format_table(
        [
            "scene",
            "type",
            "path",
            "cold hit",
            "warm hit",
            "gain",
            "bin reuse",
            "sim FPS",
            "motion",
        ],
        rows,
    )
    return ExperimentOutput("stream", table, points)


def qos_study(detail: float = 1.0) -> ExperimentOutput:
    """Streaming extension: deadline QoS, fixed vs adaptive detail."""
    comparison = streaming.compare_qos(detail=detail)
    rows = [
        [
            p.mode,
            p.target_fps,
            p.workers,
            p.sessions,
            p.total_frames,
            p.deadline_misses,
            p.miss_rate,
            p.mean_detail,
            p.mean_scale,
        ]
        for p in comparison.points.values()
    ]
    table = format_table(
        [
            "mode",
            "target FPS",
            "workers",
            "sessions",
            "frames",
            "misses",
            "miss rate",
            "mean detail",
            "mean scale",
        ],
        rows,
    )
    return ExperimentOutput("qos", table, comparison)


def fleet_study(detail: float = 1.0) -> ExperimentOutput:
    """Streaming extension: fleet scaling on generated Poisson traffic."""
    comparison = streaming.fleet_scaling_study(detail=detail)
    rows = [
        [
            p.nodes,
            p.sessions,
            p.total_frames,
            p.sim_makespan_seconds,
            p.sim_frames_per_sec,
            p.migrations,
            p.max_queue_depth,
            p.mean_admission_delay * 1e3,
        ]
        for p in comparison.points.values()
    ]
    lo, hi = comparison.scaling_span
    rows.append(
        [f"{lo}->{hi}", "", "", "", f"{comparison.scaling:.2f}x", "", "", ""]
    )
    table = format_table(
        [
            "nodes",
            "sessions",
            "frames",
            "makespan s",
            "sim f/s",
            "moves",
            "max queue",
            "adm delay ms",
        ],
        rows,
    )
    return ExperimentOutput("fleet", table, comparison)


EXPERIMENTS: dict[str, Callable[..., ExperimentOutput]] = {
    "fig1": fig1_landscape,
    "tab1": tab1_datasets,
    "fig4_fig5": fig4_fig5_profile,
    "fig6": fig6_flops,
    "fig9": fig9_row_workload,
    "sec4d": sec4d_irss_gpu,
    "tab2_tab3": tab2_tab3_specs,
    "tab4": tab4_quality,
    "tab5": tab5_ablation,
    "fig14_fig15": fig14_fig15_endtoend,
    "fig16": fig16_resolution,
    "fig17": fig17_cache,
    "sec5a": sec5a_memory,
    "sec6f": sec6f_distance,
    "tab6_tab7": tab6_tab7_standalone,
    "stream": stream_reuse,
    "qos": qos_study,
    "fleet": fleet_study,
}


def run_experiment(name: str, detail: float = 1.0) -> ExperimentOutput:
    """Run a registered experiment by key."""
    if name not in EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment '{name}'; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name](detail=detail)
