"""The Row-Centric Tile Engine at frame granularity (Sec. V-C).

Evaluates the analytic model of :mod:`repro.core.row_engine` for
every tile at once over a whole frame's
:class:`~repro.core.irss.TileRowWorkload`, producing the compute-side
cycle count, per-component breakdown and utilization of one Tile PE
rendering every tile in traversal order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.irss import TileRowWorkload
from repro.core.row_engine import analytic_cycles
from repro.errors import ValidationError
from repro.gpu.calibration import DEFAULT_GBU_CALIBRATION, GBUCalibration
from repro.gpu.specs import GBU_SPEC, GBUSpec


@dataclass(frozen=True)
class TileEngineReport:
    """Frame-level compute profile of the Tile PE.

    Attributes
    ----------
    tile_cycles:
        (n_tiles,) latency of each tile.
    generation_cycles / max_row_pe_cycles:
        (n_tiles,) per-tile component latencies (before drain).
    useful_cycles:
        (n_tiles,) fragment-shading cycles (utilization numerator).
    """

    tile_cycles: np.ndarray
    generation_cycles: np.ndarray
    max_row_pe_cycles: np.ndarray
    useful_cycles: np.ndarray
    pe_frame_cycles: np.ndarray
    cross_tile_overlap: bool = True
    drain_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        """Frame cycles under the configured tile-boundary model."""
        if self.cross_tile_overlap:
            # The Row Buffers decouple the Row Generation Engine from
            # the Row PEs, so a PE that finishes its rows early starts
            # polling the next tile's work items while stragglers
            # drain: per-tile imbalance amortizes across the frame and
            # the frame latency is the slowest PE's total work (or the
            # generation engine, if it is the global bottleneck).
            gen_total = float(self.generation_cycles.sum())
            pe_totals = self.pe_frame_cycles
            return max(gen_total, float(pe_totals.max(initial=0.0))) + float(
                self.drain_cycles
            )
        # Per-tile barrier (ablation): every non-empty tile pays a
        # pipeline flush on top of its own latency.
        n_busy = int(np.count_nonzero(self.tile_cycles))
        return float(self.tile_cycles.sum()) + float(self.drain_cycles) * n_busy

    @property
    def utilization(self) -> float:
        """Row-PE utilization across the frame (Fig. 10's right side)."""
        denom = self.tile_cycles.sum()
        if denom <= 0:
            return 0.0
        # useful_cycles is summed over all 8 PEs; the capacity is
        # n_pes * tile_cycles.
        return float(self.useful_cycles.sum() / (denom * self._n_pes))

    _n_pes: int = 8

    def seconds(self, spec: GBUSpec = GBU_SPEC) -> float:
        return self.total_cycles / spec.clock_hz

    def generation_bound_tiles(self) -> int:
        """Tiles whose latency is set by the generation engine."""
        return int(np.count_nonzero(self.generation_cycles > self.max_row_pe_cycles))


def simulate_tile_engine(
    workload: TileRowWorkload,
    spec: GBUSpec = GBU_SPEC,
    calib: GBUCalibration = DEFAULT_GBU_CALIBRATION,
    interleaved: bool = True,
    cross_tile_overlap: bool = True,
) -> TileEngineReport:
    """Run the analytic tile engine over every tile of a frame.

    ``cross_tile_overlap`` models the Row Buffers streaming work items
    across tile boundaries (the design point — Sec. V-C's "Row PEs
    consistently poll the fragments to be rendered"); disabling it
    inserts a barrier after every tile, which the ablation benchmark
    uses to quantify the buffers' contribution.
    """
    n_tiles = workload.n_tiles
    if workload.row_fragments.shape[1] != spec.rows_per_tile:
        raise ValidationError(
            f"workload rows ({workload.row_fragments.shape[1]}) do not match "
            f"the Tile PE's rows per tile ({spec.rows_per_tile})"
        )
    # Idle tiles (no instance set up) cost nothing and feed no PE.
    busy = np.flatnonzero(workload.instance_setup != 0)
    gen, pe_cycles, tile, useful = analytic_cycles(
        workload.row_fragments[busy],
        workload.row_segments[busy],
        workload.instance_setup[busy],
        workload.instance_search[busy],
        calib=calib,
        n_pes=spec.n_row_pes,
        interleaved=interleaved,
    )
    tile_cycles = np.zeros(n_tiles)
    gen_cycles = np.zeros(n_tiles)
    max_pe = np.zeros(n_tiles)
    useful_cycles = np.zeros(n_tiles)
    tile_cycles[busy] = tile
    gen_cycles[busy] = gen
    max_pe[busy] = pe_cycles.max(axis=1, initial=0.0)
    useful_cycles[busy] = useful
    # Summed tile by tile in traversal order: an accumulate never
    # reassociates, where a sum down a contiguous axis goes pairwise.
    pe_frame = np.zeros(spec.n_row_pes)
    if busy.size:
        pe_frame = np.add.accumulate(pe_cycles, axis=0)[-1]
    report = TileEngineReport(
        tile_cycles=tile_cycles,
        generation_cycles=gen_cycles,
        max_row_pe_cycles=max_pe,
        useful_cycles=useful_cycles,
        pe_frame_cycles=pe_frame,
        cross_tile_overlap=cross_tile_overlap,
        drain_cycles=calib.tile_drain_cycles,
    )
    object.__setattr__(report, "_n_pes", spec.n_row_pes)
    return report
