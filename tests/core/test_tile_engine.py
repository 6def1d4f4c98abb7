"""Tests for the frame-level Row-Centric Tile Engine model."""

import numpy as np
import pytest

from repro.core.irss import TileRowWorkload
from repro.core.row_engine import analytic_tile_cycles
from repro.core.tile_engine import TileEngineReport, simulate_tile_engine
from repro.errors import ValidationError
from repro.gpu.calibration import GBUCalibration
from repro.gpu.specs import GBUSpec


def _workload(n_tiles=6, rng=None, rows=16):
    rng = rng or np.random.default_rng(0)
    frag = rng.integers(0, 60, size=(n_tiles, rows)).astype(np.int64)
    seg = np.minimum(frag, rng.integers(0, 5, size=(n_tiles, rows))).astype(np.int64)
    inst = rng.integers(1, 30, size=n_tiles).astype(np.int64)
    return TileRowWorkload(
        row_fragments=frag,
        row_segments=seg,
        instance_max_run=rng.integers(1, 200, size=n_tiles).astype(np.int64),
        instance_setup=inst,
        binary_search_steps=rng.integers(0, 40, size=n_tiles).astype(np.int64),
        instance_search=np.minimum(inst, rng.integers(0, 10, size=n_tiles)).astype(np.int64),
    )


class TestSimulation:
    def test_report_shapes(self):
        workload = _workload()
        report = simulate_tile_engine(workload)
        assert report.tile_cycles.shape == (6,)
        assert report.pe_frame_cycles.shape == (8,)

    def test_cross_tile_overlap_not_slower(self):
        workload = _workload()
        overlapped = simulate_tile_engine(workload, cross_tile_overlap=True)
        barrier = simulate_tile_engine(workload, cross_tile_overlap=False)
        assert overlapped.total_cycles <= barrier.total_cycles

    def test_utilization_bounds(self):
        report = simulate_tile_engine(_workload())
        assert 0.0 < report.utilization <= 1.0

    def test_empty_tiles_cost_nothing(self):
        workload = _workload(n_tiles=3)
        workload.instance_setup[1] = 0
        workload.row_fragments[1] = 0
        report = simulate_tile_engine(workload)
        assert report.tile_cycles[1] == 0.0

    def test_seconds_uses_clock(self):
        workload = _workload()
        report = simulate_tile_engine(workload)
        spec = GBUSpec()
        assert report.seconds(spec) == pytest.approx(
            report.total_cycles / spec.clock_hz
        )

    def test_generation_bound_detection(self):
        workload = _workload()
        workload.instance_setup[:] = 10_000
        report = simulate_tile_engine(workload)
        assert report.generation_bound_tiles() == workload.n_tiles

    def test_row_count_mismatch_rejected(self):
        workload = _workload(rows=8)
        with pytest.raises(ValidationError):
            simulate_tile_engine(workload)

    def test_interleave_helps_centered_footprints(self):
        """Elliptical footprints concentrate work in central rows;
        interleaved row assignment balances the PE pairs better than
        contiguous pairing."""
        n_tiles = 4
        rows = np.zeros((n_tiles, 16), dtype=np.int64)
        # Center-heavy per-row profile (like a fat Gaussian).
        profile = np.array([1, 2, 5, 9, 14, 18, 20, 22, 22, 20, 18, 14, 9, 5, 2, 1])
        rows[:] = profile
        workload = TileRowWorkload(
            row_fragments=rows,
            row_segments=(rows > 0).astype(np.int64),
            instance_max_run=np.full(n_tiles, 22, dtype=np.int64),
            instance_setup=np.ones(n_tiles, dtype=np.int64),
            binary_search_steps=np.zeros(n_tiles, dtype=np.int64),
            instance_search=np.zeros(n_tiles, dtype=np.int64),
        )
        inter = simulate_tile_engine(workload, interleaved=True,
                                     cross_tile_overlap=False)
        contig = simulate_tile_engine(workload, interleaved=False,
                                      cross_tile_overlap=False)
        assert inter.total_cycles <= contig.total_cycles


def per_tile_engine(workload, spec, calib, interleaved, cross_tile_overlap):
    """The frame model as a loop of one-tile estimates (the oracle for
    the batched :func:`simulate_tile_engine`)."""
    n_tiles = workload.n_tiles
    tile_cycles = np.zeros(n_tiles)
    gen_cycles = np.zeros(n_tiles)
    max_pe = np.zeros(n_tiles)
    useful = np.zeros(n_tiles)
    pe_frame = np.zeros(spec.n_row_pes)
    for t in range(n_tiles):
        if workload.instance_setup[t] == 0:
            continue
        est = analytic_tile_cycles(
            workload.row_fragments[t],
            workload.row_segments[t],
            int(workload.instance_setup[t]),
            int(workload.instance_search[t]),
            calib=calib,
            n_pes=spec.n_row_pes,
            interleaved=interleaved,
        )
        tile_cycles[t] = est.tile_cycles
        gen_cycles[t] = est.generation_cycles
        max_pe[t] = float(est.row_pe_cycles.max(initial=0.0))
        useful[t] = est.useful_cycles
        pe_frame += est.row_pe_cycles
    report = TileEngineReport(
        tile_cycles=tile_cycles,
        generation_cycles=gen_cycles,
        max_row_pe_cycles=max_pe,
        useful_cycles=useful,
        pe_frame_cycles=pe_frame,
        cross_tile_overlap=cross_tile_overlap,
        drain_cycles=calib.tile_drain_cycles,
    )
    object.__setattr__(report, "_n_pes", spec.n_row_pes)
    return report


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_pes", [1, 2, 8, 16])
@pytest.mark.parametrize("interleaved", [True, False])
@pytest.mark.parametrize("cross_tile_overlap", [True, False])
def test_batched_model_equals_per_tile_loop(
    seed, n_pes, interleaved, cross_tile_overlap
):
    """Bit-identical to the per-tile loop on random frames with idle
    tiles.  Non-integer cycle costs and 1-16 Row PEs make every sum's
    association order visible."""
    rng = np.random.default_rng(seed)
    spec = GBUSpec(n_row_pes=n_pes, rows_per_pe=16 // n_pes)
    calib = GBUCalibration(
        fragment_cycles=float(rng.uniform(0.1, 3.0)),
        segment_issue_cycles=float(rng.uniform(0.0, 2.0)),
        rowgen_gaussian_cycles=float(rng.uniform(0.1, 4.0)),
        rowgen_search_cycles=float(rng.uniform(0.0, 2.0)),
    )
    workload = _workload(n_tiles=int(rng.integers(20, 200)), rng=rng)
    workload.instance_setup[rng.random(workload.n_tiles) < 0.3] = 0
    batched = simulate_tile_engine(
        workload, spec, calib, interleaved, cross_tile_overlap
    )
    loop = per_tile_engine(workload, spec, calib, interleaved, cross_tile_overlap)
    for name in (
        "tile_cycles",
        "generation_cycles",
        "max_row_pe_cycles",
        "useful_cycles",
        "pe_frame_cycles",
    ):
        assert np.array_equal(getattr(batched, name), getattr(loop, name)), name
    assert batched.total_cycles == loop.total_cycles
    assert batched.utilization == loop.utilization


def test_all_idle_frame_costs_nothing():
    workload = _workload(n_tiles=5)
    workload.instance_setup[:] = 0
    report = simulate_tile_engine(workload)
    assert not report.tile_cycles.any()
    assert np.array_equal(report.pe_frame_cycles, np.zeros(8))
    assert report.total_cycles == report.drain_cycles
    assert report.utilization == 0.0
