"""The two-level pipeline between GPU, D&B engine and Tile PE
(Sec. V-E, Fig. 13).

Level 1 — frame pipeline: while the GBU blends frame ``k``, the GPU
runs Rendering Steps 1-2 of frame ``k+1`` out of a double buffer in
DRAM.  In steady state the frame time is the maximum of the two sides
plus a synchronization overhead (the ``GBU_check_status`` handshake).

Level 2 — chunk pipeline: within the GBU, the depth-ordered Gaussians
are split into chunks; once the D&B engine has binned a chunk the Tile
PE starts on it, overlapping binning with blending.  With ``n`` equal
chunks the makespan approaches ``max(a, b) + min(a, b)/n``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

#: Frame-pipeline handshake overhead (GBU_check_status + buffer swap).
SYNC_SECONDS = 2e-4


@dataclass(frozen=True)
class PipelinedFrame:
    """Steady-state timing of the GPU/GBU frame pipeline.

    Attributes
    ----------
    gpu_seconds:
        Steps 1-2 (and any residual work) on the GPU.
    gbu_seconds:
        Step 3 on the GBU (including its memory stalls).
    sync_seconds:
        Handshake/double-buffer turnaround per frame.
    """

    gpu_seconds: float
    gbu_seconds: float
    sync_seconds: float = 0.0

    @property
    def frame_seconds(self) -> float:
        """Steady-state frame latency (pipelined)."""
        return max(self.gpu_seconds, self.gbu_seconds) + self.sync_seconds

    @property
    def unpipelined_seconds(self) -> float:
        """Frame time if GPU and GBU ran back to back."""
        return self.gpu_seconds + self.gbu_seconds + self.sync_seconds

    @property
    def fps(self) -> float:
        return 1.0 / self.frame_seconds

    @property
    def pipeline_gain(self) -> float:
        """Speedup contributed by overlapping the two sides."""
        return self.unpipelined_seconds / self.frame_seconds

    @property
    def bottleneck(self) -> str:
        return "gbu" if self.gbu_seconds >= self.gpu_seconds else "gpu"


def chunked_overlap_seconds(
    producer_seconds: float, consumer_seconds: float, n_chunks: int
) -> float:
    """Makespan of a two-stage pipeline over ``n_chunks`` equal chunks.

    The classic result: the slower stage runs continuously after a
    fill delay of one producer chunk, so

        makespan = max(a, b) + min(a, b) / n_chunks.
    """
    if n_chunks <= 0:
        raise ValidationError("n_chunks must be positive")
    if producer_seconds < 0 or consumer_seconds < 0:
        raise ValidationError("stage times cannot be negative")
    a, b = producer_seconds, consumer_seconds
    return max(a, b) + min(a, b) / n_chunks


def chunk_count(n_gaussians: int, chunk_size: int) -> int:
    """Number of depth-ordered chunks the D&B engine processes."""
    if chunk_size <= 0:
        raise ValidationError("chunk_size must be positive")
    return max((n_gaussians + chunk_size - 1) // chunk_size, 1)
