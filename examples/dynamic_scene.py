"""Dynamic scene (4D Gaussians): render an animation through the GBU.

Slices the 'flame_steak' stand-in at 12 timesteps, renders each frame
through the GPU baseline model and the GBU-enhanced system, and prints
the per-frame FPS timeline — the workload breathes as transient
kernels appear and disappear, but the GBU side stays above 60 FPS.
Both systems render through the vectorized engine (pixel-exact, ~5x
faster combined than the scalar oracle loops).

Run:  PYTHONPATH=src python examples/dynamic_scene.py
"""

from repro.analysis.endtoend import evaluate_scene
from repro.harness import format_table
from repro.scenes import build_scene


def main() -> None:
    bundle = build_scene("flame_steak")
    bundle.n_eval_frames = 12
    print("Rendering 12 timesteps of 'flame_steak' (4D Gaussians) ...")

    rows = []
    for frame in range(12):
        baseline = evaluate_scene(bundle.spec, "gpu_pfs", frame=frame, bundle=bundle)
        gbu = evaluate_scene(bundle.spec, "gbu_full", frame=frame, bundle=bundle)
        cloud, _ = bundle.frame_cloud(frame)
        rows.append(
            [
                frame,
                len(cloud),
                baseline.fps,
                gbu.fps,
                gbu.fps / baseline.fps,
                gbu.gbu_report.cache.hit_rate,
            ]
        )
    print(format_table(
        ["frame", "active kernels", "Orin FPS", "GBU FPS", "speedup", "cache hit"],
        rows,
    ))
    worst = min(r[3] for r in rows)
    print(f"\nworst-case GBU frame rate across the clip: {worst:.1f} FPS "
          f"({'real-time' if worst >= 60 else 'below real-time'})")


if __name__ == "__main__":
    main()
