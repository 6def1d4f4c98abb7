"""Shared benchmark infrastructure.

Each benchmark file regenerates one table/figure of the paper: it
prints the measured rows (run with ``-s`` to see them) and registers a
pytest-benchmark measurement of the experiment (a reduced-detail run
for the heavy multi-scene experiments, so ``--benchmark-only`` stays
responsive while the printed tables use full detail).

Experiment outputs are cached per session because several figures
share the same underlying sweep (Fig. 4/5, Fig. 14/15, Tab. VI/VII).

Every experiment renders with the one vectorized engine.  It is
pixel-exact against the scalar oracle loops, so the printed tables are
the ones the loops would give; ``bench_render_speed.py`` times the
engine against the loops and checks them against each other per scene.
"""

from __future__ import annotations

import pytest

from repro.harness import run_experiment


@pytest.fixture(scope="session")
def experiments():
    cache: dict[tuple[str, float], object] = {}

    def get(name: str, detail: float = 1.0):
        key = (name, detail)
        if key not in cache:
            cache[key] = run_experiment(name, detail=detail)
        return cache[key]

    return get


def show(output) -> None:
    """Print an experiment table under a header."""
    print(f"\n=== {output.experiment} ===")
    print(output.table)
