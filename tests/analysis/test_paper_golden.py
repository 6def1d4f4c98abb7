"""Golden paper numbers: Fig. 14/15, Tab. V and Fig. 17, exactly.

Every simulated number in the structured ``data`` of
``run_experiment("fig14_fig15" | "tab5" | "fig17")`` is snapshotted
into ``tests/analysis/golden_paper.json`` at a reduced scene detail:
FPS, frame and stage seconds, energy, cycles, cache hit rates and
bytes, plus a SHA-256 of every large array (images, per-row counters).
No field holds host wall-clock, so the snapshot is compared exactly.  A refactor of the render stack (the engine,
the device model's plumbing) that moves any paper number
fails here with a per-field diff.

When a change *intentionally* alters a paper number, regenerate with:

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python \\
        tests/analysis/test_paper_golden.py

and commit the updated fixture alongside the change that explains it.
"""

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.harness import run_experiment

pytestmark = pytest.mark.golden

FIXTURE = Path(__file__).parent / "golden_paper.json"

EXPERIMENTS = ("fig14_fig15", "tab5", "fig17")
DETAIL = 0.2
#: Arrays up to this many elements are stored value by value; larger
#: ones (images, per-row counters) as a digest of shape, dtype and bytes.
MAX_LISTED = 16


def _key(key) -> str:
    return str(key.value if isinstance(key, enum.Enum) else key)


def _flatten(value, path: str, out: dict) -> None:
    """Flatten experiment data into ``{dotted.path: exact value}``."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _flatten(getattr(value, field.name), f"{path}.{field.name}", out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{_key(key)}", out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{path}.{i}", out)
    elif isinstance(value, np.ndarray):
        if value.size <= MAX_LISTED:
            out[path] = repr(value.tolist())
        else:
            digest = hashlib.sha256(
                f"{value.shape}{value.dtype}".encode() + value.tobytes()
            )
            out[path] = f"sha256:{digest.hexdigest()}"
    elif value is None or isinstance(value, (bool, str)):
        out[path] = value
    elif isinstance(value, enum.Enum):
        out[path] = _key(value)
    elif isinstance(value, (int, float, np.integer, np.floating)):
        # repr keeps every bit of a float and makes NaN compare equal.
        out[path] = repr(value.item() if isinstance(value, np.generic) else value)
    else:
        raise TypeError(f"{path}: cannot snapshot {type(value).__name__}")


def _snapshot() -> dict:
    out: dict = {}
    for name in EXPERIMENTS:
        _flatten(run_experiment(name, detail=DETAIL).data, name, out)
    return out


def test_paper_numbers_match_golden():
    expected = json.loads(FIXTURE.read_text())
    actual = _snapshot()
    diff = [
        f"{key}: golden {expected.get(key)!r} != now {actual.get(key)!r}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]
    assert not diff, f"{len(diff)} paper numbers moved:\n" + "\n".join(diff[:40])


if __name__ == "__main__":  # pragma: no cover
    if os.environ.get("REPRO_GOLDEN_REGEN") != "1":
        raise SystemExit("set REPRO_GOLDEN_REGEN=1 to confirm fixture regeneration")
    FIXTURE.write_text(json.dumps(_snapshot(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
