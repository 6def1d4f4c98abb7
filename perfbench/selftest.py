"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that every metric BENCHMARK.json names is printed with its
unit on every workload, and that the correctness checks trip on
injected defects.  The file is not named ``test_*.py`` so the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def _run(tmp_path, workload: str, trace: int, *extra: str) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(tmp_path))
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny", *extra,
        ],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    result = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float), metric["name"]
    if trace:
        # Slightly negative when the gateway's worker-thread spans overlap
        # loop-thread spans while one of them waits for the GIL.
        assert -0.05 <= result["metrics"]["trace.unattributed_share"]["value"] <= 0.1


def test_sim_mismatch_with_an_earlier_run_fails(tmp_path):
    first = _run(tmp_path, "digest_herd", 0)
    assert first["correct"]
    record = tmp_path / "perfbench" / "sim-digest_herd-3-tiny.json"
    sim = json.loads(record.read_text())
    sim["sim_fps_mean"] += 1.0
    record.write_text(json.dumps(sim))
    second = _run(tmp_path, "digest_herd", 0)
    assert not second["correct"] and second["failed"] == 1


def _drop_one_frame(monkeypatch, after: int) -> None:
    """Make the client side lose the frame that follows ``after`` others."""
    seen = []
    frame = workloads.Phase.frame

    def lossy(self, session_id, index, now):
        seen.append(index)
        if len(seen) != after + 1:
            frame(self, session_id, index, now)

    monkeypatch.setattr(workloads.Phase, "frame", lossy)


def _tiny(workload: str):
    return workloads.WORKLOADS[workload](5, **run.TINY[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_client_dropping_a_frame_fails(monkeypatch, workload):
    driver = _tiny(workload)
    driver.setup()
    try:
        _drop_one_frame(monkeypatch, after=3)
        phase = driver.run(0.0, "x")
        driver.collect({"x": phase})
    finally:
        driver.close()
    assert phase.failed >= 1


def test_resumed_stream_that_differs_fails():
    churn = _tiny("gateway_churn")
    churn.setup()
    try:
        phase = churn.run(0.0, "x")
        session_id, (frames, end) = next(
            (k, v) for k, v in phase.received.items() if k.endswith("-1")
        )
        frames[-1] = dict(frames[-1], sim_seconds=frames[-1]["sim_seconds"] * 2)
        churn.collect({"x": phase})
    finally:
        churn.close()
    assert any(session_id in p for p in phase.problems)
