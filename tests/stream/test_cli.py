"""The repro-stream CLI: argument validation, clean error exits, QoS
flags, JSON output."""

import asyncio
import json
import re
import threading

import pytest

from repro.stream.cli import build_parser, main
from repro.stream.gateway import GatewayClient

SMALL = [
    "--scene",
    "nerf_lego",
    "--trajectory",
    "frozen",
    "--frames",
    "2",
    "--detail",
    "0.25",
]


#: Every flag of every subcommand (``None`` is the main command):
#: option -> (default, choices, type, nargs).  This pins what a user
#: can set; how the parsers are assembled is free to change.
FLAG_SURFACE = {
    None: {
        "--scene": ("bicycle", None, None, None),
        "--trajectory": (
            "orbit", ["orbit", "dolly", "head_jitter", "frozen"],
            None, None,
        ),
        "--frames": (16, None, int, None),
        "--sessions": (1, None, int, None),
        "--workers": (0, None, int, None),
        "--placement": ("load", ["rr", "load"], None, None),
        "--max-inflight": (None, None, int, None),
        "--detail": (1.0, None, float, None),
        "--target-fps": (None, None, float, None),
        "--qos": ("adaptive", ["adaptive", "fixed"], None, None),
        "--shards": (1, None, int, None),
        "--cache-policy": (
            "reuse_distance", ["fifo", "lru", "reuse_distance"],
            None, None,
        ),
        "--seed": (0, None, int, None),
        "--pipeline": ("exact", ["exact", "digest"], None, None),
        "--models": (None, None, None, None),
        "--content-cache": (False, None, None, 0),
        "--pose-quant": (0.0, None, float, None),
        "--json": (None, None, None, None),
    },
    "fleet": {
        "--nodes": (2, None, int, None),
        "--node-workers": (1, None, int, None),
        "--node-capacity": (4, None, int, None),
        "--router": ("least", ["least", "affinity", "active"], None, None),
        "--max-nodes": (None, None, int, None),
        "--min-nodes": (None, None, int, None),
        "--no-migration": (False, None, None, 0),
        "--mix": ("mixed", ["dynamic", "heavy", "light", "mixed"], None, None),
        "--rate": (40.0, None, float, None),
        "--duration": (0.5, None, float, None),
        "--profile": ("constant", ["constant", "diurnal", "ramp"], None, None),
        "--detail": (1.0, None, float, None),
        "--seed": (0, None, int, None),
        "--compact": (False, None, None, 0),
        "--pipeline": ("exact", ["exact", "digest"], None, None),
        "--models": (None, None, None, None),
        "--content-cache": (False, None, None, 0),
        "--pose-quant": (0.0, None, float, None),
        "--json": (None, None, None, None),
    },
    "serve": {
        "--host": ("127.0.0.1", None, None, None),
        "--port": (0, None, int, None),
        "--http-port": (None, None, int, None),
        "--workers": (0, None, int, None),
        "--placement": ("load", ["rr", "load"], None, None),
        "--max-inflight": (None, None, int, None),
        "--queue-frames": (8, None, int, None),
        "--drain-timeout": (30.0, None, float, None),
        "--exit-after-sessions": (None, None, int, None),
        "--pipeline": ("exact", ["exact", "digest"], None, None),
        "--models": (None, None, None, None),
        "--content-cache": (False, None, None, 0),
        "--pose-quant": (0.0, None, float, None),
    },
    "calibrate": {
        "--scenes": (["bicycle"], None, None, "+"),
        "--details": ([1.0], None, float, "+"),
        "--trajectories": (
            ["orbit"],
            ["orbit", "dolly", "head_jitter", "frozen"], None, "+",
        ),
        "--frames": (8, None, int, None),
        "--cache-policy": (
            "reuse_distance", ["fifo", "lru", "reuse_distance"],
            None, None,
        ),
        "--seed": (0, None, int, None),
        "--jitter": (0.0, None, float, None),
        "--out": ("-", None, None, None),
    },
}


def _parsers():
    from repro.stream.cli import (
        build_calibrate_parser,
        build_fleet_parser,
        build_serve_parser,
    )

    return {
        None: build_parser(),
        "fleet": build_fleet_parser(),
        "serve": build_serve_parser(),
        "calibrate": build_calibrate_parser(),
    }


def _surface(parser):
    return {
        action.option_strings[0]: (
            parser.get_default(action.dest),
            None if action.choices is None else list(action.choices),
            action.type,
            action.nargs,
        )
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


@pytest.mark.parametrize("command", list(FLAG_SURFACE))
def test_flag_surface_is_pinned(command):
    assert _surface(_parsers()[command]) == FLAG_SURFACE[command]


class TestErrorExits:
    """Invalid arguments exit 2 with a one-line error, no traceback."""

    def test_unknown_scene(self, capsys):
        assert main(["--scene", "garden_of_eden"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "garden_of_eden" in err

    def test_non_positive_detail(self, capsys):
        assert main(SMALL[:-1] + ["-0.5"]) == 2
        assert "--detail" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            SMALL[:-1] + ["1e9"],
            ["fleet", "--detail", "1e9"],
            ["calibrate", "--details", "0.5", "1e9"],
        ],
    )
    def test_unbuildable_detail_refused_before_any_build(
        self, argv, capsys, no_scene_builds
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at most 16" in err

    def test_non_positive_target_fps(self, capsys):
        assert main(SMALL + ["--target-fps", "0"]) == 2
        assert "--target-fps" in capsys.readouterr().err

    def test_non_positive_frames(self, capsys):
        assert main(["--frames", "0"]) == 2
        assert "--frames" in capsys.readouterr().err

    def test_non_positive_sessions(self, capsys):
        assert main(["--sessions", "-1"]) == 2
        assert "--sessions" in capsys.readouterr().err

    def test_negative_workers(self, capsys):
        assert main(SMALL + ["--workers", "-2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_max_inflight(self, capsys):
        assert main(SMALL + ["--max-inflight", "0"]) == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_invalid_placement_is_argparse_choice_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--placement", "chaotic"])
        assert exc.value.code == 2
        assert "chaotic" in capsys.readouterr().err

    def test_invalid_qos_mode_is_argparse_choice_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--qos", "psychic"])
        assert exc.value.code == 2


FLOAT_FLAGS = [
    (command, flag)
    for command, flags in FLAG_SURFACE.items()
    for flag, (_, _, kind, _) in flags.items()
    if kind is float
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_non_finite_float_flags_are_clean_errors(command, flag, value, capsys):
    """NaN passes every ``<``/``<=`` check, so each float flag must be
    rejected up front: exit 2, one ``error:`` line, no traceback or
    hang."""
    argv = ([] if command is None else [command]) + [flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and flag in err[0]


class TestServing:
    def test_small_serve_prints_table(self, capsys):
        assert main(SMALL) == 0
        out = capsys.readouterr().out
        assert "warm hit" in out
        assert "served 2 frames" in out

    def test_qos_serve_reports_misses_and_detail(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = SMALL + [
            "--frames",
            "3",
            "--target-fps",
            "30",
            "--json",
            str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "miss rate" in out and "mean detail" in out
        assert "QoS (adaptive, 30 Hz)" in out
        payload = json.loads(path.read_text())
        assert payload["target_fps"] == 30
        assert payload["qos"] == "adaptive"
        frames = payload["sessions"][0]["frames"]
        assert all("deadline_met" in f and "detail" in f for f in frames)

    def test_fixed_qos_mode_keeps_detail(self, capsys):
        argv = SMALL + ["--target-fps", "1000", "--qos", "fixed", "--json", "-"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["qos"] == "fixed"
        assert payload["sessions"][0]["mean_detail"] == pytest.approx(0.25)


FLEET_SMALL = [
    "fleet",
    "--nodes",
    "2",
    "--mix",
    "light",
    "--rate",
    "30",
    "--duration",
    "0.2",
    "--detail",
    "0.25",
    "--seed",
    "4",
]


class TestFleetSubcommand:
    """The `fleet` subcommand: generated traffic over a node fleet."""

    def test_fleet_serve_prints_node_table_and_summary(self, capsys):
        assert main(FLEET_SMALL) == 0
        out = capsys.readouterr().out
        assert "node" in out and "sessions" in out
        assert "fleet served" in out
        assert "light mix" in out
        assert "router 'least'" in out

    def test_fleet_json_report(self, capsys, tmp_path):
        path = tmp_path / "fleet.json"
        assert main(FLEET_SMALL + ["--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["mix"] == "light"
        assert payload["nodes"] == 2
        assert payload["total_frames"] > 0
        assert payload["sim_frames_per_sec"] > 0
        assert set(payload["node_summaries"]) <= {"0", "1"}

    def test_fleet_autoscale_flags(self, capsys):
        argv = FLEET_SMALL + [
            "--nodes",
            "1",
            "--max-nodes",
            "2",
            "--node-capacity",
            "1",
            "--rate",
            "80",
            "--json",
            "-",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["peak_nodes"] >= 1

    def test_fleet_error_exits(self, capsys):
        assert main(["fleet", "--rate", "0"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["fleet", "--nodes", "0"]) == 2
        assert "--nodes" in capsys.readouterr().err
        assert main(["fleet", "--duration", "-1"]) == 2
        assert "--duration" in capsys.readouterr().err
        assert main(["fleet", "--nodes", "2", "--max-nodes", "1"]) == 2
        assert "--max-nodes" in capsys.readouterr().err
        assert main(["fleet", "--nodes", "2", "--min-nodes", "3"]) == 2
        assert "--min-nodes" in capsys.readouterr().err
        assert main(["fleet", "--detail", "0"]) == 2
        assert "--detail" in capsys.readouterr().err
        assert main(["fleet", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_is_clean_error_in_both_commands(self, capsys):
        assert main(SMALL + ["--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_fleet_bad_choices_are_argparse_errors(self, capsys):
        from repro.stream.cli import build_fleet_parser

        for argv in (["--mix", "rush-hour"], ["--router", "hash-ring"]):
            with pytest.raises(SystemExit) as exc:
                build_fleet_parser().parse_args(argv)
            assert exc.value.code == 2


class TestRenderModeAndShards:
    """The intra-frame sharding flag."""

    def test_non_positive_shards_rejected(self, capsys):
        assert main(SMALL + ["--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_adaptive_serve_escalates_to_shards(self, capsys, tmp_path):
        """An unmeetable deadline drives detail to the floor, then the
        controller adds the second tile engine the flag allows."""
        report = tmp_path / "sharded.json"
        args = SMALL + [
            "--frames", "10", "--target-fps", "1e5", "--shards", "2",
            "--json", str(report),
        ]
        assert main(args) == 0
        frames = json.loads(report.read_text())["sessions"][0]["frames"]
        assert [f.get("shards", 1) for f in frames] == [1] * 8 + [2, 2]

    @pytest.mark.parametrize(
        "extra",
        [[], ["--target-fps", "72", "--qos", "fixed"]],
        ids=["no-deadline", "fixed-qos"],
    )
    def test_shards_need_adaptive_qos(self, capsys, extra):
        """Only an adaptive controller adds tile engines, so --shards
        above 1 without one is an argument error, not a silent no-op."""
        assert main(SMALL + ["--shards", "2"] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--shards above 1 requires --target-fps with --qos adaptive" in err


class TestModelsErrorRouting:
    """--models failures are argument-shaped: exit 2 with an `error:`
    line, never a FileNotFoundError/JSONDecodeError traceback."""

    def test_missing_models_file_main_command(self, capsys):
        argv = SMALL + ["--pipeline", "digest", "--models", "/no/such.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/no/such.json" in err

    def test_missing_models_file_fleet_command(self, capsys):
        argv = FLEET_SMALL + ["--pipeline", "digest", "--models", "/no/such.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/no/such.json" in err

    def test_malformed_models_json(self, capsys, tmp_path):
        bad = tmp_path / "models.json"
        bad.write_text("{this is not json")
        argv = SMALL + ["--pipeline", "digest", "--models", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err

    def test_wrong_shape_models_json(self, capsys, tmp_path):
        bad = tmp_path / "models.json"
        bad.write_text(json.dumps({"surprise": []}))
        argv = SMALL + ["--pipeline", "digest", "--models", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_version_2_models_table(self, capsys, tmp_path):
        """A table in the version-2 format (render modes led by a
        backend name) is refused, not served from mismatched models."""
        table = tmp_path / "models.json"
        table.write_text(json.dumps({"version": 2, "models": []}))
        argv = SMALL + ["--pipeline", "digest", "--models", str(table)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "model table version 2 is not supported" in err

    def test_models_without_digest_pipeline(self, capsys, tmp_path):
        table = tmp_path / "models.json"
        table.write_text("{}")
        assert main(SMALL + ["--models", str(table)]) == 2
        assert "--pipeline digest" in capsys.readouterr().err


class TestServeSubcommand:
    """Argument validation for `repro-stream serve` (the gateway's
    live behavior is covered in tests/stream/test_gateway.py)."""

    def test_bad_port(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_bad_http_port(self, capsys):
        assert main(["serve", "--http-port", "-1"]) == 2
        assert "--http-port" in capsys.readouterr().err

    def test_bad_queue_frames(self, capsys):
        assert main(["serve", "--queue-frames", "1"]) == 2
        assert "--queue-frames" in capsys.readouterr().err

    def test_bad_exit_after_sessions(self, capsys):
        assert main(["serve", "--exit-after-sessions", "0"]) == 2
        assert "--exit-after-sessions" in capsys.readouterr().err

    def test_bad_drain_timeout(self, capsys):
        assert main(["serve", "--drain-timeout", "0"]) == 2
        assert "--drain-timeout" in capsys.readouterr().err

    def test_digest_serve_requires_models(self, capsys):
        assert main(["serve", "--pipeline", "digest"]) == 2
        assert "--models" in capsys.readouterr().err

    def test_serve_missing_models_file_is_clean_error(self, capsys):
        argv = ["serve", "--pipeline", "digest", "--models", "/no/such.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/no/such.json" in err


class TestCalibrateSubcommand:
    def test_models_round_trip_into_digest_serve(self, capsys, tmp_path):
        """A table written by ``calibrate --out`` feeds
        ``--pipeline digest --models`` for the same workload."""
        table = tmp_path / "models.json"
        argv = [
            "calibrate",
            "--scenes",
            "nerf_lego",
            "--details",
            "0.25",
            "--trajectories",
            "frozen",
            "--frames",
            "2",
            "--out",
            str(table),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "calibrated 1 workload model(s) over 1 scene(s)" in out
        assert out.rstrip().endswith(str(table))
        assert json.loads(table.read_text())
        argv = SMALL + ["--pipeline", "digest", "--models", str(table)]
        assert main(argv + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digest pipeline: 1 workload model(s) loaded")
        payload = json.loads(out[out.index("{"):])
        assert payload["pipeline"] == "digest"
        assert len(payload["sessions"][0]["frames"]) == 2

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["--scenes", "garden_of_eden"], "garden_of_eden"),
            (["--details", "0.5", "0"], "--details"),
            (["--frames", "0"], "--frames"),
            (["--jitter", "1"], "--jitter"),
        ],
    )
    def test_error_exits(self, argv, match, capsys):
        assert main(["calibrate", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err


class TestServeHappyPath:
    def test_exit_after_sessions_serves_one_client(self, capsys):
        """``serve --exit-after-sessions 1`` in-process: read the
        ``listening on`` line, stream one session over loopback, and
        the command drains and returns 0."""
        status = []
        argv = ["serve", "--exit-after-sessions", "1", "--http-port", "0"]
        thread = threading.Thread(
            target=lambda: status.append(main(argv)), daemon=True
        )
        thread.start()
        out = ""
        for _ in range(600):
            out += capsys.readouterr().out
            if "http on" in out:
                break
            thread.join(0.05)
        match = re.search(r"listening on ([\d.]+):(\d+)", out)
        assert match, out

        async def client():
            gateway = GatewayClient(match.group(1), int(match.group(2)))
            await gateway.connect()
            await gateway.hello(
                {
                    "session_id": "cli",
                    "scene": "nerf_lego",
                    "frames": 2,
                    "detail": 0.25,
                }
            )
            frames, end = await gateway.stream()
            await gateway.bye()
            await gateway.close()
            return frames, end

        frames, end = asyncio.run(client())
        thread.join(60)
        assert not thread.is_alive()
        assert status == [0]
        assert len(frames) == 2 and end is not None
        out += capsys.readouterr().out
        assert "served 1 session(s), 2 frame(s) over 1 connection(s)" in out
