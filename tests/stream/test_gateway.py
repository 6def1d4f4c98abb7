"""Asyncio serving gateway: wire protocol, checkpoint-backed
reconnects, bounded-queue backpressure, graceful drain.

Everything runs on loopback inside the test process — the suite never
opens a non-local socket.  The reconnect chaos matrix mirrors the
worker-crash matrix of ``test_stream_server.py``: killing the
connection at *every* frame index and resuming must reproduce the
uninterrupted serve byte-for-byte (image hashes, detail traces, cache
counters), because the gateway parks sessions as checkpoints and
checkpoint replay is exact.
"""

import asyncio
import gc
import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gaussians.camera import Camera
from repro.stream import WorkloadModelTable, streaming_config
from repro.stream.fleet import EdgeFleet
from repro.stream.gateway import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    GatewayClient,
    StreamGateway,
    _Connection,
    encode_message,
    read_message,
    session_from_payload,
)
from repro.stream.reporting import report_evidence
from repro.stream.server import StreamServer
from repro.stream.trajectory import TRAJECTORY_KINDS

DETAIL = 0.25
N_FRAMES = 5


def _desc(session_id, scene="bicycle", frames=N_FRAMES, **overrides):
    base = {
        "session_id": session_id,
        "scene": scene,
        "frames": frames,
        "detail": DETAIL,
        "keep_images": True,
        "target_fps": 300.0,
    }
    base.update(overrides)
    return base


def _baseline(descs):
    """Uninterrupted single-server evidence for the same descriptors."""
    with StreamServer(workers=0) as server:
        results = server.serve([session_from_payload(d) for d in descs])
    return {r.session_id: report_evidence(r.report) for r in results}


async def _with_gateway(scenario, backend=None, **gateway_kwargs):
    """Run ``scenario(gateway)`` against a started gateway; always stop."""
    backend = StreamServer(workers=0) if backend is None else backend
    gateway = StreamGateway(backend, **gateway_kwargs)
    await gateway.start()
    try:
        value = await scenario(gateway)
    except BaseException:
        await gateway.stop(drain=False)
        raise
    results = await gateway.stop()
    return value, results, gateway


def run(coro):
    return asyncio.run(coro)


async def _resume_with_retry(gateway, session_id, last_frame, attempts=100):
    """Resume with a fresh connection per attempt.

    The gateway needs a beat to notice an abort and park the session,
    and an ``error`` reply closes the connection — so each retry must
    reconnect, not reuse the refused socket.
    """
    for attempt in range(attempts):
        client = GatewayClient(gateway.host, gateway.port)
        await client.connect()
        try:
            welcome = await client.resume(session_id, last_frame)
            return client, welcome
        except ValidationError:
            await client.close()
            if attempt == attempts - 1:
                raise
            await asyncio.sleep(0.02)


# ----------------------------------------------------------------------
# Framing and descriptor validation (no sockets needed)
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_roundtrip(self):
        data = encode_message({"type": "hello", "n": 3})
        (length,) = struct.unpack("!I", data[:4])
        assert length == len(data) - 4
        assert json.loads(data[4:]) == {"type": "hello", "n": 3}

    def test_encode_rejects_oversized_message(self):
        with pytest.raises(ValidationError, match="wire limit"):
            encode_message({"type": "x", "pad": "a" * (MAX_MESSAGE_BYTES + 1)})

    def test_read_rejects_oversized_prefix(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack("!I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ValidationError, match="wire limit"):
                await read_message(reader)

        run(scenario())

    def test_read_rejects_non_json_body(self):
        async def scenario():
            reader = asyncio.StreamReader()
            body = b"\xff\xfenot json"
            reader.feed_data(struct.pack("!I", len(body)) + body)
            with pytest.raises(ValidationError, match="JSON"):
                await read_message(reader)

        run(scenario())

    def test_read_rejects_untyped_object(self):
        async def scenario():
            reader = asyncio.StreamReader()
            body = json.dumps(["a", "list"]).encode()
            reader.feed_data(struct.pack("!I", len(body)) + body)
            with pytest.raises(ValidationError, match="'type'"):
                await read_message(reader)

        run(scenario())

    def test_read_returns_none_on_eof(self):
        async def scenario():
            clean = asyncio.StreamReader()
            clean.feed_eof()
            assert await read_message(clean) is None
            midframe = asyncio.StreamReader()
            midframe.feed_data(b"\x00\x00")  # half a header, then EOF
            midframe.feed_eof()
            assert await read_message(midframe) is None

        run(scenario())


class TestSessionFromPayload:
    def test_builds_full_descriptor(self):
        session = session_from_payload(
            _desc(
                "s",
                trajectory={"kind": "head_jitter", "n_frames": 7, "seed": 4},
                qos="fixed",
            )
        )
        assert session.session_id == "s"
        assert session.frame_budget == 7
        assert session.keep_images
        assert session.target_fps == 300.0
        assert session.qos is not None  # fixed policy object
        assert session.pipeline == "exact"

    def test_default_pipeline_applies_when_omitted(self):
        session = session_from_payload(_desc("s"), default_pipeline="digest")
        assert session.pipeline == "digest"
        explicit = session_from_payload(
            _desc("s", pipeline="exact"), default_pipeline="digest"
        )
        assert explicit.pipeline == "exact"

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"scene": "atlantis"}, "unknown scene"),
            ({"session_id": ""}, "session_id"),
            ({"session_id": 7}, "session_id"),
            ({"frames": 0}, "at least one frame"),
            ({"trajectory": {"kind": "warp"}}, "trajectory kind"),
            ({"trajectory": "orbit"}, "JSON object"),
            ({"pipeline": "quantum"}, "unknown pipeline"),
            ({"qos": "psychic"}, "'qos'"),
            # Malformed numerics must surface as ValidationError (the
            # wire replies with an error frame), never a raw
            # ValueError/TypeError that drops the connection.
            ({"detail": "x"}, "'detail'"),
            ({"frames": "x"}, "'n_frames'"),
            ({"target_fps": "fast"}, "'target_fps'"),
            ({"trajectory": {"seed": "x"}}, "'seed'"),
            ({"trajectory": {"phase_deg": []}}, "'phase_deg'"),
            # Values the backend would only reject mid-serve (killing
            # the pump for every client) are refused at the hello.
            ({"target_fps": 0}, "'target_fps'"),
            ({"target_fps": -30.0}, "'target_fps'"),
            ({"target_fps": float("nan")}, "'target_fps'"),
            ({"detail": float("nan")}, "'detail'"),
            ({"detail": 0}, "'detail'"),
            ({"trajectory": {"kind": "head_jitter", "seed": -1}}, "'seed'"),
            ({"trajectory": {"phase_deg": float("inf")}}, "'phase_deg'"),
            ({"frames": float("inf")}, "'n_frames'"),
            ({"scene": ["bicycle"]}, "unknown scene"),
        ],
    )
    def test_invalid_descriptors_raise(self, mutation, match):
        payload = _desc("s")
        payload.update(mutation)
        with pytest.raises(ValidationError, match=match):
            session_from_payload(payload)

    def test_non_object_payload_raises(self):
        with pytest.raises(ValidationError, match="'session'"):
            session_from_payload(None)


class TestConstruction:
    def test_queue_bound_floor(self):
        with pytest.raises(ValidationError, match="at least 2"):
            StreamGateway(StreamServer(workers=0), send_queue_frames=1)

    def test_unknown_default_pipeline(self):
        with pytest.raises(ValidationError, match="pipeline"):
            StreamGateway(StreamServer(workers=0), pipeline="quantum")

    def test_port_requires_start(self):
        gateway = StreamGateway(StreamServer(workers=0))
        with pytest.raises(ValidationError, match="not started"):
            gateway.port


# ----------------------------------------------------------------------
# Live serving over loopback
# ----------------------------------------------------------------------
class TestServing:
    def test_single_session_matches_uninterrupted_serve(self):
        desc = _desc("solo")

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            welcome = await client.hello(desc)
            assert welcome["resumed"] is False
            assert welcome["next_frame"] == 0
            frames, end = await client.stream()
            await client.bye()
            await client.close()
            assert [f["frame"] for f in frames] == list(range(N_FRAMES))
            assert all(not f["replayed"] for f in frames)
            assert all("image_sha256" in f for f in frames)
            return end["report"]

        report, results, gateway = run(_with_gateway(scenario))
        assert report == _baseline([desc])["solo"]
        assert len(results) == 1 and results[0].report.n_frames == N_FRAMES
        (stats,) = gateway.connection_stats
        assert stats.session_id == "solo"
        assert stats.frames_sent == N_FRAMES
        assert stats.clean_close
        assert stats.bytes_sent > 0
        assert stats.messages_sent == N_FRAMES + 2  # welcome + frames + end

    def test_step_runs_on_the_loop_thread(self):
        """The pump steps the backend on the event loop's own thread,
        with no hand-off to a worker thread."""
        steps = []

        class RecordingServer(StreamServer):
            def step(self):
                steps.append(threading.get_ident())
                return super().step()

        desc = _desc("inline")

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(desc)
            frames, _ = await client.stream()
            await client.bye()
            await client.close()
            return threading.get_ident(), len(frames)

        (loop_thread, n_frames), _, _ = run(
            _with_gateway(scenario, backend=RecordingServer(workers=0))
        )
        assert n_frames == N_FRAMES
        assert steps and set(steps) == {loop_thread}

    def test_two_concurrent_clients_both_match_baseline(self):
        descs = [_desc("a"), _desc("b", scene="bonsai")]

        async def one(gateway, desc):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(desc)
            _, end = await client.stream()
            await client.bye()
            await client.close()
            return end["report"]

        async def scenario(gateway):
            return await asyncio.gather(
                *(one(gateway, d) for d in descs)
            )

        reports, results, _ = run(_with_gateway(scenario))
        want = _baseline(descs)
        assert reports[0] == want["a"]
        assert reports[1] == want["b"]
        assert len(results) == 2

    def test_duplicate_session_id_is_refused(self):
        async def scenario(gateway):
            first = GatewayClient(gateway.host, gateway.port)
            await first.connect()
            await first.hello(_desc("dup", frames=3))
            second = GatewayClient(gateway.host, gateway.port)
            await second.connect()
            with pytest.raises(ValidationError, match="already in use"):
                await second.hello(_desc("dup", frames=3))
            await second.close()
            _, end = await first.stream()
            await first.bye()
            await first.close()
            return end

        end, results, _ = run(_with_gateway(scenario))
        assert end is not None and len(results) == 1

    def test_invalid_hello_gets_error_reply(self):
        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            with pytest.raises(ValidationError, match="unknown scene"):
                await client.hello(_desc("bad", scene="atlantis"))
            await client.close()

        _, results, _ = run(_with_gateway(scenario))
        assert results == []

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"target_fps": 0}, "'target_fps'"),
            ({"detail": float("nan")}, "'detail'"),
            ({"trajectory": {"kind": "head_jitter", "seed": -1}}, "'seed'"),
        ],
    )
    def test_bad_hello_leaves_other_sessions_serving(self, bad, match):
        """A hello the backend would choke on gets an ``error`` reply;
        a concurrent valid session still streams to its end and a
        bounded stop returns."""

        async def main():
            gateway = StreamGateway(StreamServer(workers=0))
            await gateway.start()
            good = GatewayClient(gateway.host, gateway.port)
            await good.connect()
            await good.hello(_desc("good", frames=3))
            bad_client = GatewayClient(gateway.host, gateway.port)
            await bad_client.connect()
            with pytest.raises(ValidationError, match=match):
                await bad_client.hello(_desc("bad", **bad))
            await bad_client.close()
            frames, end = await good.stream()
            await good.bye()
            await good.close()
            results = await asyncio.wait_for(
                gateway.stop(drain_timeout=5.0), timeout=30
            )
            return frames, end, results

        frames, end, results = run(main())
        assert [f["frame"] for f in frames] == [0, 1, 2]
        assert end is not None
        assert [r.session_id for r in results] == ["good"]

    def test_first_message_must_be_hello(self):
        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.send({"type": "bye"})
            reply = await client.recv()
            assert reply["type"] == "error"
            assert "hello" in reply["message"]
            await client.close()

        run(_with_gateway(scenario))

    def test_unsupported_protocol_version_is_refused(self):
        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.send(
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION + 1,
                    "session": _desc("v"),
                }
            )
            reply = await client.recv()
            assert reply["type"] == "error"
            assert "protocol" in reply["message"]
            await client.close()

        run(_with_gateway(scenario))

    def test_unbuildable_detail_hello_gets_error_reply(self, no_scene_builds):
        """A ``detail`` past ``MAX_DETAIL`` is refused at the hello,
        before its scene build could raise ``MemoryError``."""

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.send(
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "session": _desc("huge", detail=1e9),
                }
            )
            reply = await client.recv()
            assert reply["type"] == "error"
            assert "'detail'" in reply["message"] and "16" in reply["message"]
            await client.close()

        _, results, _ = run(_with_gateway(scenario))
        assert results == []

    def test_malformed_resume_last_frame_gets_error_reply(self):
        """A non-numeric ``last_frame`` answers with an ``error`` frame
        (not an unhandled-task-exception connection drop)."""

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            with pytest.raises(ValidationError, match="last_frame"):
                await client.resume("whoever", last_frame="x")
            await client.close()

        run(_with_gateway(scenario))

    def test_resume_of_unknown_session_is_refused(self):
        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            with pytest.raises(ValidationError, match="no detached session"):
                await client.resume("ghost", last_frame=-1)
            await client.close()

        run(_with_gateway(scenario))

    def test_mid_stream_chatter_is_a_protocol_error(self):
        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(_desc("chatty", frames=3))
            await client.send({"type": "hello", "session": _desc("again")})
            # An error eventually arrives (frames may precede it).
            while True:
                message = await client.recv()
                if message is None or message["type"] == "error":
                    break
            assert message is not None
            assert "unexpected message" in message["message"]
            await client.close()

        run(_with_gateway(scenario))


# ----------------------------------------------------------------------
# Reconnect chaos matrix — byte identity at every kill point
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestReconnectChaos:
    @pytest.mark.parametrize("kill_after", list(range(N_FRAMES + 1)))
    def test_kill_and_resume_at_every_frame_is_byte_identical(
        self, kill_after
    ):
        """Abort the connection after ``kill_after`` delivered frames,
        resume, and require the full stream to equal the uninterrupted
        serve — frames, hashes, detail trace, cache counters."""
        desc = _desc("phoenix")

        async def scenario(gateway):
            first = GatewayClient(gateway.host, gateway.port)
            await first.connect()
            await first.hello(desc)
            head, _ = await first.stream(limit=kill_after)
            first.abort()

            last = head[-1]["frame"] if head else -1
            second, welcome = await _resume_with_retry(
                gateway, desc["session_id"], last
            )
            assert welcome["resumed"] is True
            tail, end = await second.stream()
            await second.bye()
            await second.close()
            return head, tail, end["report"]

        (head, tail, report), results, gateway = run(_with_gateway(scenario))
        # Replayed + live frames reassemble the full stream in order.
        frames = head + tail
        assert [f["frame"] for f in frames] == list(range(N_FRAMES))
        assert report == _baseline([desc])["phoenix"]
        # Exactly one reconnect happened and was recorded.
        resumed = [s for s in gateway.connection_stats if s.resumed]
        assert len(resumed) == 1
        assert resumed[0].restore_seconds >= 0.0
        assert len(results) == 1 and results[0].report.n_frames == N_FRAMES

    def test_bye_detach_is_resumable_and_clean(self):
        """A polite ``bye`` parks the session exactly like a crash,
        but records a clean close."""
        desc = _desc("polite")

        async def scenario(gateway):
            first = GatewayClient(gateway.host, gateway.port)
            await first.connect()
            await first.hello(desc)
            head, _ = await first.stream(limit=2)
            await first.bye()
            await first.close()

            second, _ = await _resume_with_retry(
                gateway, desc["session_id"], head[-1]["frame"]
            )
            tail, end = await second.stream()
            await second.bye()
            await second.close()
            return head, tail, end["report"]

        (head, tail, report), _, gateway = run(_with_gateway(scenario))
        assert [f["frame"] for f in head + tail] == list(range(N_FRAMES))
        assert report == _baseline([desc])["polite"]
        first_stats = gateway.connection_stats[0]
        assert first_stats.clean_close and not first_stats.resumed

    def test_replay_covers_frames_lost_in_flight(self):
        """Frames rendered but never delivered (lost with the dropped
        connection) come back as replayed messages."""
        desc = _desc("lossy")

        async def scenario(gateway):
            first = GatewayClient(gateway.host, gateway.port)
            await first.connect()
            await first.hello(desc)
            head, _ = await first.stream(limit=1)
            first.abort()

            second, welcome = await _resume_with_retry(
                gateway, desc["session_id"], head[-1]["frame"]
            )
            tail, end = await second.stream()
            await second.close()
            return welcome, head, tail

        (welcome, head, tail), _, _ = run(_with_gateway(scenario))
        # Whatever was rendered beyond the last delivered frame arrived
        # flagged as replayed, then the stream continued live.
        replayed = [f for f in tail if f["replayed"]]
        live = [f for f in tail if not f["replayed"]]
        assert welcome["replayed"] == len(replayed)
        assert [f["frame"] for f in head + replayed + live] == list(
            range(N_FRAMES)
        )

    def test_detached_session_without_reconnect_is_reported(self):
        """A session whose client vanished and never came back still
        appears in the final results, reported as far as it streamed,
        with worker -1 (parked, not placed).  Its budget is far beyond
        what renders before the abort lands, so it is still live when
        the gateway parks it."""
        desc = _desc("ghosted", frames=10**6)

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(desc)
            head, _ = await client.stream(limit=2)
            client.abort()
            # Wait for the gateway to park the session.
            for _ in range(100):
                if gateway.stats()["sessions_detached"]:
                    break
                await asyncio.sleep(0.02)
            return head

        head, results, _ = run(_with_gateway(scenario))
        assert len(results) == 1
        assert results[0].worker == -1
        # Parked with at least the delivered frames rendered.
        assert results[0].report.n_frames >= len(head)

    def test_session_finished_before_its_client_vanished_is_reported(self):
        """The other side of that race: a session whose last frame and
        ``end`` went out before its client aborted is reported
        finished, on the worker that served it, not as parked."""
        desc = _desc("departed")

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(desc)
            frames, end = await client.stream()
            client.abort()
            for _ in range(100):
                if not gateway.stats()["sessions_connected"]:
                    break
                await asyncio.sleep(0.02)
            return frames, end["report"]

        (frames, report), results, gateway = run(_with_gateway(scenario))
        assert [f["frame"] for f in frames] == list(range(N_FRAMES))
        assert gateway.stats()["sessions_detached"] == 0
        (result,) = results
        assert result.worker >= 0
        assert result.report.n_frames == N_FRAMES
        assert report == report_evidence(result.report)
        assert report == _baseline([desc])["departed"]


# ----------------------------------------------------------------------
# Dead peers: a vanished client can never hang the server
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestDeadPeer:
    """A peer that vanishes while its bounded replay is in flight used
    to deadlock the handler: the writer died on the reset socket but
    the replay loop kept waiting for queue space nobody would ever
    free, pinning the session as connected and wedging drain shutdown.
    Now no send waits for queue space, the dead writer aborts the
    connection, and the session parks like any other disconnect."""

    BOUND = 2
    KERNEL_BUF = 4096
    FRAMES = 8

    def test_vanishing_mid_replay_parks_the_session_again(self):
        desc = _desc("houdini", frames=self.FRAMES)

        async def scenario(gateway):
            first = GatewayClient(gateway.host, gateway.port)
            await first.connect(rcvbuf=self.KERNEL_BUF)
            await first.hello(desc, deliver_images=True)
            # Stream well past the queue bound so the replay below has
            # more frames than send-queue slots — a dead writer then
            # leaves the replay's bounded send with no space to wait
            # for (the original deadlock).
            head, _ = await first.stream(limit=5)
            first.abort()

            # Resume with a client that asks for the bulky image
            # replay, reads none of it, and dies immediately — the
            # replay's bounded sends run into the dead writer.
            second = None
            for attempt in range(100):
                second = GatewayClient(gateway.host, gateway.port)
                await second.connect(rcvbuf=self.KERNEL_BUF)
                try:
                    await second.resume(
                        desc["session_id"], -1, deliver_images=True
                    )
                    break
                except ValidationError:
                    await second.close()
                    assert attempt < 99
                    await asyncio.sleep(0.02)
            second.abort()

            # The handler falls through to teardown and parks the
            # session promptly (pre-fix it stayed connected forever).
            for _ in range(250):
                if gateway.stats()["sessions_connected"] == 0:
                    break
                await asyncio.sleep(0.02)
            assert gateway.stats()["sessions_connected"] == 0

            # A healthy third client still finishes the stream.
            third, _ = await _resume_with_retry(
                gateway, desc["session_id"], head[-1]["frame"]
            )
            tail, end = await third.stream()
            await third.close()
            return head, tail, end["report"]

        async def guarded(gateway):
            # Bound the whole scenario so a regression of the old
            # deadlock fails fast instead of hanging the suite.
            return await asyncio.wait_for(scenario(gateway), timeout=60)

        (head, tail, report), results, _ = run(
            _with_gateway(
                guarded,
                send_queue_frames=self.BOUND,
                sndbuf=self.KERNEL_BUF,
            )
        )
        assert [f["frame"] for f in head + tail] == list(range(self.FRAMES))
        assert report == _baseline([desc])["houdini"]
        assert len(results) == 1
        assert results[0].report.n_frames == self.FRAMES


# ----------------------------------------------------------------------
# Backpressure: bounded queues pause dispatch, never overflow
# ----------------------------------------------------------------------
class TestBackpressure:
    BOUND = 3
    SLOW_FRAMES = 10
    #: Pinned kernel buffers (server SO_SNDBUF / client SO_RCVBUF):
    #: loopback TCP autotuning otherwise absorbs megabytes, and a
    #: non-reading client would never stall the writer.
    KERNEL_BUF = 16384

    def test_slow_client_is_paused_not_buffered(self):
        desc = _desc("tortoise", frames=self.SLOW_FRAMES)

        async def scenario(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect(rcvbuf=self.KERNEL_BUF)
            # deliver_images makes every frame message carry real pixel
            # payloads — heavy enough that a non-reading client stalls
            # the writer (metadata alone fits in kernel socket buffers
            # and would never exert backpressure).
            await client.hello(desc, deliver_images=True)
            # Let the pump render against a non-reading client until
            # backpressure must have engaged.
            for _ in range(200):
                if gateway.stats()["sessions_paused"]:
                    break
                await asyncio.sleep(0.02)
            assert gateway.stats()["sessions_paused"] == 1
            # Now drain: the stream resumes and completes in order.
            frames, end = await client.stream()
            await client.bye()
            await client.close()
            return frames, end

        (frames, end), results, gateway = run(
            _with_gateway(
                scenario,
                send_queue_frames=self.BOUND,
                sndbuf=self.KERNEL_BUF,
            )
        )
        assert [f["frame"] for f in frames] == list(range(self.SLOW_FRAMES))
        assert all("image" in f for f in frames)  # pixels were shipped
        assert end is not None
        (stats,) = gateway.connection_stats
        assert stats.pauses >= 1
        assert stats.queue_peak <= self.BOUND  # the hard bound held
        assert results[0].report.n_frames == self.SLOW_FRAMES

    def test_slow_client_does_not_stall_fast_client(self):
        slow = _desc("slow", frames=self.SLOW_FRAMES)
        fast = _desc("fast", frames=3, scene="bonsai")

        async def scenario(gateway):
            tortoise = GatewayClient(gateway.host, gateway.port)
            await tortoise.connect(rcvbuf=self.KERNEL_BUF)
            await tortoise.hello(slow, deliver_images=True)

            hare = GatewayClient(gateway.host, gateway.port)
            await hare.connect()
            await hare.hello(fast)
            # The fast client streams to completion while the slow one
            # refuses to read a single frame.
            fast_frames, fast_end = await hare.stream()
            await hare.bye()
            await hare.close()

            slow_frames, slow_end = await tortoise.stream()
            await tortoise.bye()
            await tortoise.close()
            return fast_frames, fast_end, slow_frames, slow_end

        (fast_frames, fast_end, slow_frames, slow_end), results, gateway = (
            run(
                _with_gateway(
                    scenario,
                    send_queue_frames=self.BOUND,
                    sndbuf=self.KERNEL_BUF,
                )
            )
        )
        assert len(fast_frames) == 3 and fast_end is not None
        assert len(slow_frames) == self.SLOW_FRAMES and slow_end is not None
        assert all(
            s.queue_peak <= self.BOUND for s in gateway.connection_stats
        )
        assert {r.session_id for r in results} == {"slow", "fast"}


# ----------------------------------------------------------------------
# Fleet backend and drain shutdown
# ----------------------------------------------------------------------
@pytest.mark.fleet
class TestFleetBackend:
    def test_gateway_over_fleet_matches_baseline(self):
        descs = [_desc(f"f{i}", scene=s) for i, s in enumerate(
            ["bicycle", "bonsai", "bicycle"]
        )]

        async def one(gateway, desc):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(desc)
            _, end = await client.stream()
            await client.bye()
            await client.close()
            return end["report"]

        async def scenario(gateway):
            return await asyncio.gather(*(one(gateway, d) for d in descs))

        fleet = EdgeFleet(nodes=2, node_capacity=4)
        reports, results, _ = run(_with_gateway(scenario, backend=fleet))
        want = _baseline(descs)
        for desc, report in zip(descs, reports):
            assert report == want[desc["session_id"]]
        assert len(results) == len(descs)

    def test_fleet_reconnect_is_byte_identical(self):
        desc = _desc("nomad")

        async def scenario(gateway):
            first = GatewayClient(gateway.host, gateway.port)
            await first.connect()
            await first.hello(desc)
            head, _ = await first.stream(limit=2)
            first.abort()

            second, _ = await _resume_with_retry(
                gateway, desc["session_id"], head[-1]["frame"]
            )
            tail, end = await second.stream()
            await second.close()
            return head, tail, end["report"]

        fleet = EdgeFleet(nodes=2, node_capacity=4)
        (head, tail, report), results, _ = run(
            _with_gateway(scenario, backend=fleet)
        )
        assert [f["frame"] for f in head + tail] == list(range(N_FRAMES))
        assert report == _baseline([desc])["nomad"]
        assert len(results) == 1


class TestShutdown:
    def test_drain_finishes_connected_sessions(self):
        """stop(drain=True) keeps serving until connected sessions
        complete: the client still gets every frame and the end."""
        desc = _desc("finisher", frames=6)

        async def main():
            server = StreamServer(workers=0)
            gateway = StreamGateway(server)
            await gateway.start()
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(desc)
            await client.stream(limit=1)
            stopper = asyncio.create_task(gateway.stop())
            frames, end = await client.stream()
            await client.close()
            results = await stopper
            return frames, end, results

        frames, end, results = run(main())
        assert end is not None
        assert len(frames) == 5  # the remaining frames all arrived
        assert results[0].report.n_frames == 6

    def test_drain_timeout_force_detaches_stalled_client(self):
        """A client that stays connected but stops reading cannot pin
        shutdown: past the drain deadline its session is checkpointed
        and parked exactly like a disconnect, and stop() returns."""
        desc = _desc("statue", frames=10)

        async def main():
            server = StreamServer(workers=0)
            gateway = StreamGateway(
                server, send_queue_frames=3, sndbuf=16384
            )
            await gateway.start()
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect(rcvbuf=16384)
            await client.hello(desc, deliver_images=True)
            # Wait until backpressure paused the non-reading client,
            # the state that used to stall the drain indefinitely.
            for _ in range(200):
                if gateway.stats()["sessions_paused"]:
                    break
                await asyncio.sleep(0.02)
            assert gateway.stats()["sessions_paused"] == 1
            results = await asyncio.wait_for(
                gateway.stop(drain_timeout=0.5), timeout=30
            )
            await client.close()
            return results

        results = run(main())
        assert len(results) == 1
        assert results[0].worker == -1  # parked mid-stream, not completed
        assert 0 < results[0].report.n_frames < 10

    def test_new_sessions_refused_while_draining(self):
        async def main():
            server = StreamServer(workers=0)
            gateway = StreamGateway(server)
            await gateway.start()
            results = await gateway.stop()
            # The listener is closed: connecting again must fail.
            with pytest.raises(OSError):
                await asyncio.open_connection(gateway.host, gateway.port)
            return results

        assert run(main()) == []

    def test_double_start_and_unstarted_stop_raise(self):
        async def main():
            server = StreamServer(workers=0)
            gateway = StreamGateway(server)
            with pytest.raises(ValidationError, match="not started"):
                await gateway.stop()
            await gateway.start()
            with pytest.raises(ValidationError, match="already started"):
                await gateway.start()
            await gateway.stop()

        run(main())


# ----------------------------------------------------------------------
# Bounded state: a closed connection leaves no asyncio objects behind
# ----------------------------------------------------------------------
class TestBoundedState:
    """Counted, not timed: after serving N, then 4N digest sessions
    through one gateway, no ``_Connection`` or ``StreamWriter`` of a
    closed connection is alive, while the wire accounting of every
    connection stays, in accept order."""

    N = 25
    FRAMES = 3

    @staticmethod
    def _census() -> tuple[int, int]:
        gc.collect()
        objects = gc.get_objects()
        return (
            sum(isinstance(o, _Connection) for o in objects),
            sum(isinstance(o, asyncio.StreamWriter) for o in objects),
        )

    async def _serve_one(self, gateway, session_id: str) -> int:
        client = GatewayClient(gateway.host, gateway.port)
        await client.connect()
        await client.hello(
            _desc(
                session_id,
                frames=self.FRAMES,
                pipeline="digest",
                keep_images=False,
            )
        )
        frames, end = await client.stream()
        assert end is not None
        await client.bye()
        await client.close()
        return len(frames)

    def test_closed_connections_keep_no_asyncio_objects(self):
        async def scenario(gateway):
            censuses = []
            served = 0
            for n in (self.N, 4 * self.N):
                for index in range(served, served + n):
                    assert await self._serve_one(gateway, f"s{index}") == (
                        self.FRAMES
                    )
                served += n
                # Teardown finishes a beat after the client closes.
                for _ in range(100):
                    census = self._census()
                    if census == (0, 0):
                        break
                    await asyncio.sleep(0.01)
                censuses.append(
                    (gateway.stats()["connections_total"], census)
                )
            return censuses

        models = WorkloadModelTable.calibrate(
            ["bicycle"],
            details=(DETAIL,),
            trajectories=("orbit",),
            n_frames=8,
            config=streaming_config(),
            seed=0,
        )
        backend = StreamServer(workers=0, models=models)
        censuses, results, gateway = run(_with_gateway(scenario, backend))
        assert censuses == [
            (self.N, (0, 0)),
            (5 * self.N, (0, 0)),
        ]
        assert len(results) == 5 * self.N
        assert [s.session_id for s in gateway.connection_stats] == [
            f"s{index}" for index in range(5 * self.N)
        ]
        assert all(
            s.frames_sent == self.FRAMES and s.clean_close
            for s in gateway.connection_stats
        )


# ----------------------------------------------------------------------
# HTTP shim
# ----------------------------------------------------------------------
class TestHttpShim:
    @staticmethod
    async def _get(host, port, path):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return head.decode().splitlines()[0], json.loads(body)

    def test_healthz_stats_and_404(self):
        async def scenario(gateway):
            port = await gateway.start_http()
            status, body = await self._get(gateway.host, port, "/healthz")
            assert status.endswith("200 OK")
            assert body == {"status": "ok"}
            status, stats = await self._get(gateway.host, port, "/stats")
            assert status.endswith("200 OK")
            assert stats["sessions_connected"] == 0
            assert stats["draining"] is False
            status, _ = await self._get(gateway.host, port, "/missing")
            assert status.endswith("404 Not Found")
            with pytest.raises(ValidationError, match="already started"):
                await gateway.start_http()

        run(_with_gateway(scenario))


# ----------------------------------------------------------------------
# Admission: what the backend cannot serve is refused at hello
# ----------------------------------------------------------------------
class TestAdmission:
    def test_digest_hello_without_models_is_refused(self):
        """Admitted, a digest session on a model-less backend would
        raise inside ``step`` and end the pump for every client.  It
        gets an ``error`` reply at hello instead, and a concurrent
        exact client streams on, byte-identical to an uninterrupted
        serve."""
        desc = _desc("steady")

        async def scenario(gateway):
            good = GatewayClient(gateway.host, gateway.port)
            await good.connect()
            await good.hello(desc)
            bad = GatewayClient(gateway.host, gateway.port)
            await bad.connect()
            with pytest.raises(ValidationError, match="no workload models"):
                await bad.hello(
                    _desc("digest", pipeline="digest", keep_images=False)
                )
            await bad.close()
            frames, end = await good.stream()
            await good.bye()
            await good.close()
            return frames, end["report"]

        async def guarded(gateway):
            return await asyncio.wait_for(scenario(gateway), timeout=60)

        (frames, report), results, _ = run(_with_gateway(guarded))
        assert [f["frame"] for f in frames] == list(range(N_FRAMES))
        assert report == _baseline([desc])["steady"]
        assert [r.session_id for r in results] == ["steady"]

    #: Far more poses than these tests render, far fewer than a
    #: 10^9-frame path: an eager pose build trips the spy in ~20 ms.
    LOOK_AT_LIMIT = 500

    @pytest.fixture()
    def look_at_calls(self, monkeypatch):
        calls = []
        look_at = Camera.look_at
        geomspace = np.geomspace

        def spy(*args, **kwargs):
            calls.append(1)
            if len(calls) > self.LOOK_AT_LIMIT:
                raise AssertionError(
                    f"more than {self.LOOK_AT_LIMIT} Camera.look_at calls"
                )
            return look_at(*args, **kwargs)

        def bounded_geomspace(start, stop, num=50, **kwargs):
            # An eager dolly path would allocate 8 GB here first.
            if num > self.LOOK_AT_LIMIT:
                raise AssertionError(f"np.geomspace of {num} factors")
            return geomspace(start, stop, num, **kwargs)

        monkeypatch.setattr(Camera, "look_at", staticmethod(spy))
        monkeypatch.setattr(np, "geomspace", bounded_geomspace)
        return calls

    def test_huge_frame_budget_builds_at_most_one_pose(self, look_at_calls):
        session = session_from_payload(_desc("huge", frames=10**9))
        assert session.frame_budget == 10**9
        assert len(look_at_calls) <= 1

    @pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
    def test_admission_cost_is_flat_in_frames_for_every_kind(
        self, look_at_calls, kind
    ):
        # 10**7, not 10**9: an eager ``frozen`` path builds no pose the
        # spies could stop, only a tuple of ``frames`` references.
        session = session_from_payload(
            _desc("long", frames=10**7, trajectory={"kind": kind})
        )
        assert session.frame_budget == 10**7
        assert len(look_at_calls) <= 1

    def test_huge_frame_budget_streams_and_spares_other_clients(
        self, look_at_calls
    ):
        """A ``frames: 10**9`` hello neither stalls the loop nor
        exhausts memory: the session streams its first frames and
        parks on ``bye``, and a concurrent client stays byte-identical
        to an uninterrupted serve."""
        huge = _desc("huge", frames=10**9)
        steady = _desc("steady", scene="bonsai")

        async def stream_huge(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(huge)
            head, _ = await client.stream(limit=3)
            await client.bye()
            await client.close()
            for _ in range(100):
                if gateway.stats()["sessions_detached"]:
                    break
                await asyncio.sleep(0.02)
            return head

        async def stream_steady(gateway):
            client = GatewayClient(gateway.host, gateway.port)
            await client.connect()
            await client.hello(steady)
            _, end = await client.stream()
            await client.bye()
            await client.close()
            return end["report"]

        async def scenario(gateway):
            return await asyncio.wait_for(
                asyncio.gather(stream_huge(gateway), stream_steady(gateway)),
                timeout=120,
            )

        (head, report), results, _ = run(_with_gateway(scenario))
        assert [f["frame"] for f in head] == [0, 1, 2]
        assert report == _baseline([steady])["steady"]
        by_id = {r.session_id: r for r in results}
        assert by_id["huge"].worker == -1  # parked by its bye
        assert by_id["huge"].report.n_frames >= 3


# ----------------------------------------------------------------------
# The connection's send primitive on its own
# ----------------------------------------------------------------------
class TestConnection:
    """``post``/``abort``/``close`` over a loopback pair whose peer
    does not read, with kernel buffers pinned small so the writer
    stalls after a message or two."""

    BOUND = 2
    KERNEL_BUF = 4096
    FLUSH = 2.0

    @staticmethod
    def _messages(n_frames):
        pad = "x" * 65536  # past the transport's write-buffer high-water mark
        return (
            [{"type": "welcome", "session_id": "s"}]
            + [
                {"type": "frame", "frame": i, "replayed": True, "pad": pad}
                for i in range(n_frames)
            ]
            + [{"type": "end", "session_id": "s"}]
        )

    async def _pair(self):
        """A gateway-side connection (writer running) and its client."""
        gateway = StreamGateway(StreamServer(workers=0))
        accepted = asyncio.get_running_loop().create_future()

        async def on_accept(reader, writer):
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, self.KERNEL_BUF
            )
            conn = _Connection(reader, writer, self.BOUND)
            conn.writer_task = asyncio.create_task(gateway._writer_loop(conn))
            accepted.set_result(conn)

        server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
        client = GatewayClient("127.0.0.1", server.sockets[0].getsockname()[1])
        await client.connect(rcvbuf=self.KERNEL_BUF)
        return server, client, await accepted

    def test_posts_past_the_bound_wait_in_a_fifo_backlog(self):
        sent = self._messages(n_frames=8)

        async def main():
            server, client, conn = await self._pair()
            for message in sent:
                conn.post(message)
            # The peer reads nothing: the writer stalls on the socket
            # and what does not fit the queue stays in the backlog.
            await asyncio.sleep(0.1)
            assert conn.queue.full() and conn.backlog
            assert conn.stats.queue_peak <= self.BOUND
            # The close sentinel queues behind the backlog, so a close
            # now still delivers everything posted, then EOF.
            closer = asyncio.create_task(conn.close(flush_timeout=30))
            received = [await client.recv(timeout=30) for _ in sent]
            assert await client.recv(timeout=30) is None
            await closer
            await client.close()
            server.close()
            await server.wait_closed()
            return received, conn

        received, conn = run(main())
        assert received == sent
        assert conn.stats.queue_peak <= self.BOUND
        assert conn.stats.messages_sent == len(sent)
        assert conn.stats.frames_sent == len(sent) - 2

    def test_abort_drops_everything_and_close_stays_bounded(self):
        async def main():
            server, client, conn = await self._pair()
            for message in self._messages(n_frames=8):
                conn.post(message)
            await asyncio.sleep(0.1)
            conn.abort()
            assert conn.closed and not conn.backlog
            depth = conn.queue.qsize()
            conn.post({"type": "frame", "frame": 99})
            assert conn.queue.qsize() == depth and not conn.backlog
            # Within one flush timeout, though the peer never read.
            await asyncio.wait_for(
                conn.close(flush_timeout=self.FLUSH), self.FLUSH
            )
            assert conn.writer_task.done()
            client.abort()
            server.close()
            await server.wait_closed()

        run(main())
