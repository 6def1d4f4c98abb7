"""Asyncio serving gateway: stream sessions over real connections.

Everything below :class:`StreamGateway` in this repository is a
library — sessions are synthetic descriptors handed to
:class:`~repro.stream.server.StreamServer` or
:class:`~repro.stream.fleet.EdgeFleet` in-process.  This module is the
wire boundary the paper's AR/VR deployment needs: clients connect over
TCP (loopback in CI — the test suite never leaves 127.0.0.1), request
a session with a JSON ``hello``, and receive one message per rendered
frame carrying the QoS metadata a viewer adapts on (detail rung,
deadline verdict, serving tier, simulated seconds).

**Framing.**  Length-prefixed JSON: every message is a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Client→server types: ``hello`` (open or resume a session), ``bye``
(detach cleanly).  Server→client types: ``welcome``, ``frame``,
``end`` (terminal per-session report), ``error``.

**Reconnects.**  A dropped connection does not kill the session: the
gateway extracts it from the backend — descriptor, latest
:class:`~repro.stream.checkpoint.SessionCheckpoint`, and the frames
streamed so far — and parks it.  A later ``hello`` with
``resume: true`` injects it back (checkpoint replay is byte-identical,
so the resumed stream renders exactly what an uninterrupted one would)
and re-sends the frame metadata the client missed, judged by the
``last_frame`` index it reports.

**Backpressure.**  Each connection owns a bounded send queue drained
by one writer task, and everything bound for the client goes through
one non-blocking :meth:`_Connection.post`: a message that finds the
queue full waits in a FIFO backlog that the writer feeds into each
slot it frees.  Before every backend tick the pump pauses dispatch for
any session whose queue is full (:meth:`StreamServer.pause_session`)
and resumes it when the client catches up — a slow client freezes
*its own* stream, and every other session keeps ticking.  A paused
session renders nothing, so a resume's replay drains ahead of its
next live frame and the backlog never holds more than that replay
plus one tick's frame and ``end``.

**Shutdown.**  :meth:`StreamGateway.stop` stops accepting, keeps
ticking until every *connected* session finishes (drain), flushes and
closes the send queues, then closes the backend serve and returns the
merged results (parked sessions included, reported as far as they
got).  A dead peer can never hang the server: no gateway code waits
for queue space, a writer-side connection error aborts the connection
(its single closed state; the session parks like any disconnect), and
a connected client that stops reading is force-detached after the
drain deadline — checkpointed exactly like a disconnect — so ``stop``
always returns.

The gateway is wire-side telemetry only: simulated physics comes
exclusively from the backend, and the ``perf_counter`` readings here
(restore latency, connection accounting) never feed it.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream.checkpoint import SessionCheckpoint
from repro.stream.pipeline import FrameRecord, StreamReport
from repro.stream.qos import QoSPolicy
from repro.stream.reporting import (
    ConnectionStats,
    SessionResult,
    frame_evidence,
    report_evidence,
)
from repro.stream.server import StreamSession, check_session_field
from repro.stream.trajectory import CameraTrajectory

__all__ = [
    "GatewayClient",
    "StreamGateway",
    "encode_message",
    "read_message",
    "session_from_payload",
]

#: Wire protocol revision; ``hello`` may pin it, mismatches error out.
PROTOCOL_VERSION = 1

#: 4-byte big-endian unsigned message length.
_HEADER = struct.Struct("!I")

#: Upper bound on one message's JSON payload — a corrupt or hostile
#: length prefix must not allocate gigabytes.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
def encode_message(message: dict) -> bytes:
    """Frame one JSON message: length prefix + compact UTF-8 body."""
    data = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise ValidationError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte wire limit"
        )
    return _HEADER.pack(len(data)) + data


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one framed message; ``None`` on EOF (clean or mid-frame).

    A syntactically invalid frame (oversized length prefix, non-JSON
    body, non-object payload) raises :class:`ValidationError` — the
    peer is speaking the wrong protocol, not hanging up.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ValidationError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte wire limit"
        )
    try:
        data = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ValidationError("message must be a JSON object with a 'type'")
    return message


# ----------------------------------------------------------------------
# Session descriptors over the wire
# ----------------------------------------------------------------------
def _number(value, cast, label: str):
    """Coerce a client-supplied numeric field.

    Malformed input (``"x"``, a list, ``Infinity`` as an int, ...)
    raises :class:`ValidationError` — the documented ``error`` reply —
    rather than the bare ``ValueError``/``TypeError``/``OverflowError``
    the handler does not catch (which would drop the connection with an
    unhandled task exception instead of answering).
    """
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"'{label}' must be a number, got {value!r}"
        ) from exc


def _field(field: str, value, cast=None, label: str | None = None):
    """Coerce (when ``cast`` is given) and check one descriptor field
    against the rule it shares with the CLI."""
    label = label or field
    if cast is not None:
        value = _number(value, cast, label)
    return check_session_field(field, value, f"'{label}'")


def session_from_payload(
    payload, default_pipeline: str = "exact"
) -> StreamSession:
    """Build a :class:`StreamSession` from a ``hello`` descriptor.

    Every field is validated — the fields a session shares with the
    CLI by :data:`~repro.stream.server.SESSION_FIELD_RULES` — and
    errors come back as :class:`ValidationError` (the gateway relays
    the message in an ``error`` frame instead of dropping the
    connection silently).  ``default_pipeline`` applies when the
    descriptor omits ``pipeline`` (the ``repro-stream serve
    --pipeline`` default).
    """
    if not isinstance(payload, dict):
        raise ValidationError("hello needs a 'session' object")
    session_id = payload.get("session_id")
    if not isinstance(session_id, str) or not session_id:
        raise ValidationError("session descriptor needs a 'session_id'")
    scene = _field("scene", payload.get("scene"))
    detail = _field("detail", payload.get("detail", 1.0), float)
    trajectory = payload.get("trajectory") or {}
    if not isinstance(trajectory, dict):
        raise ValidationError("'trajectory' must be a JSON object")
    kind = _field("trajectory", trajectory.get("kind", "orbit"), label="kind")
    n_frames = _field(
        "frames",
        trajectory.get("n_frames", payload.get("frames", 16)),
        int,
        "n_frames",
    )
    pipeline = _field("pipeline", payload.get("pipeline", default_pipeline))
    qos_mode = _field("qos", payload.get("qos", "adaptive"))
    target_fps = payload.get("target_fps")
    camera = CameraTrajectory.for_scene(
        CATALOG[scene],
        kind,
        n_frames=n_frames,
        seed=_field("seed", trajectory.get("seed", 0), int),
        detail=detail,
        phase_deg=_field(
            "phase", trajectory.get("phase_deg", 0.0), float, "phase_deg"
        ),
    )
    return StreamSession(
        session_id=session_id,
        scene=scene,
        trajectory=camera,
        detail=detail,
        keep_images=bool(payload.get("keep_images", False)),
        target_fps=(
            None
            if target_fps is None
            else _field("target_fps", target_fps, float)
        ),
        qos=QoSPolicy.fixed() if qos_mode == "fixed" else None,
        pipeline=pipeline,
    )


# ----------------------------------------------------------------------
# Gateway internals
# ----------------------------------------------------------------------
@dataclass
class _DetachedSession:
    """A disconnected client's parked stream, ready to resume."""

    session: StreamSession
    checkpoint: SessionCheckpoint | None
    report: StreamReport


class _Connection:
    """One accepted connection: its send queue and its one closed state.

    Three operations make up the send path.  :meth:`post` enqueues
    without ever waiting; :meth:`abort` severs the wire now;
    :meth:`close` flushes within a bound and then closes.  The queue
    holds at most ``bound`` messages.  What does not fit waits in a
    FIFO backlog that the writer moves into the queue one freed slot
    at a time, so the backlog is only ever non-empty behind a full
    queue and the pump's backpressure test is just ``queue.full()``.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        bound: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        peer = writer.get_extra_info("peername")
        label = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "?"
        self.stats = ConnectionStats(peer=label)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=bound)
        self.backlog: deque = deque()
        self.session_id: str | None = None
        #: Ship raw image bytes in frame messages (hello opt-in; only
        #: sessions with ``keep_images`` have any to ship).
        self.deliver_images = False
        self.writer_task: asyncio.Task | None = None
        #: Set by :meth:`close` or :meth:`abort`; nothing is posted after.
        self.closed = False

    def post(self, message: dict | None) -> None:
        """Enqueue ``message`` behind everything already posted.

        Never blocks and never raises.  A no-op once the connection is
        closed: its session is parked (or finished) and a resume
        replays whatever frames were lost.  ``None`` is the writer's
        close sentinel.
        """
        if self.closed:
            return
        if self.queue.full():
            self.backlog.append(message)
        else:
            self.queue.put_nowait(message)
            self.stats.queue_peak = max(
                self.stats.queue_peak, self.queue.qsize()
            )

    def abort(self) -> None:
        """Sever the wire now: drop everything unsent, wake the writer
        with the close sentinel and abort the transport, so the
        handler's read returns and teardown parks the session exactly
        like a client disconnect."""
        self.closed = True
        self.backlog.clear()
        while not self.queue.empty():
            self.queue.get_nowait()
        self.queue.put_nowait(None)
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    async def close(self, flush_timeout: float = 5.0) -> None:
        """Flush what was posted (best effort) and close the socket.

        The close sentinel queues behind the backlog.  Every wait is
        bounded: a peer that stopped reading must not pin shutdown, so
        after ``flush_timeout`` the connection is aborted with whatever
        made it onto the wire.  Idempotent, and quick after
        :meth:`abort`.
        """
        self.post(None)
        self.closed = True
        try:
            # On timeout wait_for cancels the writer task itself.
            await asyncio.wait_for(self.writer_task, flush_timeout)
        except (
            asyncio.TimeoutError,
            asyncio.CancelledError,
            ConnectionError,
            OSError,
        ):
            pass
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), flush_timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            # Unflushed bytes and a vanished reader: drop the link.
            self.abort()


class StreamGateway:
    """Serve stream sessions to real clients over loopback/TCP.

    Parameters
    ----------
    backend:
        A :class:`~repro.stream.server.StreamServer` or
        :class:`~repro.stream.fleet.EdgeFleet`.  The gateway drives it
        through the incremental ``begin``/``submit``/``step``/
        ``finish`` protocol (opening the serve itself unless the
        caller already did) — both backends speak it, so one gateway
        fronts a single node or a whole fleet.
    host / port:
        Listen address; port 0 binds an ephemeral port (see
        :attr:`port` after :meth:`start`).
    send_queue_frames:
        Per-connection send-queue bound.  The backpressure guarantee
        asserted by the tests: a connection's queue never holds more
        than this many undelivered messages.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        send_queue_frames: int = 8,
        pipeline: str = "exact",
        sndbuf: int | None = None,
    ) -> None:
        if send_queue_frames < 2:
            raise ValidationError(
                "send queue needs at least 2 slots (welcome + frame)"
            )
        check_session_field("pipeline", pipeline, "'pipeline'")
        self.backend = backend
        self.host = host
        self._requested_port = port
        self.send_queue_frames = send_queue_frames
        self.pipeline = pipeline
        #: Optional ``SO_SNDBUF`` cap per accepted socket.  Bounds the
        #: kernel-side buffer a stalled client can consume (and keeps
        #: the backpressure tests honest: without it, loopback TCP
        #: autotuning absorbs megabytes before the queue ever fills).
        self.sndbuf = sndbuf
        self._server: asyncio.base_events.Server | None = None
        self._http_server: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task | None = None
        self._lock = asyncio.Lock()
        self._wake = asyncio.Event()
        self._by_session: dict[str, _Connection] = {}
        self._detached: dict[str, _DetachedSession] = {}
        self._paused: set[str] = set()
        self._done: set[str] = set()
        #: Open connections only; a connection leaves at teardown.
        self._connections: set[_Connection] = set()
        #: Wire accounting of every accepted connection, in accept order.
        self._connection_stats: list[ConnectionStats] = []
        self._closing = False
        self._bound_port: int | None = None
        self.results: list[SessionResult] | None = None
        self.backend_result = None

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._bound_port is None:
            raise ValidationError("gateway is not started")
        return self._bound_port

    async def start(self) -> None:
        """Bind the listener, open the backend serve, start the pump."""
        if self._server is not None:
            raise ValidationError("gateway is already started")
        if not self.backend.serving:
            self.backend.begin([])
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump_loop())

    async def stop(
        self, drain: bool = True, drain_timeout: float | None = 30.0
    ) -> list[SessionResult]:
        """Stop accepting, optionally drain, close, return results.

        ``drain=True`` keeps ticking until every *connected* session
        has finished its budget (parked/disconnected sessions do not
        block shutdown — they are reported as far as they streamed).
        A connected client that simply stops reading would pin the
        drain forever (its session stays backpressure-paused), so
        after ``drain_timeout`` seconds every still-connected session
        is force-detached — checkpointed and parked exactly like a
        disconnect — and shutdown completes; ``drain_timeout=None``
        waits unboundedly.  ``drain=False`` stops the pump immediately.
        """
        if self._server is None:
            raise ValidationError("gateway is not started")
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        self._wake.set()
        if self._pump_task is not None:
            if drain:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._pump_task), drain_timeout
                    )
                except asyncio.TimeoutError:
                    # Stalled connected clients: park their sessions
                    # the way a disconnect would and finish the drain.
                    for conn in list(self._by_session.values()):
                        conn.abort()
                    self._wake.set()
                    await self._pump_task
            else:
                self._pump_task.cancel()
                try:
                    await self._pump_task
                except asyncio.CancelledError:
                    pass
        for conn in list(self._connections):
            await conn.close()
        async with self._lock:
            raw = self.backend.finish()
            # EdgeFleet returns a FleetResult; StreamServer a list.
            results = list(getattr(raw, "results", raw))
            for session_id in sorted(self._detached):
                parked = self._detached[session_id]
                results.append(
                    SessionResult(
                        session_id=session_id,
                        scene=parked.session.scene,
                        worker=-1,
                        report=parked.report,
                    )
                )
            self.backend_result = raw
            self.results = results
        return self.results

    # -- introspection --------------------------------------------------
    @property
    def connection_stats(self) -> list[ConnectionStats]:
        """Wire accounting for every connection ever accepted."""
        return list(self._connection_stats)

    def stats(self) -> dict:
        """Live counters (also served by the HTTP shim's ``/stats``)."""
        return {
            "connections_total": len(self._connection_stats),
            "sessions_connected": len(self._by_session),
            "sessions_detached": len(self._detached),
            "sessions_done": len(self._done),
            "sessions_paused": len(self._paused),
            "backend_active": self.backend.n_active,
            "backend_queued": self.backend.n_queued,
            "draining": self._closing,
        }

    # -- the pump -------------------------------------------------------
    def _live_sessions(self) -> bool:
        return any(sid not in self._done for sid in self._by_session)

    def _dispatchable(self) -> bool:
        """Whether a backend tick *might* render anything right now.

        An optimistic hint: queued sessions count even when admission
        capacity is exhausted, so a step may still come back empty —
        the pump treats an empty tick as "nothing to do" and waits for
        a waker rather than re-stepping in a busy loop.
        """
        live = self.backend.n_active + self.backend.n_queued
        return live > len(self._paused)

    def _apply_backpressure(self) -> None:
        """Pause sessions whose queue is full (so a backlog may be
        waiting behind it), resume drained ones (lock held).

        A paused session renders nothing, so a replay posted on resume
        drains ahead of the session's next live frame and the backlog
        never grows by more than one tick's frame and ``end``.
        """
        for session_id, conn in self._by_session.items():
            if (
                conn.closed  # Teardown is imminent; leave the pause as-is.
                or session_id in self._done
                or not self.backend.has_session(session_id)
            ):
                continue
            if conn.queue.full():
                if session_id not in self._paused:
                    self.backend.pause_session(session_id)
                    self._paused.add(session_id)
                    conn.stats.pauses += 1
            elif session_id in self._paused:
                self.backend.resume_session(session_id)
                self._paused.discard(session_id)

    async def _pump_loop(self) -> None:
        """The single backend driver: tick, deliver, repeat.

        All backend mutation happens either here or in connection
        handlers holding :attr:`_lock`, so the synchronous backend is
        never entered concurrently.  ``step`` runs on the event loop
        and holds it for its duration: no socket is read or written
        until the tick returns.  A digest tick costs tens of
        microseconds, less than a hand-off to a worker thread and back
        would.  A long tick (exact frames, subprocess workers) delays
        every connection's I/O by its length; that is accepted, since
        the lock already keeps every handler off the backend until the
        step ends, and a thread kept only for such ticks would be a
        second stepping path that no workload measures.
        """
        while True:
            if self._closing and not self._live_sessions():
                return
            # Clear before deciding: a wake that fires during the
            # locked section below re-arms the event and the wait
            # returns immediately instead of losing the signal.
            self._wake.clear()
            async with self._lock:
                # Runs every iteration (not only when dispatchable):
                # when ALL sessions are paused, un-pausing drained
                # ones here is the only way forward.
                self._apply_backpressure()
                if self._dispatchable():
                    tick = self.backend.step()
                else:
                    tick = None
            if tick is not None and (tick.frames or tick.done):
                self._deliver(tick)
                # Yield so handlers/writers interleave with a busy pump.
                await asyncio.sleep(0)
                continue
            # Nothing to do — or a step that rendered nothing because
            # every dispatchable-looking session is actually paused or
            # stuck behind admission (:meth:`_dispatchable` is an
            # optimistic hint): sleep until a waker fires instead of
            # hammering the backend with empty ticks.  The timeout is
            # a belt-and-braces backstop, not a correctness need.
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.25)
            except asyncio.TimeoutError:
                pass

    def _frame_message(
        self, conn: _Connection, record: FrameRecord, replayed: bool
    ) -> dict:
        message = {
            "type": "frame",
            "session_id": conn.session_id,
            "replayed": replayed,
        }
        message.update(frame_evidence(record))
        if conn.deliver_images and record.image is not None:
            # Raw pixels as hex: heavyweight on purpose — a viewer that
            # wants frames gets real payloads, and a stalled one fills
            # socket buffers fast enough for backpressure to bite.
            message["image"] = record.image.tobytes().hex()
            message["image_shape"] = list(record.image.shape)
            message["image_dtype"] = str(record.image.dtype)
        return message

    def _deliver(self, tick) -> None:
        """Fan a tick's frames out to their connections' send queues."""
        for session_id, record in tick.frames:
            conn = self._by_session.get(session_id)
            if conn is None:
                # Disconnected while the tick was in flight: the frame
                # is in the session's report and replays on reconnect.
                continue
            conn.post(self._frame_message(conn, record, False))
        for session_id in tick.done:
            self._finish(session_id)

    def _finish(self, session_id: str) -> None:
        """Mark a session done and post its connection the ``end``."""
        self._done.add(session_id)
        conn = self._by_session.get(session_id)
        if conn is not None:
            conn.stats.clean_close = True
            conn.post(
                {
                    "type": "end",
                    "session_id": session_id,
                    "report": report_evidence(
                        self.backend.report_of(session_id)
                    ),
                }
            )

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf
                )
        conn = _Connection(reader, writer, self.send_queue_frames)
        self._connections.add(conn)
        self._connection_stats.append(conn.stats)
        conn.writer_task = asyncio.create_task(self._writer_loop(conn))
        try:
            await self._serve_connection(conn)
        except ValidationError as exc:
            conn.post({"type": "error", "message": str(exc)})
        except (ConnectionError, OSError):
            pass
        finally:
            await self._teardown(conn)

    async def _writer_loop(self, conn: _Connection) -> None:
        """Drain one connection's send queue onto its socket."""
        try:
            while True:
                message = await conn.queue.get()
                if conn.backlog:
                    # One slot freed: the oldest backlog message takes it.
                    conn.queue.put_nowait(conn.backlog.popleft())
                if message is None:
                    return
                data = encode_message(message)
                conn.writer.write(data)
                await conn.writer.drain()
                conn.stats.messages_sent += 1
                conn.stats.bytes_sent += len(data)
                if message.get("type") == "frame":
                    conn.stats.frames_sent += 1
                # Queue space freed: the pump may have paused this
                # session and is waiting for exactly this signal.
                self._wake.set()
        except (ConnectionError, OSError):
            # Peer vanished mid-write: sever the wire so the reader
            # loop returns and teardown checkpoints the session.
            conn.abort()

    async def _serve_connection(self, conn: _Connection) -> None:
        message = await read_message(conn.reader)
        if message is None:
            return
        if message["type"] != "hello":
            raise ValidationError(
                f"expected a hello, got {message['type']!r}"
            )
        protocol = message.get("protocol", PROTOCOL_VERSION)
        if protocol != PROTOCOL_VERSION:
            raise ValidationError(
                f"protocol {protocol!r} is not supported "
                f"(this gateway speaks {PROTOCOL_VERSION})"
            )
        await self._attach(conn, message)
        while True:
            message = await read_message(conn.reader)
            if message is None:
                return
            if message["type"] == "bye":
                conn.stats.clean_close = True
                return
            raise ValidationError(
                f"unexpected message type {message['type']!r} mid-stream"
            )

    async def _attach(self, conn: _Connection, message: dict) -> None:
        """Open or resume the hello's session on ``conn``.

        One path for all three cases: a new session, a parked one
        (injected back from its checkpoint) and one that finished
        while its client was away.  Under the lock it posts the
        ``welcome``, replays every recorded frame past ``last_frame``
        and, for a finished session, the ``end`` — all before the pump
        can deliver a live frame, which therefore always follows them.
        """
        resume = bool(message.get("resume"))
        last_frame = -1
        if resume:
            session_id = message.get("session_id")
            if not isinstance(session_id, str) or not session_id:
                raise ValidationError("resume hello needs a 'session_id'")
            last_frame = _number(
                message.get("last_frame", last_frame), int, "last_frame"
            )
        else:
            session = session_from_payload(
                message.get("session"), default_pipeline=self.pipeline
            )
            session_id = session.session_id
        restore_t0 = time.perf_counter()
        async with self._lock:
            if resume:
                frames = self._reattach(session_id)
            else:
                self._admit(session)
                frames = []
            conn.session_id = conn.stats.session_id = session_id
            conn.stats.resumed = resume
            conn.deliver_images = bool(message.get("deliver_images", False))
            replay = [
                self._frame_message(conn, record, True)
                for record in frames
                if record.frame > last_frame
            ]
            conn.post(
                {
                    "type": "welcome",
                    "session_id": session_id,
                    "resumed": resume,
                    "next_frame": len(frames),
                    "replayed": len(replay),
                    "protocol": PROTOCOL_VERSION,
                }
            )
            for frame in replay:
                conn.post(frame)
            self._by_session[session_id] = conn
            if self.backend.is_done(session_id):
                self._finish(session_id)
        if resume:
            conn.stats.restore_seconds = time.perf_counter() - restore_t0
        self._wake.set()

    def _admit(self, session: StreamSession) -> None:
        """Submit a new session to the backend (lock held)."""
        if self._closing:
            raise ValidationError("gateway is draining; try another node")
        session_id = session.session_id
        if (
            session_id in self._by_session
            or session_id in self._detached
            or self.backend.has_session(session_id)
        ):
            raise ValidationError(
                f"session id '{session_id}' is already in use"
            )
        self.backend.submit(session)

    def _reattach(self, session_id: str) -> list[FrameRecord]:
        """Put a detached session back on the backend; return the
        frames it has streamed so far (lock held)."""
        if session_id in self._by_session:
            raise ValidationError(
                f"session '{session_id}' is already connected"
            )
        parked = self._detached.pop(session_id, None)
        if parked is not None:
            self.backend.inject_session(
                parked.session, parked.checkpoint, parked.report
            )
            return parked.report.frames
        if self.backend.has_session(session_id) and (
            self.backend.is_done(session_id)
        ):
            # The session finished between the disconnect and this
            # resume (its last frames rendered while the tick was in
            # flight): nothing to inject, only the tail to replay.
            return self.backend.report_of(session_id).frames
        raise ValidationError(f"no detached session '{session_id}' to resume")

    async def _teardown(self, conn: _Connection) -> None:
        async with self._lock:
            session_id = conn.session_id
            if (
                session_id is not None
                and self._by_session.get(session_id) is conn
            ):
                del self._by_session[session_id]
                backend_paused = session_id in self._paused
                self._paused.discard(session_id)
                if self.backend.has_session(session_id) and not (
                    self.backend.is_done(session_id)
                ):
                    if backend_paused:
                        self.backend.resume_session(session_id)
                    self._detached[session_id] = _DetachedSession(
                        *self.backend.extract_session(session_id)
                    )
        await conn.close()
        self._connections.discard(conn)
        self._wake.set()

    # -- HTTP shim ------------------------------------------------------
    async def start_http(self, port: int = 0) -> int:
        """Serve ``GET /healthz`` and ``GET /stats`` as JSON over HTTP.

        A dependency-free shim for probes and dashboards (plain
        ``asyncio`` HTTP/1.0 — no web framework in this repository).
        Returns the bound port.
        """
        if self._http_server is not None:
            raise ValidationError("HTTP shim is already started")
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, port
        )
        return self._http_server.sockets[0].getsockname()[1]

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:  # drain request headers
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"", b"\r\n", b"\n"):
                    break
            if path == "/healthz":
                status, body = "200 OK", {"status": "ok"}
            elif path == "/stats":
                status, body = "200 OK", self.stats()
            else:
                status, body = "404 Not Found", {"error": "not found"}
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# Client helper (tests, benchmarks, CLI smoke)
# ----------------------------------------------------------------------
class GatewayClient:
    """Minimal asyncio client for the gateway's wire protocol.

    Used by the offline test suite and ``perfbench/``; real
    viewers only need the framing above, not this class.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self, rcvbuf: int | None = None) -> None:
        """Open the connection.

        ``rcvbuf`` pins ``SO_RCVBUF`` *before* connecting (which also
        disables kernel autotuning for the socket) — the backpressure
        tests use a deliberately tiny buffer so a non-reading client's
        TCP window closes after a frame or two instead of letting
        loopback absorb megabytes.
        """
        if rcvbuf is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(
            sock, (self.host, self.port)
        )
        self.reader, self.writer = await asyncio.open_connection(sock=sock)

    async def send(self, message: dict) -> None:
        self.writer.write(encode_message(message))
        await self.writer.drain()

    async def recv(self, timeout: float = 30.0) -> dict | None:
        return await asyncio.wait_for(
            read_message(self.reader), timeout=timeout
        )

    async def hello(
        self,
        session: dict,
        deliver_images: bool = False,
        timeout: float = 30.0,
    ) -> dict:
        """Open a new session; returns the ``welcome`` (or raises on
        an ``error`` reply).  ``deliver_images`` asks for raw pixels in
        every frame message (the session must set ``keep_images``)."""
        message = {"type": "hello", "session": session}
        if deliver_images:
            message["deliver_images"] = True
        await self.send(message)
        return self._expect_welcome(await self.recv(timeout))

    async def resume(
        self,
        session_id: str,
        last_frame: int,
        deliver_images: bool = False,
        timeout: float = 30.0,
    ) -> dict:
        """Resume a detached session from ``last_frame``."""
        message = {
            "type": "hello",
            "resume": True,
            "session_id": session_id,
            "last_frame": last_frame,
        }
        if deliver_images:
            message["deliver_images"] = True
        await self.send(message)
        return self._expect_welcome(await self.recv(timeout))

    @staticmethod
    def _expect_welcome(message: dict | None) -> dict:
        if message is None:
            raise ValidationError("connection closed before welcome")
        if message["type"] == "error":
            raise ValidationError(message.get("message", "gateway error"))
        if message["type"] != "welcome":
            raise ValidationError(
                f"expected welcome, got {message['type']!r}"
            )
        return message

    async def stream(
        self, limit: int | None = None, timeout: float = 30.0
    ) -> tuple[list[dict], dict | None]:
        """Collect frame messages until ``end`` (or ``limit`` frames).

        Returns ``(frames, end)``; ``end`` is ``None`` when the limit
        stopped the read first.
        """
        frames: list[dict] = []
        while limit is None or len(frames) < limit:
            message = await self.recv(timeout)
            if message is None:
                return frames, None
            if message["type"] == "frame":
                frames.append(message)
            elif message["type"] == "end":
                return frames, message
            elif message["type"] == "error":
                raise ValidationError(message.get("message", "gateway error"))
        return frames, None

    async def bye(self) -> None:
        await self.send({"type": "bye"})

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def abort(self) -> None:
        """Drop the connection abruptly (no bye, no graceful close) —
        the chaos tests' client-crash primitive."""
        if self.writer is not None:
            transport = self.writer.transport
            if transport is not None:
                transport.abort()
