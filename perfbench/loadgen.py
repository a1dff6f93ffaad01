"""Open-loop fleet generator for the ``repro stream serve`` ingest server.

Records from many device streams are interleaved over a few TCP
connections and sent at fixed due times, whatever the server does: the
generator never waits for a reply before sending, so a slow server
builds a backlog instead of receiving less load.  Every frame is
encoded before the clock starts; the send loop only slices one
pre-built byte string per connection.

Each connection sends a ``ping`` every ``ping_every`` records.  The
server handles a connection's frames inline and in order, so the
ping's ``ok`` reply means every earlier record on that connection has
been processed.  Ack latency is timed from the ping's *due* time, so it
includes any wait a stall imposes on later frames.  The generator's own
lateness (when it woke up versus when frames were due) is reported
separately; it bounds how much of the latency the generator itself
adds.

The loop is single-threaded over non-blocking sockets and uses the
same clock as the server's event timestamps (``time.monotonic``).  It
polls rather than sleeps in the last ~1.5 ms before a due time, so its
lateness stays in microseconds; while a plan runs it keeps one core
busy.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from dataclasses import dataclass, field

import numpy as np

#: Pings per second over all connections, independent of the rate.
PING_RATE_HZ = 500.0
#: How long a plan may run past its last due time before it is failed.
DRAIN_TIMEOUT_S = 60.0
#: The generator polls instead of sleeping this close to a due time.
SPIN_S = 0.0015


def frame(body: bytes) -> bytes:
    """Length-framed JSON, as ``repro.serve.server.encode_frame`` writes."""
    return b"%d\n%s" % (len(body), body)


@dataclass
class EncodedTrace:
    """One trace's frames-to-be: record bodies and open metadata."""

    meta: bytes
    records: list[bytes]


@dataclass
class StreamSlot:
    """One device stream in a plan: which trace, where its frames sit."""

    stream: str
    trace: int
    connection: int
    record_due: np.ndarray = field(default_factory=lambda: np.zeros(0))
    close_due: float = 0.0


@dataclass
class ConnectionPlan:
    blob: bytes
    ends: np.ndarray       # cumulative end offset of each frame
    due: np.ndarray        # due time of each frame, seconds after start
    replies: list[tuple[str, str | None, float]]  # (op, stream, due) in order


@dataclass
class Plan:
    records: int
    connections: list[ConnectionPlan]
    streams: list[StreamSlot]

    @property
    def last_due(self) -> float:
        return max(float(c.due[-1]) for c in self.connections if c.due.size)


def build_plan(traces: list[EncodedTrace], order: list[int], prefix: str,
               rate_rps: float, connections: int) -> Plan:
    """Interleave the traces ``order`` names as streams, ``rate_rps`` total.

    Streams alternate between connections; on one connection every open
    stream sends one record per round (round-robin), and a stream closes
    right after its last record.  Record ``j`` of connection ``c`` is due
    at ``(j + c / connections) / (rate_rps / connections)``.
    """
    slots = [StreamSlot(stream=f"{prefix}-{i}", trace=t,
                        connection=i % connections)
             for i, t in enumerate(order)]
    per_conn_rate = rate_rps / connections
    ping_every = max(1, round(rate_rps / PING_RATE_HZ))
    plans = []
    total = 0
    for conn in range(connections):
        mine = [slot for slot in slots if slot.connection == conn]
        pieces: list[bytes] = []
        dues: list[float] = []
        replies: list[tuple[str, str | None, float]] = []
        offset = conn / connections
        for slot in mine:
            pieces.append(frame(b'{"op":"open","stream":"%s","meta":%s}'
                                % (slot.stream.encode(),
                                   traces[slot.trace].meta)))
            dues.append(0.0)
            replies.append(("ok", slot.stream, 0.0))
        heads = {slot.stream: (b'{"op":"record","stream":"%s","record":'
                               % slot.stream.encode()) for slot in mine}
        record_dues = {slot.stream: [] for slot in mine}
        cursors = [[slot, 0] for slot in mine]
        sent = 0
        while cursors:
            alive = []
            for cursor in cursors:
                slot, position = cursor
                records = traces[slot.trace].records
                due = (sent + offset) / per_conn_rate
                pieces.append(frame(heads[slot.stream] + records[position]
                                    + b"}"))
                dues.append(due)
                record_dues[slot.stream].append(due)
                sent += 1
                if sent % ping_every == 0:
                    pieces.append(frame(b'{"op":"ping"}'))
                    dues.append(due)
                    replies.append(("ok", None, due))
                cursor[1] = position + 1
                if cursor[1] == len(records):
                    pieces.append(frame(b'{"op":"close","stream":"%s"}'
                                        % slot.stream.encode()))
                    dues.append(due)
                    replies.append(("verdict", slot.stream, due))
                    slot.close_due = due
                else:
                    alive.append(cursor)
            cursors = alive
        for slot in mine:
            slot.record_due = np.array(record_dues[slot.stream])
        total += sent
        lengths = np.fromiter((len(p) for p in pieces), dtype=np.int64,
                              count=len(pieces))
        plans.append(ConnectionPlan(blob=b"".join(pieces),
                                    ends=np.cumsum(lengths),
                                    due=np.array(dues), replies=replies))
    return Plan(records=total, connections=plans,
                streams=slots)


@dataclass
class PlanResult:
    start_mono: float
    ack_due: np.ndarray          # ping due times (s after start)
    ack_ms: np.ndarray           # ping ack latency from due time
    late_ms: np.ndarray          # generator lateness samples
    verdicts: dict[str, dict]
    errors: list[str]
    finished_s: float            # arrival of the last reply (s after start)

    @property
    def backlog_slope(self) -> float:
        """Ack lag growth across the run, in ms per second (0 if flat)."""
        if self.ack_due.size < 3 or np.ptp(self.ack_due) <= 0:
            return 0.0
        return float(np.polyfit(self.ack_due, self.ack_ms, 1)[0])


class _Connection:
    def __init__(self, sock: socket.socket, plan: ConnectionPlan) -> None:
        self.sock = sock
        self.plan = plan
        self.view = memoryview(plan.blob)
        self.sent = 0          # bytes written
        self.due_upto = 0      # frames due so far
        self.inbox = bytearray()
        self.reply_index = 0
        self.writing = False


def run_plan(address: tuple[str, int], plan: Plan,
             lead_s: float = 0.05) -> PlanResult:
    """Send ``plan`` open-loop and collect every reply (see module doc).

    The garbage collector is off while the plan runs, so the
    generator's own pauses do not show up as server latency.
    """
    selector = selectors.DefaultSelector()
    conns: list[_Connection] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for conn_plan in plan.connections:
            sock = socket.create_connection(address, timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Connection(sock, conn_plan)
            conns.append(conn)
            selector.register(sock, selectors.EVENT_READ, conn)
        return _drive(selector, conns, plan, lead_s)
    finally:
        if gc_was_enabled:
            gc.enable()
        for conn in conns:
            selector.unregister(conn.sock)
            conn.sock.close()
        selector.close()


def _drive(selector, conns: list[_Connection], plan: Plan,
           lead_s: float) -> PlanResult:
    ack_due: list[float] = []
    ack_ms: list[float] = []
    late: list[float] = []
    verdicts: dict[str, dict] = {}
    errors: list[str] = []
    expected = sum(len(c.plan.replies) for c in conns)
    received = 0
    finished = 0.0
    start = time.monotonic() + lead_s
    deadline = plan.last_due + DRAIN_TIMEOUT_S
    while True:
        now = time.monotonic() - start
        pending_write = False
        next_due = None
        for conn in conns:
            due = conn.plan.due
            upto = int(np.searchsorted(due, now, side="right"))
            if upto > conn.due_upto:
                late.append(now - float(due[conn.due_upto]))
                conn.due_upto = upto
            target = int(conn.plan.ends[conn.due_upto - 1]) \
                if conn.due_upto else 0
            if conn.sent < target:
                try:
                    conn.sent += conn.sock.send(conn.view[conn.sent:target])
                except (BlockingIOError, InterruptedError):
                    pass
            if conn.sent < target:
                pending_write = True
            if not conn.writing and conn.sent < target:
                selector.modify(conn.sock,
                                selectors.EVENT_READ | selectors.EVENT_WRITE,
                                conn)
                conn.writing = True
            elif conn.writing and conn.sent >= target:
                selector.modify(conn.sock, selectors.EVENT_READ, conn)
                conn.writing = False
            if conn.due_upto < due.size:
                candidate = float(due[conn.due_upto])
                next_due = candidate if next_due is None \
                    else min(next_due, candidate)
        if received >= expected and next_due is None and not pending_write:
            break
        if now > deadline:
            errors.append(f"timed out with {received}/{expected} replies")
            break
        if next_due is None:
            timeout = max(0.0, deadline - now)
        else:
            # Sleep until just before the next due frame, then poll:
            # the selector's timeout has millisecond granularity, which
            # would otherwise show up as latency.
            timeout = next_due - now - SPIN_S
            if timeout <= 0:
                timeout = 0.0
        for key, events in selector.select(timeout):
            if not events & selectors.EVENT_READ:
                continue
            conn = key.data
            try:
                chunk = conn.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                continue
            arrived = time.monotonic() - start
            if not chunk:
                if conn.reply_index < len(conn.plan.replies):
                    errors.append("server closed a connection early")
                    return _result(start, ack_due, ack_ms, late, verdicts,
                                   errors, finished)
                continue
            conn.inbox += chunk
            for reply in _frames(conn.inbox):
                received += 1
                finished = arrived
                if conn.reply_index >= len(conn.plan.replies):
                    errors.append(f"unexpected reply {reply!r}")
                    continue
                op, stream, due = conn.plan.replies[conn.reply_index]
                conn.reply_index += 1
                if reply.get("op") == "error":
                    errors.append(str(reply.get("error")))
                elif reply.get("op") != op or reply.get("stream") != stream:
                    errors.append(f"reply {reply!r} does not answer "
                                  f"{op}/{stream}")
                elif op == "verdict":
                    verdicts[stream] = reply["verdict"]
                elif stream is None:
                    ack_due.append(due)
                    ack_ms.append((arrived - due) * 1e3)
    return _result(start, ack_due, ack_ms, late, verdicts, errors, finished)


def _result(start, ack_due, ack_ms, late, verdicts, errors,
            finished) -> PlanResult:
    return PlanResult(start_mono=start, ack_due=np.array(ack_due),
                      ack_ms=np.array(ack_ms),
                      late_ms=np.array(late) * 1e3, verdicts=verdicts,
                      errors=errors, finished_s=finished)


def _frames(inbox: bytearray):
    """Pop every complete frame off ``inbox`` (decoded JSON objects)."""
    position = 0
    while True:
        newline = inbox.find(b"\n", position)
        if newline < 0:
            break
        length = int(inbox[position:newline])
        end = newline + 1 + length
        if end > len(inbox):
            break
        yield json.loads(inbox[newline + 1:end])
        position = end
    del inbox[:position]
