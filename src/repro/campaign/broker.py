"""Cross-host campaign broker: the durable task queue over HTTP.

PR 6's :class:`~repro.resilience.taskqueue.DurableTaskQueue` makes
campaign completion a durability property, but its flock-serialized
spool and shared-``CLOCK_MONOTONIC`` assumption pin every worker to one
filesystem and one host.  :class:`CampaignBroker` lifts the *same*
event-log protocol onto HTTP (:func:`repro.obs.http.serve`): the broker is
the only process touching the spool, and every verb — attach / submit /
seal / claim / heartbeat / complete / sync — travels as one CRC-framed
JSON line over HTTP (the v1 checkpoint framing, verified again on the
far side), so workers and the coordinator can live on any machine that
can reach the broker's port.

**Broker-authoritative clock.**  All lease deadlines are computed from
the *broker's* monotonic clock: clients send lease *durations*, never
absolute deadlines, and expiry decisions happen exclusively broker-side
— the cross-host clock-skew assumption in the on-disk transport simply
disappears.  The replayed :class:`~repro.resilience.taskqueue.LeaseState`
fencing machine is reused unchanged, so a stolen run's late ``complete``
is fenced off across the network exactly as it is on one host.

**Exactly-once under retries.**  Verbs that mutate at most once per
logical operation (claim, complete) carry client-generated idempotency
keys; the broker remembers each key's full response (bounded LRU) and
replays it verbatim when a retried or duplicated request arrives, so a
response lost to the network never claims a second task or turns a
committed completion into a phantom fence.  ``submit`` is idempotent by
schedule key, ``seal``/``heartbeat``/``worker_heartbeat`` are naturally
idempotent, and artifact uploads are content-addressed.

**Artifact plane.**  Task and completion payloads never ride inside
spool events.  Clients ``PUT /v1/artifacts/<sha256>`` (the broker
re-hashes and refuses a mangled body) and reference payloads by digest;
``GET`` re-verifies on the way out.  A stolen run's thief reproduces
the identical deterministic outcome, hashes to the identical digest,
and the store dedupes the blob — the artifact plane is idempotent by
construction (:class:`~repro.resilience.memo.ArtifactStore`).

**Graceful degradation.**  ``begin_drain()`` (wired to SIGTERM in
``repro broker serve``) flips the broker into drain mode: mutating
verbs answer 503 with ``Retry-After`` while status/metrics/sync stay
readable, the fsynced spool needs no further flushing, and a restarted
broker against the same queue directory resumes mid-campaign — clients
retry through the outage and re-attach to the same replayed state.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro.obs import Instrumentation, make_instrumentation
from repro.obs.http import PROMETHEUS_TYPE, HardenedHTTPServer, serve
from repro.resilience.checkpoint import (
    CheckpointMismatchError,
    frame_line,
    unframe_line,
)
from repro.resilience.memo import ArtifactStore
from repro.resilience.taskqueue import (
    Claim,
    DurableTaskQueue,
    TaskQueueError,
)

logger = logging.getLogger(__name__)

__all__ = [
    "BROKER_PROTOCOL_VERSION",
    "CampaignBroker",
    "serve_broker",
]

#: Version tag advertised in every status snapshot.
BROKER_PROTOCOL_VERSION = 1

#: How many idempotency-key responses the broker remembers.
_IDEMPOTENCY_CACHE_SIZE = 4096

_FRAMED_TYPE = "application/x-repro-framed-json"
_BINARY_TYPE = "application/octet-stream"


def encode_framed(obj: dict) -> bytes:
    """One CRC-framed JSON line — the wire format of every verb."""
    return (frame_line(json.dumps(obj, sort_keys=True)) + "\n") \
        .encode("utf-8")


def decode_framed(body: bytes) -> dict | None:
    """Verify and decode one framed line; ``None`` on any corruption."""
    try:
        text = body.decode("utf-8").strip()
    except UnicodeDecodeError:
        return None
    if not text:
        return None
    payload, crc_ok = unframe_line(text)
    if crc_ok is not True:
        return None
    try:
        decoded = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return decoded if isinstance(decoded, dict) else None


class CampaignBroker:
    """HTTP-facing owner of one campaign queue directory.

    The broker holds the only :class:`DurableTaskQueue` instance for
    the spool plus the content-addressed :class:`ArtifactStore`; every
    request is serialized under one lock (queue verbs are append +
    replay, microseconds each), which also makes the idempotency cache
    race-free.  ``handle`` is pure request → response, so the protocol
    is fully unit-testable without sockets; :func:`serve_broker` adds
    the HTTP layer.
    """

    def __init__(self, queue_dir: str | Path,
                 clock: Callable[[], float] = time.monotonic,
                 fsync: bool = True,
                 obs: Instrumentation | None = None):
        self.queue_dir = Path(queue_dir)
        self.clock = clock
        self.fsync = fsync
        self.obs = obs if obs is not None else make_instrumentation()
        self.store = ArtifactStore(self.queue_dir / "artifacts")
        self.draining = False
        self._queue: DurableTaskQueue | None = None
        self._key_to_seq: dict[tuple, int] = {}
        self._idem: OrderedDict[str, tuple[int, str, bytes]] = OrderedDict()
        self._mutex = threading.RLock()
        self._artifacts_stored = self.store.count()

    # -- lifecycle ------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new mutating verbs (503); reads keep working.

        The spool is fsynced per append, so there is nothing further to
        flush — drain mode exists so clients see a retryable 503 during
        the shutdown window instead of a connection reset, and their
        backoff carries them across a broker restart.
        """
        with self._mutex:
            if self.draining:
                return
            self.draining = True
        self.obs.events.emit("broker.drain", severity="warning",
                             queue=str(self.queue_dir))
        logger.info("broker: draining — mutating verbs now answer 503")

    def _ensure_queue(self, create: bool = False,
                      identity: str | None = None,
                      lease_s: float | None = None,
                      ) -> DurableTaskQueue | None:
        """Open (or lazily create) the spool; ``None`` = not ready yet.

        Raises :class:`CheckpointMismatchError` when ``identity`` and
        the spool header both exist and disagree — the 409 the
        coordinator turns back into the same error client-side.
        """
        with self._mutex:
            if self._queue is None:
                queue = DurableTaskQueue(
                    self.queue_dir, identity=identity,
                    payload_mode="inline", fsync=self.fsync,
                    default_lease_s=lease_s, clock=self.clock)
                if not queue.open(create=create):
                    return None
                self._queue = queue
                self._key_to_seq = {task.key: seq for seq, task
                                    in queue.state.tasks.items()}
                self.obs.events.emit(
                    "broker.spool_open", queue=str(self.queue_dir),
                    identity=queue.state.identity, created=create)
            elif identity is not None:
                spool_identity = self._queue.state.identity
                if spool_identity is not None \
                        and spool_identity != identity:
                    raise CheckpointMismatchError(
                        f"broker queue {self.queue_dir} belongs to a "
                        f"different campaign (spool identity "
                        f"{spool_identity}, this campaign {identity}); "
                        f"point the broker at a fresh queue directory or "
                        f"rerun with the original seed/config/operators")
            return self._queue

    # -- request entry point --------------------------------------------

    def handle(self, method: str, path: str,
               body: bytes) -> tuple[int, str, bytes]:
        """One verb in, ``(status, content_type, body)`` out."""
        path = path.split("?", 1)[0]
        verb = f"{method} {path.rsplit('/', 1)[0]}" \
            if path.startswith("/v1/artifacts/") else f"{method} {path}"
        self.obs.registry.counter("broker_requests_total").inc(verb=verb)
        try:
            response = self._route(method, path, body)
        except CheckpointMismatchError as error:
            response = self._error(409, str(error), code="identity_mismatch")
        except TaskQueueError as error:
            response = self._error(409, str(error), code="task_queue")
        except (KeyError, TypeError, ValueError) as error:
            response = self._error(
                400, f"malformed request: {type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 - the broker must answer
            logger.exception("broker: internal error handling %s %s",
                             method, path)
            response = self._error(
                500, f"internal error: {type(error).__name__}: {error}")
        if response[0] >= 400:
            self.obs.registry.counter("broker_request_errors_total").inc(
                status=response[0])
        return response

    def _route(self, method: str, path: str,
               body: bytes) -> tuple[int, str, bytes]:
        if path.startswith("/v1/artifacts/"):
            digest = path.rsplit("/", 1)[1]
            if method == "PUT":
                return self._handle_artifact_put(digest, body)
            if method == "GET":
                return self._handle_artifact_get(digest)
            return self._error(405, f"{method} not supported on artifacts")
        if method == "GET":
            if path == "/v1/status":
                return self._ok(self._status_response())
            if path == "/v1/metrics":
                text = self.obs.registry.to_prometheus()
                return 200, PROMETHEUS_TYPE, text.encode("utf-8")
            return self._error(404, f"unknown path {path}")
        if method != "POST":
            return self._error(405, f"{method} not supported")
        handler = {
            "/v1/attach": self._handle_attach,
            "/v1/submit": self._handle_submit,
            "/v1/seal": self._handle_seal,
            "/v1/claim": self._handle_claim,
            "/v1/heartbeat": self._handle_heartbeat,
            "/v1/complete": self._handle_complete,
            "/v1/worker_heartbeat": self._handle_worker_heartbeat,
            "/v1/sync": self._handle_sync,
        }.get(path)
        if handler is None:
            return self._error(404, f"unknown path {path}")
        request = decode_framed(body)
        if request is None:
            return self._error(400, "request body failed CRC framing")
        if self.draining and path != "/v1/sync":
            return self._error(503, "broker draining (shutting down); "
                                    "retry against the restarted broker")
        return handler(request)

    # -- response helpers ----------------------------------------------

    def _ok(self, obj: dict) -> tuple[int, str, bytes]:
        return 200, _FRAMED_TYPE, encode_framed(obj)

    def _error(self, status: int, message: str,
               code: str | None = None) -> tuple[int, str, bytes]:
        payload: dict = {"error": message}
        if code is not None:
            payload["code"] = code
        return status, _FRAMED_TYPE, encode_framed(payload)

    def _snapshot(self) -> dict:
        """The status block stapled onto attach/claim/seal/sync replies."""
        now = self.clock()
        queue = self._queue
        if queue is None:
            return {"ready": False, "now": now, "draining": self.draining,
                    "protocol": BROKER_PROTOCOL_VERSION}
        queue.catch_up()
        self._route_dispositions(queue)
        state = queue.state
        return {
            "ready": True,
            "protocol": BROKER_PROTOCOL_VERSION,
            "identity": state.identity,
            "lease_s": state.default_lease_s,
            "closed": state.closed,
            "total": state.total,
            "submitted": state.stats.submitted,
            "completed": state.stats.completed,
            "depth": state.depth(),
            "active_leases": state.active_leases(now),
            "expired": state.stats.expired,
            "stolen": state.stats.stolen,
            "fenced": state.stats.fenced,
            "drained": state.drained(),
            "live_workers": queue.live_workers(),
            "artifacts": self._artifacts_stored,
            "now": now,
            "draining": self.draining,
        }

    def _status_response(self) -> dict:
        with self._mutex:
            queue = self._ensure_queue()
            if queue is not None:
                queue.expire_overdue()
            return self._snapshot()

    def _route_dispositions(self, queue: DurableTaskQueue) -> None:
        """Fold fresh spool events into broker-side telemetry."""
        registry = self.obs.registry
        for disposition, seq, worker in queue.drain_dispositions():
            if disposition == "expire":
                registry.counter("broker_leases_expired_total").inc()
                task = queue.state.tasks.get(seq)
                self.obs.events.emit(
                    "broker.lease_expired", severity="warning",
                    run_key=task.key if task is not None else None,
                    worker=worker or None, seq=seq)
            elif disposition == "steal":
                registry.counter("broker_runs_stolen_total").inc()
                task = queue.state.tasks.get(seq)
                self.obs.events.emit(
                    "broker.run_stolen", severity="warning",
                    run_key=task.key if task is not None else None,
                    worker=worker or None, seq=seq)
            elif disposition == "complete":
                registry.counter("broker_completions_total").inc()
            elif disposition == "fenced":
                registry.counter("broker_fenced_events_total").inc()
        state = queue.state
        registry.gauge("broker_queue_depth").set(state.depth())
        registry.gauge("broker_leases_active").set(
            state.active_leases(self.clock()))
        registry.gauge("broker_artifacts_stored").set(self._artifacts_stored)

    # -- idempotency ----------------------------------------------------

    def _idem_lookup(self, request: dict) -> tuple[int, str, bytes] | None:
        idem = request.get("idem")
        if not isinstance(idem, str) or not idem:
            return None
        cached = self._idem.get(idem)
        if cached is not None:
            self.obs.registry.counter("broker_idempotent_replays_total").inc()
            self._idem.move_to_end(idem)
        return cached

    def _idem_store(self, request: dict,
                    response: tuple[int, str, bytes]) -> tuple[int, str, bytes]:
        idem = request.get("idem")
        if isinstance(idem, str) and idem:
            self._idem[idem] = response
            while len(self._idem) > _IDEMPOTENCY_CACHE_SIZE:
                self._idem.popitem(last=False)
        return response

    # -- verbs ----------------------------------------------------------

    def _handle_attach(self, request: dict) -> tuple[int, str, bytes]:
        create = bool(request.get("create"))
        identity = request.get("identity")
        lease_s = request.get("lease_s")
        with self._mutex:
            queue = self._ensure_queue(
                create=create,
                identity=None if identity is None else str(identity),
                lease_s=None if lease_s is None else float(lease_s))
            if queue is None:
                return self._ok({"ready": False, "now": self.clock(),
                                 "draining": self.draining,
                                 "protocol": BROKER_PROTOCOL_VERSION})
            return self._ok(self._snapshot())

    def _handle_submit(self, request: dict) -> tuple[int, str, bytes]:
        key = tuple(request["key"])
        digest = str(request["payload_digest"])
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._error(409, "no spool yet: the coordinator must "
                                        "attach with create=true first")
            existing = self._key_to_seq.get(key)
            if existing is not None:
                return self._ok({"seq": existing, **self._snapshot()})
            if not self.store.has(digest):
                return self._error(
                    409, f"task payload artifact {digest} was never "
                         f"uploaded; PUT /v1/artifacts/{digest} first")
            queue.catch_up()
            seq = max(queue.state.tasks, default=-1) + 1
            queue.submit_at(seq, key, digest)
            self._key_to_seq[key] = seq
            return self._ok({"seq": seq, **self._snapshot()})

    def _handle_seal(self, request: dict) -> tuple[int, str, bytes]:
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._error(409, "no spool yet; nothing to seal")
            queue.close()
            self.obs.events.emit("broker.sealed",
                                 total=queue.state.total)
            return self._ok(self._snapshot())

    def _handle_claim(self, request: dict) -> tuple[int, str, bytes]:
        worker = str(request["worker"])
        lease_s = float(request["lease_s"])
        with self._mutex:
            cached = self._idem_lookup(request)
            if cached is not None:
                return cached
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"claim": None, "ready": False,
                                 "now": self.clock(),
                                 "draining": self.draining,
                                 "protocol": BROKER_PROTOCOL_VERSION})
            claim = queue.claim(worker, lease_s)
            payload: dict = {"claim": None}
            if claim is not None:
                payload["claim"] = {
                    "seq": claim.seq, "token": claim.token,
                    "worker": claim.worker, "key": list(claim.key),
                    "payload_digest": claim.payload,
                }
                self.obs.events.emit("broker.claim", severity="debug",
                                     run_key=claim.key, worker=worker,
                                     token=claim.token, seq=claim.seq)
            payload.update(self._snapshot())
            return self._idem_store(request, self._ok(payload))

    def _claim_handle(self, request: dict) -> Claim:
        """A fencing-credentials-only claim for heartbeat/complete."""
        return Claim(seq=int(request["seq"]), token=int(request["token"]),
                     worker=str(request.get("worker", "")),
                     key=tuple(request.get("key") or ()), payload="")

    def _handle_heartbeat(self, request: dict) -> tuple[int, str, bytes]:
        lease_s = float(request["lease_s"])
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"ok": False})
            ok = queue.heartbeat(self._claim_handle(request), lease_s)
            return self._ok({"ok": ok, "now": self.clock()})

    def _handle_complete(self, request: dict) -> tuple[int, str, bytes]:
        digest = str(request["payload_digest"])
        with self._mutex:
            cached = self._idem_lookup(request)
            if cached is not None:
                return cached
            queue = self._ensure_queue()
            if queue is None:
                return self._error(409, "no spool yet; nothing to complete")
            claim = self._claim_handle(request)
            task = queue.state.tasks.get(claim.seq)
            if task is not None and task.done and task.token == claim.token:
                # State-derived replay: this very lease already committed
                # its completion (the earlier response was lost in
                # flight); acknowledging again is the exactly-once
                # contract, not a new event.
                return self._idem_store(request, self._ok({"ok": True}))
            if not self.store.has(digest):
                return self._idem_store(request, self._ok({
                    "ok": False,
                    "reason": f"completion artifact {digest} missing; "
                              f"outcome discarded (the run will be "
                              f"re-leased)"}))
            ok = queue.complete(claim, digest)
            if not ok:
                self.obs.registry.counter(
                    "broker_completions_fenced_total").inc()
                self.obs.events.emit("broker.completion_fenced",
                                     severity="warning", seq=claim.seq,
                                     token=claim.token,
                                     worker=claim.worker or None)
            return self._idem_store(request, self._ok({"ok": ok}))

    def _handle_worker_heartbeat(self,
                                 request: dict) -> tuple[int, str, bytes]:
        worker = str(request["worker"])
        ttl_s = float(request["ttl_s"])
        run_key = request.get("run_key")
        token = request.get("token")
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"ok": False})
            queue.write_worker_heartbeat(
                worker, ttl_s,
                run_key=tuple(run_key) if run_key is not None else None,
                token=None if token is None else int(token))
            return self._ok({"ok": True, "now": self.clock()})

    def _handle_sync(self, request: dict) -> tuple[int, str, bytes]:
        offset = int(request.get("offset", 0))
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"events": "", "next_offset": offset,
                                 "status": self._snapshot()})
            queue.expire_overdue()
            chunk, next_offset = queue.read_raw(offset)
            return self._ok({"events": chunk.decode("utf-8"),
                             "next_offset": next_offset,
                             "status": self._snapshot()})

    # -- artifact plane -------------------------------------------------

    def _handle_artifact_put(self, digest: str,
                             body: bytes) -> tuple[int, str, bytes]:
        if self.draining:
            return self._error(503, "broker draining (shutting down)")
        stored_before = self.store.has(digest)
        try:
            self.store.put(body, digest=digest)
        except ValueError as error:
            # The body does not hash to its name: mangled in flight.
            # 400 is retryable client-side — resending the intact blob
            # succeeds.
            return self._error(400, str(error))
        if not stored_before:
            with self._mutex:
                self._artifacts_stored += 1
            self.obs.registry.counter("broker_artifacts_stored_total").inc()
            self.obs.registry.counter("broker_artifact_bytes_total").inc(
                len(body))
        return self._ok({"ok": True, "stored": not stored_before})

    def _handle_artifact_get(self, digest: str) -> tuple[int, str, bytes]:
        data = self.store.get(digest)
        if data is None:
            return self._error(404, f"no artifact {digest}")
        return 200, _BINARY_TYPE, data


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


def serve_broker(broker: CampaignBroker, port: int, host: str = "127.0.0.1",
                 request_timeout_s: float = 30.0) -> HardenedHTTPServer:
    """Bind ``broker.handle`` to the hardened HTTP server
    (:func:`repro.obs.http.serve`; ``port=0`` picks a free one).

    The caller owns the returned server (``serve_forever()`` /
    ``shutdown()``); ``repro broker serve`` blocks on it, tests run it
    in a thread.  Draining answers 503 with ``Retry-After``.
    """
    return serve(broker.handle, port, host=host,
                 request_timeout_s=request_timeout_s)
